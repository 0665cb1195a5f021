(** Specialized float64 kernels.

    [Algo.Make (Storage.Float64)] is element-generic: every access goes
    through the functor parameter and cannot be inlined to a direct
    memory operation. This module reimplements the same passes
    monomorphically over float64 bigarrays so the compiler emits direct
    unboxed loads and stores — the implementation a performance-conscious
    user should call, and the one the CPU benchmarks (Figure 3 / Table 1)
    measure. Semantics are identical to the functor (asserted by the test
    suite over random shapes).

    All phase functions view the buffer as row-major [m x n] per the
    plan, and take half-open ranges so parallel drivers can partition
    work. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type row_pass =
  Plan.t ->
  buf ->
  tmp:buf ->
  idx:int array ->
  row0:int ->
  lo:int ->
  hi:int ->
  unit
(** A row pass over rows [[lo, hi)]. Row [i] of the matrix starts at
    [(i - row0) * n] in the buffer, while the index maps are evaluated at
    the global [i]: in-RAM callers pass [row0 = 0], the out-of-core
    engine the first row of the mapped window. [idx] is the row of
    {!Plan.walk} indices (at least [n] long, contents scratch); [tmp]
    holds at least [n] elements. This is the only row-shuffle code the
    f64 engines run: [Xpose_cpu.Fused_f64] and [Xpose_ooc.Ooc_f64] call
    these phases. *)

(** {1 Column passes: stage and gather}

    Every column pass of the decomposition gathers inside columns: row
    [i] of column [j] takes row [src(i, j)] of the same column. *)

type col_map
(** A column pass's [src(i, j)], with any row-permutation table it
    reads. *)

val rotate : (int -> int) -> col_map
(** [rotate amount]: [src(i, j) = (i + amount j) mod m], the rotations
    [r_j] and [r_j^-1] (Eqs. 23, 36). *)

val shuffle : Plan.t -> col_map
(** The C2R column shuffle [s'(i, j) = (q(i) + j) mod m] (Eqs. 26,
    32-33); builds the [m]-entry [q] table. *)

val unshuffle : Plan.t -> col_map
(** Its R2C inverse [q^-1((i - j) mod m)] (Eqs. 34-35); builds the
    [m]-entry [q^-1] table. *)

val stage_elems : int
(** [2^18]: the scratch budget B in elements that fixes the staging
    width. *)

val stage_width : m:int -> panel_width:int -> int
(** [min panel_width (max 1 (stage_elems / m))]: the columns one staging
    moves, so a lane's scratch holds at most [max m stage_elems]
    elements.
    @raise Invalid_argument if [panel_width < 1]. *)

type col_pass =
  Plan.t ->
  buf ->
  stage:buf ->
  idx:int array ->
  map:col_map ->
  pitch:int ->
  col0:int ->
  width:int ->
  lo:int ->
  hi:int ->
  unit
(** A column pass over the global columns [[lo, hi)]. Row [i] of column
    [j] sits at [i * pitch + (j - col0)] in the buffer, while the map is
    evaluated at the global [j]: in-RAM callers pass [pitch = n] and
    [col0 = 0], the out-of-core engine its staging's width and first
    column. The range is cut into stagings of at most [width] columns
    (one ["panel"] span each); a staging of [w] columns copies them into
    [stage] (at least [m * w] elements) in one row-order sweep, then
    writes every row back from the [stage] rows the map names, in a
    second row-order sweep. [idx] (at least [w] long, contents scratch)
    holds one row's scratch offsets.
    @raise Invalid_argument if [width < 1], the range is outside
    [[col0, col0 + pitch)], the buffer holds fewer than [m * pitch]
    elements, the scratch is too small, or a map table is not [m]
    long. *)

(** The permutation passes. Both the raw unsafe implementation
    ({!Phases}) and its checked twin ({!Checked.Phases}) satisfy this
    signature; {!Engine_of} builds the full engine from either. *)
module type PHASES = sig
  val gather_cols : col_pass
  (** Stage and gather: the column passes of the f64 fused and
      out-of-core engines. *)

  val rotate_columns :
    Plan.t -> buf -> tmp:buf -> amount:(int -> int) -> lo:int -> hi:int -> unit

  val row_shuffle_gather : row_pass
  (** Gather through [d'_inv] (Eq. 31). *)

  val row_shuffle_scatter : row_pass
  (** Scatter through [d'] (Eq. 24); the [C2r_scatter] variant. *)

  val row_shuffle_ungather : row_pass
  (** Gather through [d']: the R2C inverse of {!row_shuffle_gather}. *)

  val col_shuffle_gather : Plan.t -> buf -> tmp:buf -> lo:int -> hi:int -> unit
  val col_shuffle_ungather : Plan.t -> buf -> tmp:buf -> lo:int -> hi:int -> unit

  val permute_rows :
    Plan.t -> buf -> tmp:buf -> index:(int -> int) -> lo:int -> hi:int -> unit
end

module Phases : PHASES
(** The raw unsafe passes: direct unboxed loads and stores, no checks. *)

(** The engine type shared by the raw ({!c2r} / {!r2c} / {!transpose} at
    top level) and checked ({!Checked}) instantiations. *)
module type ENGINE = sig
  val c2r :
    ?variant:Algo.c2r_variant ->
    ?idx:int array ->
    Plan.t ->
    buf ->
    tmp:buf ->
    unit
  (** Same contract as [Algo.Make(Storage.Float64).c2r]. [idx] is the
      row passes' index row (at least [n] long); one is allocated per
      call when it is absent. *)

  val r2c :
    ?variant:Algo.r2c_variant ->
    ?idx:int array ->
    Plan.t ->
    buf ->
    tmp:buf ->
    unit

  val transpose :
    ?ws:Workspace.F64.t -> ?order:Layout.order -> m:int -> n:int -> buf -> unit
  (** Same contract as [Algo.Make(Storage.Float64).transpose]. When [ws]
      is given the Theorem-6 scratch and the index row come from the
      workspace (grown once, reused across calls) instead of a fresh
      allocation per call. *)
end

module Engine_of (P : PHASES) : ENGINE
(** The pass orchestration (order, variant dispatch, per-pass
    observability spans) over any {!PHASES}. One indirect call per pass,
    never per element, so [Engine_of (Phases)] runs at full speed. *)

include ENGINE

(** Checked-access shadow mode ({!Checked_access}): the same passes with
    every matrix and scratch access bounds-verified, every index-equation
    result ([d'], [d'_inv], [s'], [s'_inv], permutation indices)
    range-verified, every staging offset range-verified, and the scratch
    verified distinct from the matrix buffer. Raises {!Checked_access.Violation} on the first bad access
    instead of corrupting memory. Selected by tests (run the suite once
    under checking) and by [xpose check --shadow]. *)
module Checked : sig
  module Phases : PHASES

  include ENGINE
end

val c2r_access : Algo.c2r_variant -> Access.summary list
(** {!Algo.c2r_access}: these kernels make the same accesses. Their row
    passes compute the indices by {!Plan.walk} rather than per element;
    the walk is tested equal to the per-element maps exhaustively on
    small shapes, and the checked phases' traces are diffed against these
    summaries. *)

val r2c_access : Algo.r2c_variant -> Access.summary list
(** {!Algo.r2c_access}. *)
