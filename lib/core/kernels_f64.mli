(** The float64 transposition engine.

    [Algo.Make (Storage.Float64)] is element-generic: every access goes
    through the functor parameter and cannot be inlined to a direct
    memory operation. This module runs the same decomposition (C2R:
    pre-rotation when [gcd(m, n) > 1], row shuffle, column shuffle; R2C
    its inverse) monomorphically over float64 bigarrays, so the compiler
    emits direct unboxed loads and stores. It is the one f64 engine:
    [Xpose_cpu.Fused_f64] runs its serial engine and drives its passes
    over a pool, [Xpose_mmap.File_matrix] runs it on mapped files, and
    [Xpose_ooc.Ooc_f64] runs its phases on file windows. Semantics are
    asserted identical to the functor by the test suite.

    The row passes index each row by the division-free {!Plan.walk}.
    Every column pass ([rotate_pre], [fused_col], [rotate_post]) is one
    stage-and-gather sweep ({!Phases.gather_cols}): each staging of at
    most [w = stage_width ~m ~panel_width] columns is copied into the
    scratch in one row-order read sweep and written back through the
    pass's map in one row-order write sweep. The [fused_col] pass
    applies the paper's [s'] (rotation by [j] and row permutation [q],
    Eqs. 26 and 32-33) in that one visit. *)

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
    holds at least [n] elements. *)

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
    moves, so a staging holds at most [max m stage_elems] elements.
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
    signature; {!Engine_of} builds the engine from either. *)
module type PHASES = sig
  val gather_cols : col_pass
  (** Stage and gather: every column pass. *)

  val row_shuffle_gather : row_pass
  (** Gather through [d'_inv] (Eq. 31): the C2R row shuffle. *)

  val row_shuffle_ungather : row_pass
  (** Gather through [d']: the R2C inverse of {!row_shuffle_gather}. *)
end

module Phases : PHASES
(** The raw unsafe passes: direct unboxed loads and stores, no checks. *)

val default_width : int
(** 16: the staging width cap, [?panel_width]'s default. A float64
    sub-row of 16 spans a typical 128-byte line pair. *)

(** The engine, shared by the raw (top level) and checked ({!Checked})
    instantiations. Scratch comes from a {!Workspace.F64} (a fresh one
    per call when [ws] is absent): its [tmp] holds a staging or a row,
    its [idx] a staging's offsets or a row's walk indices, so one
    workspace holds at most [max (m * w) (max m n)] floats and
    [max w n] ints, where [m * w <= max m stage_elems]. *)
module type ENGINE = sig
  (** {1 The pass order}

      The C2R and R2C pass sequences, written once: each pass opens one
      ["pass"] span ([rotate_pre] / [row_shuffle] / [fused_col], and
      [fused_col] / [row_unshuffle] / [rotate_post]) and hands its work
      to a runner. [cols] runs one column pass over every column, [rows]
      one row pass over every row; the serial engine below runs them on
      one workspace, the fused engine's drivers over a pool. [width]
      prices the rotations' stagings. Degenerate [m = 1] or [n = 1]
      plans run no pass. *)

  val c2r_passes :
    Plan.t ->
    width:int ->
    cols:(col_map -> unit) ->
    rows:(row_pass -> unit) ->
    unit

  val r2c_passes :
    Plan.t ->
    width:int ->
    cols:(col_map -> unit) ->
    rows:(row_pass -> unit) ->
    unit

  (** {1 Serial engine} *)

  val gather_cols :
    ?panel_width:int ->
    ?ws:Workspace.F64.t ->
    ?lo:int ->
    ?hi:int ->
    Plan.t ->
    buf ->
    col_map ->
    unit
  (** One column pass over the column range [[lo, hi)] (default all
      columns), in stagings of [stage_width ~m ~panel_width] columns.
      @raise Invalid_argument on a bad range. *)

  val c2r : ?panel_width:int -> ?ws:Workspace.F64.t -> Plan.t -> buf -> unit
  (** Same result as [Algo.Make(Storage.Float64).c2r]. [panel_width]
      (default {!default_width}) caps the staging width.
      @raise Invalid_argument if the buffer size does not match the
      plan. *)

  val r2c : ?panel_width:int -> ?ws:Workspace.F64.t -> Plan.t -> buf -> unit
  (** Same result as [Algo.Make(Storage.Float64).r2c]. *)

  val transpose :
    ?ws:Workspace.F64.t -> ?order:Layout.order -> m:int -> n:int -> buf -> unit
  (** Same contract as [Algo.Make(Storage.Float64).transpose]. When [ws]
      is given the scratch comes from the workspace (grown once, reused
      across calls) instead of a fresh allocation per call. *)
end

module Engine_of (P : PHASES) : ENGINE
(** The pass order and the serial engine over any {!PHASES}. One
    indirect call per staging or row pass, never per element, so
    [Engine_of (Phases)] runs at full speed. *)

include ENGINE

(** Checked-access shadow mode ({!Checked_access}): the same engine with
    every matrix and scratch access bounds-verified, every index-equation
    result ([d'], [d'_inv]) and every staging offset range-verified, and
    the scratch verified distinct from the matrix buffer. Raises
    {!Checked_access.Violation} on the first bad access instead of
    corrupting memory. Selected by tests (run the suite once under
    checking) and by [xpose check --shadow]. *)
module Checked : sig
  module Phases : PHASES

  include ENGINE
end

(** {1 Access summaries}

    The {!Access} summaries of the passes this engine runs, each
    sub-range and staging quantified, so one certificate covers the
    serial, pool, batch and out-of-core schedules. The checked phases'
    traces are diffed against them. *)

val c2r_access : Access.summary list
(** The C2R pipeline: staged rotation, walk row shuffle, staged
    shuffle. *)

val r2c_access : Access.summary list
(** The R2C pipeline: staged unshuffle, walk row unshuffle, staged
    rotation. *)

val stage_access : Access.summary list
(** The three stage-and-gather summaries. *)
