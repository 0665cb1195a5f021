(** Cache-aware restricted column operations (paper §4.6 and §4.7).

    Naive column operations touch one element per cache line. These
    variants operate on groups of [width] adjacent columns so that every
    memory transaction moves a full sub-row:

    - {b rotation} (§4.6) runs in two phases: a coarse in-place rotation of
      whole column groups by a shared amount, performed by cycle following
      on sub-rows (the cycles of a rotation are analytic, so no cycle
      storage is needed), then a fine blocked pass fixing each column's
      bounded residual rotation through a block buffer of 64-row strips;
    - {b row permutation} (§4.7) discovers the cycles of the permutation
      once (they are shared by all columns, at most [m/2] nontrivial
      cycles), then follows them moving sub-rows.

    Both are drop-in replacements for the corresponding
    [Xpose_core.Algo.Make(S).Phases] passes over a column range.

    This functor is the element-generic paper reference: each sweep
    streams the matrix once and emits one "panel" span per column group.
    The float64 serving engine, {!Xpose_cpu.Fused_f64}, runs each column
    pass as one stage-and-gather sweep instead. Scratch buffers come from
    an optional {!Xpose_core.Workspace}; when omitted, each call
    allocates its own. *)

module Make (S : Xpose_core.Storage.S) : sig
  module Ws : module type of Xpose_core.Workspace.Make (S)

  type buf = S.t

  val default_width : int
  (** Columns per group; chosen so a float64 sub-row spans a typical
      128-byte line (16 elements). *)

  val rotate_columns :
    ?width:int ->
    ?ws:Ws.t ->
    ?lo:int ->
    ?hi:int ->
    Xpose_core.Plan.t ->
    buf ->
    amount:(int -> int) ->
    unit
  (** [rotate_columns p buf ~amount] rotates every column [j] by
      [amount j], equivalently to [Algo.Phases.rotate_columns] over
      the column range [[lo, hi)] (default all columns; any split of the
      range is equally correct — grouping only affects locality). The
      coarse amount of each group is anchored so residuals
      stay in [[0, width)] for monotone amount functions (both [j/b] and
      [j] families from the paper); groups whose residuals cannot be
      bounded fall back to per-column rotation, so any [amount] is
      correct.
      @raise Invalid_argument on a bad column range. *)

  val permute_rows :
    ?width:int ->
    ?ws:Ws.t ->
    ?lo:int ->
    ?hi:int ->
    Xpose_core.Plan.t ->
    buf ->
    index:(int -> int) ->
    unit
  (** [permute_rows p buf ~index] applies the gather permutation
      [row_i <- row_{index i}] to all columns, equivalently to
      [Algo.Phases.permute_rows] over the column range. [index] must be a
      permutation of [[0, m)] (checked while building cycles).
      @raise Invalid_argument if [index] is not a permutation. *)

  val c2r :
    ?width:int -> ?ws:Ws.t -> Xpose_core.Plan.t -> buf -> tmp:buf -> unit
  (** C2R transposition using cache-aware passes for every column
      operation (the decomposed §4.1 form); the paper's GPU implementation
      structure (§5.2) on a CPU. Line/head/block scratch is allocated once
      per call (or taken from [ws]); [tmp] holds the Theorem-6 row
      scratch. *)

  val r2c :
    ?width:int -> ?ws:Ws.t -> Xpose_core.Plan.t -> buf -> tmp:buf -> unit
  (** Inverse of {!c2r}. *)
end

(** Symbolic access summaries of the panel primitives (free basis:
    m, n >= 1; parameters w in [1, n], lo in [0, n - w], and the fine
    phase's block_rows >= 1 and maxres in [1, min(w, m) - 1]), shared
    by every [Make] instantiation. The cycle-following phases are
    proven supersets; [fine] keeps the head-wrap reads precise. *)
module Summary : sig
  val coarse : Xpose_core.Access.summary
  val fine : Xpose_core.Access.summary
  val permute : Xpose_core.Access.summary

  val panel_passes : Xpose_core.Access.summary list
  (** [[coarse; fine; permute]]. *)
end
