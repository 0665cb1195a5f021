(** Pass-fused cache-blocked column engine (paper §4.6-§4.7, fused).

    The decomposed C2R sequence ends with two column-wise passes — the
    cycle-following column rotation of §4.6 and the shared row permutation
    of §4.7. Both are column-local: the final contents of columns
    [lo..lo+w-1] depend only on the original contents of those columns. A
    sweep-at-a-time implementation therefore streams the whole matrix
    through the cache twice; this engine instead visits each [width]-column
    panel {e once} and runs all of its column-wise work — coarse rotate,
    fine residual rotate, cycle-following permutation — while the panel is
    resident. Same element operations, one fewer full-matrix sweep.

    Scratch (line / head / block / Theorem-6 tmp buffers) comes from a
    {!Xpose_core.Workspace} so repeated transposes and batch workers
    allocate it once. The full engines memoize plans through
    {!Xpose_core.Plan.Cache} and emit one "pass" span per logical pass
    plus one "panel" span per panel visit (see {!Xpose_obs.Tracer.panel});
    predicted touches use the panel-residency DRAM model of
    {!Xpose_core.Pass_cost.fused_col}.

    This functor is the element-generic reference: {!Xpose_cpu.Cache_aware}
    re-exports its unfused sweeps with their historical interface, and
    {!Xpose_cpu.Par_cache_aware} runs its fused visits on a pool. The
    float64 fast path, {!Xpose_cpu.Fused_f64}, runs each column pass as
    one stage-and-gather sweep instead. *)

module Make (S : Xpose_core.Storage.S) : sig
  module Ws : module type of Xpose_core.Workspace.Make (S)

  type buf = S.t

  val default_width : int
  (** Columns per panel; 16 float64 elements span a typical 128-byte
      line. *)

  val default_block_rows : int
  (** Rows per strip of the fine rotation phase (64). *)

  val cycles :
    whom:string -> m:int -> index:(int -> int) -> int array array
  (** The nontrivial cycles of the permutation [row_i <- row_{index i}]
      of [[0, m)], each in gather-chain order ([chain.(t+1) = index
      chain.(t)]). Discovered once, shared by every panel.
      @raise Invalid_argument (prefixed with [whom]) if [index] is not a
      permutation of [[0, m)]. *)

  (** {1 Unfused sweeps}

      Drop-in replacements for the corresponding
      [Algo.Make(S).Phases] passes over the column range [[lo, hi)]
      (default all columns). *)

  val rotate_columns :
    ?panel_width:int ->
    ?block_rows:int ->
    ?ws:Ws.t ->
    ?lo:int ->
    ?hi:int ->
    Xpose_core.Plan.t ->
    buf ->
    amount:(int -> int) ->
    unit
  (** Rotate every column [j] by [amount j] (gather convention), one
      panel at a time: coarse anchored rotation by cycle following, then
      the blocked fine pass for the bounded residuals. Panels whose
      residuals cannot be bounded below [width] fall back to per-column
      rotation, so any [amount] is correct. *)

  val permute_cols :
    ?panel_width:int ->
    ?ws:Ws.t ->
    ?lo:int ->
    ?hi:int ->
    Xpose_core.Plan.t ->
    buf ->
    cycles:int array array ->
    unit
  (** Apply previously discovered {!cycles} to the column range, moving
      sub-rows panel by panel. *)

  val permute_rows :
    ?panel_width:int ->
    ?ws:Ws.t ->
    ?lo:int ->
    ?hi:int ->
    Xpose_core.Plan.t ->
    buf ->
    index:(int -> int) ->
    unit
  (** {!cycles} + {!permute_cols}.
      @raise Invalid_argument if [index] is not a permutation. *)

  (** {1 Fused panel visits}

      One pass over the column range doing {e all} column-wise work of
      the C2R (resp. R2C) sequence per panel. [cycles] must be the cycles
      of [Plan.q] (resp. [Plan.q_inv]). Any split of [[lo, hi)] across
      callers is equally correct: panels are independent, so parallel
      drivers partition the range and share [cycles]. *)

  val c2r_cols :
    ?panel_width:int ->
    ?block_rows:int ->
    ?ws:Ws.t ->
    ?lo:int ->
    ?hi:int ->
    Xpose_core.Plan.t ->
    buf ->
    cycles:int array array ->
    unit
  (** Per panel: rotate columns by [amount j = j], then permute rows —
      equivalent to [rotate_columns ~amount:(fun j -> j)] followed by
      [permute_rows ~index:(Plan.q p)] but with one panel residency. *)

  val r2c_cols :
    ?panel_width:int ->
    ?block_rows:int ->
    ?ws:Ws.t ->
    ?lo:int ->
    ?hi:int ->
    Xpose_core.Plan.t ->
    buf ->
    cycles:int array array ->
    unit
  (** Inverse order: permute rows (cycles of [Plan.q_inv]), then rotate
      columns by [amount j = -j]. *)

  (** {1 Full engines} *)

  val c2r :
    ?panel_width:int ->
    ?block_rows:int ->
    ?ws:Ws.t ->
    Xpose_core.Plan.t ->
    buf ->
    unit
  (** Full C2R transposition: pre-rotation (skipped when coprime), row
      shuffle, then the fused column phase. Scratch comes from [ws]
      (fresh workspace per call when omitted).
      @raise Invalid_argument if the buffer size does not match the
      plan. *)

  val r2c :
    ?panel_width:int ->
    ?block_rows:int ->
    ?ws:Ws.t ->
    Xpose_core.Plan.t ->
    buf ->
    unit
  (** Inverse of {!c2r}. *)

  val transpose :
    ?order:Xpose_core.Layout.order ->
    ?panel_width:int ->
    ?block_rows:int ->
    ?ws:Ws.t ->
    ?cache:Xpose_core.Plan.Cache.t ->
    m:int ->
    n:int ->
    buf ->
    unit
  (** In-place transpose of an [m x n] matrix, routing through {!c2r} or
      {!r2c} so the row shuffle runs on the long dimension (same policy
      as [Algo.Make(S).transpose]). Plans come from [cache] (default
      {!Xpose_core.Plan.Cache.default}). *)
end

(** Symbolic access summaries of the panel primitives (free basis:
    m, n >= 1; parameters w in [1, n], lo in [0, n - w], and the fine
    phase's block_rows >= 1 and maxres in [1, min(w, m) - 1]), shared
    by every [Make] instantiation. The cycle-
    following phases are proven supersets; [fine] keeps the head-wrap
    reads precise. *)
module Summary : sig
  val panel_params : Xpose_core.Access.param list
  val coarse : Xpose_core.Access.summary
  val fine : Xpose_core.Access.summary

  val permute : Xpose_core.Access.summary
  val panel_passes : Xpose_core.Access.summary list

  val c2r_passes : Xpose_core.Access.summary list
  (** Every summary the fused C2R pipeline touches (panel phases, kernel
      rotate fallback, kernel row shuffle), each sub-range-quantified so
      serial, pool, and batch schedules are all covered. *)

  val r2c_passes : Xpose_core.Access.summary list
end
