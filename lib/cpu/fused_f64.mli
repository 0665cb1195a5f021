(** The float64 transposition engine's drivers: plan cache, pool and
    batch.

    The serial engine is {!Xpose_core.Kernels_f64}'s ({!c2r}, {!r2c} and
    {!gather_cols} are its functions): the decomposed C2R sequence
    (pre-rotation when [gcd(m, n) > 1], walk row shuffle, staged column
    shuffle) and its R2C inverse, every column pass one
    stage-and-gather sweep. This module adds:
    - {!transpose}: the serial engine on plans memoized through
      {!Xpose_core.Plan.Cache};
    - panel-parallel: {!c2r_pool}/{!r2c_pool}/{!transpose_pool} — the
      same pass order ({!Xpose_core.Kernels_f64.ENGINE.c2r_passes}) over
      pooled runners: whole stagings partitioned across a {!Pool} for the
      column passes, row ranges for the row passes;
    - batched: {!transpose_batch} — many same-shape matrices, fanned
      matrix-parallel across the pool (or panel-parallel per matrix when
      the batch is smaller than the pool).

    Every driver takes scratch from {!Xpose_core.Workspace.F64}s
    (created per call when omitted): a lane holds at most
    [max (m * w) (max m n)] floats, where
    [m * w <= max m Kernels_f64.stage_elems]. Observability: one "pass"
    span per logical pass ([rotate_pre] / [row_shuffle] / [fused_col]
    and inverses), one "panel" span per staging.

    {!Checked} is the checked-access shadow mode: the same drivers over
    {!Xpose_core.Kernels_f64.Checked}, every access bounds-verified
    ({!Xpose_core.Checked_access.Violation} on the first bad one). *)

type buf = Xpose_core.Storage.Float64.t

module Ws = Xpose_core.Workspace.F64

val default_width : int
(** 16 ({!Xpose_core.Kernels_f64.default_width}): the staging width cap
    ([?panel_width] default). *)

(** The full engine surface, satisfied by both the raw top-level
    operations and the {!Checked} shadow-mode twin. *)
module type ENGINE = sig
  (** {1 Column pass} *)

  val gather_cols :
    ?panel_width:int ->
    ?ws:Ws.t ->
    ?lo:int ->
    ?hi:int ->
    Xpose_core.Plan.t ->
    buf ->
    Xpose_core.Kernels_f64.col_map ->
    unit
  (** One column pass over the column range [[lo, hi)] (default all
      columns), in stagings of [stage_width ~m ~panel_width] columns.
      @raise Invalid_argument on a bad range. *)

  (** {1 Serial engine}

      [panel_width] (default 16) caps the staging width. *)

  val c2r : ?panel_width:int -> ?ws:Ws.t -> Xpose_core.Plan.t -> buf -> unit
  (** {!Xpose_core.Kernels_f64.c2r}.
      @raise Invalid_argument if the buffer size does not match the
      plan. *)

  val r2c : ?panel_width:int -> ?ws:Ws.t -> Xpose_core.Plan.t -> buf -> unit
  (** {!Xpose_core.Kernels_f64.r2c}. *)

  val transpose :
    ?order:Xpose_core.Layout.order ->
    ?panel_width:int ->
    ?ws:Ws.t ->
    ?cache:Xpose_core.Plan.Cache.t ->
    m:int ->
    n:int ->
    buf ->
    unit
  (** In-place transpose of an [m x n] matrix (same C2R/R2C routing policy
      as [Algo.Make(S).transpose]); plans come from [cache] (default
      {!Xpose_core.Plan.Cache.default}). *)

  (** {1 Panel-parallel engines}

      One matrix, column panels partitioned across the pool; the row
      shuffle partitions across rows. [workspaces] supplies per-lane
      scratch indexed by chunk (at least [Pool.workers pool] entries,
      checked); created per call when omitted.
      @raise Invalid_argument on buffer/plan mismatch or short workspace
      array. *)

  val c2r_pool :
    ?panel_width:int ->
    ?workspaces:Ws.t array ->
    Pool.t ->
    Xpose_core.Plan.t ->
    buf ->
    unit

  val r2c_pool :
    ?panel_width:int ->
    ?workspaces:Ws.t array ->
    Pool.t ->
    Xpose_core.Plan.t ->
    buf ->
    unit

  val transpose_pool :
    ?order:Xpose_core.Layout.order ->
    ?panel_width:int ->
    ?workspaces:Ws.t array ->
    ?cache:Xpose_core.Plan.Cache.t ->
    Pool.t ->
    m:int ->
    n:int ->
    buf ->
    unit

  (** {1 Batched transpose} *)

  val transpose_batch :
    ?order:Xpose_core.Layout.order ->
    ?panel_width:int ->
    ?cache:Xpose_core.Plan.Cache.t ->
    Pool.t ->
    m:int ->
    n:int ->
    buf array ->
    unit
  (** [transpose_batch pool ~m ~n bufs] transposes every matrix of the
      same-shape batch in place. When the batch has at least as many
      matrices as the pool has lanes (always so on a single-lane pool),
      lanes take contiguous slices of the batch and run the serial
      engine (one plan, one workspace per lane); smaller batches run
      each matrix panel-parallel instead. The whole batch is validated
      before any element moves.
      @raise Invalid_argument if any buffer size differs from [m * n]. *)
end

include ENGINE

module Checked : ENGINE
(** Checked-access shadow mode: the identical engine with every matrix
    and workspace access bounds-verified and the workspace buffers
    verified distinct from the matrix, raising
    {!Xpose_core.Checked_access.Violation} on the first bad access
    instead of corrupting memory. Selected by tests (run the suite once
    under checking) and by [xpose check --shadow]. *)
