(** The float64 transposition engine: the fast path.

    The decomposed C2R sequence (pre-rotation when [gcd(m, n) > 1], row
    shuffle, column shuffle) and its R2C inverse, written directly over
    float64 bigarrays. The row passes are {!Xpose_core.Kernels_f64}'s
    walk movers; every column pass ([rotate_pre], [fused_col],
    [rotate_post]) is one stage-and-gather sweep
    ({!Xpose_core.Kernels_f64.Phases.gather_cols}): each staging of at
    most [w = stage_width ~m ~panel_width] columns is copied into the
    lane's scratch in one row-order read sweep and written back through
    the pass's map in one row-order write sweep. The [fused_col] pass
    applies the paper's [s'] (rotation by [j] and row permutation [q],
    Eqs. 26 and 32-33) in that one visit. Semantics are asserted
    identical to the element-generic oracle by the test suite.

    Three ways to run it:
    - serial: {!c2r}/{!r2c}/{!transpose} — one domain, one workspace;
    - panel-parallel: {!c2r_pool}/{!r2c_pool}/{!transpose_pool} — one
      matrix, whole stagings partitioned across a {!Pool};
    - batched: {!transpose_batch} — many same-shape matrices, fanned
      matrix-parallel across the pool (or panel-parallel per matrix when
      the batch is smaller than the pool).

    All engines take scratch from a {!Xpose_core.Workspace.F64} (created
    per call when omitted): a lane's staging holds at most
    [max m Kernels_f64.stage_elems] elements. Plans are memoized through
    {!Xpose_core.Plan.Cache}. Observability: one "pass" span per logical
    pass ([rotate_pre] / [row_shuffle] / [fused_col] and inverses), one
    "panel" span per staging.

    {!Checked} is the checked-access shadow mode: the same engine with
    every access bounds-verified
    ({!Xpose_core.Checked_access.Violation} on the first bad one). *)

type buf = Xpose_core.Storage.Float64.t

module Ws = Xpose_core.Workspace.F64

val default_width : int
(** 16: the staging width cap ([?panel_width] default). *)

val supported_widths : int list
(** The panel widths the autotuner searches and the check layer
    verifies; any positive [?panel_width] remains accepted and
    correct. *)

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

  (** {1 Serial engines}

      [panel_width] (default 16) caps the staging width. [block_rows]
      and [tier] are accepted and ignored: the staged column passes
      have no strip height or micro-kernel tier to select. *)

  val c2r :
    ?panel_width:int ->
    ?block_rows:int ->
    ?tier:Xpose_core.Tune_params.kernel_tier ->
    ?ws:Ws.t ->
    Xpose_core.Plan.t ->
    buf ->
    unit
  (** @raise Invalid_argument if the buffer size does not match the
      plan. *)

  val r2c :
    ?panel_width:int ->
    ?block_rows:int ->
    ?tier:Xpose_core.Tune_params.kernel_tier ->
    ?ws:Ws.t ->
    Xpose_core.Plan.t ->
    buf ->
    unit

  val transpose :
    ?order:Xpose_core.Layout.order ->
    ?panel_width:int ->
    ?block_rows:int ->
    ?tier:Xpose_core.Tune_params.kernel_tier ->
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
    ?block_rows:int ->
    ?tier:Xpose_core.Tune_params.kernel_tier ->
    ?workspaces:Ws.t array ->
    Pool.t ->
    Xpose_core.Plan.t ->
    buf ->
    unit

  val r2c_pool :
    ?panel_width:int ->
    ?block_rows:int ->
    ?tier:Xpose_core.Tune_params.kernel_tier ->
    ?workspaces:Ws.t array ->
    Pool.t ->
    Xpose_core.Plan.t ->
    buf ->
    unit

  val transpose_pool :
    ?order:Xpose_core.Layout.order ->
    ?panel_width:int ->
    ?block_rows:int ->
    ?tier:Xpose_core.Tune_params.kernel_tier ->
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
    ?split:Xpose_core.Tune_params.batch_split ->
    ?panel_width:int ->
    ?block_rows:int ->
    ?tier:Xpose_core.Tune_params.kernel_tier ->
    ?cache:Xpose_core.Plan.Cache.t ->
    Pool.t ->
    m:int ->
    n:int ->
    buf array ->
    unit
  (** [transpose_batch pool ~m ~n bufs] transposes every matrix of the
      same-shape batch in place. [split] (default
      {!Xpose_core.Tune_params.Auto}) decides the parallelism: under
      [Auto], when the batch has at least as many matrices as the pool
      has lanes, lanes take contiguous slices of the batch and run the
      serial engine (one plan, one workspace per lane), and smaller
      batches run each matrix panel-parallel instead;
      [Matrix_parallel] / [Panel_parallel] force one side, and
      [Hybrid t] switches at batch size [t]. A single-lane pool always
      runs the serial engine per matrix. Every policy computes the same
      result — the autotuner picks whichever is fastest for the shape.
      The whole batch is validated before any element moves.
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

module Summary : sig
  val c2r_passes : Xpose_core.Access.summary list
  (** Every summary the C2R pipeline runs: the staged rotation and
      shuffle and the walk row shuffle, each sub-range quantified so the
      serial, pool and batch schedules are all covered. *)

  val r2c_passes : Xpose_core.Access.summary list

  val all : Xpose_core.Access.summary list
  (** The three stage-and-gather summaries. *)
end
