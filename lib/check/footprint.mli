(** Static race analysis of the parallel drivers' chunk footprints.

    Each parallel pass is a barrier: the pool splits an index range into
    per-lane chunks (with {!Xpose_cpu.Pool.chunk_bounds}) and every chunk
    reads/writes a set of flat-index regions. This module rebuilds those
    regions symbolically as strided {e atoms} and proves, pairwise and
    exactly, that no two chunks of a barrier have write/write or
    write/read overlap and that no two chunks share a scratch buffer.
    Nothing here touches matrix data.

    The overlap test is exact (no interval coarsening): a reported
    {!conflict} is a genuine overlap with a witness index, and a clean
    verdict is a disjointness proof for the modeled footprints. *)

type atom = { base : int; width : int; stride : int; count : int }
(** The index set [U_{k < count} [base + k*stride, base + k*stride +
    width)] — a panel of [count] rows of [width] columns at row pitch
    [stride]. [count = 1] (or [width = stride]) degenerates to a plain
    interval. *)

val interval : lo:int -> hi:int -> atom
(** The contiguous range [[lo, hi)]. *)

val columns : m:int -> n:int -> lo:int -> hi:int -> atom
(** Columns [[lo, hi)] of a row-major [m x n] matrix. *)

val block_slots : reps:int -> block:int -> lo:int -> hi:int -> atom
(** Slots [[lo, hi)] of each of [reps] consecutive [block]-wide units —
    the footprint of [Par_permute]'s block-axis split. *)

val overlap : atom -> atom -> int option
(** Smallest-witness test: [Some l] is a flat index covered by both
    atoms, [None] a proof of disjointness. Exact for every stride
    combination (equal strides solve a divisibility window; unequal
    strides materialize the smaller atom). *)

type chunk = { id : int; writes : atom list; reads : atom list; scratch : int }
(** One lane's footprint in one barrier. [scratch] identifies the
    workspace buffer the chunk uses (distinct ids = distinct buffers). *)

type barrier = { name : string; chunks : chunk list }

type kind = Write_write | Write_read | Scratch_shared

type conflict = {
  barrier : string;
  kind : kind;
  chunk_a : int;
  chunk_b : int;
  index : int;  (** witness flat index ([scratch] id for [Scratch_shared]) *)
}

val kind_name : kind -> string
val pp_conflict : Format.formatter -> conflict -> unit

val check_barrier : barrier -> conflict option
(** First conflict in (lower id, higher id) pair order — the same
    deterministic order [Pool.parallel_chunks] reports chunk failures
    in — or [None] if all pairwise footprints are disjoint. *)

val check : barrier list -> conflict option
(** First conflict across a pass sequence of barriers. *)

(** {1 Chunk splits} *)

type split = lo:int -> hi:int -> chunks:int -> int -> int * int
(** Same shape as {!Xpose_cpu.Pool.chunk_bounds}: the bounds of chunk
    [k]. *)

val pool_split : split
(** The split the pool actually executes ([Pool.chunk_bounds]). *)

val off_by_one_split : split
(** The deliberately broken split for the negative CI test: every chunk
    but the last claims one extra trailing element (the classic
    inclusive-[hi] partitioning bug). The analyzer must report a
    write/write conflict under this split. *)

(** {1 Barrier models of the parallel drivers} *)

val default_panel_width : int

val pooled_engines : Spec.engine list
(** The engines with a pool driver, in {!Spec.all_engines} order:
    [Functor] and [Decomposed] ([Par_transpose]) and [Fused]
    ([Fused_f64]). [Cache] runs serially only. *)

val transpose_barriers :
  ?split:split ->
  ?width:int ->
  engine:Spec.engine ->
  lanes:int ->
  m:int ->
  n:int ->
  unit ->
  barrier list
(** The barrier sequence the engine's parallel driver executes for an
    [m x n] transpose on [lanes] workers: row/column chunking for
    [Functor]/[Decomposed] ([Par_transpose]), staging-width group
    chunking for [Fused] ([Fused_f64]'s pool driver).
    @raise Invalid_argument for [Cache], which has no pool driver. *)

val batch_barriers :
  ?split:split ->
  ?width:int ->
  lanes:int ->
  m:int ->
  n:int ->
  nb:int ->
  unit ->
  barrier list
(** [Fused_f64.transpose_batch]: whole-matrix batch chunking when the
    batch has at least one matrix per lane ([nb >= lanes], always when
    [lanes = 1]), per-matrix panel parallelism otherwise -- the same
    decision rule the engine runs. *)

val ooc_barriers :
  ?split:split ->
  ?window_split:Xpose_ooc.Window.splitter ->
  ?width:int ->
  lanes:int ->
  m:int ->
  n:int ->
  window_bytes:int ->
  unit ->
  barrier list
(** [Xpose_ooc.Ooc_f64.transpose_file] under a [window_bytes] budget:
    window-granular barriers proving the row-window, column-panel and
    gather/scatter-stripe splits cover the file without overlap (each
    window is one chunk with its own mapping), plus the per-window pool
    barriers the engine runs inside them — the row shuffle split across
    a window's rows, and the staged panel passes split across a panel's
    columns (in staging coordinates). [window_split] swaps the windowing
    policy; seeding {!Xpose_ooc.Window.overlapping_split} must produce a
    write/write conflict between adjacent windows. Matrices fitting the
    budget delegate to the fused engine's panel model; degenerate
    matrices run no pass and have no barriers. *)

val permute_pass_barriers :
  ?split:split ->
  lanes:int ->
  Xpose_permute.Decompose.pass ->
  unit ->
  barrier list
(** [Par_permute.transpose] on one planner pass: row/column barriers for
    the flat case, batch-axis chunking for batched passes, block-axis
    strided chunking for wide single blocks. *)

val permute_barriers :
  ?split:split ->
  lanes:int ->
  Xpose_permute.Permute.plan ->
  unit ->
  barrier list
(** All barriers of a full planner pipeline, in execution order. *)
