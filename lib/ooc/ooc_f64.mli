(** Windowed out-of-core float64 transposition with bounded residency.

    The same decomposition as {!Xpose_cpu.Fused_f64} — pre-rotation (when
    [gcd(m,n) > 1]), row shuffle, fused column phase, or the inverse
    sequence — restructured so that at any moment only [~window_bytes]
    of the backing file is logically mapped:

    - the {e row phases} stream the file in row windows: each window is
      mapped, every row in it is shuffled through per-lane Theorem-6
      scratch by the in-RAM row passes
      ({!Xpose_core.Kernels_f64.Phases}, given the window's first row as
      [row0]: the index maps are global, so a window is self-contained),
      and the mapping is dropped;
    - the {e column phases} (stride-[n] access) are blocked into
      width-bounded column panels: each panel is gathered through
      bounded row stripes into a contiguous RAM staging, permuted there
      by the in-RAM stage-and-gather column pass
      ({!Xpose_core.Kernels_f64.Phases.gather_cols}, with the panel's
      width as row pitch and its first global column as [col0], so the
      maps see global columns), and scattered back. The pool splits a
      panel's columns into whole stagings of
      {!Xpose_core.Kernels_f64.stage_width} columns.

    With [prefetch] (the default) a dedicated {!Io_domain} maps and
    pre-faults window [k+1] — and scatters back finished panel [k-1] —
    while the {!Xpose_cpu.Pool} workers permute window [k]: classic
    double buffering, two row windows or two stagings resident.

    Residency accounting ([ooc.*] metrics):
    - [ooc.windows] — mappings created (row windows, stripes, panels
      count one each; the fits-in-budget fast path counts one);
    - [ooc.bytes_mapped] — total bytes ever mapped (not a peak);
    - [ooc.window_peak_bytes] — gauge, high-water mark of concurrently
      live window bytes (mapped windows + panel stagings). The window
      split keeps this at most [3/4 * window_bytes] whenever the budget
      holds at least two rows and two columns ([window_bytes >= 16 *
      max m n]); below that the engine degrades to single-row /
      single-column windows and the gauge reports the overshoot;
    - [ooc.prefetch_hits] / [ooc.prefetch_waits] — windows whose
      prefetch had / had not completed when the compute side needed
      them.

    Each pass opens an [ooc.*] ["pass"] span and each window an
    ["ooc.window"] span with its {!Xpose_core.Pass_cost} predicted
    traffic, so [xpose report]-style prediction-vs-measurement works at
    window granularity. *)

val default_window_bytes : int
(** 64 MiB. *)

val transpose_file :
  ?order:Xpose_core.Layout.order ->
  ?pool:Xpose_cpu.Pool.t ->
  ?window_bytes:int ->
  ?prefetch:bool ->
  ?cache:Xpose_core.Plan.Cache.t ->
  path:string ->
  m:int ->
  n:int ->
  unit ->
  unit
(** [transpose_file ~path ~m ~n ()] transposes the [m x n] float64
    matrix stored in [path] in place in the file, mapping at most a
    [window_bytes]-sized working set at a time (default
    {!default_window_bytes}; matrices that fit entirely are mapped once
    and handed to {!Xpose_cpu.Fused_f64}). [pool] (default
    {!Xpose_cpu.Pool.sequential}) runs the in-window permutation;
    [prefetch] (default [true]) overlaps the next window's I/O with it.
    Same C2R/R2C routing policy as the in-RAM engines; plans come from
    [cache].
    @raise Invalid_argument if [m < 1], [n < 1], [window_bytes < 8], or
    the file does not hold exactly [m*n] float64 elements. *)
