(** The tracer's time source, and every timer in the repository.

    The default source is bechamel's [Monotonic_clock]
    ([CLOCK_MONOTONIC]): real elapsed time that never steps backwards,
    safe to read from any domain. Every layer reads it through
    {!now_ns}, so spans, histograms, benchmark timers and the server's
    coalesce deadlines share one clock. The source stays injectable for
    a caller that wants its own (perfbench installs the same monotonic
    clock before any library call; a test may install a constant). *)

val now_ns : unit -> float
(** Current time in nanoseconds from the installed source. Only
    differences are meaningful; the epoch is the source's. *)

val install : (unit -> float) -> unit
(** [install f] makes [f] the time source. [f] must return nanoseconds
    and be safe to call from any domain. *)

val reset : unit -> unit
(** Back to the default source — for tests. Not for production code: a
    reset under concurrent tracing tears timestamps between epochs. *)

val default_now_ns : unit -> float
(** The default source: [Monotonic_clock.now ()] in nanoseconds. *)
