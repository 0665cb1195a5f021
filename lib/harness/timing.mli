(** Wall-clock measurement and the paper's throughput definition. *)

val time_ns : (unit -> unit) -> float
(** One timed run, read off [Unix.gettimeofday] (wall clock, not
    monotonic). *)

val best_of : ?repeats:int -> (unit -> unit) -> float
(** Minimum time over [repeats] runs (default 3) — the standard way to
    suppress scheduler noise for deterministic kernels. *)

val best_of_samples : ?repeats:int -> (unit -> unit) -> float * float array
(** Like {!best_of} but also returns every per-repeat sample (in run
    order), for callers that want to report variance, not just the
    minimum. *)

val throughput_gbps : elems:int -> elt_bytes:int -> ns:float -> float
(** Eq. 37: [2 * elems * elt_bytes / t] — every byte read once and
    written once. *)
