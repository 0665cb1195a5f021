(** Summary statistics for the end-to-end benchmark.

    Every timing the benchmark reports is a median plus the tail rule
    below, and every ratio is printed with the counts it was computed
    from. These live here rather than in [Xpose_harness.Stats] so the
    benchmark links only serving-path libraries (the harness pulls in
    the SIMT simulator and the baselines). *)

val mean : float array -> float
(** [nan] on an empty array. *)

val median : float array -> float
(** The middle sample, or the mean of the two middle samples; [nan] on
    an empty array. The input is not modified. *)

val quartiles : float array -> float * float * float
(** First quartile, median, third quartile, by the same rule as
    Python's [statistics.quantiles(data, n=4)] (the default
    "exclusive" method), so the benchmark's own spread check matches
    the one a reader computes over its printed values.
    @raise Invalid_argument on fewer than two samples. *)

type tail = {
  pct : int;  (** the percentile, 1..99; 100 when the rule cannot hold *)
  value : float;
  beyond : int;  (** samples ranked above [value] *)
  samples : int;
}

val tail : float array -> tail
(** The highest whole percentile that still has at least ten samples
    ranked beyond it, by nearest rank: percentile [p] of [N] sorted
    samples is the sample of rank [ceil (p * N / 100)], and [N] minus
    that rank samples lie beyond it. With [N <= 10] no percentile
    qualifies; the maximum is returned with [pct = 100] and
    [beyond = 0].
    @raise Invalid_argument on an empty array. *)

val ratio : num:int -> den:int -> float
(** [num / den], and [0.] when [den = 0]. *)

val ratio_with_base : num:int -> den:int -> string
(** ["0.0123 (12/975)"]: a ratio printed with its base. *)
