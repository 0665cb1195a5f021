(** Place traced passes against the calibrated machine roofs.

    A {!Calibrate.t} gives the machine's bandwidth for four traffic
    shapes; every pass span carries its exact Theorem-6 touch count
    (one read + one write per touch pair, so [touches * 8] bytes for
    float64). From the span's measured duration this module derives

    - {e achieved GB/s}: [bytes / dur_ns] (bytes per nanosecond {e is}
      GB/s), and
    - the {e roofline fraction}: achieved divided by the applicable
      roof, clamped to {!max_fraction}.

    A fraction near 1 means the pass is running at what the machine
    allows for its traffic shape — further tuning must change the
    shape, not the code. A low fraction is headroom a faster kernel
    can claim. Fractions can legitimately exceed 1 (a
    cache-resident run beats an out-of-cache roof), hence the clamp
    rather than an assert; consumers may rely on reported fractions
    lying in (0, {!max_fraction}]. *)

type kind = Stream | Gather | Scatter | Permute

val kind_to_string : kind -> string

val kind_of_pass : string -> kind
(** The traffic-class map, keyed on the pass names the engines emit
    (substring match, first rule wins): ["fused*"] → [Gather],
    ["*rotate*"] → [Scatter], ["*row*"] → [Permute], ["*col*"] →
    [Gather], everything else → [Stream]. Total — unknown names price
    against the streaming roof. *)

val roof_gbps : Calibrate.t -> kind -> float

val achieved_gbps : bytes:float -> dur_ns:float -> float
(** [nan] when duration or bytes are degenerate. *)

val max_fraction : float
(** 1.5 — the clamp on reported fractions. *)

val fraction : Calibrate.t -> kind -> bytes:float -> dur_ns:float -> float
(** Achieved over roof, clamped to (0, {!max_fraction}]; [nan] when
    either side is degenerate. *)

val annotate : Calibrate.t -> Tracer.event list -> Tracer.event list
(** Append [roofline_kind] / [achieved_gbps] / [roofline_frac] args to
    every complete ["pass"] and ["panel"] span that carries a positive
    [pred_touches]; other events pass through untouched. Pure — the
    tracer's buffer is not modified; render the result with
    {!Tracer.to_chrome_json_events}. *)
