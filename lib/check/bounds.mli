(** Parametric bounds certification.

    Each {!Xpose_core.Access.summary} is compiled into polynomial
    obligations -- [index >= 0] and [size - 1 - index >= 0] along every
    covering branch of the translation -- and discharged by
    {!Poly.prove_nonneg} over the summary's basis with the pass
    parameters as bounded symbolic variables. A proved certificate
    holds for {e every} shape, sub-range, panel width, batch lane and
    window geometry at once; nothing is enumerated.

    On proof failure the analyzer searches small shapes
    deterministically for a concrete out-of-bounds witness, turning an
    incompleteness report into a refutation when one exists (this is
    how the [--seed-oob-static] negative is caught, first witness
    [m=2 n=2]). *)

type result = {
  subject : string;  (** grid label, e.g. ["kernels/rotate_pre"] *)
  pass : string;  (** the summary's pass name *)
  proved : bool;
  obligations : int;  (** polynomial goals discharged, branches counted *)
  detail : string;
  counterexample : string option;
      (** concrete witness shape when the failure was refuted *)
}

val certify_summary :
  Xpose_core.Access.summary -> (int, string) Stdlib.result
(** [Ok obligations] when every access is proved in bounds; [Error
    reason] when some obligation has no proof (not a refutation). *)

val find_counterexample : Xpose_core.Access.summary -> string option
(** Deterministic small-shape/sampled-parameter search for an access
    outside its declared region; smallest area first. Total and bounded:
    a sample whose evaluation divides by zero is infeasible and skipped,
    and after a fixed number of evaluated samples the search gives up
    ([None]). *)

val certify : subject:string -> Xpose_core.Access.summary -> result

val seeded_result : unit -> result
(** Just the seeded off-by-one rotate certificate (the
    [--seed-oob-static] negative): fast to evaluate on its own -- the
    prover fails and the witness search refutes it at [m=2 n=2] --
    without paying for the full grid. *)

val run : ?widths:int list -> ?seed_oob_static:bool -> unit -> result list
(** The full certificate grid: kernel pipeline passes, fused panel
    passes (symbolic width plus each pinned width, default
    {!Spec.widths}), out-of-core passes, per-engine and batch roll-ups,
    and -- when [seed_oob_static] -- the seeded off-by-one summary that
    must be refuted. *)
