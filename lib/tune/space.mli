(** The autotuner's typed search space and its calibrated cost model.

    A candidate is a {!Xpose_core.Tune_params.t}; the space is the cross
    product engine x panel width x batch split x ooc window, restricted
    to the combinations that make sense (splits only exist for real
    batches, windows only for the out-of-core engine). {!predict_ns}
    prices a candidate with the calibrated per-byte rates of
    {!Xpose_core.Pass_cost}, width-scaled by
    {!Xpose_core.Pass_cost.rate_at_width}, so {!prune} can discard the
    clearly-losing part of the space before any timing run. *)

open Xpose_core

type t = {
  engines : Tune_params.engine list;
  widths : int list;
  splits : Tune_params.batch_split list;
  windows : int list;  (** Candidate ooc window budgets, in bytes. *)
}

val make :
  ?engines:Tune_params.engine list ->
  ?widths:int list ->
  ?splits:Tune_params.batch_split list ->
  ?windows:int list ->
  unit ->
  t
(** Defaults: the in-RAM engine [Fused] ([Ooc] joins only when asked
    for, since it also needs [windows]), {!Tune_params.supported_widths},
    the three split policies, no windows.
    @raise Invalid_argument on an empty [widths] or [splits]. *)

val candidates : t -> nb:int -> Tune_params.t list
(** All candidates for a shape tuned at batch size [nb]. Always
    contains {!Tune_params.default}; [nb <= 1] collapses the split axis
    to [Auto]. *)

val predict_ns :
  cal:Xpose_obs.Calibrate.t ->
  rates:Pass_cost.rates ->
  m:int ->
  n:int ->
  Tune_params.t ->
  float
(** Model time for one in-place transpose of [m x n] under the
    candidate: each pass the engine would run, priced at the calibrated
    rate of its traffic class ({!Xpose_obs.Roofline.kind_of_pass} on
    the engine's own pass names), width-scaled from the calibration's
    probe width ({!Pass_cost.predicted_ns_at_width}). Monotone in every
    rate —
    perturbing the calibration can reorder candidates only in the
    direction of the perturbed traffic class (the pruning contract the
    property tests pin). *)

type priced = { params : Tune_params.t; predicted_ns : float }

val price :
  cal:Xpose_obs.Calibrate.t ->
  rates:Pass_cost.rates ->
  m:int ->
  n:int ->
  Tune_params.t list ->
  priced list
(** Price and sort ascending by predicted time (stable). *)

val prune : keep:int -> priced list -> priced list
(** The [keep] cheapest candidates by model price — plus
    {!Tune_params.default} even when the model ranks it out, so the
    measured winner is never worse than the untuned configuration.
    @raise Invalid_argument if [keep < 1]. *)
