open Xpose_core

type t = {
  engines : Tune_params.engine list;
  widths : int list;
  splits : Tune_params.batch_split list;
  windows : int list;
}

let default_splits = Tune_params.[ Auto; Matrix_parallel; Panel_parallel ]

let make ?(engines = Tune_params.[ Fused ])
    ?(widths = Tune_params.supported_widths) ?(splits = default_splits)
    ?(windows = []) () =
  if widths = [] then invalid_arg "Space.make: widths must be non-empty";
  if splits = [] then invalid_arg "Space.make: splits must be non-empty";
  { engines; widths; splits; windows }

let candidates t ~nb =
  (* A single matrix has no batch to split; only a real batch spreads
     the split axis. *)
  let splits = if nb > 1 then t.splits else [ Tune_params.Auto ] in
  let of_engine engine =
    match (engine : Tune_params.engine) with
    | Tune_params.Fused ->
        List.concat_map
          (fun panel_width ->
            List.map
              (fun batch_split ->
                { Tune_params.default with engine; panel_width; batch_split })
              splits)
          t.widths
    | Tune_params.Ooc ->
        List.concat_map
          (fun panel_width ->
            List.map
              (fun w ->
                {
                  Tune_params.default with
                  engine;
                  panel_width;
                  window_bytes = Some w;
                })
              t.windows)
          [ Tune_params.default_panel_width ]
  in
  let cs = List.concat_map of_engine t.engines in
  (* The pre-tuner configuration is always a candidate: the tuner's
     floor is "never slower than what we shipped yesterday". *)
  if List.exists (Tune_params.equal Tune_params.default) cs then cs
  else Tune_params.default :: cs

(* -- model pricing -------------------------------------------------------- *)

(* Price one in-place transpose of the shape under a parameter choice,
   using the pass names the engines actually emit (so the traffic-class
   attribution matches the roofline layer) and the width-scaled rates
   of {!Pass_cost.rate_at_width}. The model is deliberately coarse — it
   exists to rank candidates for pruning, not to replace measurement. *)
let predict_ns ~(cal : Xpose_obs.Calibrate.t) ~(rates : Pass_cost.rates) ~m ~n
    (params : Tune_params.t) =
  let rm = max m n and rn = min m n in
  let p = Plan.Cache.get ~params ~m:rm ~n:rn () in
  let cw = cal.Xpose_obs.Calibrate.panel_width in
  let price ~pass_name ~width touches =
    let kind = Xpose_obs.Roofline.kind_of_pass pass_name in
    Pass_cost.predicted_ns_at_width rates ~kind ~calibrated_width:cw ~width
      ~touches
  in
  let w = params.Tune_params.panel_width in
  let rotate_pre =
    if Plan.coprime p then 0.0
    else
      price ~pass_name:"rotate_pre" ~width:w
        (Pass_cost.panel_rotate p ~width:w ~amount:(Plan.rotate_amount p))
  in
  let passes =
    rotate_pre
    +. price ~pass_name:"row_shuffle" ~width:w (Pass_cost.shuffle p)
    +. price ~pass_name:"fused_col" ~width:w (Pass_cost.fused_col p)
  in
  match params.Tune_params.engine with
  | Tune_params.Fused -> passes
  | Tune_params.Ooc ->
      (* The windowed engine runs the same passes plus a streaming
         staging sweep each way (the serving path stages jobs through a
         file), so in-RAM shapes price -- and almost always measure --
         behind the in-RAM engine. *)
      passes
      +. 2.0
         *. Pass_cost.predicted_ns rates ~kind:Xpose_obs.Roofline.Stream
              ~touches:(2 * rm * rn)

type priced = { params : Tune_params.t; predicted_ns : float }

let price ~cal ~rates ~m ~n cs =
  List.map (fun params -> { params; predicted_ns = predict_ns ~cal ~rates ~m ~n params }) cs
  |> List.stable_sort (fun a b -> Float.compare a.predicted_ns b.predicted_ns)

let prune ~keep priced =
  if keep < 1 then invalid_arg "Space.prune: keep must be >= 1";
  let rec take k = function
    | [] -> []
    | x :: tl -> if k = 0 then [] else x :: take (k - 1) tl
  in
  let kept = take keep priced in
  (* The default configuration survives every prune: the measured floor
     must always be in the timed set. *)
  if
    List.exists
      (fun c -> Tune_params.equal c.params Tune_params.default)
      kept
  then kept
  else
    kept
    @ List.filter
        (fun c -> Tune_params.equal c.params Tune_params.default)
        priced
