open Xpose_core
open Xpose_tune

let probe gbps = { Xpose_obs.Calibrate.gbps; ns_per_byte = 1.0 /. gbps }

let cal =
  {
    Xpose_obs.Calibrate.elems = 1 lsl 16;
    repeats = 3;
    panel_width = 16;
    stream = probe 40.0;
    gather = probe 16.0;
    scatter = probe 10.0;
    permute = probe 8.0;
    ghz = None;
  }

let rates = Pass_cost.rates_of_calibration cal

let test_candidates_contain_default () =
  List.iter
    (fun nb ->
      let cands = Space.candidates (Space.make ()) ~nb in
      Alcotest.(check bool)
        (Printf.sprintf "default present at nb=%d" nb)
        true
        (List.exists (Tune_params.equal Tune_params.default) cands))
    [ 1; 4 ]

let test_candidates_axes () =
  let space = Space.make () in
  let single = Space.candidates space ~nb:1 in
  (* The in-RAM engine is the only default candidate engine; the
     out-of-core one joins with windows. *)
  let engines_in cs =
    List.sort_uniq compare (List.map (fun (c : Tune_params.t) -> c.engine) cs)
  in
  Alcotest.(check bool)
    "default space: fused only" true
    (engines_in (Space.candidates space ~nb:8) = [ Tune_params.Fused ]);
  (* nb = 1 collapses the split axis: no candidate carries a non-Auto
     split. *)
  Alcotest.(check bool)
    "single-matrix candidates never carry a split" true
    (List.for_all
       (fun (c : Tune_params.t) -> c.batch_split = Tune_params.Auto)
       single);
  let batched = Space.candidates space ~nb:8 in
  Alcotest.(check bool)
    "batched space explores splits" true
    (List.exists
       (fun (c : Tune_params.t) -> c.batch_split <> Tune_params.Auto)
       batched);
  Alcotest.(check bool)
    "every supported width appears on the fused axis" true
    (List.for_all
       (fun w ->
         List.exists
           (fun (c : Tune_params.t) ->
             c.engine = Tune_params.Fused && c.panel_width = w)
           single)
       Tune_params.supported_widths);
  (* No ooc candidates unless the space carries windows. *)
  Alcotest.(check bool)
    "no ooc without windows" true
    (List.for_all
       (fun (c : Tune_params.t) -> c.engine <> Tune_params.Ooc)
       single);
  let with_ooc =
    Space.candidates
      (Space.make
         ~engines:[ Tune_params.Fused; Tune_params.Ooc ]
         ~windows:[ 1 lsl 20 ] ())
      ~nb:1
  in
  Alcotest.(check bool)
    "with windows: fused and ooc" true
    (engines_in with_ooc = [ Tune_params.Fused; Tune_params.Ooc ]);
  Alcotest.(check bool)
    "the default is a candidate with windows too" true
    (List.exists (Tune_params.equal Tune_params.default) with_ooc);
  Alcotest.(check bool)
    "windows switch the ooc axis on" true
    (List.exists
       (fun (c : Tune_params.t) ->
         c.engine = Tune_params.Ooc && c.window_bytes = Some (1 lsl 20))
       with_ooc)

let test_price_sorted_and_prune_keeps_default () =
  let cands = Space.candidates (Space.make ()) ~nb:1 in
  let priced = Space.price ~cal ~rates ~m:512 ~n:384 cands in
  Alcotest.(check bool)
    "prices are finite and positive" true
    (List.for_all
       (fun (c : Space.priced) ->
         Float.is_finite c.predicted_ns && c.predicted_ns > 0.0)
       priced);
  Alcotest.(check bool)
    "price sorts ascending" true
    (fst
       (List.fold_left
          (fun (ok, prev) (c : Space.priced) ->
            (ok && c.predicted_ns >= prev, c.predicted_ns))
          (true, Float.neg_infinity) priced));
  (* Even keep=1 retains the default configuration: the winner is
     always gated against it. *)
  let kept = Space.prune ~keep:1 priced in
  Alcotest.(check bool)
    "prune keeps the default alive" true
    (List.exists
       (fun (c : Space.priced) ->
        Tune_params.equal c.params Tune_params.default)
       kept);
  Alcotest.(check bool) "prune shrinks" true (List.length kept <= 2)

let test_wider_fused_prices_cheaper () =
  (* The width-scaled model must prefer wider fused panels on a
     strided-bound calibration — that ordering is what makes the
     pruning non-trivial. *)
  let price w =
    Space.predict_ns ~cal ~rates ~m:1024 ~n:768
      { Tune_params.default with panel_width = w }
  in
  Alcotest.(check bool) "w32 beats w16" true (price 32 < price 16);
  Alcotest.(check bool) "w64 beats w32" true (price 64 < price 32);
  Alcotest.(check bool) "w8 loses to w16" true (price 8 > price 16)

let tests =
  [
    Alcotest.test_case "candidates contain the default" `Quick
      test_candidates_contain_default;
    Alcotest.test_case "candidate axes obey the space" `Quick
      test_candidates_axes;
    Alcotest.test_case "price sorts; prune keeps the default" `Quick
      test_price_sorted_and_prune_keeps_default;
    Alcotest.test_case "width scaling orders fused candidates" `Quick
      test_wider_fused_prices_cheaper;
  ]
