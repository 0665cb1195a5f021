(* Parametric alias certificates (Xpose_check.Alias): the full grid is
   cheap (a few seconds), so it runs whole -- every split family and
   barrier lift must prove, the seeded splits must be refuted with a
   concrete overlap witness, and the witness searches must agree with
   the concrete split functions. *)

open Xpose_check

let subjects results = List.map (fun (r : Alias.result) -> r.subject) results

let test_grid_proves () =
  let results = Alias.run () in
  List.iter
    (fun (r : Alias.result) ->
      if not r.Alias.proved then
        Alcotest.failf "%s not proved: %s" r.Alias.subject r.Alias.detail)
    results;
  List.iter
    (fun s ->
      if not (List.mem s (subjects results)) then
        Alcotest.failf "certificate %s missing" s)
    [
      "split/pool";
      "split/window";
      "barrier/row-chunks";
      "barrier/column-chunks";
      "barrier/panel-groups";
      "barrier/stage-groups";
      "barrier/batch-slices";
      "barrier/block-slots";
      "barrier/ooc-windows";
      "barrier/scratch-slots";
      "regions/workspace-matrix";
    ]

let test_seeded_refuted () =
  let results = Alias.run ~seed_race:true () in
  List.iter
    (fun subject ->
      match
        List.find_opt (fun (r : Alias.result) -> r.subject = subject) results
      with
      | None -> Alcotest.failf "seeded certificate %s missing" subject
      | Some r ->
          Alcotest.(check bool) (subject ^ " not proved") false r.Alias.proved;
          if r.Alias.counterexample = None then
            Alcotest.failf "%s not refuted: %s" subject r.Alias.detail)
    [ "seeded/off-by-one-split"; "seeded/overlapping-windows" ]

let test_split_witness_search () =
  Alcotest.(check bool)
    "pool split clean" true
    (Alias.split_counterexample Footprint.pool_split = None);
  match Alias.split_counterexample Footprint.off_by_one_split with
  | None -> Alcotest.fail "off-by-one split not refuted"
  | Some cx ->
      Alcotest.(check string)
        "smallest witness" "lo=0 hi=2 lanes=2: chunk 0 [0,2) overlaps chunk 1 [1,2) at index 1"
        cx

let test_window_witness_search () =
  Alcotest.(check bool)
    "window split clean" true
    (Alias.window_counterexample Xpose_ooc.Window.split = None);
  match Alias.window_counterexample Xpose_ooc.Window.overlapping_split with
  | None -> Alcotest.fail "overlapping windows not refuted"
  | Some cx ->
      Alcotest.(check string)
        "smallest witness"
        "total=2 per=1: window 0 [0,2) overlaps window 1 [1,2) at index 1" cx

let tests =
  [
    Alcotest.test_case "grid proves" `Quick test_grid_proves;
    Alcotest.test_case "seeded refuted" `Quick test_seeded_refuted;
    Alcotest.test_case "split witness search" `Quick test_split_witness_search;
    Alcotest.test_case "window witness search" `Quick
      test_window_witness_search;
  ]
