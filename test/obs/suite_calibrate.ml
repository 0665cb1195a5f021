open Xpose_obs

(* Small probes keep the suite fast; roofs measured on a loaded CI box
   are meaningless as numbers, so the tests only assert structure:
   positivity, the probe/ns_per_byte relationship, and the JSON
   round-trip fixpoint the CLI relies on. *)
let small_cal () = Calibrate.run ~elems:4096 ~repeats:1 ()

let check_probe name (p : Calibrate.probe) =
  Alcotest.(check bool)
    (name ^ " gbps positive and finite")
    true
    (Float.is_finite p.gbps && p.gbps > 0.0);
  Alcotest.(check bool)
    (name ^ " ns_per_byte is the reciprocal")
    true
    (Float.abs ((p.gbps *. p.ns_per_byte) -. 1.0) < 1e-9)

let test_run_positive_roofs () =
  let cal = small_cal () in
  Alcotest.(check int) "elems recorded" 4096 cal.elems;
  Alcotest.(check int) "repeats recorded" 1 cal.repeats;
  Alcotest.(check int)
    "default panel width" Calibrate.default_panel_width cal.panel_width;
  check_probe "stream" cal.stream;
  check_probe "gather" cal.gather;
  check_probe "scatter" cal.scatter;
  check_probe "permute" cal.permute

let test_run_rejects_degenerate () =
  let rejects name f =
    Alcotest.(check bool)
      name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  rejects "elems < 1024" (fun () -> Calibrate.run ~elems:8 ());
  rejects "repeats < 1" (fun () -> Calibrate.run ~elems:4096 ~repeats:0 ());
  rejects "panel_width < 2" (fun () ->
      Calibrate.run ~elems:4096 ~repeats:1 ~panel_width:1 ())

let test_json_round_trip_fixpoint () =
  let cal = small_cal () in
  let j1 = Calibrate.to_json cal in
  match Calibrate.of_json j1 with
  | Error e -> Alcotest.failf "of_json rejected its own output: %s" e
  | Ok cal' ->
      (* %.17g preserves every double exactly, so one round trip is a
         fixpoint: serialise(parse(serialise x)) = serialise x. *)
      Alcotest.(check string) "round-trip fixpoint" j1 (Calibrate.to_json cal')

(* Replace the first occurrence of [pat] in [s] (both non-empty). *)
let replace_first pat repl s =
  let n = String.length pat and len = String.length s in
  let rec find i = if i + n > len then None
    else if String.sub s i n = pat then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> s
  | Some i ->
      String.sub s 0 i ^ repl ^ String.sub s (i + n) (len - i - n)

let test_of_json_rejects_hostile () =
  let rejected label text =
    match Calibrate.of_json text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s was accepted" label
  in
  rejected "garbage" "not json at all";
  rejected "empty object" "{}";
  let cal = small_cal () in
  rejected "unsupported version"
    (replace_first "\"version\": 1" "\"version\": 999" (Calibrate.to_json cal));
  rejected "non-positive roof"
    (Calibrate.to_json
       { cal with stream = { gbps = -1.0; ns_per_byte = -1.0 } })

(* The clock probe: fresh runs always measure one; files written before
   the probe existed (no "ghz" member) must still load — with the CPE
   machinery disabled — and re-serialise byte-identically. *)
let test_ghz_probe_and_pre_ghz_files () =
  let cal = small_cal () in
  (match cal.Calibrate.ghz with
  | Some g ->
      Alcotest.(check bool)
        "measured ghz positive and finite" true
        (Float.is_finite g && g > 0.0)
  | None -> Alcotest.fail "a fresh run must measure ghz");
  let with_ghz = Calibrate.to_json cal in
  let pre_ghz_json =
    (* strip the "ghz" line: exactly what an old file looks like *)
    String.concat "\n"
      (List.filter
         (fun line ->
           let t = String.trim line in
           not (String.length t >= 5 && String.sub t 0 5 = "\"ghz\""))
         (String.split_on_char '\n' with_ghz))
  in
  (match Calibrate.of_json pre_ghz_json with
  | Error e -> Alcotest.failf "pre-ghz file rejected: %s" e
  | Ok old ->
      Alcotest.(check bool) "pre-ghz file loads as None" true
        (old.Calibrate.ghz = None);
      Alcotest.(check string) "pre-ghz round-trip is a fixpoint" pre_ghz_json
        (Calibrate.to_json old));
  match Calibrate.of_json (replace_first "\"ghz\": " "\"ghz\": -" with_ghz) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative ghz must be rejected"

let test_save_load () =
  let cal = small_cal () in
  let file = Filename.temp_file "xpose_cal" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Calibrate.save cal ~file;
      match Calibrate.load ~file with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok cal' ->
          Alcotest.(check string) "save/load round-trips"
            (Calibrate.to_json cal) (Calibrate.to_json cal'));
  match Calibrate.load ~file:"/nonexistent/path/cal.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "load of a missing file must be an Error"

let tests =
  [
    Alcotest.test_case "run yields positive roofs" `Quick
      test_run_positive_roofs;
    Alcotest.test_case "run rejects degenerate sizes" `Quick
      test_run_rejects_degenerate;
    Alcotest.test_case "JSON round-trip is a fixpoint" `Quick
      test_json_round_trip_fixpoint;
    Alcotest.test_case "of_json rejects hostile input" `Quick
      test_of_json_rejects_hostile;
    Alcotest.test_case "clock probe and pre-ghz files" `Quick
      test_ghz_probe_and_pre_ghz_files;
    Alcotest.test_case "save/load round-trips" `Quick test_save_load;
  ]
