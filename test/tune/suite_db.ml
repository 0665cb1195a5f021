open Xpose_core
open Xpose_tune

let entry ?(params = Tune_params.default) ?(nb = 1) m n =
  {
    Db.m;
    n;
    nb;
    params;
    predicted_ns = 1000.0 *. float_of_int (m * n);
    measured_ns = 1250.5;
    default_ns = 1500.25;
    roofline_frac = 0.42;
  }

let tuned =
  {
    Tune_params.engine = Tune_params.Fused;
    panel_width = 32;
    batch_split = Tune_params.Hybrid 3;
    window_bytes = Some (1 lsl 22);
  }

let test_roundtrip () =
  let db = Db.create ~fingerprint:"abc123" in
  Db.add db (entry 512 384);
  Db.add db (entry ~params:tuned ~nb:4 48 1000);
  let json = Db.to_json db in
  match Db.of_json json with
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg
  | Ok db' ->
      Alcotest.(check string)
        "fingerprint survives" "abc123" (Db.fingerprint db');
      Alcotest.(check int) "both entries survive" 2 (Db.length db');
      (match Db.find db' ~m:48 ~n:1000 with
      | None -> Alcotest.fail "entry lost"
      | Some e ->
          Alcotest.(check bool)
            "params survive (engine, width, split, window)" true
            (Tune_params.equal e.Db.params tuned);
          Alcotest.(check int) "nb survives" 4 e.Db.nb;
          Alcotest.(check (float 1e-9)) "measured survives" 1250.5
            e.Db.measured_ns;
          Alcotest.(check (float 1e-9)) "default floor survives" 1500.25
            e.Db.default_ns);
      Alcotest.(check string)
        "serialization is deterministic" json (Db.to_json db')

let legacy_db entries =
  "{\"version\": 1, \"fingerprint\": \"fp\", \"entries\": ["
  ^ String.concat ", " entries
  ^ "]}"

let legacy_entry ~m ~extra =
  Printf.sprintf
    "{\"m\": %d, \"n\": 6, \"nb\": 1, %s\"panel_width\": 32, \
     \"batch_split\": \"auto\", \"predicted_ns\": 1.0, \"measured_ns\": 1.0, \
     \"default_ns\": 1.0, \"roofline_frac\": 0.5}"
    m extra

let test_legacy_entries_load () =
  (* DBs from before the tier axis (no "kernel_tier"), from while it
     existed ("kernel_tier": "mk16"), and entries naming the retired
     kernels and cache engines all load: the tier is ignored and a
     retired engine becomes the default engine. *)
  let json =
    legacy_db
      [
        legacy_entry ~m:8 ~extra:"\"engine\": \"fused\", ";
        legacy_entry ~m:9
          ~extra:"\"engine\": \"kernels\", \"kernel_tier\": \"mk16\", ";
        legacy_entry ~m:10
          ~extra:"\"engine\": \"cache\", \"kernel_tier\": \"scalar\", ";
      ]
  in
  match Db.of_json json with
  | Error msg -> Alcotest.failf "legacy DB rejected: %s" msg
  | Ok db ->
      List.iter
        (fun m ->
          match Db.find db ~m ~n:6 with
          | Some e ->
              Alcotest.(check bool)
                (Printf.sprintf "%dx6 runs the default engine, width kept" m)
                true
                (Tune_params.equal e.Db.params
                   { Tune_params.default with panel_width = 32 })
          | None -> Alcotest.failf "entry %dx6 missing" m)
        [ 8; 9; 10 ];
      Alcotest.(check bool)
        "re-serialized without the retired fields" false
        (let s = Db.to_json db in
         let has sub =
           let ls = String.length s and lb = String.length sub in
           let rec go i =
             i + lb <= ls && (String.sub s i lb = sub || go (i + 1))
           in
           go 0
         in
         has "kernel_tier" || has "kernels")

let test_add_replaces () =
  let db = Db.create ~fingerprint:"f" in
  Db.add db (entry 8 6);
  Db.add db (entry ~params:tuned 8 6);
  Alcotest.(check int) "one entry per shape" 1 (Db.length db);
  match Db.find db ~m:8 ~n:6 with
  | Some e ->
      Alcotest.(check bool) "latest wins" true
        (Tune_params.equal e.Db.params tuned)
  | None -> Alcotest.fail "entry missing"

let test_hostile_bytes () =
  List.iter
    (fun bytes ->
      match Db.of_json bytes with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted hostile bytes: %s" bytes)
    [
      "";
      "not json";
      "{}";
      "{\"version\": 99, \"fingerprint\": \"x\", \"entries\": []}";
      "{\"version\": 1, \"entries\": []}";
      "{\"version\": 1, \"fingerprint\": \"x\", \"entries\": \
       [{\"m\": -3}]}";
    ]

let with_temp_file f =
  let path = Filename.temp_file "xpose_test_db" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_load_statuses () =
  with_temp_file (fun path ->
      Sys.remove path;
      (* Missing file: fresh. *)
      (match Db.load ~file:path ~fingerprint:"fp1" with
      | Ok (db, Db.Fresh) ->
          Alcotest.(check int) "fresh is empty" 0 (Db.length db)
      | Ok _ -> Alcotest.fail "expected Fresh"
      | Error msg -> Alcotest.fail msg);
      (* Save under fp1, load under fp1: entries restored. *)
      let db = Db.create ~fingerprint:"fp1" in
      Db.add db (entry 512 384);
      Db.save db ~file:path;
      (match Db.load ~file:path ~fingerprint:"fp1" with
      | Ok (db', Db.Loaded) ->
          Alcotest.(check int) "loaded entry" 1 (Db.length db')
      | Ok _ -> Alcotest.fail "expected Loaded"
      | Error msg -> Alcotest.fail msg);
      (* A new calibration fingerprint discards everything: stale
         winners must not survive a re-probe. *)
      (match Db.load ~file:path ~fingerprint:"fp2" with
      | Ok (db', Db.Invalidated) ->
          Alcotest.(check int) "invalidation empties" 0 (Db.length db');
          Alcotest.(check string)
            "restamped with the new fingerprint" "fp2" (Db.fingerprint db')
      | Ok _ -> Alcotest.fail "expected Invalidated"
      | Error msg -> Alcotest.fail msg);
      (* Unparseable bytes are an error, not a silent fresh start. *)
      let oc = open_out path in
      output_string oc "garbage";
      close_out oc;
      match Db.load ~file:path ~fingerprint:"fp1" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected Error on garbage")

let test_atomic_save () =
  with_temp_file (fun path ->
      let db = Db.create ~fingerprint:"fp" in
      Db.add db (entry 512 384);
      Db.save db ~file:path;
      (* Repeated saves land atomically on the same path, and the file
         parses after each. *)
      Db.add db (entry 48 1000);
      Db.save db ~file:path;
      let ic = open_in_bin path in
      let bytes =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Db.of_json bytes with
      | Ok db' -> Alcotest.(check int) "both entries" 2 (Db.length db')
      | Error msg -> Alcotest.fail msg)

let test_validation () =
  let db = Db.create ~fingerprint:"f" in
  Alcotest.check_raises "non-positive shape rejected"
    (Invalid_argument "Db.add: m, n and nb must be >= 1") (fun () ->
      Db.add db (entry 0 4))

let tests =
  [
    Alcotest.test_case "JSON round-trip" `Quick test_roundtrip;
    Alcotest.test_case "legacy tier and engine fields load" `Quick
      test_legacy_entries_load;
    Alcotest.test_case "add replaces per shape" `Quick test_add_replaces;
    Alcotest.test_case "hostile bytes are errors" `Quick test_hostile_bytes;
    Alcotest.test_case "load: fresh / loaded / invalidated" `Quick
      test_load_statuses;
    Alcotest.test_case "atomic save round-trips" `Quick test_atomic_save;
    Alcotest.test_case "entry validation" `Quick test_validation;
  ]
