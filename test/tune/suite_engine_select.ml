open Xpose_core
open Xpose_tune
module S = Storage.Float64

let entry ~params m n =
  {
    Db.m;
    n;
    nb = 1;
    params;
    predicted_ns = 1.0;
    measured_ns = 1.0;
    default_ns = 2.0;
    roofline_frac = 0.5;
  }

let iota m n =
  let buf = S.create (m * n) in
  Storage.fill_iota (module S) buf;
  buf

let check_transposed ~m ~n buf =
  let ok = ref true in
  for l = 0 to (m * n) - 1 do
    if S.get buf l <> float_of_int ((n * (l mod m)) + (l / m)) then ok := false
  done;
  !ok

let test_miss_falls_back_to_default () =
  let sel = Engine_select.create () in
  let params = Engine_select.params_for sel ~m:48 ~n:36 in
  Alcotest.(check bool) "default on miss" true
    (Tune_params.equal params Tune_params.default);
  Alcotest.(check int) "miss counted" 1 (Engine_select.misses sel);
  Alcotest.(check int) "no hits" 0 (Engine_select.hits sel)

let test_hit_and_transposed_shape () =
  let db = Db.create ~fingerprint:"fp" in
  let tuned = { Tune_params.default with panel_width = 32 } in
  Db.add db (entry ~params:tuned 48 36);
  let sel = Engine_select.create ~db () in
  Alcotest.(check bool) "tuned shape hits" true
    (Tune_params.equal (Engine_select.params_for sel ~m:48 ~n:36) tuned);
  (* The transposed request runs the same plan, so it shares the
     entry. *)
  Alcotest.(check bool) "transposed shape shares the entry" true
    (Tune_params.equal (Engine_select.params_for sel ~m:36 ~n:48) tuned);
  Alcotest.(check int) "both were hits" 2 (Engine_select.hits sel)

let test_window_capped_at_tenant () =
  let db = Db.create ~fingerprint:"fp" in
  Db.add db
    (entry
       ~params:
         {
           Tune_params.default with
           engine = Tune_params.Ooc;
           window_bytes = Some (8 * 1024 * 1024);
         }
       48 36);
  let sel = Engine_select.create ~db () in
  (* Tuned window above the tenant's: the tenant's residency promise
     wins. Below it: the tuned window wins. *)
  Alcotest.(check int) "capped at tenant" (4 * 1024 * 1024)
    (Engine_select.window_bytes_for sel ~m:48 ~n:36
       ~default:(4 * 1024 * 1024));
  Alcotest.(check int) "tuned window when smaller" (8 * 1024 * 1024)
    (Engine_select.window_bytes_for sel ~m:48 ~n:36
       ~default:(64 * 1024 * 1024));
  Alcotest.(check int) "miss keeps the tenant window" 1234
    (Engine_select.window_bytes_for sel ~m:7 ~n:9 ~default:1234)

let dispatch_cases =
  [
    ("fused w8", { Tune_params.default with panel_width = 8 });
    ("fused w16", Tune_params.default);
    ("fused w64", { Tune_params.default with panel_width = 64 });
    ( "ooc 1MiB",
      {
        Tune_params.default with
        engine = Tune_params.Ooc;
        window_bytes = Some (1 lsl 20);
      } );
  ]

let test_dispatch_matches_oracle () =
  List.iter
    (fun (name, params) ->
      let db = Db.create ~fingerprint:"fp" in
      Db.add db (entry ~params 48 36);
      let sel = Engine_select.create ~db () in
      let buf = iota 48 36 in
      Engine_select.dispatch sel ~m:48 ~n:36 buf;
      Alcotest.(check bool)
        (Printf.sprintf "%s dispatch matches the oracle" name)
        true
        (check_transposed ~m:48 ~n:36 buf))
    dispatch_cases

let test_dispatch_batch_matches_oracle () =
  Xpose_cpu.Pool.with_pool ~workers:2 (fun pool ->
      List.iter
        (fun (name, params) ->
          List.iter
            (fun split ->
              let params = { params with Tune_params.batch_split = split } in
              let db = Db.create ~fingerprint:"fp" in
              Db.add db (entry ~params 32 24);
              let sel = Engine_select.create ~db () in
              let bufs = Array.init 3 (fun _ -> iota 32 24) in
              Engine_select.dispatch_batch sel pool ~m:32 ~n:24 bufs;
              Array.iter
                (fun buf ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s/%s batch matches the oracle" name
                       (Tune_params.split_to_string split))
                    true
                    (check_transposed ~m:32 ~n:24 buf))
                bufs)
            [
              Tune_params.Auto;
              Tune_params.Matrix_parallel;
              Tune_params.Panel_parallel;
              Tune_params.Hybrid 2;
            ])
        [
          ("fused w16", Tune_params.default);
          ("fused w32", { Tune_params.default with panel_width = 32 });
        ])

let test_dispatch_validates () =
  let sel = Engine_select.create () in
  Alcotest.check_raises "shape/buffer mismatch"
    (Invalid_argument
       "Engine_select.dispatch: buffer size does not match shape") (fun () ->
      Engine_select.dispatch sel ~m:4 ~n:4 (S.create 3))

let tests =
  [
    Alcotest.test_case "miss falls back to default" `Quick
      test_miss_falls_back_to_default;
    Alcotest.test_case "hit, including the transposed shape" `Quick
      test_hit_and_transposed_shape;
    Alcotest.test_case "tuned window capped at the tenant's" `Quick
      test_window_capped_at_tenant;
    Alcotest.test_case "dispatch matches the oracle per engine" `Quick
      test_dispatch_matches_oracle;
    Alcotest.test_case "batched dispatch matches the oracle" `Quick
      test_dispatch_batch_matches_oracle;
    Alcotest.test_case "dispatch validates its arguments" `Quick
      test_dispatch_validates;
  ]
