open Xpose_core
open Xpose_tune
module S = Storage.Float64

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

(* Degenerate rows and columns, a coprime shape and a large-gcd one. *)
let shapes = [ (1, 1); (1, 20); (20, 1); (97, 89); (48, 36) ]
let lanes = [ 1; 2; 3 ]

let test_dispatch_matches_oracle () =
  let sel = Engine_select.create () in
  List.iter
    (fun (m, n) ->
      let buf = iota m n in
      Engine_select.dispatch sel ~m ~n buf;
      Alcotest.(check bool)
        (Printf.sprintf "%dx%d without a pool" m n)
        true
        (check_transposed ~m ~n buf);
      List.iter
        (fun workers ->
          Xpose_cpu.Pool.with_pool ~workers (fun pool ->
              let buf = iota m n in
              Engine_select.dispatch ~pool sel ~m ~n buf;
              Alcotest.(check bool)
                (Printf.sprintf "%dx%d @%d lanes" m n workers)
                true
                (check_transposed ~m ~n buf)))
        lanes)
    shapes

(* Batch sizes on both sides of the matrix- vs panel-parallel rule. *)
let test_dispatch_batch_matches_oracle () =
  let sel = Engine_select.create () in
  List.iter
    (fun workers ->
      Xpose_cpu.Pool.with_pool ~workers (fun pool ->
          List.iter
            (fun (m, n) ->
              List.iter
                (fun nb ->
                  let bufs = Array.init nb (fun _ -> iota m n) in
                  Engine_select.dispatch_batch sel pool ~m ~n bufs;
                  Array.iteri
                    (fun b buf ->
                      Alcotest.(check bool)
                        (Printf.sprintf "%dx%d batch[%d] of %d @%d lanes" m n
                           b nb workers)
                        true
                        (check_transposed ~m ~n buf))
                    bufs)
                [ 1; workers; (2 * workers) + 1 ])
            shapes))
    lanes

let test_dispatch_validates () =
  let sel = Engine_select.create () in
  Alcotest.check_raises "bad shape"
    (Invalid_argument "Engine_select.dispatch: bad shape") (fun () ->
      Engine_select.dispatch sel ~m:0 ~n:4 (S.create 0));
  Alcotest.check_raises "shape/buffer mismatch"
    (Invalid_argument
       "Engine_select.dispatch: buffer size does not match shape") (fun () ->
      Engine_select.dispatch sel ~m:4 ~n:4 (S.create 3));
  Xpose_cpu.Pool.with_pool ~workers:2 (fun pool ->
      Alcotest.check_raises "batch bad shape"
        (Invalid_argument "Engine_select.dispatch_batch: bad shape")
        (fun () ->
          Engine_select.dispatch_batch sel pool ~m:4 ~n:(-1) [| S.create 4 |]);
      Alcotest.check_raises "batch shape/buffer mismatch"
        (Invalid_argument
           "Fused_f64.transpose_batch: buffer size does not match shape")
        (fun () ->
          Engine_select.dispatch_batch sel pool ~m:4 ~n:4
            [| S.create 16; S.create 15 |]))

let tests =
  [
    Alcotest.test_case "dispatch matches the oracle per pool" `Quick
      test_dispatch_matches_oracle;
    Alcotest.test_case "batched dispatch matches the oracle" `Quick
      test_dispatch_batch_matches_oracle;
    Alcotest.test_case "dispatch validates its arguments" `Quick
      test_dispatch_validates;
  ]
