(* The f64 engine (Kernels_f64, serially and through the Fused_f64 pool
   driver) must be behaviourally identical to the element-generic
   functor. *)

open Xpose_core
open Xpose_cpu
module S = Storage.Float64
module A = Instances.F64

(* XPOSE_CHECKED=1 reruns this suite through the checked-access shadow
   engine: identical semantics, every access bounds-verified. *)
module K =
  (val if Sys.getenv_opt "XPOSE_CHECKED" <> None then
         (module Kernels_f64.Checked : Kernels_f64.ENGINE)
       else (module Kernels_f64 : Kernels_f64.ENGINE))

module F =
  (val if Sys.getenv_opt "XPOSE_CHECKED" <> None then
         (module Fused_f64.Checked : Fused_f64.ENGINE)
       else (module Fused_f64 : Fused_f64.ENGINE))

let iota_buf len =
  let buf = S.create len in
  Storage.fill_iota (module S) buf;
  buf

let buf_to_list buf = List.init (S.length buf) (S.get buf)

let reference_c2r variant m n =
  let p = Plan.make ~m ~n in
  let buf = iota_buf (m * n) in
  let tmp = S.create (Plan.scratch_elements p) in
  A.c2r ~variant p buf ~tmp;
  buf_to_list buf

(* R2C on plan (m, n) turns an n x m row-major matrix into its m x n
   transpose. *)
let reference_r2c variant m n =
  let p = Plan.make ~m ~n in
  let buf = iota_buf (m * n) in
  let tmp = S.create (Plan.scratch_elements p) in
  A.r2c ~variant p buf ~tmp;
  buf_to_list buf

let shapes =
  [ (1, 1); (3, 8); (4, 8); (37, 18); (64, 48); (1, 20); (20, 1); (97, 89) ]

(* Every C2R formulation the functor keeps computes the same
   permutation; the staged engine must equal each of them. *)
let test_c2r_matches_generic () =
  List.iter
    (fun (m, n) ->
      let p = Plan.make ~m ~n in
      let buf = iota_buf (m * n) in
      K.c2r p buf;
      List.iter
        (fun variant ->
          Alcotest.(check (list (float 0.0)))
            (Printf.sprintf "kernels c2r %dx%d" m n)
            (reference_c2r variant m n) (buf_to_list buf))
        [ Algo.C2r_scatter; Algo.C2r_gather; Algo.C2r_decomposed ];
      K.r2c p buf;
      Alcotest.(check (list (float 0.0)))
        "kernels r2c inverts"
        (List.init (m * n) float_of_int)
        (buf_to_list buf))
    shapes

let test_r2c_variants () =
  List.iter
    (fun (m, n) ->
      let p = Plan.make ~m ~n in
      let buf = iota_buf (m * n) in
      K.r2c p buf;
      List.iter
        (fun variant ->
          Alcotest.(check (list (float 0.0)))
            (Printf.sprintf "kernels r2c %dx%d" m n)
            (reference_r2c variant m n) (buf_to_list buf))
        [ Algo.R2c_fused; Algo.R2c_decomposed ])
    ((24, 36) :: shapes)

let test_transpose_dispatch () =
  List.iter
    (fun (m, n, order) ->
      let buf = iota_buf (m * n) in
      let original = A.copy buf in
      K.transpose ~order ~m ~n buf;
      Alcotest.(check bool)
        (Printf.sprintf "dispatch %dx%d" m n)
        true
        (A.is_transpose_of ~order ~m ~n ~original buf))
    [
      (30, 7, Layout.Row_major);
      (7, 30, Layout.Row_major);
      (30, 7, Layout.Col_major);
      (12, 12, Layout.Row_major);
    ]

let test_errors () =
  let p = Plan.make ~m:4 ~n:6 in
  let buf = iota_buf 23 in
  Alcotest.check_raises "size"
    (Invalid_argument "Kernels_f64.c2r: buffer size does not match plan")
    (fun () -> K.c2r p buf);
  Alcotest.check_raises "size"
    (Invalid_argument "Kernels_f64.r2c: buffer size does not match plan")
    (fun () -> K.r2c p buf);
  let buf = iota_buf 24 in
  Alcotest.check_raises "width"
    (Invalid_argument "Kernels_f64.stage_width: panel width must be positive")
    (fun () -> K.c2r ~panel_width:0 p buf);
  Alcotest.check_raises "range"
    (Invalid_argument "Kernels_f64.gather_cols: bad column range") (fun () ->
      K.gather_cols ~lo:2 ~hi:7 p buf (Kernels_f64.shuffle p))

(* The pooled driver runs the same pass order over 1-3 lanes. *)
let test_pooled_matches () =
  List.iter
    (fun workers ->
      Pool.with_pool ~workers (fun pool ->
          List.iter
            (fun (m, n) ->
              let p = Plan.make ~m ~n in
              let buf = iota_buf (m * n) in
              F.c2r_pool pool p buf;
              Alcotest.(check (list (float 0.0)))
                (Printf.sprintf "pooled c2r %dx%d @%d" m n workers)
                (reference_c2r Algo.C2r_gather m n)
                (buf_to_list buf);
              F.r2c_pool pool p buf;
              Alcotest.(check (list (float 0.0)))
                (Printf.sprintf "pooled r2c %dx%d @%d" m n workers)
                (List.init (m * n) float_of_int)
                (buf_to_list buf);
              F.transpose_pool pool ~m ~n buf;
              Alcotest.(check bool)
                (Printf.sprintf "pooled dispatch %dx%d @%d" m n workers)
                true
                (A.is_transpose_of ~m ~n ~original:(iota_buf (m * n)) buf))
            [ (3, 8); (40, 25); (25, 40); (61, 61); (1, 20); (20, 1) ]))
    [ 1; 2; 3 ]

let prop_kernels_equal_generic =
  QCheck2.Test.make ~name:"Kernels_f64 = Algo functor on random dims"
    ~count:100
    QCheck2.Gen.(pair (int_range 1 70) (int_range 1 70))
    (fun (m, n) ->
      let p = Plan.make ~m ~n in
      let buf = iota_buf (m * n) in
      K.c2r p buf;
      buf_to_list buf = reference_c2r Algo.C2r_gather m n)

let tests =
  [
    Alcotest.test_case "c2r matches generic (all variants)" `Quick
      test_c2r_matches_generic;
    Alcotest.test_case "r2c variants" `Quick test_r2c_variants;
    Alcotest.test_case "transpose dispatch" `Quick test_transpose_dispatch;
    Alcotest.test_case "argument validation" `Quick test_errors;
    Alcotest.test_case "pooled matches" `Quick test_pooled_matches;
    QCheck_alcotest.to_alcotest prop_kernels_equal_generic;
  ]
