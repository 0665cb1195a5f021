(* The float64 engine must be behaviourally identical to the
   element-generic Algo oracle: fusing the column rotation and row
   permutation into one stage-and-gather pass is a pure locality
   transformation. *)

open Xpose_core
open Xpose_cpu
module S = Storage.Float64
module A = Instances.F64

(* XPOSE_CHECKED=1 reruns this suite through the checked-access shadow
   engine: identical semantics, every access bounds-verified. *)
module F =
  (val if Sys.getenv_opt "XPOSE_CHECKED" <> None then
         (module Fused_f64.Checked : Fused_f64.ENGINE)
       else (module Fused_f64 : Fused_f64.ENGINE))

let iota_buf len =
  let buf = S.create len in
  Storage.fill_iota (module S) buf;
  buf

let buf_to_list buf = List.init (S.length buf) (S.get buf)

(* Coprime, non-coprime, prime, skinny, square, and panel-boundary shapes
   (n not a multiple of the default width 16). *)
let shapes =
  [
    (1, 1);
    (3, 8);
    (37, 18);
    (48, 36);
    (97, 89);
    (1, 9);
    (9, 1);
    (40, 23);
    (23, 40);
    (96, 72);
    (17, 17);
    (64, 48);
  ]

let oracle_c2r m n =
  let p = Plan.make ~m ~n in
  let buf = iota_buf (m * n) in
  let tmp = S.create (Plan.scratch_elements p) in
  A.c2r p buf ~tmp;
  buf_to_list buf

let test_c2r_matches_oracle () =
  List.iter
    (fun (m, n) ->
      let p = Plan.make ~m ~n in
      let expected = oracle_c2r m n in
      let buf = iota_buf (m * n) in
      F.c2r p buf;
      Alcotest.(check (list (float 0.0)))
        (Printf.sprintf "fused c2r %dx%d" m n)
        expected (buf_to_list buf);
      F.r2c p buf;
      Alcotest.(check (list (float 0.0)))
        (Printf.sprintf "fused r2c inverts %dx%d" m n)
        (List.init (m * n) float_of_int)
        (buf_to_list buf))
    shapes

let test_workspace_reuse_across_shapes () =
  (* One workspace driven through growing and shrinking shapes: the
     grow-only scratch must never leak state between calls. *)
  let ws = Workspace.F64.create () in
  List.iter
    (fun (m, n) ->
      let p = Plan.make ~m ~n in
      let buf = iota_buf (m * n) in
      F.c2r ~ws p buf;
      Alcotest.(check (list (float 0.0)))
        (Printf.sprintf "shared-ws c2r %dx%d" m n)
        (oracle_c2r m n) (buf_to_list buf))
    (shapes @ List.rev shapes)

let prop_fused_equals_oracle =
  QCheck2.Test.make ~name:"fused f64 c2r = generic c2r" ~count:120
    QCheck2.Gen.(triple (int_range 1 80) (int_range 1 80) (int_range 1 24))
    (fun (m, n, width) ->
      let p = Plan.make ~m ~n in
      let expected =
        let buf = iota_buf (m * n) in
        let tmp = S.create (Plan.scratch_elements p) in
        A.c2r p buf ~tmp;
        buf_to_list buf
      in
      let buf = iota_buf (m * n) in
      F.c2r ~panel_width:width p buf;
      buf_to_list buf = expected)

let prop_r2c_inverts =
  QCheck2.Test.make ~name:"fused f64 r2c inverts c2r" ~count:120
    QCheck2.Gen.(triple (int_range 1 80) (int_range 1 80) (int_range 1 24))
    (fun (m, n, width) ->
      let p = Plan.make ~m ~n in
      let buf = iota_buf (m * n) in
      F.c2r ~panel_width:width p buf;
      F.r2c ~panel_width:width p buf;
      buf_to_list buf = List.init (m * n) float_of_int)

let test_cols_match_sweeps () =
  (* The staged column pass over any sub-range equals the functor's two
     sweeps over that range: in C2R the rotation by j then the row
     permutation q, in R2C the permutation q^-1 then the rotation by
     -j. *)
  let module K = A.Phases in
  List.iter
    (fun (m, n) ->
      let p = Plan.make ~m ~n in
      let tmp = S.create (Plan.scratch_elements p) in
      List.iter
        (fun (lo, hi) ->
          let sweeps first second =
            let buf = iota_buf (m * n) in
            first buf;
            second buf;
            buf_to_list buf
          in
          let staged map =
            let buf = iota_buf (m * n) in
            F.gather_cols ~lo ~hi p buf map;
            buf_to_list buf
          in
          Alcotest.(check (list (float 0.0)))
            (Printf.sprintf "c2r column phase %dx%d [%d,%d)" m n lo hi)
            (sweeps
               (fun buf ->
                 K.rotate_columns p buf ~tmp ~amount:(fun j -> j) ~lo ~hi)
               (fun buf -> K.permute_rows p buf ~tmp ~index:(Plan.q p) ~lo ~hi))
            (staged (Kernels_f64.shuffle p));
          Alcotest.(check (list (float 0.0)))
            (Printf.sprintf "r2c column phase %dx%d [%d,%d)" m n lo hi)
            (sweeps
               (fun buf ->
                 K.permute_rows p buf ~tmp ~index:(Plan.q_inv p) ~lo ~hi)
               (fun buf ->
                 K.rotate_columns p buf ~tmp ~amount:(fun j -> -j) ~lo ~hi))
            (staged (Kernels_f64.unshuffle p)))
        [ (0, n); (0, n / 2); (n / 2, n); (3, min n 21) ])
    [ (48, 36); (37, 18); (40, 23); (5, 40) ]

let test_transpose_routes_and_caches () =
  let cache = Plan.Cache.create ~capacity:4 () in
  List.iter
    (fun (m, n) ->
      let buf = iota_buf (m * n) in
      F.transpose ~cache ~m ~n buf;
      let ok = ref true in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          if S.get buf ((j * m) + i) <> float_of_int ((i * n) + j) then
            ok := false
        done
      done;
      Alcotest.(check bool)
        (Printf.sprintf "transpose %dx%d" m n)
        true !ok)
    [ (48, 36); (36, 48); (5, 120); (120, 5) ];
  Alcotest.(check bool) "cache hit on repeat" true
    (let before = Plan.Cache.hits cache in
     let buf = iota_buf (48 * 36) in
     F.transpose ~cache ~m:48 ~n:36 buf;
     Plan.Cache.hits cache > before)

let with_pool workers f =
  let pool = Pool.create ~workers () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_pool_engines () =
  with_pool 4 (fun pool ->
      List.iter
        (fun (m, n) ->
          let p = Plan.make ~m ~n in
          let expected = oracle_c2r m n in
          let buf = iota_buf (m * n) in
          F.c2r_pool pool p buf;
          Alcotest.(check (list (float 0.0)))
            (Printf.sprintf "pooled fused c2r %dx%d" m n)
            expected (buf_to_list buf);
          F.r2c_pool pool p buf;
          Alcotest.(check (list (float 0.0)))
            "pooled fused r2c inverts"
            (List.init (m * n) float_of_int)
            (buf_to_list buf))
        shapes)

let check_batch pool ~batch ~m ~n =
  let bufs = Array.init batch (fun _ -> iota_buf (m * n)) in
  F.transpose_batch pool ~m ~n bufs;
  let expected =
    let buf = iota_buf (m * n) in
    F.transpose ~m ~n buf;
    buf_to_list buf
  in
  Array.iteri
    (fun b buf ->
      Alcotest.(check (list (float 0.0)))
        (Printf.sprintf "batch[%d] %dx%d (batch=%d)" b m n batch)
        expected (buf_to_list buf))
    bufs

let test_transpose_batch () =
  with_pool 4 (fun pool ->
      (* batch >= lanes: matrix-parallel branch *)
      check_batch pool ~batch:9 ~m:48 ~n:36;
      check_batch pool ~batch:4 ~m:37 ~n:18;
      (* batch < lanes: panel-parallel branch *)
      check_batch pool ~batch:2 ~m:96 ~n:72;
      check_batch pool ~batch:1 ~m:23 ~n:40;
      (* degenerate shapes and empty batch *)
      check_batch pool ~batch:3 ~m:1 ~n:17;
      F.transpose_batch pool ~m:4 ~n:4 [||]);
  (* sequential pool exercises the lanes = 1 path *)
  check_batch Pool.sequential ~batch:3 ~m:48 ~n:36

let test_pool_workspace_reuse_across_shapes () =
  (* Per-lane workspaces handed to the pool drivers and reused across
     successive different shapes on the same pool (grow, shrink, grow
     again): a stale-capacity bug — scratch still sized or sliced for a
     previous shape — would corrupt results. *)
  with_pool 3 (fun pool ->
      let workspaces = Array.init 3 (fun _ -> Workspace.F64.create ()) in
      List.iter
        (fun (m, n) ->
          let p = Plan.make ~m ~n in
          let buf = iota_buf (m * n) in
          F.c2r_pool ~workspaces pool p buf;
          Alcotest.(check (list (float 0.0)))
            (Printf.sprintf "pooled shared-ws c2r %dx%d" m n)
            (oracle_c2r m n) (buf_to_list buf);
          F.r2c_pool ~workspaces pool p buf;
          Alcotest.(check (list (float 0.0)))
            (Printf.sprintf "pooled shared-ws r2c %dx%d" m n)
            (List.init (m * n) float_of_int)
            (buf_to_list buf))
        (shapes @ List.rev shapes))

let test_batch_workspace_reuse_across_shapes () =
  (* The batched driver reuses one workspace per lane across the matrices
     of a batch; drive the same pool through successive batches of very
     different shapes, alternating the matrix-parallel (batch >= lanes)
     and panel-parallel (batch < lanes) regimes. *)
  with_pool 3 (fun pool ->
      List.iter
        (fun (batch, m, n) -> check_batch pool ~batch ~m ~n)
        [
          (5, 96, 72);
          (5, 3, 8);
          (2, 48, 36);
          (4, 97, 89);
          (1, 9, 1);
          (6, 40, 23);
        ])

let test_batch_validates_before_moving () =
  with_pool 2 (fun pool ->
      let good = iota_buf (6 * 4) in
      let bad = iota_buf 5 in
      Alcotest.check_raises "size mismatch"
        (Invalid_argument
           "Fused_f64.transpose_batch: buffer size does not match shape")
        (fun () -> F.transpose_batch pool ~m:6 ~n:4 [| good; bad |]);
      Alcotest.(check (list (float 0.0)))
        "no element moved" (List.init 24 float_of_int) (buf_to_list good))

let test_width_grid_matches_oracle () =
  (* Every supported panel width is a pure locality knob: results must be
     bit-identical to the oracle on every shape, including widths larger
     than n and widths that do not divide n. *)
  List.iter
    (fun panel_width ->
      List.iter
        (fun (m, n) ->
          let p = Plan.make ~m ~n in
          let expected = oracle_c2r m n in
          let buf = iota_buf (m * n) in
          F.c2r ~panel_width p buf;
          Alcotest.(check (list (float 0.0)))
            (Printf.sprintf "w%d c2r %dx%d" panel_width m n)
            expected (buf_to_list buf);
          F.r2c ~panel_width p buf;
          Alcotest.(check (list (float 0.0)))
            (Printf.sprintf "w%d r2c inverts %dx%d" panel_width m n)
            (List.init (m * n) float_of_int)
            (buf_to_list buf);
          F.transpose ~panel_width ~m ~n buf;
          Alcotest.(check (list (float 0.0)))
            (Printf.sprintf "w%d transpose %dx%d" panel_width m n)
            expected (buf_to_list buf))
        shapes)
    [ 8; 16; 32; 64 ]

let test_batch_regimes_per_width () =
  (* Both sides of the batch rule -- matrix-parallel when the batch has a
     matrix per lane, panel-parallel below that -- at non-default
     widths. *)
  with_pool 3 (fun pool ->
      List.iter
        (fun panel_width ->
          List.iter
            (fun (batch, m, n) ->
              let bufs = Array.init batch (fun _ -> iota_buf (m * n)) in
              F.transpose_batch ~panel_width pool ~m ~n bufs;
              let expected =
                let buf = iota_buf (m * n) in
                F.transpose ~m ~n buf;
                buf_to_list buf
              in
              Array.iteri
                (fun b buf ->
                  Alcotest.(check (list (float 0.0)))
                    (Printf.sprintf "w%d batch[%d] %dx%d (batch=%d)"
                       panel_width b m n batch)
                    expected (buf_to_list buf))
                bufs)
            [ (5, 48, 36); (2, 40, 23) ])
        [ 8; 32 ])

(* The staging width depends on the shape: skinny shapes have the budget
   cap it (w = 1 once m > stage_elems / 2), while large-gcd and coprime
   near-square shapes take the panel width. Every path must transpose. *)
let transposed ~m ~n buf =
  let ok = ref true in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      if S.get buf ((j * m) + i) <> float_of_int ((i * n) + j) then ok := false
    done
  done;
  !ok

let staged_shape =
  QCheck2.Gen.(
    oneof
      [
        (* skinny: tall with 2..4 columns, either orientation *)
        map3
          (fun m n flip -> if flip then (n, m) else (m, n))
          (int_range 1000 140_000) (int_range 2 4) bool;
        (* large gcd: g * (a, b) *)
        map2
          (fun g (a, b) -> (g * a, g * b))
          (int_range 1 40)
          (oneofl [ (4, 3); (5, 3); (7, 4); (3, 5); (1, 1) ]);
        (* coprime near-square *)
        map (fun m -> (m, m + 1)) (int_range 2 90);
      ])

let prop_staged_paths =
  QCheck2.Test.make ~name:"staged passes: serial, pool and batch paths"
    ~count:25
    ~print:(fun ((m, n), lanes) -> Printf.sprintf "%dx%d lanes=%d" m n lanes)
    QCheck2.Gen.(pair staged_shape (int_range 1 3))
    (fun ((m, n), lanes) ->
      let serial =
        let buf = iota_buf (m * n) in
        F.transpose ~m ~n buf;
        transposed ~m ~n buf
      in
      serial
      && with_pool lanes (fun pool ->
             let buf = iota_buf (m * n) in
             F.transpose_pool pool ~m ~n buf;
             let bufs = Array.init 2 (fun _ -> iota_buf (m * n)) in
             F.transpose_batch pool ~m ~n bufs;
             transposed ~m ~n buf && Array.for_all (transposed ~m ~n) bufs))

let test_single_column_stagings () =
  (* m > stage_elems / 2: the budget caps every staging at one column. *)
  let m = (Kernels_f64.stage_elems / 2) + 7 and n = 3 in
  Alcotest.(check int) "one-column stagings" 1
    (Kernels_f64.stage_width ~m ~panel_width:Fused_f64.default_width);
  List.iter
    (fun (m, n) ->
      let buf = iota_buf (m * n) in
      F.transpose ~m ~n buf;
      Alcotest.(check bool) (Printf.sprintf "serial %dx%d" m n) true
        (transposed ~m ~n buf);
      with_pool 2 (fun pool ->
          let buf = iota_buf (m * n) in
          F.transpose_pool pool ~m ~n buf;
          Alcotest.(check bool) (Printf.sprintf "pool %dx%d" m n) true
            (transposed ~m ~n buf)))
    [ (m, n); (n, m) ]

let tests =
  [
    Alcotest.test_case "fused f64 c2r/r2c vs oracle" `Quick
      test_c2r_matches_oracle;
    Alcotest.test_case "workspace reuse across shapes" `Quick
      test_workspace_reuse_across_shapes;
    Alcotest.test_case "fused visit = two sweeps" `Quick test_cols_match_sweeps;
    Alcotest.test_case "transpose routing + plan cache" `Quick
      test_transpose_routes_and_caches;
    Alcotest.test_case "pooled fused engines" `Quick test_pool_engines;
    Alcotest.test_case "transpose_batch" `Quick test_transpose_batch;
    Alcotest.test_case "pool workspace reuse across shapes" `Quick
      test_pool_workspace_reuse_across_shapes;
    Alcotest.test_case "batch workspace reuse across shapes" `Quick
      test_batch_workspace_reuse_across_shapes;
    Alcotest.test_case "batch validates before moving" `Quick
      test_batch_validates_before_moving;
    Alcotest.test_case "panel width grid vs oracle" `Quick
      test_width_grid_matches_oracle;
    Alcotest.test_case "batch regimes per width vs oracle" `Quick
      test_batch_regimes_per_width;
    QCheck_alcotest.to_alcotest prop_fused_equals_oracle;
    QCheck_alcotest.to_alcotest prop_r2c_inverts;
    QCheck_alcotest.to_alcotest prop_staged_paths;
    Alcotest.test_case "one-column stagings" `Quick
      test_single_column_stagings;
  ]
