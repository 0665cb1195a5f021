(* Grounding the symbolic models in reality: every pass gather map must
   describe what the real kernel does to a concrete buffer, and the
   composed engine models must describe the real engines end to end. The
   driver separately proves model = specification, so together these pin
   engine = model = specification. *)

open Xpose_core
open Xpose_check
module S = Storage.Float64

let iota_buf len =
  let buf = S.create len in
  Storage.fill_iota (module S) buf;
  buf

let shapes = [ (3, 5); (7, 13); (16, 16); (31, 33); (48, 36); (97, 89) ]

(* Run [run] on an iota buffer and check every slot against the gather
   map: after the pass, buf.(l) = iota.(map l) = map l. *)
let check_against_model ~m ~n name model run =
  let size = m * n in
  if size <> Perm.size model then
    Alcotest.failf "%s %dx%d: model size %d" name m n (Perm.size model);
  let buf = iota_buf size in
  run buf;
  for l = 0 to size - 1 do
    let expected = float_of_int (Perm.apply model l) in
    if S.get buf l <> expected then
      Alcotest.failf "%s %dx%d: slot %d holds %g, model says %g" name m n l
        (S.get buf l) expected
  done

(* Each pass model against the code that runs it: the functor's
   per-column sweeps and row shuffles (Algo.Make, the paper reference),
   the f64 engine's walk row passes, and its staged column passes, whose
   maps compose the functor's sweeps. *)
let test_pass_models_match_kernels () =
  let module AP = Instances.F64.Phases in
  List.iter
    (fun (m, n) ->
      let p = Plan.make ~m ~n in
      let tmp = S.create (Plan.scratch_elements p) in
      let idx = Array.make n 0 in
      let amount j = j in
      check_against_model ~m ~n "rotate_columns"
        (Spec.Passes.rotate_columns p ~amount)
        (fun buf -> AP.rotate_columns p buf ~tmp ~amount ~lo:0 ~hi:n);
      check_against_model ~m ~n "row_shuffle_gather"
        (Spec.Passes.row_shuffle_gather p)
        (fun buf -> AP.row_shuffle_gather p buf ~tmp ~lo:0 ~hi:m);
      (* scatter is a different implementation of the same permutation *)
      check_against_model ~m ~n "row_shuffle_scatter"
        (Spec.Passes.row_shuffle_gather p)
        (fun buf -> AP.row_shuffle_scatter p buf ~tmp ~lo:0 ~hi:m);
      check_against_model ~m ~n "row_shuffle_ungather"
        (Spec.Passes.row_shuffle_ungather p)
        (fun buf -> AP.row_shuffle_ungather p buf ~tmp ~lo:0 ~hi:m);
      check_against_model ~m ~n "walk row_shuffle_gather"
        (Spec.Passes.row_shuffle_gather p)
        (fun buf ->
          Kernels_f64.Phases.row_shuffle_gather p buf ~tmp ~idx ~row0:0 ~lo:0
            ~hi:m);
      check_against_model ~m ~n "walk row_shuffle_ungather"
        (Spec.Passes.row_shuffle_ungather p)
        (fun buf ->
          Kernels_f64.Phases.row_shuffle_ungather p buf ~tmp ~idx ~row0:0
            ~lo:0 ~hi:m);
      check_against_model ~m ~n "col_shuffle_gather"
        (Spec.Passes.col_shuffle_gather p)
        (fun buf -> AP.col_shuffle_gather p buf ~tmp ~lo:0 ~hi:n);
      check_against_model ~m ~n "col_shuffle_ungather"
        (Spec.Passes.col_shuffle_ungather p)
        (fun buf -> AP.col_shuffle_ungather p buf ~tmp ~lo:0 ~hi:n);
      check_against_model ~m ~n "permute_rows"
        (Spec.Passes.permute_rows p ~index:(Plan.q p))
        (fun buf -> AP.permute_rows p buf ~tmp ~index:(Plan.q p) ~lo:0 ~hi:n);
      check_against_model ~m ~n "staged rotate"
        (Spec.Passes.rotate_columns p ~amount)
        (fun buf -> Kernels_f64.gather_cols p buf (Kernels_f64.rotate amount));
      check_against_model ~m ~n "staged shuffle"
        (Spec.Passes.col_shuffle_gather p)
        (fun buf -> Kernels_f64.gather_cols p buf (Kernels_f64.shuffle p));
      check_against_model ~m ~n "staged unshuffle"
        (Spec.Passes.col_shuffle_ungather p)
        (fun buf -> Kernels_f64.gather_cols p buf (Kernels_f64.unshuffle p)))
    shapes

let compose_model passes =
  match passes with
  | [] -> None
  | (_, first) :: _ ->
      Some (Perm.pipeline ~size:(Perm.size first) (List.map snd passes))

let test_engine_models_match_engines () =
  (* End to end: the composed model of each engine applied to iota must
     equal the engine's real output. *)
  List.iter
    (fun (m, n) ->
      let check name engine run =
        match compose_model (Spec.transpose_model engine ~m ~n) with
        | None -> ()
        | Some net -> check_against_model ~m ~n name net run
      in
      check "functor engine" Spec.Functor (fun buf ->
          Instances.F64.transpose ~m ~n buf);
      check "kernels engine" Spec.Fused (fun buf ->
          Kernels_f64.transpose ~m ~n buf);
      check "fused engine" Spec.Fused (fun buf ->
          Xpose_cpu.Fused_f64.transpose ~m ~n buf);
      check "decomposed engine" Spec.Decomposed (fun buf ->
          if m > n then
            let p = Plan.make ~m ~n in
            let tmp = S.create (Plan.scratch_elements p) in
            Instances.F64.c2r ~variant:Algo.C2r_decomposed p buf ~tmp
          else
            let p = Plan.make ~m:n ~n:m in
            let tmp = S.create (Plan.scratch_elements p) in
            Instances.F64.r2c ~variant:Algo.R2c_decomposed p buf ~tmp))
    shapes

let test_transpose_target_matches_reality () =
  List.iter
    (fun (m, n) ->
      check_against_model ~m ~n "transpose target"
        (Spec.transpose_target ~m ~n) (fun buf ->
          Kernels_f64.transpose ~m ~n buf))
    shapes

let test_permute_target_matches_reality () =
  let module SI = Storage.Int_elt in
  let module Nd = Tensor_nd.Make (SI) in
  List.iter
    (fun (dims, perm) ->
      let total = Array.fold_left ( * ) 1 dims in
      let target = Spec.permute_target ~dims ~perm in
      let buf = SI.create total in
      for i = 0 to total - 1 do
        SI.set buf i (SI.of_int i)
      done;
      Nd.permute ~dims ~perm buf;
      for l = 0 to total - 1 do
        let expected = Perm.apply target l in
        if SI.to_int (SI.get buf l) <> expected then
          Alcotest.failf "permute target: slot %d holds %d, target says %d" l
            (SI.to_int (SI.get buf l))
            expected
      done)
    [
      ([| 4; 5; 6 |], [| 2; 0; 1 |]);
      ([| 2; 3; 4 |], [| 0; 2; 1 |]);
      ([| 3; 4; 5; 6 |], [| 1; 3; 0; 2 |]);
    ]

let test_probes_in_range () =
  List.iter
    (fun (m, n) ->
      let probes = Spec.probes ~m ~n () in
      Alcotest.(check bool)
        (Printf.sprintf "probes exist %dx%d" m n)
        true
        (List.length probes > 0);
      List.iter
        (fun l ->
          if l < 0 || l >= m * n then
            Alcotest.failf "probe %d outside [0, %d) for %dx%d" l (m * n) m n)
        probes)
    ((1024, 768) :: shapes)

let test_verify_rejects_broken_model () =
  (* Sanity of the verifier itself: a wrong pipeline must not prove.
     Drop the final pass of the functor model and verify. *)
  let m = 48 and n = 36 in
  let passes = Spec.transpose_model Spec.Functor ~m ~n in
  let truncated = List.filteri (fun i _ -> i < List.length passes - 1) passes in
  match compose_model truncated with
  | None -> Alcotest.fail "model is not empty for 48x36"
  | Some net -> (
      match Perm.verify ~target:(Spec.transpose_target ~m ~n) net with
      | Perm.Mismatch _ -> ()
      | Perm.Proved _ -> Alcotest.fail "truncated pipeline proved")

let tests =
  [
    Alcotest.test_case "pass models match kernels" `Quick
      test_pass_models_match_kernels;
    Alcotest.test_case "engine models match engines" `Quick
      test_engine_models_match_engines;
    Alcotest.test_case "transpose target matches reality" `Quick
      test_transpose_target_matches_reality;
    Alcotest.test_case "permute target matches reality" `Quick
      test_permute_target_matches_reality;
    Alcotest.test_case "probes in range" `Quick test_probes_in_range;
    Alcotest.test_case "verifier rejects broken model" `Quick
      test_verify_rejects_broken_model;
  ]
