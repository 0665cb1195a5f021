(* Cache_aware's column-range contract: a sweep over [[lo, hi)] touches
   only those columns, so running it piecewise over any split of
   [[0, n)], with one workspace carried across the pieces, gives the
   full-range result. *)

open Xpose_core
open Xpose_cpu
module S = Storage.Int_elt
module A = Instances.I
module C = Cache_aware.Make (Storage.Int_elt)

let iota_buf len =
  let buf = S.create len in
  Storage.fill_iota (module S) buf;
  buf

let buf_to_list buf = List.init (S.length buf) (S.get buf)

(* [pieces n cuts] turns interior cut points into consecutive ranges
   covering [[0, n)]. *)
let pieces n cuts =
  let bounds = (0 :: List.filter (fun c -> c > 0 && c < n) cuts) @ [ n ] in
  let rec go = function
    | lo :: (hi :: _ as rest) -> (lo, hi) :: go rest
    | _ -> []
  in
  go bounds

let rotate_reference p ~amount =
  let buf = iota_buf (p.Plan.m * p.Plan.n) in
  let tmp = S.create (Plan.scratch_elements p) in
  A.Phases.rotate_columns p buf ~tmp ~amount ~lo:0 ~hi:p.Plan.n;
  buf_to_list buf

let permute_reference p ~index =
  let buf = iota_buf (p.Plan.m * p.Plan.n) in
  let tmp = S.create (Plan.scratch_elements p) in
  A.Phases.permute_rows p buf ~tmp ~index ~lo:0 ~hi:p.Plan.n;
  buf_to_list buf

let split_rotate ~width ~ws p ~amount cuts =
  let buf = iota_buf (p.Plan.m * p.Plan.n) in
  List.iter
    (fun (lo, hi) -> C.rotate_columns ~width ~ws ~lo ~hi p buf ~amount)
    (pieces p.Plan.n cuts);
  buf_to_list buf

let split_permute ~width ~ws p ~index cuts =
  let buf = iota_buf (p.Plan.m * p.Plan.n) in
  List.iter
    (fun (lo, hi) -> C.permute_rows ~width ~ws ~lo ~hi p buf ~index)
    (pieces p.Plan.n cuts);
  buf_to_list buf

(* Splits on and off the group width, including one-column pieces. *)
let cut_sets n = [ []; [ n / 2 ]; [ 1; n - 1 ]; [ 5; 7; 16; 33 ] ]

let shapes = [ (12, 18); (30, 8); (8, 30); (17, 41); (64, 48) ]

let test_rotate_splits () =
  let ws = C.Ws.create () in
  List.iter
    (fun (m, n) ->
      let p = Plan.make ~m ~n in
      List.iter
        (fun (label, amount) ->
          let expected = rotate_reference p ~amount in
          List.iter
            (fun width ->
              List.iter
                (fun cuts ->
                  Alcotest.(check (list int))
                    (Printf.sprintf "rotate %s %dx%d w=%d cuts=[%s]" label m
                       n width
                       (String.concat ";" (List.map string_of_int cuts)))
                    expected
                    (split_rotate ~width ~ws p ~amount cuts))
                (cut_sets n))
            [ 1; 3; 16 ])
        [
          ("coarse", Plan.rotate_amount p);
          ("j", Fun.id);
          ("-j", fun j -> -j);
          ("wild", fun j -> (j * 7) + 3);
        ])
    shapes

let test_permute_splits () =
  let ws = C.Ws.create () in
  List.iter
    (fun (m, n) ->
      let p = Plan.make ~m ~n in
      List.iter
        (fun (label, index) ->
          let expected = permute_reference p ~index in
          List.iter
            (fun width ->
              List.iter
                (fun cuts ->
                  Alcotest.(check (list int))
                    (Printf.sprintf "permute %s %dx%d w=%d cuts=[%s]" label m
                       n width
                       (String.concat ";" (List.map string_of_int cuts)))
                    expected
                    (split_permute ~width ~ws p ~index cuts))
                (cut_sets n))
            [ 1; 5; 16 ])
        [ ("q", Plan.q p); ("q_inv", Plan.q_inv p); ("rev", fun i -> m - 1 - i) ])
    shapes

let test_empty_range () =
  let p = Plan.make ~m:9 ~n:14 in
  let buf = iota_buf (9 * 14) in
  C.rotate_columns ~lo:5 ~hi:5 p buf ~amount:(fun j -> j + 1);
  C.permute_rows ~lo:14 ~hi:14 p buf ~index:(fun i -> 8 - i);
  Alcotest.(check (list int)) "empty ranges move nothing"
    (List.init (9 * 14) Fun.id) (buf_to_list buf)

let test_bad_ranges () =
  let p = Plan.make ~m:6 ~n:4 in
  let buf = iota_buf 24 in
  List.iter
    (fun (lo, hi) ->
      let what = Printf.sprintf "lo=%d hi=%d" lo hi in
      Alcotest.check_raises ("rotate " ^ what)
        (Invalid_argument "Cache_aware.rotate_columns: bad column range")
        (fun () -> C.rotate_columns ~lo ~hi p buf ~amount:Fun.id);
      Alcotest.check_raises ("permute " ^ what)
        (Invalid_argument "Cache_aware.permute_rows: bad column range")
        (fun () -> C.permute_rows ~lo ~hi p buf ~index:Fun.id))
    [ (-1, 2); (0, 5); (3, 2) ];
  Alcotest.(check (list int)) "rejected ranges leave the buffer"
    (List.init 24 Fun.id) (buf_to_list buf)

let prop_random_split =
  QCheck2.Test.make ~name:"split column passes = full range" ~count:60
    QCheck2.Gen.(
      quad (int_range 1 40) (int_range 1 40) (int_range 1 20)
        (small_list (int_range 1 39)))
    (fun (m, n, width, cuts) ->
      let p = Plan.make ~m ~n in
      let cuts = List.sort_uniq compare cuts in
      let ws = C.Ws.create () in
      let amount = Plan.rotate_amount p and index = Plan.q p in
      split_rotate ~width ~ws p ~amount cuts = rotate_reference p ~amount
      && split_permute ~width ~ws p ~index cuts = permute_reference p ~index)

let tests =
  [
    Alcotest.test_case "rotate over split ranges" `Quick test_rotate_splits;
    Alcotest.test_case "permute over split ranges" `Quick test_permute_splits;
    Alcotest.test_case "empty ranges" `Quick test_empty_range;
    Alcotest.test_case "bad column ranges" `Quick test_bad_ranges;
    QCheck_alcotest.to_alcotest prop_random_split;
  ]
