(* The stage-and-gather column pass (Kernels_f64.Phases.gather_cols, raw
   and checked) against the per-element reference maps: every shape up to
   24x24, every staging width 1..17 (wider than m included), every
   sub-range, and the out-of-core form whose buffer holds only columns
   [col0, col0 + pitch). *)

open Xpose_core

let f64 len = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len

(* The maps, each with its per-element reference src(i, j). *)
let maps (p : Plan.t) =
  [
    ("rotate_pre", Kernels_f64.rotate (Plan.rotate_amount p), fun ~j i -> Plan.r p ~j i);
    ( "rotate_post",
      Kernels_f64.rotate (fun j -> -Plan.rotate_amount p j),
      fun ~j i -> Plan.r_inv p ~j i );
    ("shuffle", Kernels_f64.shuffle p, fun ~j i -> Plan.s' p ~j i);
    ( "unshuffle",
      Kernels_f64.unshuffle p,
      fun ~j i -> Plan.q_inv p (Plan.p_inv p ~j i) );
  ]

(* Buffer element (i, j - col0) holds i*n + j, the global index. *)
let fill (p : Plan.t) buf ~pitch ~col0 =
  for i = 0 to p.m - 1 do
    for c = 0 to pitch - 1 do
      Bigarray.Array1.set buf ((i * pitch) + c) (float_of_int ((i * p.n) + col0 + c))
    done
  done

(* Run one pass on columns [lo, hi) of a buffer holding global columns
   [col0, col0 + pitch), and report the first element that differs from
   the reference (columns outside [lo, hi) must be untouched). *)
let mismatch (module K : Kernels_f64.PHASES) (p : Plan.t) ~map ~src ~pitch
    ~col0 ~width ~lo ~hi =
  let m = p.m in
  let buf = f64 (m * pitch) in
  let w = max 1 (min width (hi - lo)) in
  let stage = f64 (m * w) and idx = Array.make w 0 in
  fill p buf ~pitch ~col0;
  K.gather_cols p buf ~stage ~idx ~map ~pitch ~col0 ~width ~lo ~hi;
  let bad = ref None in
  for i = 0 to m - 1 do
    for c = 0 to pitch - 1 do
      let j = col0 + c in
      let want = if j >= lo && j < hi then (src ~j i * p.n) + j else (i * p.n) + j in
      if !bad = None && Bigarray.Array1.get buf ((i * pitch) + c) <> float_of_int want
      then bad := Some (i, j)
    done
  done;
  !bad

let fail_at what (p : Plan.t) ~pitch ~col0 ~width ~lo ~hi (i, j) =
  Alcotest.failf "%s %dx%d pitch=%d col0=%d w=%d [%d,%d): element (%d, %d)"
    what p.m p.n pitch col0 width lo hi i j

let check phases p ~pitch ~col0 ~width ~lo ~hi =
  List.iter
    (fun (what, map, src) ->
      match mismatch phases p ~map ~src ~pitch ~col0 ~width ~lo ~hi with
      | None -> ()
      | Some at -> fail_at what p ~pitch ~col0 ~width ~lo ~hi at)
    (maps p)

(* Every (m, n, w, lo, hi): the expected values are tabulated once per
   shape and map, and after each pass only its columns and their two
   neighbours (which must be untouched) are checked and restored. *)
let test_exhaustive () =
  let module K = Kernels_f64.Phases in
  for m = 1 to 24 do
    for n = 1 to 24 do
      let p = Plan.make ~m ~n in
      let buf = f64 (m * n) in
      fill p buf ~pitch:n ~col0:0;
      let stage = f64 (m * 17) and idx = Array.make 17 0 in
      List.iter
        (fun (what, map, src) ->
          let want = Array.init (m * n) (fun l -> float_of_int ((src ~j:(l mod n) (l / n) * n) + (l mod n))) in
          for width = 1 to 17 do
            for lo = 0 to n do
              for hi = lo to n do
                K.gather_cols p buf ~stage ~idx ~map ~pitch:n ~col0:0 ~width ~lo ~hi;
                for i = 0 to m - 1 do
                  for j = max 0 (lo - 1) to min (n - 1) hi do
                    let l = (i * n) + j in
                    let expect = if j >= lo && j < hi then want.(l) else float_of_int l in
                    if Bigarray.Array1.get buf l <> expect then
                      fail_at what p ~pitch:n ~col0:0 ~width ~lo ~hi (i, j);
                    Bigarray.Array1.set buf l (float_of_int l)
                  done
                done
              done
            done
          done)
        (maps p)
    done
  done

(* The out-of-core call: the buffer is a staging of columns [col0, col0 +
   pitch) at its own pitch, and the pass covers all of it. *)
let test_windowed () =
  for m = 1 to 24 do
    for n = 2 to 24 do
      let p = Plan.make ~m ~n in
      for col0 = 1 to n - 1 do
        List.iter
          (fun pitch ->
            if col0 + pitch <= n then
              List.iter
                (fun width ->
                  check (module Kernels_f64.Phases) p ~pitch ~col0 ~width
                    ~lo:col0 ~hi:(col0 + pitch))
                [ 1; 2; 3; 5; 16; 17 ])
          [ 1; 2; 3; n - col0 ]
      done
    done
  done

let test_checked_twin () =
  List.iter
    (fun (m, n) ->
      let p = Plan.make ~m ~n in
      List.iter
        (fun width ->
          check (module Kernels_f64.Checked.Phases) p ~pitch:n ~col0:0 ~width
            ~lo:0 ~hi:n;
          check (module Kernels_f64.Checked.Phases) p ~pitch:(n - (n / 2))
            ~col0:(n / 2) ~width ~lo:(n / 2) ~hi:n)
        [ 1; 2; 3; 16; 17 ])
    [ (1, 2); (2, 2); (3, 8); (8, 3); (12, 18); (18, 12); (24, 24); (7, 23) ]

(* C2R's column passes then R2C's restore every column, on every
   sub-range. *)
let test_round_trip () =
  let module K = Kernels_f64.Phases in
  for m = 1 to 24 do
    for n = 1 to 24 do
      let p = Plan.make ~m ~n in
      List.iter
        (fun width ->
          let stage = f64 (m * width) and idx = Array.make width 0 in
          let buf = f64 (m * n) in
          let run map ~lo ~hi =
            K.gather_cols p buf ~stage ~idx ~map ~pitch:n ~col0:0 ~width ~lo ~hi
          in
          List.iter
            (fun (lo, hi) ->
              fill p buf ~pitch:n ~col0:0;
              run (Kernels_f64.rotate (Plan.rotate_amount p)) ~lo ~hi;
              run (Kernels_f64.shuffle p) ~lo ~hi;
              run (Kernels_f64.unshuffle p) ~lo ~hi;
              run (Kernels_f64.rotate (fun j -> -Plan.rotate_amount p j)) ~lo ~hi;
              for l = 0 to (m * n) - 1 do
                if Bigarray.Array1.get buf l <> float_of_int l then
                  Alcotest.failf "round trip %dx%d w=%d [%d,%d): index %d" m n
                    width lo hi l
              done)
            [ (0, n); (0, n / 2); (n / 2, n); (min n 1, min n 5) ])
        [ 1; 2; 5; 16; 17 ]
    done
  done

let test_tables () =
  for m = 1 to 64 do
    for n = 1 to 64 do
      let p = Plan.make ~m ~n in
      let q = Plan.q_table p and qi = Plan.q_inv_table p in
      for i = 0 to m - 1 do
        if q.(i) <> Plan.q p i || qi.(i) <> Plan.q_inv p i then
          Alcotest.failf "q tables %dx%d row %d" m n i
      done
    done
  done

let test_width_rule () =
  Alcotest.(check int) "capped by the panel width" 16
    (Kernels_f64.stage_width ~m:4096 ~panel_width:16);
  Alcotest.(check int) "capped by the budget" 3
    (Kernels_f64.stage_width ~m:82241 ~panel_width:16);
  Alcotest.(check int) "one column past half the budget" 1
    (Kernels_f64.stage_width ~m:(Kernels_f64.stage_elems / 2 + 1) ~panel_width:16);
  Alcotest.(check int) "one column past the budget" 1
    (Kernels_f64.stage_width ~m:(3 * Kernels_f64.stage_elems) ~panel_width:16);
  List.iter
    (fun m ->
      let w = Kernels_f64.stage_width ~m ~panel_width:64 in
      if m * w > max m Kernels_f64.stage_elems then
        Alcotest.failf "m=%d: scratch %d above max(m, B)" m (m * w))
    [ 1; 2; 1000; 4096; 16385; 262144; 262145; 1_000_000 ]

let test_bad_arguments () =
  let p = Plan.make ~m:4 ~n:6 in
  let buf = f64 24 and stage = f64 4 and idx = Array.make 1 0 in
  let run ?(stage = stage) ?(idx = idx) ?(pitch = 6) ?(col0 = 0) ?(width = 1)
      ?(map = Kernels_f64.shuffle p) ~lo ~hi () =
    Kernels_f64.Phases.gather_cols p buf ~stage ~idx ~map ~pitch ~col0 ~width
      ~lo ~hi
  in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  raises "range past the buffer" (fun () -> run ~lo:0 ~hi:7 ());
  raises "range before col0" (fun () -> run ~col0:1 ~pitch:5 ~lo:0 ~hi:2 ());
  raises "stage too small" (fun () -> run ~width:2 ~lo:0 ~hi:6 ());
  raises "index row too short" (fun () -> run ~stage:(f64 8) ~width:2 ~lo:0 ~hi:6 ());
  raises "zero width" (fun () -> run ~width:0 ~lo:0 ~hi:6 ());
  raises "table of another plan" (fun () ->
      run ~map:(Kernels_f64.shuffle (Plan.make ~m:5 ~n:6)) ~lo:0 ~hi:6 ())

let tests =
  [
    Alcotest.test_case "every map = reference (m, n <= 24, all w, all ranges)"
      `Quick test_exhaustive;
    Alcotest.test_case "windowed stagings (col0 > 0) = reference" `Quick
      test_windowed;
    Alcotest.test_case "checked twin = reference" `Quick test_checked_twin;
    Alcotest.test_case "c2r column passes then r2c = identity" `Quick
      test_round_trip;
    Alcotest.test_case "q tables = Plan.q / Plan.q_inv" `Quick test_tables;
    Alcotest.test_case "staging width rule" `Quick test_width_rule;
    Alcotest.test_case "bad arguments rejected" `Quick test_bad_arguments;
  ]
