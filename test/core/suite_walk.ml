(* The row walk (Plan.walk) against the per-element reference maps
   (Plan.d', Plan.d'_inv), and the f64 row movers built on it against the
   same maps, including the windowed calls of the out-of-core engine. *)

open Xpose_core

(* Walk rows [lo, hi) from a fresh cursor at [lo]; report the first row
   and column where the walk and the reference disagree, and what the
   walk gave there. *)
let walk_mismatch (p : Plan.t) ~inverse ~lo ~hi
    ~(reference : int -> int -> int) =
  let idx = Array.make p.n (-1) in
  let w = Plan.walk p ~row:lo in
  let bad = ref None in
  for i = lo to hi - 1 do
    if inverse then Plan.walk_d'_inv w idx else Plan.walk_d' w idx;
    if !bad = None then
      for j = 0 to p.n - 1 do
        if !bad = None && idx.(j) <> reference i j then
          bad := Some (i, j, idx.(j))
      done
  done;
  !bad

(* Every start row of every shape up to 64x64, walked to the last row:
   this covers every [lo, hi) a row pass can be asked for. The reference
   is tabulated once per shape. *)
let test_exhaustive () =
  for m = 1 to 64 do
    for n = 1 to 64 do
      let p = Plan.make ~m ~n in
      List.iter
        (fun (what, inverse, map) ->
          let table = Array.init m (fun i -> Array.init n (fun j -> map i j)) in
          let reference i j = table.(i).(j) in
          for lo = 0 to m - 1 do
            match walk_mismatch p ~inverse ~lo ~hi:m ~reference with
            | None -> ()
            | Some (i, j, got) ->
                Alcotest.failf
                  "%s %dx%d, walk from row %d: row %d col %d gave %d, want %d"
                  what m n lo i j got (reference i j)
          done)
        [
          ("d'", false, fun i j -> Plan.d' p ~i j);
          ("d'_inv", true, fun i j -> Plan.d'_inv p ~i j);
        ]
    done
  done

(* Large shapes in the degenerate regimes of the recurrences: coprime
   (c = 1), n dividing m (b = 1), m dividing n (a = 1), square (m = n),
   and a generic shared factor. A few runs of consecutive rows each. *)
let gen_large =
  QCheck2.Gen.(
    let dim = int_range 1 3000 in
    oneof
      [
        map (fun (m, n) -> (m, n)) (pair dim dim);
        map (fun (k, n) -> (k * n, n)) (pair (int_range 1 40) dim);
        map (fun (m, k) -> (m, k * m)) (pair dim (int_range 1 40));
        map (fun n -> (n, n)) dim;
        map
          (fun ((a, b), c) -> (a * c, b * c))
          (pair (pair (int_range 1 60) (int_range 1 60)) (int_range 1 60));
        (* c = 1 with both sides large *)
        map (fun k -> ((2 * k) + 1, 2 * k)) (int_range 500 3000);
      ]
    |> fun shape -> pair shape (list_size (return 4) (int_range 0 max_int)))

let prop_large =
  QCheck2.Test.make ~name:"walk = reference maps on large shapes" ~count:150
    ~print:(fun ((m, n), _) -> Printf.sprintf "%dx%d" m n)
    gen_large
    (fun ((m, n), starts) ->
      let p = Plan.make ~m ~n in
      List.for_all
        (fun s ->
          let lo = s mod m in
          let hi = min m (lo + 3) in
          walk_mismatch p ~inverse:false ~lo ~hi ~reference:(fun i j ->
              Plan.d' p ~i j)
          = None
          && walk_mismatch p ~inverse:true ~lo ~hi ~reference:(fun i j ->
                 Plan.d'_inv p ~i j)
             = None)
        starts)

(* A shape past the exact range of the fixed-point reciprocals
   (m*(n+1) >= 2^30): the plan builds, the maps invert each other, and
   the walk matches them. *)
let test_beyond_magic () =
  let m = 40000 and n = 30000 in
  let p = Plan.make ~m ~n in
  Plan.check_internal p;
  List.iter
    (fun i ->
      for j = 0 to n - 1 do
        if Plan.d' p ~i (Plan.d'_inv p ~i j) <> j then
          Alcotest.failf "d' (d'_inv) row %d col %d" i j
      done;
      if Plan.q p (Plan.q_inv p i) <> i then Alcotest.failf "q (q_inv %d)" i;
      let check what inverse map =
        match
          walk_mismatch p ~inverse ~lo:i ~hi:(i + 1) ~reference:(fun i j ->
              map i j)
        with
        | None -> ()
        | Some (i, j, got) ->
            Alcotest.failf "%s walk row %d col %d gave %d" what i j got
      in
      check "d'" false (fun i j -> Plan.d' p ~i j);
      check "d'_inv" true (fun i j -> Plan.d'_inv p ~i j))
    [ 0; 1; 2; 9_999; 20_000; m - 10_001; m - 2; m - 1 ]

let test_bad_arguments () =
  let p = Plan.make ~m:4 ~n:6 in
  Alcotest.check_raises "short row"
    (Invalid_argument "Plan.walk_d': index row shorter than n") (fun () ->
      Plan.walk_d' (Plan.walk p ~row:0) (Array.make 5 0));
  List.iter
    (fun row ->
      Alcotest.check_raises "row outside [0, m]"
        (Invalid_argument "Plan.walk: row outside [0, m]") (fun () ->
          ignore (Plan.walk p ~row)))
    [ -1; 5 ]

(* -- the movers, windowed ----------------------------------------------- *)

let f64 len = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len

(* Every (row0, lo, hi) with row0 <= lo <= hi <= m: the window buffer
   holds rows [row0, m); rows [lo, hi) must come out permuted exactly as
   the per-element maps say, and every other row of the window must be
   left alone. This is every call the out-of-core row pass can make on a
   window starting at row0. *)
let check_movers ~m ~n =
  let p = Plan.make ~m ~n in
  let tmp = f64 (max m n) and idx = Array.make n 0 in
  let passes =
    [
      ( "gather",
        Kernels_f64.Phases.row_shuffle_gather,
        fun ~src ~i j -> src.((i * n) + Plan.d'_inv p ~i j) );
      ( "ungather",
        Kernels_f64.Phases.row_shuffle_ungather,
        fun ~src ~i j -> src.((i * n) + Plan.d' p ~i j) );
    ]
  in
  for row0 = 0 to m - 1 do
    let rows = m - row0 in
    let win = f64 (rows * n) in
    let src = Array.init (m * n) float_of_int in
    for lo = row0 to m do
      for hi = lo to m do
        List.iter
          (fun (name, pass, expect) ->
            for l = 0 to (rows * n) - 1 do
              Bigarray.Array1.set win l src.((row0 * n) + l)
            done;
            pass p win ~tmp ~idx ~row0 ~lo ~hi;
            for i = row0 to m - 1 do
              for j = 0 to n - 1 do
                let want =
                  if i >= lo && i < hi then expect ~src ~i j
                  else src.((i * n) + j)
                in
                let got = Bigarray.Array1.get win (((i - row0) * n) + j) in
                if got <> want then
                  Alcotest.failf
                    "%s %dx%d row0=%d rows [%d,%d): (%d,%d) holds %g, want %g"
                    name m n row0 lo hi i j got want
              done
            done)
          passes
      done
    done
  done

let test_movers_windowed () =
  for m = 1 to 12 do
    for n = 1 to 12 do
      check_movers ~m ~n
    done
  done

let tests =
  [
    Alcotest.test_case "walk = reference, every row, m,n <= 64" `Quick
      test_exhaustive;
    QCheck_alcotest.to_alcotest prop_large;
    Alcotest.test_case "beyond the reciprocal bound (40000x30000)" `Quick
      test_beyond_magic;
    Alcotest.test_case "bad walk arguments rejected" `Quick test_bad_arguments;
    Alcotest.test_case "row movers, every window call, m,n <= 12" `Quick
      test_movers_windowed;
  ]
