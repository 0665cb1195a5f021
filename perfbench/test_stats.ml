module S = Perfbench_stats.Stats

let float = Alcotest.float 1e-9

let test_median () =
  Alcotest.check float "odd" 3.0 (S.median [| 5.0; 1.0; 3.0 |]);
  Alcotest.check float "even" 2.5 (S.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (S.median [||]));
  let a = [| 3.0; 1.0; 2.0 |] in
  ignore (S.median a);
  Alcotest.(check (array (Alcotest.float 0.0))) "input untouched" [| 3.0; 1.0; 2.0 |] a

(* Expected values are what Python's statistics.quantiles(data, n=4)
   prints for the same data. *)
let test_quartiles () =
  let check name data (e1, e2, e3) =
    let q1, q2, q3 = S.quartiles data in
    Alcotest.check float (name ^ " q1") e1 q1;
    Alcotest.check float (name ^ " q2") e2 q2;
    Alcotest.check float (name ^ " q3") e3 q3
  in
  check "1..10" (Array.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "1..9" (Array.init 9 (fun i -> float_of_int (i + 1))) (2.5, 5.0, 7.5);
  check "two" [| 1.0; 2.0 |] (0.75, 1.5, 2.25);
  check "unsorted" [| 9.0; 1.0; 5.0; 3.0; 7.0 |] (2.0, 5.0, 8.0);
  Alcotest.check_raises "one sample"
    (Invalid_argument "Stats.quartiles: need at least two samples") (fun () ->
      ignore (S.quartiles [| 1.0 |]))

let test_tail () =
  let ramp n = Array.init n (fun i -> float_of_int (i + 1)) in
  let t = S.tail (ramp 100) in
  Alcotest.(check int) "100 samples: p90" 90 t.S.pct;
  Alcotest.check float "100 samples: value" 90.0 t.S.value;
  Alcotest.(check int) "100 samples: beyond" 10 t.S.beyond;
  Alcotest.(check int) "100 samples: count" 100 t.S.samples;
  let t = S.tail (ramp 20) in
  Alcotest.(check int) "20 samples: p50" 50 t.S.pct;
  Alcotest.check float "20 samples: value" 10.0 t.S.value;
  Alcotest.(check int) "20 samples: beyond" 10 t.S.beyond;
  let t = S.tail (ramp 1000) in
  Alcotest.(check int) "1000 samples: p99" 99 t.S.pct;
  Alcotest.(check int) "1000 samples: beyond" 10 t.S.beyond;
  let t = S.tail (ramp 47) in
  Alcotest.(check bool) "47 samples: at least ten beyond" true (t.S.beyond >= 10);
  Alcotest.(check bool) "47 samples: next percentile fails" true
    (47 - (((t.S.pct + 1) * 47) + 99) / 100 < 10);
  let t = S.tail [| 3.0; 1.0; 2.0 |] in
  Alcotest.(check int) "few samples: no percentile" 100 t.S.pct;
  Alcotest.check float "few samples: max" 3.0 t.S.value;
  Alcotest.(check int) "few samples: none beyond" 0 t.S.beyond

let test_ratio () =
  Alcotest.check float "ratio" 0.25 (S.ratio ~num:1 ~den:4);
  Alcotest.check float "zero base" 0.0 (S.ratio ~num:0 ~den:0);
  Alcotest.(check string) "with base" "0.2500 (1/4)" (S.ratio_with_base ~num:1 ~den:4);
  Alcotest.(check string) "zero failures" "0.0000 (0/975)"
    (S.ratio_with_base ~num:0 ~den:975)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "tail rule" `Quick test_tail;
          Alcotest.test_case "ratios with bases" `Quick test_ratio;
        ] );
    ]
