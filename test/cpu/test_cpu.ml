(* Alcotest pads the suite column to the longest suite label and cuts
   each output line at 80 columns, so the printed name of a long test
   depends on that label's length. [cache_col_range] (15 characters) is
   the longest label; a longer or shorter longest label changes how
   every long test name here prints. *)
let () =
  Alcotest.run "xpose_cpu"
    [
      ("pool", Suite_pool.tests);
      ("par_transpose", Suite_par_transpose.tests);
      ("cache_aware", Suite_cache_aware.tests);
      ("cache_col_range", Suite_cache_range.tests);
      ("fused", Suite_fused.tests);
      ("f64_kernels", Suite_f64.tests);
      ("skinny", Suite_skinny.tests);
    ]
