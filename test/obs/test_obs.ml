let () =
  Alcotest.run "xpose_obs"
    [
      ("metrics", Suite_metrics.tests);
      ("tracer", Suite_tracer.tests);
      ("report", Suite_report.tests);
      ("exposition", Suite_exposition.tests);
      ("calibrate", Suite_calibrate.tests);
      ("diff", Suite_diff.tests);
      (* last: it resets the process-global clock *)
      ("clock", Suite_clock.tests);
    ]
