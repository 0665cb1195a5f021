let () =
  Alcotest.run "xpose_core"
    [
      ("intmath", Suite_intmath.tests);
      ("magic", Suite_magic.tests);
      ("layout", Suite_layout.tests);
      ("plan", Suite_plan.tests);
      ("walk", Suite_walk.tests);
      ("stage", Suite_stage.tests);
      ("storage", Suite_storage.tests);
      ("algo", Suite_algo.tests);
      ("trace", Suite_trace.tests);
      ("views", Suite_views.tests);
      ("tensor3", Suite_tensor3.tests);
      ("theory", Suite_theory.tests);
      ("cross_storage", Suite_cross_storage.tests);
      ("rotate90", Suite_rotate90.tests);
    ]
