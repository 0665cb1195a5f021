let () =
  Alcotest.run "xpose_tune" [ ("engine_select", Suite_engine_select.tests) ]
