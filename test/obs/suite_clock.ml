open Xpose_obs

(* This test resets the process-global clock, so the suite runs LAST in
   the runner and restores the default source on the way out. *)

let test_reset_restores_default () =
  Fun.protect ~finally:Clock.reset (fun () ->
      Clock.install (fun () -> 7.0);
      Alcotest.(check (float 0.0)) "installed source active" 7.0
        (Clock.now_ns ());
      Clock.reset ();
      (* the default source is the monotonic clock: finite, and never
         behind an earlier reading *)
      let a = Clock.default_now_ns () in
      let b = Clock.now_ns () in
      Alcotest.(check bool) "default ticks" true
        (Float.is_finite a && a >= 0.0 && b >= a))

let tests =
  [
    Alcotest.test_case "reset restores the default source" `Quick
      test_reset_restores_default;
  ]
