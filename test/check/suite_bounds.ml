(* Parametric bounds certificates (Xpose_check.Bounds): a positive
   certificate on a real kernel summary, the seeded negative refuted
   with a concrete witness, and the counterexample search agreeing with
   the prover. The full certificate grid (~90s) is exercised by the CI
   prove-bounds stage, not here. *)

open Xpose_core
open Xpose_check

let find_pass name =
  match
    List.find_opt
      (fun (s : Access.summary) -> s.pass = name)
      Access.Passes.all_pipeline_passes
  with
  | Some s -> s
  | None -> Alcotest.failf "pipeline pass %s missing" name

let test_rotate_pre_proved () =
  match Bounds.certify_summary (find_pass "rotate_pre") with
  | Ok n -> Alcotest.(check bool) "obligations" true (n > 0)
  | Error e -> Alcotest.failf "rotate_pre not certified: %s" e

let test_certify_labels () =
  let r = Bounds.certify ~subject:"test/rotate_pre" (find_pass "rotate_pre") in
  Alcotest.(check string) "subject" "test/rotate_pre" r.Bounds.subject;
  Alcotest.(check string) "pass" "rotate_pre" r.Bounds.pass;
  Alcotest.(check bool) "proved" true r.Bounds.proved;
  Alcotest.(check bool) "no counterexample" true
    (r.Bounds.counterexample = None)

let contains s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  lb = 0 || go 0

let test_seeded_refuted () =
  let r = Bounds.seeded_result () in
  Alcotest.(check string) "subject" "seeded/rotate-oob" r.Bounds.subject;
  Alcotest.(check bool) "not proved" false r.Bounds.proved;
  match r.Bounds.counterexample with
  | None -> Alcotest.fail "seeded summary not refuted"
  | Some cx ->
      Alcotest.(check bool) "smallest witness" true (contains cx "m=2 n=2")

let test_counterexample_search () =
  Alcotest.(check bool)
    "clean pass has no witness" true
    (Bounds.find_counterexample (find_pass "rotate_pre") = None);
  Alcotest.(check bool)
    "seeded pass has a witness" true
    (Bounds.find_counterexample
       (Access.Passes.seeded_oob_rotate Access.Ix.rotate_amount)
    <> None)

(* A summary whose divisor samples to 0: the parameter [k] starts at 0,
   both a later parameter's bound and the access divide by it, and the
   access overflows the region once [k >= 1]. The witness search must
   skip the [k = 0] samples as infeasible and refute at [k = 1] -- not
   raise [Division_by_zero]. *)
let zero_divisor =
  let open Access in
  {
    pass = "seeded.zero_divisor";
    basis = Free_basis;
    params =
      [
        { name = "k"; p_lo = num 0; p_his = [ var "m" ]; sample = [ 0; 1; 2 ] };
        {
          name = "j";
          p_lo = num 0;
          p_his = [ var "m" /: var "k" ];
          sample = [ 0; 1 ];
        };
      ];
    regions = [ { rname = "matrix"; size = var "m" *: var "n" } ];
    body =
      [
        for_ "i" (num 0) (var "m")
          [ read "matrix" ((var "m" *: var "n") +: (var "i" /: var "k")) ];
      ];
    exact = false;
  }

let test_zero_divisor_total () =
  let r = Bounds.certify ~subject:"seeded/zero-divisor" zero_divisor in
  Alcotest.(check bool) "not proved" false r.Bounds.proved;
  Alcotest.(check bool)
    "a refutation or no proof, never an exception" true
    (r.Bounds.counterexample <> None
    || contains r.Bounds.detail "no proof found");
  match r.Bounds.counterexample with
  | Some cx ->
      Alcotest.(check bool) "witness past the zero divisor" true
        (contains cx "k=1")
  | None -> ()

let tests =
  [
    Alcotest.test_case "rotate_pre proved" `Quick test_rotate_pre_proved;
    Alcotest.test_case "certify labels" `Quick test_certify_labels;
    Alcotest.test_case "seeded refuted" `Quick test_seeded_refuted;
    Alcotest.test_case "counterexample search" `Quick
      test_counterexample_search;
    Alcotest.test_case "zero divisor: search stays total" `Quick
      test_zero_divisor_total;
  ]
