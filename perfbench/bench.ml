(* The end-to-end benchmark.

     bench --workload NAME --seed N --seconds S --trace 0|1

   runs one workload for S measured seconds and prints a human-readable
   report followed, as its last line, by one JSON object:
   {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
   end-to-end metrics; --trace 1 reports the per-layer metrics. The exit
   code is non-zero when any op failed or failed verification. *)

let workloads =
  [
    ("inplace_large", Inplace.run);
    ("serve_paper_dist", Serve.run);
    ("ooc_file", Ooc.run);
  ]

let usage =
  "bench --workload (inplace_large|serve_paper_dist|ooc_file) --seed N --seconds S --trace 0|1"

let () =
  Common.install_clock ();
  match Array.to_list Sys.argv with
  | [ _; "--serve-child"; socket; trace ] ->
      Common.prime_counters ();
      Serve.child ~socket ~trace:(trace = "1")
  | _ ->
      let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
      Arg.parse
        [
          ("--workload", Arg.Set_string workload, "NAME workload to run");
          ("--seed", Arg.Set_int seed, "N input seed");
          ("--seconds", Arg.Set_int seconds, "S measured seconds");
          ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
        ]
        (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
        usage;
      let run =
        match List.assoc_opt !workload workloads with
        | Some run -> run
        | None ->
            prerr_endline usage;
            exit 2
      in
      if !seconds < 1 then begin
        prerr_endline "--seconds must be >= 1";
        exit 2
      end;
      Common.ensure_work_dir ();
      Common.prime_counters ();
      let attempted, failed, metrics =
        run ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:(!trace = 1)
      in
      let correct = failed = 0 && attempted > 0 in
      Common.print_result ~workload:!workload ~attempted ~failed ~correct metrics;
      if not correct then exit 1
