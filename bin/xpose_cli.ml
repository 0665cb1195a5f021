(* A small CLI around the library: transpose matrices read from files or
   generated on the fly, choose the algorithm, and validate results.

     xpose demo --m 4 --n 8            # print the phase-by-phase trace
     xpose transpose --m 3 --n 5 1 2 3 ... --algorithm c2r
     xpose bench --m 2000 --n 1500     # one-off timing with each engine
*)

open Cmdliner
open Xpose_core

(* Global observability flags, shared by every subcommand: [--trace FILE]
   records spans for the whole invocation and writes Chrome trace_event
   JSON (Perfetto-loadable) on exit; [--metrics] dumps the metrics
   registry on exit; [--calibration FILE] loads the machine's bandwidth
   roofs so traces and reports carry roofline attribution. *)

(* The loaded calibration, if any — read by [report] and the trace
   sink. *)
let calibration : Xpose_obs.Calibrate.t option ref = ref None

(* Every timer reads the library's monotonic clock. *)
let now_s () = Xpose_obs.Clock.now_ns () /. 1e9

let obs_args =
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a trace of the whole invocation and write it to $(docv) \
             as Chrome trace_event JSON (load it at ui.perfetto.dev).")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the metrics registry on exit (one line per metric).")
  in
  let calibration_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "calibration" ] ~docv:"FILE"
          ~doc:
            "Load the machine calibration written by $(b,xpose obs \
             calibrate): traced pass/panel spans gain achieved GB/s and \
             roofline-fraction args, and $(b,xpose report) adds GB/s and \
             roofline columns.")
  in
  let setup trace metrics cal_file =
    (match cal_file with
    | None -> ()
    | Some file -> (
        match Xpose_obs.Calibrate.load ~file with
        | Ok cal -> calibration := Some cal
        | Error msg ->
            Printf.eprintf "warning: ignoring calibration %s: %s\n%!" file msg));
    (match trace with
    | None -> ()
    | Some file ->
        (* The sink rewrites the file with a full (roofline-annotated)
           snapshot on every flush, so a server drained by SIGTERM has
           already written its trace before the at_exit below runs —
           which flushes once more and prints the summary line. *)
        Xpose_obs.Tracer.set_sink
          (Some
             (fun events ->
               let events =
                 match !calibration with
                 | None -> events
                 | Some cal -> Xpose_obs.Roofline.annotate cal events
               in
               let oc = open_out file in
               output_string oc (Xpose_obs.Tracer.to_chrome_json_events events);
               close_out oc));
        Xpose_obs.Tracer.start ());
    at_exit (fun () ->
        (match trace with
        | None -> ()
        | Some file ->
            Xpose_obs.Tracer.stop ();
            Xpose_obs.Tracer.flush ();
            Printf.eprintf "trace written to %s (%d events)\n%!" file
              (List.length (Xpose_obs.Tracer.events ())));
        if metrics then print_string (Xpose_obs.Metrics.render ()))
  in
  Term.(const setup $ trace_arg $ metrics_arg $ calibration_arg)

(* [cmd info term] is [Cmd.v] with the observability flags grafted on
   (the setup side effects run before the command body). *)
let cmd info term =
  Cmd.v info Term.(ret (const (fun () r -> r) $ obs_args $ term))

let m_arg =
  Arg.(required & opt (some int) None & info [ "m"; "rows" ] ~docv:"M" ~doc:"Rows.")

let n_arg =
  Arg.(
    required & opt (some int) None & info [ "n"; "cols" ] ~docv:"N" ~doc:"Columns.")

let algorithm_arg =
  let algo_conv =
    Arg.enum
      [ ("auto", `Auto); ("c2r", `C2r); ("r2c", `R2c); ("cycle", `Cycle) ]
  in
  Arg.(
    value & opt algo_conv `Auto
    & info [ "a"; "algorithm" ] ~docv:"ALGO"
        ~doc:"One of auto, c2r, r2c, cycle (cycle-following baseline).")

let order_arg =
  let order_conv =
    Arg.enum [ ("row", Layout.Row_major); ("col", Layout.Col_major) ]
  in
  Arg.(
    value & opt order_conv Layout.Row_major
    & info [ "order" ] ~docv:"ORDER" ~doc:"Storage order: row or col.")

let demo_cmd =
  let doc = "Print the phase-by-phase C2R trace of an M x N iota matrix." in
  let run m n =
    if m < 1 || n < 1 then `Error (false, "dimensions must be positive")
    else begin
      let t = Trace.c2r ~m ~n (Trace.iota ~m ~n) in
      Format.printf "%a" Trace.pp t;
      Format.printf "reinterpreted as %d x %d:@." n m;
      Format.printf "%a" Trace.pp_matrix (Trace.reinterpret t);
      `Ok ()
    end
  in
  cmd (Cmd.info "demo" ~doc) Term.(const run $ m_arg $ n_arg)

let elements_arg =
  Arg.(
    value & pos_all float []
    & info [] ~docv:"ELEMENTS" ~doc:"Matrix elements, row by row.")

module F = Instances.F64
module S = Storage.Float64
module Cycle = Xpose_baselines.Cycle_follow.Make (S)

let transpose_buf ~algorithm ~order ~m ~n buf =
  match algorithm with
  | `Auto -> F.transpose ~order ~m ~n buf
  | `C2r ->
      let tmp = S.create (max m n) in
      F.transpose_with ~algorithm:`C2r ~order ~m ~n buf ~tmp
  | `R2c ->
      let tmp = S.create (max m n) in
      F.transpose_with ~algorithm:`R2c ~order ~m ~n buf ~tmp
  | `Cycle -> Cycle.transpose_bitvec ~order ~m ~n buf

let transpose_cmd =
  let doc = "Transpose the given elements in place and print the result." in
  let run m n algorithm order elements =
    if List.length elements <> m * n then
      `Error
        ( false,
          Printf.sprintf "expected %d elements for a %d x %d matrix, got %d"
            (m * n) m n (List.length elements) )
    else begin
      let buf = S.create (m * n) in
      List.iteri (fun i v -> S.set buf i v) elements;
      transpose_buf ~algorithm ~order ~m ~n buf;
      for i = 0 to n - 1 do
        for j = 0 to m - 1 do
          if j > 0 then print_char ' ';
          Printf.printf "%g"
            (S.get buf
               (match order with
               | Layout.Row_major -> (i * m) + j
               | Layout.Col_major -> (j * n) + i))
        done;
        print_newline ()
      done;
      `Ok ()
    end
  in
  cmd (Cmd.info "transpose" ~doc)
    Term.(const run $ m_arg $ n_arg $ algorithm_arg $ order_arg $ elements_arg)

let rotate_cmd =
  let doc = "Rotate the given M x N elements a quarter or half turn in place." in
  let dir_conv =
    Arg.enum [ ("cw", `Cw); ("ccw", `Ccw); ("half", `Half) ]
  in
  let dir_arg =
    Arg.(
      value & opt dir_conv `Cw
      & info [ "d"; "direction" ] ~docv:"DIR" ~doc:"cw, ccw or half.")
  in
  let run m n dir elements =
    if List.length elements <> m * n then
      `Error
        ( false,
          Printf.sprintf "expected %d elements for a %d x %d matrix, got %d"
            (m * n) m n (List.length elements) )
    else begin
      let module R = Rotate90.Make (S) in
      let buf = S.create (m * n) in
      List.iteri (fun i v -> S.set buf i v) elements;
      let out_m, out_n =
        match dir with
        | `Cw ->
            R.clockwise ~m ~n buf;
            (n, m)
        | `Ccw ->
            R.counter_clockwise ~m ~n buf;
            (n, m)
        | `Half ->
            R.half_turn ~m ~n buf;
            (m, n)
      in
      for i = 0 to out_m - 1 do
        for j = 0 to out_n - 1 do
          if j > 0 then print_char ' ';
          Printf.printf "%g" (S.get buf ((i * out_n) + j))
        done;
        print_newline ()
      done;
      `Ok ()
    end
  in
  cmd (Cmd.info "rotate" ~doc)
    Term.(const run $ m_arg $ n_arg $ dir_arg $ elements_arg)

let plan_cmd =
  let doc = "Print the transposition plan and permutation structure for M x N." in
  let run m n =
    if m < 1 || n < 1 then `Error (false, "dimensions must be positive")
    else begin
      let p = Plan.make ~m ~n in
      Format.printf "%a@." Plan.pp p;
      Printf.printf "coprime: %b (pre-rotation %s)
" (Plan.coprime p)
        (if Plan.coprime p then "skipped" else "required");
      Printf.printf "scratch elements: %d
" (Plan.scratch_elements p);
      let touches, _ = Theory.theorem6_work_and_space p in
      Printf.printf "element touches: %d (bound %d = 6mn)
" touches (6 * m * n);
      let lengths = Xpose_baselines.Cycle_follow.cycle_lengths ~m ~n in
      let longest = Array.fold_left max 1 lengths in
      Printf.printf
        "monolithic permutation: %d cycles, longest %d of %d elements (%.1f%%)
"
        (Array.length lengths) longest (m * n)
        (100.0 *. float_of_int longest /. float_of_int (m * n));
      Printf.printf "decomposition's largest independent unit: %d elements
"
        (max m n);
      `Ok ()
    end
  in
  cmd (Cmd.info "plan" ~doc) Term.(const run $ m_arg $ n_arg)

(* Engine selection shared by bench and report: [functor] is the
   element-generic Algo functor, [decomposed] the same functor with the
   §4.1 decomposed column passes (separate col_rotate / row_permute
   sweeps), [cache] the cache-aware §4.6/4.7 sweeps (the reference for
   the staged engine), [fused] the f64 engine, [ooc] the windowed
   out-of-core engine (bench only: it transposes a backing file under a
   --window-bytes residency budget). *)
let engine_conv =
  Arg.enum
    [
      ("functor", `Functor);
      ("decomposed", `Decomposed);
      ("cache", `Cache);
      ("fused", `Fused);
      ("ooc", `Ooc);
    ]

let engine_arg =
  Arg.(
    value & opt engine_conv `Functor
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "One of functor, decomposed, cache, fused, ooc. See the bench \
           suite for what each measures.")

module CA = Xpose_cpu.Cache_aware.Make (S)

let transpose_engine ~engine ~algorithm ~m ~n buf =
  match engine with
  | `Functor -> transpose_buf ~algorithm ~order:Layout.Row_major ~m ~n buf
  | `Decomposed ->
      let tmp = S.create (max m n) in
      if m > n then
        F.c2r ~variant:Algo.C2r_decomposed (Plan.make ~m ~n) buf ~tmp
      else F.r2c ~variant:Algo.R2c_decomposed (Plan.make ~m:n ~n:m) buf ~tmp
  | `Cache ->
      let tmp = S.create (max m n) in
      if m > n then CA.c2r (Plan.make ~m ~n) buf ~tmp
      else CA.r2c (Plan.make ~m:n ~n:m) buf ~tmp
  | `Fused -> Xpose_cpu.Fused_f64.transpose ~m ~n buf
  | `Ooc ->
      (* bench routes the ooc engine to its file path before reaching
         here; the other subcommands reject it. *)
      invalid_arg "the ooc engine transposes files, not in-RAM buffers"

(* The out-of-core bench leg: stage an iota matrix in a temp file,
   transpose it in place in the file under the window budget, verify
   against the oracle. *)
let bench_ooc ~m ~n ~workers ~window_bytes ~prefetch =
  let path = Filename.temp_file "xpose_bench_ooc" ".mat" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Xpose_mmap.File_matrix.create ~path ~elements:(m * n);
      Xpose_mmap.File_matrix.with_map ~path (fun buf ->
          Storage.fill_iota (module S) buf);
      let t0 = now_s () in
      (if workers = 1 then
         Xpose_ooc.Ooc_f64.transpose_file ~window_bytes ~prefetch ~path ~m ~n ()
       else
         Xpose_cpu.Pool.with_pool ~workers (fun pool ->
             Xpose_ooc.Ooc_f64.transpose_file ~pool ~window_bytes ~prefetch
               ~path ~m ~n ()));
      let dt = now_s () -. t0 in
      let gbps = 2.0 *. float_of_int (m * n * 8) /. (dt *. 1e9) in
      Printf.printf "%d x %d float64 out-of-core (window %d B): %.3f ms, %.3f GB/s\n"
        m n window_bytes (dt *. 1e3) gbps;
      let ok = ref true in
      Xpose_mmap.File_matrix.with_map ~write:false ~path (fun buf ->
          for l = 0 to (m * n) - 1 do
            let expected = float_of_int ((n * (l mod m)) + (l / m)) in
            if S.get buf l <> expected then ok := false
          done);
      if !ok then begin
        Printf.printf "verified: result is the transpose\n";
        `Ok ()
      end
      else `Error (false, "verification failed"))

let bench_cmd =
  let doc =
    "Time one in-place transpose of an M x N float64 matrix (or a batch of \
     BATCH same-shape matrices) with the selected engine. The ooc engine \
     transposes a staged temp file in place under the --window-bytes \
     residency budget instead."
  in
  let batch_arg =
    Arg.(
      value & opt int 1
      & info [ "batch" ] ~docv:"BATCH"
          ~doc:"Number of same-shape matrices to transpose.")
  in
  let workers_arg =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"W"
          ~doc:"Worker domains for batched runs (1 runs serially).")
  in
  let window_bytes_arg =
    Arg.(
      value
      & opt int Xpose_ooc.Ooc_f64.default_window_bytes
      & info [ "window-bytes" ] ~docv:"BYTES"
          ~doc:
            "Resident window budget for the ooc engine: at most $(docv) of \
             the file is mapped at any moment.")
  in
  let no_prefetch_arg =
    Arg.(
      value & flag
      & info [ "no-prefetch" ]
          ~doc:
            "Disable the ooc engine's I/O-domain double-buffered prefetch \
             (windows are mapped synchronously).")
  in
  let run m n algorithm engine batch workers window_bytes no_prefetch =
    if m < 1 || n < 1 then `Error (false, "dimensions must be positive")
    else if batch < 1 then `Error (false, "batch must be >= 1")
    else if workers < 1 then `Error (false, "workers must be >= 1")
    else if engine = `Ooc && batch > 1 then
      `Error (false, "the ooc engine has no batched path")
    else if engine = `Ooc && window_bytes < 8 then
      `Error (false, "window-bytes must be >= 8")
    else if engine = `Ooc then
      bench_ooc ~m ~n ~workers ~window_bytes ~prefetch:(not no_prefetch)
    else begin
      let bufs =
        Array.init batch (fun _ ->
            let buf = S.create (m * n) in
            Storage.fill_iota (module S) buf;
            buf)
      in
      let t0 = now_s () in
      (if batch = 1 && workers = 1 then
         transpose_engine ~engine ~algorithm ~m ~n bufs.(0)
       else
         Xpose_cpu.Pool.with_pool ~workers (fun pool ->
             match engine with
             | `Fused -> Xpose_cpu.Fused_f64.transpose_batch pool ~m ~n bufs
             | _ ->
                 (* Other engines have no batched path: fan the serial
                    engine across the pool. *)
                 Xpose_cpu.Pool.parallel_for pool ~lo:0 ~hi:batch (fun b ->
                     transpose_engine ~engine ~algorithm ~m ~n bufs.(b))));
      let dt = now_s () -. t0 in
      let bytes = 2.0 *. float_of_int (batch * m * n * 8) in
      let gbps = bytes /. (dt *. 1e9) in
      if batch = 1 then
        Printf.printf "%d x %d float64: %.3f ms, %.3f GB/s\n" m n (dt *. 1e3)
          gbps
      else
        Printf.printf "%d x (%d x %d) float64: %.3f ms, %.3f GB/s\n" batch m n
          (dt *. 1e3) gbps;
      (* verify *)
      let ok = ref true in
      Array.iter
        (fun buf ->
          for l = 0 to (m * n) - 1 do
            let expected = float_of_int ((n * (l mod m)) + (l / m)) in
            if S.get buf l <> expected then ok := false
          done)
        bufs;
      if !ok then begin
        if batch = 1 then Printf.printf "verified: result is the transpose\n"
        else Printf.printf "verified: all %d results are transposes\n" batch;
        `Ok ()
      end
      else `Error (false, "verification failed")
    end
  in
  cmd (Cmd.info "bench" ~doc)
    Term.(
      const run $ m_arg $ n_arg $ algorithm_arg $ engine_arg $ batch_arg
      $ workers_arg $ window_bytes_arg $ no_prefetch_arg)

let permute_cmd =
  let doc =
    "Plan a rank-N in-place axis permutation, print the chosen decomposition \
     and its predicted cost, then execute and verify it."
  in
  let dims_arg =
    Arg.(
      required
      & opt (some (list int)) None
      & info [ "dims" ] ~docv:"D0,D1,..."
          ~doc:"Tensor dimensions, row-major (last axis fastest).")
  in
  let perm_arg =
    Arg.(
      required
      & opt (some (list int)) None
      & info [ "perm" ] ~docv:"P0,P1,..."
          ~doc:
            "Axis permutation: output axis $(i,k) carries source axis \
             $(i,Pk) (NumPy transpose convention).")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Also list the rejected candidate plans.")
  in
  let run dims perm all =
    let dims = Array.of_list dims and perm = Array.of_list perm in
    let module P = Xpose_permute in
    match P.Shape.validate ~dims ~perm with
    | exception Invalid_argument msg -> `Error (false, msg)
    | () ->
        let module Si = Storage.Int_elt in
        let module Nd = Tensor_nd.Make (Si) in
        let plan = Tensor_nd.plan ~dims ~perm in
        Format.printf "%a" P.Permute.pp_plan plan;
        if all then begin
          match Tensor_nd.candidates ~dims ~perm with
          | _ :: (_ :: _ as rest) ->
              List.iter
                (fun (c : P.Permute.plan) ->
                  Format.printf "rejected: %d passes, score %.1f@."
                    c.P.Permute.cost.P.Cost.passes c.P.Permute.cost.P.Cost.score)
                rest
          | _ -> print_endline "no other candidates"
        end;
        let total = P.Shape.nelems dims in
        let buf = Si.create total in
        Storage.fill_iota (module Si) buf;
        Nd.execute plan buf;
        let ok = ref true in
        for l = 0 to total - 1 do
          let dst =
            P.Shape.permuted_index ~dims ~perm (P.Shape.multi_index ~dims l)
          in
          if Si.get buf dst <> l then ok := false
        done;
        if !ok then begin
          Printf.printf "verified: %d elements match the permuted_index oracle\n"
            total;
          `Ok ()
        end
        else `Error (false, "verification failed")
  in
  cmd (Cmd.info "permute" ~doc)
    Term.(const run $ dims_arg $ perm_arg $ all_arg)

let report_cmd =
  let doc =
    "Run one traced in-place transpose of an M x N float64 matrix on a \
     worker pool and print the per-pass predicted-vs-measured report: \
     Theorem-6 element touches, measured time, relative error of the \
     touch-proportional time model, and pool load imbalance."
  in
  let workers_arg =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"W"
          ~doc:"Worker domains for the pool (1 runs serially).")
  in
  let repeats_arg =
    Arg.(
      value & opt int 1
      & info [ "repeats" ] ~docv:"R"
          ~doc:"Trace $(docv) runs and report the fastest one.")
  in
  let no_times_arg =
    Arg.(
      value & flag
      & info [ "no-times" ]
          ~doc:
            "Omit the wall-clock-derived columns (measured time, relative \
             error, imbalance) so the output is deterministic.")
  in
  let run m n algorithm engine workers repeats no_times =
    if m < 1 || n < 1 then `Error (false, "dimensions must be positive")
    else if workers < 1 then `Error (false, "workers must be >= 1")
    else if repeats < 1 then `Error (false, "repeats must be >= 1")
    else begin
      let module PT = Xpose_cpu.Par_transpose.Make (S) in
      let module FF = Xpose_cpu.Fused_f64 in
      (* §5.2 heuristic, as in [transpose]: more rows than columns
         favours C2R; both orientations transpose the row-major m x n
         buffer in place. *)
      let algorithm =
        match algorithm with
        | `Auto -> if m > n then `C2r else `R2c
        | (`C2r | `R2c | `Cycle) as a -> a
      in
      match (algorithm, engine) with
      | `Cycle, _ -> `Error (false, "report: algorithm must be c2r or r2c")
      | _, (`Decomposed | `Cache | `Ooc) ->
          `Error (false, "report: engine must be functor or fused")
      | (`C2r | `R2c) as algorithm, ((`Functor | `Fused) as engine) ->
          let transpose_once pool buf =
            match (engine, algorithm) with
            | `Functor, `C2r -> PT.c2r pool (Plan.make ~m ~n) buf
            | `Functor, `R2c -> PT.r2c pool (Plan.make ~m:n ~n:m) buf
            | `Fused, `C2r -> FF.c2r_pool pool (Plan.make ~m ~n) buf
            | `Fused, `R2c -> FF.r2c_pool pool (Plan.make ~m:n ~n:m) buf
          in
          let buf = S.create (m * n) in
          let best = ref None in
          Xpose_cpu.Pool.with_pool ~workers (fun pool ->
              for _ = 1 to repeats do
                Storage.fill_iota (module S) buf;
                Xpose_obs.Tracer.start ();
                transpose_once pool buf;
                Xpose_obs.Tracer.stop ();
                let r =
                  Xpose_obs.Report.of_events ?cal:!calibration
                    (Xpose_obs.Tracer.events ())
                in
                match !best with
                | Some (b : Xpose_obs.Report.t)
                  when b.total_ns <= r.Xpose_obs.Report.total_ns ->
                    ()
                | _ -> best := Some r
              done);
          let ok = ref true in
          for l = 0 to (m * n) - 1 do
            if S.get buf l <> float_of_int ((n * (l mod m)) + (l / m)) then
              ok := false
          done;
          if not !ok then `Error (false, "verification failed")
          else begin
            Printf.printf "%d x %d float64 %s, %d worker%s, best of %d:\n" m n
              (match algorithm with `C2r -> "c2r" | `R2c -> "r2c")
              workers
              (if workers = 1 then "" else "s")
              repeats;
            (match !best with
            | None -> ()
            | Some r ->
                print_string
                  (Xpose_obs.Report.render ~show_times:(not no_times) r));
            `Ok ()
          end
    end
  in
  cmd (Cmd.info "report" ~doc)
    Term.(
      const run $ m_arg $ n_arg $ algorithm_arg $ engine_arg $ workers_arg
      $ repeats_arg $ no_times_arg)

let check_cmd =
  let doc =
    "Statically verify the engines: prove every plan's pass pipeline equal to \
     the transpose specification (symbolic, no data movement), prove the \
     parallel drivers' chunk footprints disjoint, optionally run the \
     checked-access engine twins, and optionally certify every unsafe access \
     in bounds and alias-free parametrically, for all shapes at once \
     (--prove-bounds). Non-zero exit on any violation or seeded detection."
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let shadow_arg =
    Arg.(
      value & flag
      & info [ "shadow" ]
          ~doc:
            "Also run the checked-access twins of the float64 engines on \
             real (small) buffers: every access bounds-verified.")
  in
  let seed_race_arg =
    Arg.(
      value & flag
      & info [ "seed-race" ]
          ~doc:
            "Negative test: model the pool's chunk split with a deliberate \
             off-by-one; the race analyzer must detect the overlap (non-zero \
             exit).")
  in
  let seed_oob_arg =
    Arg.(
      value & flag
      & info [ "seed-oob" ]
          ~doc:
            "Negative test: run a checked kernel over a deliberately short \
             buffer; the access checker must detect the out-of-bounds read \
             (non-zero exit).")
  in
  let prove_bounds_arg =
    Arg.(
      value & flag
      & info [ "prove-bounds" ]
          ~doc:
            "Add the parametric certificate grids: prove every access of \
             every engine pipeline in bounds, and every chunk/window split \
             and barrier footprint alias-free, for all shapes, widths, lane \
             counts and window budgets at once (symbolic proofs, no \
             enumeration).")
  in
  let seed_oob_static_arg =
    Arg.(
      value & flag
      & info [ "seed-oob-static" ]
          ~doc:
            "Negative test: certify a deliberately off-by-one access \
             summary; the bounds prover must refute it with a concrete \
             witness shape (non-zero exit).")
  in
  let only_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "only" ] ~docv:"ANALYSIS,.."
          ~doc:
            "Restrict the report to the named analyses: perm (plan), race, \
             shadow, bounds, alias. Naming an opt-in analysis enables it.")
  in
  let lanes_arg =
    Arg.(
      value
      & opt (list int) Xpose_check.Driver.default_lanes
      & info [ "lanes" ] ~docv:"L1,L2,.."
          ~doc:"Worker-lane counts to analyze the parallel footprints at.")
  in
  let run json shadow seed_race seed_oob prove_bounds seed_oob_static only
      lanes =
    if lanes = [] || List.exists (fun l -> l < 1) lanes then
      `Error (false, "lanes must be positive")
    else
      match
        List.find_opt
          (fun f -> Xpose_check.Driver.family_of_name f = None)
          only
      with
      | Some bad ->
          `Error
            ( false,
              Printf.sprintf
                "unknown analysis %S (expected perm, race, shadow, bounds or \
                 alias)"
                bad )
      | None -> begin
          let r =
            Xpose_check.Driver.run ~lanes ~seed_race ~seed_oob ~shadow
              ~prove_bounds ~seed_oob_static ~only ()
          in
          if json then print_string (Xpose_check.Driver.to_json r)
          else Format.printf "%a" Xpose_check.Driver.pp r;
          match Xpose_check.Driver.verdict r with
          | Ok () -> `Ok ()
          | Error msg -> `Error (false, msg)
        end
  in
  cmd (Cmd.info "check" ~doc)
    Term.(
      const run $ json_arg $ shadow_arg $ seed_race_arg $ seed_oob_arg
      $ prove_bounds_arg $ seed_oob_static_arg $ only_arg $ lanes_arg)

(* -- the job server ------------------------------------------------------ *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

(* NAME:QUOTA:WINDOW, sizes in bytes. *)
let tenant_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ name; quota; window ] -> (
        match (int_of_string_opt quota, int_of_string_opt window) with
        | Some quota_bytes, Some window_bytes
          when quota_bytes >= 1 && window_bytes >= 8 ->
            Ok { Xpose_server.Admission.name; quota_bytes; window_bytes }
        | _ -> Error (`Msg (Printf.sprintf "bad tenant sizes in %S" s)))
    | _ -> Error (`Msg (Printf.sprintf "expected NAME:QUOTA:WINDOW, got %S" s))
  in
  let print ppf (t : Xpose_server.Admission.tenant) =
    Format.fprintf ppf "%s:%d:%d" t.name t.quota_bytes t.window_bytes
  in
  Arg.conv (parse, print)

let serve_cmd =
  let doc =
    "Run the transpose job server on a Unix-domain socket: framed \
     transpose/stats requests, priority queues with shape-coalescing \
     batching, admission control under a global memory budget (over-quota \
     jobs run out-of-core under the tenant's window), backpressure replies \
     when saturated. SIGTERM or SIGINT shuts down cleanly: every admitted \
     job is answered first."
  in
  let workers_arg =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"W" ~doc:"Worker domains for the engines.")
  in
  let budget_arg =
    Arg.(
      value
      & opt int (1024 * 1024 * 1024)
      & info [ "budget-bytes" ] ~docv:"BYTES"
          ~doc:
            "Global admission budget: payload bytes in flight (queued plus \
             executing) never exceed $(docv); requests beyond it get a busy \
             reply.")
  in
  let quota_arg =
    Arg.(
      value
      & opt int (16 * 1024 * 1024)
      & info [ "quota-bytes" ] ~docv:"BYTES"
          ~doc:
            "Default per-tenant in-memory footprint quota: bigger jobs are \
             routed to the out-of-core engine.")
  in
  let window_arg =
    Arg.(
      value
      & opt int (4 * 1024 * 1024)
      & info [ "window-bytes" ] ~docv:"BYTES"
          ~doc:
            "Default per-tenant residency window for out-of-core routed \
             jobs.")
  in
  let tenant_arg =
    Arg.(
      value & opt_all tenant_conv []
      & info [ "tenant" ] ~docv:"NAME:QUOTA:WINDOW"
          ~doc:"Per-tenant override (repeatable), sizes in bytes.")
  in
  let max_queue_jobs_arg =
    Arg.(
      value & opt int 1024
      & info [ "max-queue-jobs" ] ~docv:"N"
          ~doc:"Per-priority queue depth before backpressure.")
  in
  let max_queue_bytes_arg =
    Arg.(
      value
      & opt int (256 * 1024 * 1024)
      & info [ "max-queue-bytes" ] ~docv:"BYTES"
          ~doc:"Queued payload bytes before backpressure.")
  in
  let coalesce_us_arg =
    Arg.(
      value & opt int 2000
      & info [ "coalesce-window-us" ] ~docv:"US"
          ~doc:
            "Same-shape requests arriving within $(docv) microseconds are \
             batched through one fused transpose_batch dispatch.")
  in
  let max_batch_arg =
    Arg.(
      value & opt int 8
      & info [ "max-batch" ] ~docv:"N" ~doc:"Largest coalesced batch.")
  in
  let no_prefetch_arg =
    Arg.(
      value & flag
      & info [ "no-prefetch" ]
          ~doc:"Disable the ooc engine's I/O-domain prefetch for routed jobs.")
  in
  let metrics_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-file" ] ~docv:"FILE"
          ~doc:
            "Periodically rewrite $(docv) with the Prometheus text \
             exposition of the server's metrics (atomic \
             write-then-rename), plus once more on shutdown.")
  in
  let metrics_interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "metrics-interval-s" ] ~docv:"S"
          ~doc:"Seconds between metrics-file dumps.")
  in
  let run socket workers budget quota window tenants max_queue_jobs
      max_queue_bytes coalesce_us max_batch no_prefetch metrics_file
      metrics_interval =
    if workers < 1 then `Error (false, "workers must be >= 1")
    else if budget < 8 then `Error (false, "budget-bytes must be >= 8")
    else if quota < 8 then `Error (false, "quota-bytes must be >= 8")
    else if window < 8 then `Error (false, "window-bytes must be >= 8")
    else if max_batch < 1 then `Error (false, "max-batch must be >= 1")
    else if coalesce_us < 0 then `Error (false, "coalesce-window-us must be >= 0")
    else if not (metrics_interval > 0.0) then
      `Error (false, "metrics-interval-s must be > 0")
    else begin
      let cfg =
        {
          (Xpose_server.Server.default_config ~socket_path:socket) with
          workers;
          budget_bytes = budget;
          default_quota_bytes = quota;
          default_window_bytes = window;
          tenants;
          max_queue_jobs;
          max_queue_bytes;
          coalesce_window_ns = coalesce_us * 1000;
          max_batch;
          prefetch = not no_prefetch;
          metrics_file;
          metrics_interval_s = metrics_interval;
        }
      in
      let server = Xpose_server.Server.start cfg in
      let stop_rd, stop_wr = Unix.pipe () in
      let request_stop _ =
        try ignore (Unix.write stop_wr (Bytes.make 1 '!') 0 1)
        with Unix.Unix_error _ -> ()
      in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
      Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
      Printf.printf "xpose server listening on %s (workers %d, budget %d B)\n%!"
        socket workers budget;
      let rec wait () =
        match Unix.select [ stop_rd ] [] [] (-1.0) with
        | [], _, _ -> wait ()
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      wait ();
      Printf.printf "shutting down: draining admitted jobs\n%!";
      Xpose_server.Server.stop server;
      Printf.printf "server stopped\n%!";
      `Ok ()
    end
  in
  cmd (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ workers_arg $ budget_arg $ quota_arg
      $ window_arg $ tenant_arg $ max_queue_jobs_arg $ max_queue_bytes_arg
      $ coalesce_us_arg $ max_batch_arg $ no_prefetch_arg $ metrics_file_arg
      $ metrics_interval_arg)

(* Pull one "name": value field out of the stats JSON without a JSON
   dependency: the server emits flat two-level objects with quoted keys,
   so a textual scan for the exact quoted key is unambiguous. *)
let json_number_field json name =
  let needle = Printf.sprintf "\"%s\":" name in
  match String.index_opt json '{' with
  | None -> None
  | Some _ -> (
      let rec find from =
        match String.index_from_opt json from '"' with
        | None -> None
        | Some q ->
            if
              q + String.length needle <= String.length json
              && String.sub json q (String.length needle) = needle
            then Some (q + String.length needle)
            else find (q + 1)
      in
      match find 0 with
      | None -> None
      | Some p ->
          let len = String.length json in
          let p = ref p in
          while !p < len && (json.[!p] = ' ' || json.[!p] = '\n') do incr p done;
          let q = ref !p in
          while
            !q < len
            && (match json.[!q] with
               | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
               | _ -> false)
          do
            incr q
          done;
          float_of_string_opt (String.sub json !p (!q - !p)))

let loadtest_cmd =
  let doc =
    "Replay the paper's random-shape distribution (element counts drawn \
     log-uniformly from 1000-250000, a bounded pool of distinct shapes as a \
     serving workload would repeat) as concurrent client traffic against a \
     running server; verify every result against the transpose oracle, \
     retry on backpressure, and report p50/p99 latency, throughput, and the \
     server's coalesce/admission/residency counters as JSON."
  in
  let clients_arg =
    Arg.(
      value & opt int 8
      & info [ "clients" ] ~docv:"C" ~doc:"Concurrent client connections.")
  in
  let requests_arg =
    Arg.(
      value & opt int 100
      & info [ "requests" ] ~docv:"R" ~doc:"Requests per client.")
  in
  let shapes_arg =
    Arg.(
      value & opt int 12
      & info [ "shapes" ] ~docv:"S"
          ~doc:"Distinct shapes in the replayed distribution.")
  in
  let min_elems_arg =
    Arg.(
      value & opt int 1000
      & info [ "min-elems" ] ~docv:"E" ~doc:"Smallest matrix element count.")
  in
  let max_elems_arg =
    Arg.(
      value & opt int 250000
      & info [ "max-elems" ] ~docv:"E" ~doc:"Largest matrix element count.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Traffic seed.")
  in
  let tenant_name_arg =
    Arg.(
      value & opt string ""
      & info [ "tenant-name" ] ~docv:"NAME" ~doc:"Tenant to submit as.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Also write the JSON report to $(docv).")
  in
  let run socket clients requests shapes min_elems max_elems seed tenant out =
    if clients < 1 then `Error (false, "clients must be >= 1")
    else if requests < 1 then `Error (false, "requests must be >= 1")
    else if shapes < 1 then `Error (false, "shapes must be >= 1")
    else if min_elems < 4 || max_elems < min_elems then
      `Error (false, "need 4 <= min-elems <= max-elems")
    else begin
      let module C = Xpose_server.Client in
      let module P = Xpose_server.Protocol in
      (* The shape pool: element counts log-uniform over
         [min_elems, max_elems] (the paper's evaluation range), rows
         bounded so even the widest matrix stays within an ooc window's
         two-rows-and-two-columns regime. *)
      let rng = Random.State.make [| seed |] in
      let shape_pool =
        Array.init shapes (fun _ ->
            let lo = log (float_of_int min_elems)
            and hi = log (float_of_int max_elems) in
            let target =
              int_of_float (exp (lo +. Random.State.float rng (hi -. lo)))
            in
            let m = 16 + Random.State.int rng 497 in
            let n = max 1 (target / m) in
            (m, n))
      in
      let mu = Mutex.create () in
      (* Latencies go into a sharded histogram instead of per-worker
         lists: O(1) memory under any request count, and the quantiles
         come from the same bucket-interpolated estimator the server's
         exposition uses. *)
      let lat_hist = Xpose_obs.Metrics.histogram "loadtest.latency_ns" in
      let ok = ref 0
      and busy_retries = ref 0
      and failed = ref 0
      and verify_failures = ref 0
      and payload_bytes = ref 0 in
      let worker k () =
        let rng = Random.State.make [| seed; k |] in
        let w_ok = ref 0
        and w_busy = ref 0
        and w_failed = ref 0
        and w_bad = ref 0
        and w_bytes = ref 0 in
        C.with_client ~socket_path:socket (fun client ->
            for _ = 1 to requests do
              let m, n = shape_pool.(Random.State.int rng shapes) in
              let buf = S.create (m * n) in
              Storage.fill_iota (module S) buf;
              let rec attempt tries =
                let t0 = Xpose_obs.Clock.now_ns () in
                match C.transpose ~tenant client ~m ~n buf with
                | P.Result { m = rm; n = rn; payload; _ } ->
                    let dt_ns = Xpose_obs.Clock.now_ns () -. t0 in
                    Xpose_obs.Metrics.observe lat_hist dt_ns;
                    incr w_ok;
                    w_bytes := !w_bytes + (m * n * 8);
                    if rm <> n || rn <> m then incr w_bad
                    else begin
                      let good = ref true in
                      for l = 0 to (m * n) - 1 do
                        let expected =
                          float_of_int ((n * (l mod m)) + (l / m))
                        in
                        if S.get payload l <> expected then good := false
                      done;
                      if not !good then incr w_bad
                    end
                | P.Busy _ ->
                    incr w_busy;
                    if tries >= 200 then incr w_failed
                    else begin
                      Thread.delay (0.001 *. float_of_int (1 + (tries mod 8)));
                      attempt (tries + 1)
                    end
                | P.Error_reply _ | P.Stats_reply _ -> incr w_failed
              in
              attempt 0
            done);
        Mutex.lock mu;
        ok := !ok + !w_ok;
        busy_retries := !busy_retries + !w_busy;
        failed := !failed + !w_failed;
        verify_failures := !verify_failures + !w_bad;
        payload_bytes := !payload_bytes + !w_bytes;
        Mutex.unlock mu
      in
      let t0 = now_s () in
      let threads = List.init clients (fun k -> Thread.create (worker k) ()) in
      List.iter Thread.join threads;
      let wall_s = now_s () -. t0 in
      let stats =
        C.with_client ~socket_path:socket (fun client -> C.stats client)
      in
      let counter name =
        match json_number_field stats name with Some v -> v | None -> 0.0
      in
      let batches = counter "server.batches" in
      let batched = counter "server.batched_jobs" in
      let coalesce_ratio = if batches > 0.0 then batched /. batches else 0.0 in
      let pct p =
        let v = Xpose_obs.Metrics.histogram_quantile lat_hist p in
        if Float.is_nan v then 0.0 else v
      in
      let mean =
        let c = Xpose_obs.Metrics.histogram_count lat_hist in
        if c = 0 then 0.0
        else Xpose_obs.Metrics.histogram_sum lat_hist /. float_of_int c
      in
      let b = Buffer.create 1024 in
      Printf.bprintf b "{\n  \"suite\": \"xpose_server\",\n";
      Printf.bprintf b "  \"clients\": %d,\n  \"requests_per_client\": %d,\n"
        clients requests;
      Printf.bprintf b
        "  \"shapes\": %d,\n  \"min_elems\": %d,\n  \"max_elems\": %d,\n"
        shapes min_elems max_elems;
      Printf.bprintf b "  \"seed\": %d,\n" seed;
      Printf.bprintf b
        "  \"ok\": %d,\n  \"busy_retries\": %d,\n  \"failed\": %d,\n" !ok
        !busy_retries !failed;
      Printf.bprintf b "  \"verify_failures\": %d,\n" !verify_failures;
      Printf.bprintf b
        "  \"p50_latency_ns\": %.0f,\n  \"p99_latency_ns\": %.0f,\n\
        \  \"mean_latency_ns\": %.0f,\n"
        (pct 0.50) (pct 0.99) mean;
      Printf.bprintf b "  \"wall_s\": %.3f,\n" wall_s;
      Printf.bprintf b "  \"throughput_rps\": %.1f,\n"
        (float_of_int !ok /. wall_s);
      Printf.bprintf b "  \"payload_mb_per_s\": %.2f,\n"
        (float_of_int !payload_bytes /. 1e6 /. wall_s);
      Printf.bprintf b
        "  \"coalesce_batches\": %.0f,\n  \"coalesced_jobs\": %.0f,\n\
        \  \"coalesce_ratio\": %.3f,\n"
        batches batched coalesce_ratio;
      Printf.bprintf b
        "  \"admit_fused\": %.0f,\n  \"admit_ooc\": %.0f,\n\
        \  \"rejects_budget\": %.0f,\n  \"rejects_queue\": %.0f,\n"
        (counter "server.admit.fused")
        (counter "server.admit.ooc")
        (counter "server.rejects.budget")
        (counter "server.rejects.queue_full")
      ;
      Printf.bprintf b "  \"ooc_window_peak_bytes\": %.0f,\n"
        (counter "ooc.window_peak_bytes");
      Printf.bprintf b "  \"plan_cache_hits\": %.0f,\n"
        (counter "plan_cache.hits");
      Printf.bprintf b "  \"server_stats\": %s}\n"
        (String.trim stats);
      let report = Buffer.contents b in
      print_string report;
      (match out with
      | None -> ()
      | Some file ->
          let oc = open_out file in
          output_string oc report;
          close_out oc;
          Printf.eprintf "report written to %s\n%!" file);
      if !verify_failures > 0 then
        `Error (false, "some responses failed oracle verification")
      else if !failed > 0 then
        `Error (false, "some requests failed or exhausted retries")
      else `Ok ()
    end
  in
  cmd (Cmd.info "loadtest" ~doc)
    Term.(
      const run $ socket_arg $ clients_arg $ requests_arg $ shapes_arg
      $ min_elems_arg $ max_elems_arg $ seed_arg $ tenant_name_arg $ out_arg)

let obs_calibrate_cmd =
  let doc =
    "Measure the machine's four bandwidth roofs (streaming copy, strided \
     gather and scatter at the fused engine's panel width, permuted write) \
     and write them to a JSON calibration file. Load it back with the \
     global $(b,--calibration) flag or $(b,xpose bench --calibration) to \
     get roofline-attributed traces, reports, and bench output."
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the calibration JSON to $(docv).")
  in
  let elems_arg =
    Arg.(
      value & opt int Xpose_obs.Calibrate.default_elems
      & info [ "elems" ] ~docv:"E"
          ~doc:
            "Float64 elements per probe buffer (default 2^21 = 16 MiB, past \
             any sane L2 so the roofs measure memory).")
  in
  let repeats_arg =
    Arg.(
      value & opt int Xpose_obs.Calibrate.default_repeats
      & info [ "repeats" ] ~docv:"R"
          ~doc:"Best-of-$(docv) timing per probe, after a warm-up run.")
  in
  let run out elems repeats =
    if elems < 1024 then `Error (false, "elems must be >= 1024")
    else if repeats < 1 then `Error (false, "repeats must be >= 1")
    else begin
      let cal = Xpose_obs.Calibrate.run ~elems ~repeats () in
      Xpose_obs.Calibrate.save cal ~file:out;
      let open Xpose_obs.Calibrate in
      Printf.printf "calibration written to %s (%d elems, best of %d)\n" out
        cal.elems cal.repeats;
      List.iter
        (fun (name, p) -> Printf.printf "  %-8s %8.3f GB/s\n" name p.gbps)
        [
          ("stream", cal.stream);
          ("gather", cal.gather);
          ("scatter", cal.scatter);
          ("permute", cal.permute);
        ];
      `Ok ()
    end
  in
  cmd
    (Cmd.info "calibrate" ~doc)
    Term.(const run $ out_arg $ elems_arg $ repeats_arg)

let obs_diff_cmd =
  let doc =
    "Compare two bench JSON files (written by the bench driver's --json or \
     by a previous CI run) with noise-aware relative thresholds and print a \
     machine-readable verdict. Exits non-zero when any benchmark slowed \
     down, any counter grew, any roofline fraction dropped beyond its \
     threshold, or a baseline benchmark disappeared — the CI regression \
     sentinel."
  in
  let baseline_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"BASELINE" ~doc:"Baseline bench JSON.")
  in
  let current_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"CURRENT" ~doc:"Current bench JSON.")
  in
  let d = Xpose_obs.Diff.default_thresholds in
  let time_rel_arg =
    Arg.(
      value & opt float d.Xpose_obs.Diff.time_rel
      & info [ "time-rel" ] ~docv:"FRAC"
          ~doc:"Allowed relative growth of ns_per_run (0.5 = +50%).")
  in
  let counter_rel_arg =
    Arg.(
      value & opt float d.Xpose_obs.Diff.counter_rel
      & info [ "counter-rel" ] ~docv:"FRAC"
          ~doc:"Allowed relative growth of a work counter.")
  in
  let roofline_drop_arg =
    Arg.(
      value & opt float d.Xpose_obs.Diff.roofline_drop
      & info [ "roofline-drop" ] ~docv:"FRAC"
          ~doc:"Allowed absolute drop of a pass's roofline fraction.")
  in
  let min_ns_arg =
    Arg.(
      value & opt float d.Xpose_obs.Diff.min_ns
      & info [ "min-ns" ] ~docv:"NS"
          ~doc:"Absolute floor: time deltas below $(docv) ns are noise.")
  in
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let run baseline current time_rel counter_rel roofline_drop min_ns =
    let thresholds =
      { Xpose_obs.Diff.time_rel; counter_rel; roofline_drop; min_ns }
    in
    match
      Xpose_obs.Diff.compare ~thresholds ~baseline:(read_file baseline)
        ~current:(read_file current) ()
    with
    | Error msg -> `Error (false, msg)
    | Ok verdict ->
        print_endline (Xpose_obs.Diff.render_verdict verdict);
        if verdict.Xpose_obs.Diff.ok then `Ok ()
        else begin
          List.iter
            (fun (f : Xpose_obs.Diff.finding) ->
              Printf.eprintf "regression [%s] %s: %s\n%!" f.category f.metric
                f.message)
            verdict.Xpose_obs.Diff.findings;
          `Error (false, "bench regression against baseline")
        end
  in
  cmd (Cmd.info "diff" ~doc)
    Term.(
      const run $ baseline_arg $ current_arg $ time_rel_arg $ counter_rel_arg
      $ roofline_drop_arg $ min_ns_arg)

let stats_cmd =
  let doc =
    "Fetch a running server's metrics snapshot over its socket: the JSON \
     registry dump by default, or with $(b,--text) the Prometheus text \
     exposition (the wire Stats_text request) — counters, gauges, and \
     cumulative histogram buckets with p50/p90/p99 quantile samples, ready \
     for a scraper."
  in
  let text_arg =
    Arg.(
      value & flag
      & info [ "text" ]
          ~doc:"Print the Prometheus text exposition instead of JSON.")
  in
  let run socket text =
    let module C = Xpose_server.Client in
    match
      C.with_client ~socket_path:socket (fun client ->
          if text then C.stats_text client else C.stats client)
    with
    | exception Unix.Unix_error (e, _, _) ->
        `Error
          (false,
           Printf.sprintf "cannot reach server at %s: %s" socket
             (Unix.error_message e))
    | exception C.Protocol_failure msg -> `Error (false, msg)
    | body ->
        print_string body;
        if body = "" || body.[String.length body - 1] <> '\n' then
          print_newline ();
        `Ok ()
  in
  cmd (Cmd.info "stats" ~doc) Term.(const run $ socket_arg $ text_arg)

let obs_cmd =
  let doc =
    "Observability utilities: machine roofline calibration and the bench \
     regression sentinel."
  in
  Cmd.group (Cmd.info "obs" ~doc) [ obs_calibrate_cmd; obs_diff_cmd ]

let main =
  let doc = "In-place matrix transposition by decomposition (PPoPP 2014)." in
  Cmd.group (Cmd.info "xpose" ~doc)
    [
      demo_cmd;
      transpose_cmd;
      rotate_cmd;
      plan_cmd;
      bench_cmd;
      permute_cmd;
      report_cmd;
      check_cmd;
      serve_cmd;
      loadtest_cmd;
      stats_cmd;
      obs_cmd;
    ]

let () = exit (Cmd.eval main)
