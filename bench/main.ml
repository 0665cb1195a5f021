(* Bechamel micro-benchmarks: one Test per table/figure of the paper
   (kernel-level, at sizes that settle in milliseconds), plus ablations
   for the design choices DESIGN.md calls out (strength reduction,
   algorithm variants, cache-aware passes, kernel specialization).

   Run with: dune exec bench/main.exe *)

open Bechamel
open Toolkit
open Xpose_core
module S = Storage.Float64
module A = Instances.F64
module Mkl = Xpose_baselines.Mkl_like.Make (S)
module Gus = Xpose_baselines.Gustavson.Make (S)
module Cache = Xpose_cpu.Cache_aware.Make (S)
module ConvAos = Xpose_simd.Aos.Make (S)

let f64_iota len =
  let buf = S.create len in
  Storage.fill_iota (module S) buf;
  buf

(* Each staged closure re-runs on the same buffer; a transpose followed by
   its inverse leaves the buffer unchanged, keeping runs identical. *)

let bench_m = 311
let bench_n = 217

let roundtrip_pair name fwd bwd =
  let buf = f64_iota (bench_m * bench_n) in
  Test.make ~name
    (Staged.stage (fun () ->
         fwd buf;
         bwd buf))

(* -- Table 1 / Figure 3: CPU implementations ---------------------------- *)

let table1_tests =
  let p = Plan.make ~m:bench_m ~n:bench_n in
  let t1 = S.create (Plan.scratch_elements p) in
  let ws = Workspace.F64.create () in
  Test.make_grouped ~name:"table1_cpu"
    [
      roundtrip_pair "mkl_like_cycle_leader"
        (fun buf -> Mkl.imatcopy ~rows:bench_m ~cols:bench_n buf)
        (fun buf -> Mkl.imatcopy ~rows:bench_n ~cols:bench_m buf);
      roundtrip_pair "c2r_f64_kernels"
        (fun buf -> Kernels_f64.c2r ~ws p buf)
        (fun buf -> Kernels_f64.r2c ~ws p buf);
      roundtrip_pair "c2r_generic_functor"
        (fun buf -> A.c2r p buf ~tmp:t1)
        (fun buf -> A.r2c p buf ~tmp:t1);
      roundtrip_pair "gustavson_tiled"
        (fun buf -> Gus.transpose ~m:bench_m ~n:bench_n buf)
        (fun buf -> Gus.transpose ~m:bench_n ~n:bench_m buf);
    ]

(* -- Table 2 / Figure 6: GPU cost model --------------------------------- *)

let cfg = Xpose_simd_machine.Config.k20c

let table2_tests =
  Test.make_grouped ~name:"table2_gpu_model"
    [
      Test.make ~name:"sung_float"
        (Staged.stage (fun () ->
             ignore (Xpose_simd.Sung_gpu.cost cfg ~elt_bytes:4 ~m:4099 ~n:9013)));
      Test.make ~name:"c2r_float"
        (Staged.stage (fun () ->
             ignore
               (Xpose_simd.Gpu_transpose.auto cfg ~elt_bytes:4 ~m:4099 ~n:9013)));
      Test.make ~name:"c2r_double"
        (Staged.stage (fun () ->
             ignore
               (Xpose_simd.Gpu_transpose.auto cfg ~elt_bytes:8 ~m:4099 ~n:9013)));
    ]

(* -- Figures 4/5: landscape points -------------------------------------- *)

let landscape_tests =
  Test.make_grouped ~name:"fig4_fig5_landscape_point"
    [
      Test.make ~name:"fig4_c2r_band"
        (Staged.stage (fun () ->
             ignore
               (Xpose_simd.Gpu_transpose.cost cfg ~algorithm:`C2r ~elt_bytes:8
                  ~m:20000 ~n:2000)));
      Test.make ~name:"fig4_c2r_offband"
        (Staged.stage (fun () ->
             ignore
               (Xpose_simd.Gpu_transpose.cost cfg ~algorithm:`C2r ~elt_bytes:8
                  ~m:20000 ~n:20000)));
      Test.make ~name:"fig5_r2c_band"
        (Staged.stage (fun () ->
             ignore
               (Xpose_simd.Gpu_transpose.cost cfg ~algorithm:`R2c ~elt_bytes:8
                  ~m:2000 ~n:20000)));
    ]

(* -- Figure 7: AoS <-> SoA conversion ------------------------------------ *)

let fig7_tests =
  let structs = 20000 and fields = 8 in
  let buf = f64_iota (structs * fields) in
  Test.make_grouped ~name:"fig7_aos_soa"
    [
      Test.make ~name:"aos_to_soa_roundtrip"
        (Staged.stage (fun () ->
             ConvAos.aos_to_soa ~structs ~fields buf;
             ConvAos.soa_to_aos ~structs ~fields buf));
      Test.make ~name:"cost_model_specialized"
        (Staged.stage (fun () ->
             ignore
               (Xpose_simd.Aos.cost_specialized cfg ~elt_bytes:8
                  ~structs:1_000_000 ~fields:8)));
    ]

(* -- Figures 8/9: SIMD access simulation -------------------------------- *)

let access_tests =
  let open Xpose_simd in
  Test.make_grouped ~name:"fig8_fig9_simd_access"
    [
      Test.make ~name:"fig8_c2r_store_64B"
        (Staged.stage (fun () ->
             ignore
               (Access.run_store cfg ~struct_words:16 ~n_structs:512
                  Access.Unit_stride Access.C2r)));
      Test.make ~name:"fig8_direct_store_64B"
        (Staged.stage (fun () ->
             ignore
               (Access.run_store cfg ~struct_words:16 ~n_structs:512
                  Access.Unit_stride Access.Direct)));
      Test.make ~name:"fig9_c2r_gather_64B"
        (Staged.stage (fun () ->
             ignore
               (Access.run_load cfg ~struct_words:16 ~n_structs:512
                  (Access.Random (Array.init 512 (fun i -> (i * 97) mod 512)))
                  Access.C2r)));
      Test.make ~name:"reg_transpose_m16"
        (Staged.stage
           (let mem = Xpose_simd_machine.Memory.create cfg ~words:0 in
            let w = Xpose_simd_machine.Warp.create mem ~regs:16 in
            fun () ->
              Reg_transpose.r2c w;
              Reg_transpose.c2r w));
    ]

(* -- Ablations ----------------------------------------------------------- *)

let ablation_magic =
  (* The divisor must be opaque: with a literal the compiler strength-
     reduces the hardware path itself, which is exactly the transformation
     §4.4 performs by hand for divisors known only at plan time. *)
  let d = Sys.opaque_identity 97 in
  let mg = Magic.make d in
  let acc = ref 0 in
  Test.make_grouped ~name:"ablation_strength_reduction"
    [
      Test.make ~name:"magic_divmod"
        (Staged.stage (fun () ->
             for x = 0 to 4095 do
               let q, r = Magic.divmod mg x in
               acc := !acc + q + r
             done));
      Test.make ~name:"hardware_divmod"
        (Staged.stage (fun () ->
             for x = 0 to 4095 do
               acc := !acc + (x / d) + (x mod d)
             done));
    ]

(* The paper's C2R formulations (§4, §5.1), through the functor that
   keeps them. *)
let ablation_variants =
  let p = Plan.make ~m:bench_m ~n:bench_n in
  let tmp = S.create (Plan.scratch_elements p) in
  let make name variant =
    let buf = f64_iota (bench_m * bench_n) in
    Test.make ~name
      (Staged.stage (fun () ->
           A.c2r ~variant p buf ~tmp;
           A.r2c p buf ~tmp))
  in
  Test.make_grouped ~name:"ablation_c2r_variants"
    [
      make "scatter" Algo.C2r_scatter;
      make "gather" Algo.C2r_gather;
      make "decomposed" Algo.C2r_decomposed;
    ]

let ablation_skinny =
  let structs = 40000 and fields = 8 in
  let buf1 = f64_iota (structs * fields) in
  let buf2 = f64_iota (structs * fields) in
  Test.make_grouped ~name:"ablation_skinny_conversion"
    [
      Test.make ~name:"skinny_f64_roundtrip"
        (Staged.stage (fun () ->
             Xpose_cpu.Skinny_f64.aos_to_soa ~structs ~fields buf1;
             Xpose_cpu.Skinny_f64.soa_to_aos ~structs ~fields buf1));
      Test.make ~name:"generic_kernels_roundtrip"
        (Staged.stage (fun () ->
             ConvAos.aos_to_soa ~structs ~fields buf2;
             ConvAos.soa_to_aos ~structs ~fields buf2));
    ]

let ablation_cache_aware =
  (* Large enough that one column's cache lines overflow L2: the naive
     rotate then re-misses per element while the cache-aware one moves
     whole sub-rows (§4.6). (A large LLC absorbs anything smaller; the
     gap widens with matrices beyond the LLC.) *)
  let m = 32768 and n = 128 in
  let p = Plan.make ~m ~n in
  let tmp = S.create (Plan.scratch_elements p) in
  let buf1 = f64_iota (m * n) in
  let buf2 = f64_iota (m * n) in
  Test.make_grouped ~name:"ablation_cache_aware_rotate"
    [
      Test.make ~name:"naive_column_rotate"
        (Staged.stage (fun () ->
             A.Phases.rotate_columns p buf1 ~tmp ~amount:(fun j -> j) ~lo:0
               ~hi:n));
      Test.make ~name:"cache_aware_rotate"
        (Staged.stage (fun () ->
             Cache.rotate_columns p buf2 ~amount:(fun j -> j)));
    ]

let extension_tests =
  let module T3 = Tensor3.Make (S) in
  let module Rot = Rotate90.Make (S) in
  let tensor_buf = f64_iota (48 * 40 * 24) in
  let rot_buf = f64_iota (320 * 200) in
  let exec_mem =
    Xpose_simd_machine.Memory.create cfg
      ~words:((96 * 72) + Xpose_simd.Gpu_exec.scratch_words ~m:96 ~n:72)
  in
  Test.make_grouped ~name:"extensions"
    [
      Test.make ~name:"tensor3_permute_roundtrip"
        (Staged.stage (fun () ->
             T3.permute ~dims:(48, 40, 24) ~perm:(1, 2, 0) tensor_buf;
             T3.permute ~dims:(40, 24, 48) ~perm:(2, 0, 1) tensor_buf));
      Test.make ~name:"rotate90_four_quarters"
        (Staged.stage (fun () ->
             Rot.clockwise ~m:320 ~n:200 rot_buf;
             Rot.clockwise ~m:200 ~n:320 rot_buf;
             Rot.clockwise ~m:320 ~n:200 rot_buf;
             Rot.clockwise ~m:200 ~n:320 rot_buf));
      Test.make ~name:"gpu_exec_96x72"
        (Staged.stage (fun () ->
             ignore (Xpose_simd.Gpu_exec.c2r exec_mem ~m:96 ~n:72);
             ignore (Xpose_simd.Gpu_exec.r2c exec_mem ~m:72 ~n:96)));
    ]

(* -- Fused tile engine ---------------------------------------------------- *)

let fused_tests =
  (* Non-coprime shape (gcd = 96) so every pass of the C2R sequence runs,
     large enough that the column phase dominates: the staged f64 engine
     against the unfused cache-aware reference passes. *)
  let fm = 480 and fn = 384 in
  let p = Plan.make ~m:fm ~n:fn in
  let tmp = S.create (Plan.scratch_elements p) in
  let ws = Workspace.F64.create () in
  let roundtrip name fwd bwd =
    let buf = f64_iota (fm * fn) in
    Test.make ~name
      (Staged.stage (fun () ->
           fwd buf;
           bwd buf))
  in
  let plan_cache = Plan.Cache.create ~capacity:8 () in
  let pool = Xpose_cpu.Pool.create ~workers:2 () in
  let batch = 8 and bm = 192 and bn = 144 in
  let batch_bufs = Array.init batch (fun _ -> f64_iota (bm * bn)) in
  Test.make_grouped ~name:"fused_engine"
    [
      roundtrip "fused_f64"
        (fun buf -> Xpose_cpu.Fused_f64.c2r ~ws p buf)
        (fun buf -> Xpose_cpu.Fused_f64.r2c ~ws p buf);
      roundtrip "cache_aware_functor"
        (fun buf -> Cache.c2r p buf ~tmp)
        (fun buf -> Cache.r2c p buf ~tmp);
      Test.make ~name:"plan_make"
        (Staged.stage (fun () -> ignore (Plan.make ~m:fm ~n:fn)));
      Test.make ~name:"plan_cache_hit"
        (Staged.stage (fun () ->
             ignore (Plan.Cache.get ~cache:plan_cache ~m:fm ~n:fn ())));
      Test.make ~name:"batch8_pool2"
        (Staged.stage (fun () ->
             Xpose_cpu.Fused_f64.transpose_batch pool ~m:bm ~n:bn batch_bufs;
             Xpose_cpu.Fused_f64.transpose_batch pool ~m:bn ~n:bm batch_bufs));
    ]

let ooc_tests =
  (* A transpose followed by its inverse restores the file, so every run
     sees identical bytes.  The 4x shapes force the windowed path (four
     row windows / column panels per pass); the fits shape measures the
     whole-file fast path on the same data. *)
  let om = 256 and on = 192 in
  let file_bytes = om * on * 8 in
  let make_file () =
    let path = Filename.temp_file "xpose_bench_ooc" ".mat" in
    at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
    Xpose_mmap.File_matrix.create ~path ~elements:(om * on);
    Xpose_mmap.File_matrix.with_map ~path (fun buf ->
        Storage.fill_iota (module S) buf);
    path
  in
  let roundtrip name ~window_bytes ~prefetch =
    let path = make_file () in
    Test.make ~name
      (Staged.stage (fun () ->
           Xpose_ooc.Ooc_f64.transpose_file ~window_bytes ~prefetch ~path ~m:om
             ~n:on ();
           Xpose_ooc.Ooc_f64.transpose_file ~window_bytes ~prefetch ~path ~m:on
             ~n:om ()))
  in
  Test.make_grouped ~name:"ooc_file_transpose"
    [
      roundtrip "fits_in_window" ~window_bytes:(2 * file_bytes) ~prefetch:false;
      roundtrip "window_quarter_prefetch" ~window_bytes:(file_bytes / 4)
        ~prefetch:true;
      roundtrip "window_quarter_noprefetch" ~window_bytes:(file_bytes / 4)
        ~prefetch:false;
    ]

(* -- Rank-N permutation planner ------------------------------------------ *)

let permute_tests =
  let module Nd = Tensor_nd.Make (S) in
  let module Sh = Xpose_permute.Shape in
  (* forward + inverse leaves the buffer unchanged between runs *)
  let roundtrip name dims perm =
    let buf = f64_iota (Sh.nelems dims) in
    let fwd = Tensor_nd.plan ~dims ~perm in
    let bwd =
      Tensor_nd.plan
        ~dims:(Sh.permuted_dims ~dims ~perm)
        ~perm:(Sh.inverse perm)
    in
    Test.make ~name
      (Staged.stage (fun () ->
           Nd.execute fwd buf;
           Nd.execute bwd buf))
  in
  Test.make_grouped ~name:"permute_planner"
    [
      (* AoS -> SoA at rank 4 (NCHW <-> NHWC: one batched pass each way) *)
      roundtrip "rank4_nchw_nhwc" [| 24; 18; 20; 8 |] [| 0; 2; 3; 1 |];
      (* full reversal: nothing fuses, two passes each way *)
      roundtrip "rank4_reversal" [| 24; 18; 20; 8 |] [| 3; 2; 1; 0 |];
      (* rank-5 shuffle: three passes through the move graph *)
      roundtrip "rank5_shuffle" [| 12; 5; 14; 3; 16 |] [| 4; 2; 0; 3; 1 |];
      (* fused identity in disguise: planner cost is pure overhead *)
      roundtrip "rank5_fused_flat" [| 6; 7; 8; 9; 4 |] [| 2; 3; 4; 0; 1 |];
    ]

(* -- Job-server building blocks ------------------------------------------ *)

let server_tests =
  let module P = Xpose_server.Protocol in
  let module Adm = Xpose_server.Admission in
  let module Co = Xpose_server.Coalescer in
  let module Jq = Xpose_server.Job_queue in
  (* One hot-path request: big enough that payload encoding dominates,
     small enough to stay a fused-route job. *)
  let sm = 64 and sn = 48 in
  let req =
    P.Transpose
      {
        id = 1;
        trace = 0;
        tenant = "bench";
        priority = P.Normal;
        m = sm;
        n = sn;
        payload = f64_iota (sm * sn);
      }
  in
  let body = P.encode_request req in
  let adm = Adm.create () in
  let queue = Jq.create () in
  let key = { Co.priority = P.Normal; m = sm; n = sn } in
  Test.make_grouped ~name:"server_protocol"
    [
      Test.make ~name:"encode_request_24k"
        (Staged.stage (fun () -> ignore (P.encode_request req)));
      Test.make ~name:"decode_request_24k"
        (Staged.stage (fun () ->
             match P.decode_request body with
             | Ok _ -> ()
             | Error _ -> assert false));
      Test.make ~name:"admission_admit_release"
        (Staged.stage (fun () ->
             match Adm.admit adm ~tenant:"bench" ~bytes:(sm * sn * 8) with
             | Adm.Admit _ -> Adm.release adm ~bytes:(sm * sn * 8)
             | Adm.Reject _ -> assert false));
      Test.make ~name:"queue_offer_pop"
        (Staged.stage (fun () ->
             (match Jq.offer queue ~priority:P.Normal ~bytes:8 () with
             | `Ok -> ()
             | `Queue_full | `Bytes_full -> assert false);
             ignore (Jq.pop queue)));
      Test.make ~name:"coalescer_add8_ready"
        (Staged.stage (fun () ->
             let c = Co.create ~max_batch:8 ~window_ns:1_000 () in
             for i = 0 to 7 do
               Co.add c ~now_ns:i ~batchable:true ~key i
             done;
             ignore (Co.ready c ~now_ns:8)));
    ]

let all_groups =
  [
    table1_tests;
    table2_tests;
    landscape_tests;
    fig7_tests;
    access_tests;
    ablation_magic;
    ablation_variants;
    ablation_cache_aware;
    ablation_skinny;
    fused_tests;
    ooc_tests;
    extension_tests;
    permute_tests;
    server_tests;
  ]

(* [--only PREFIX] keeps the groups whose name starts with PREFIX, so a
   single family can be re-measured without paying for the whole suite. *)
let select_tests ~only =
  let groups =
    match only with
    | None -> all_groups
    | Some prefix ->
        List.filter
          (fun g ->
            let name = Test.name g in
            String.length name >= String.length prefix
            && String.equal (String.sub name 0 (String.length prefix)) prefix)
          all_groups
  in
  if groups = [] then (
    Printf.eprintf "no benchmark group matches --only %s; groups are:\n"
      (Option.value only ~default:"");
    List.iter (fun g -> Printf.eprintf "  %s\n" (Test.name g)) all_groups;
    exit 1);
  Test.make_grouped ~name:"xpose" groups

(* -- roofline attribution ------------------------------------------------ *)

(* One traced fused c2r at the fused_tests shape, placed against the
   machine's calibrated roofs: the per-family roofline fractions land
   next to the timings in the JSON so the regression sentinel can watch
   bandwidth efficiency, not just wall time. Warm-up first so the
   traced run measures steady state. *)
let roofline_report cal =
  let fm = 480 and fn = 384 in
  let p = Plan.make ~m:fm ~n:fn in
  let buf = f64_iota (fm * fn) in
  let ws = Workspace.F64.create () in
  Xpose_cpu.Fused_f64.c2r ~ws p buf;
  Xpose_cpu.Fused_f64.r2c ~ws p buf;
  Xpose_obs.Tracer.start ();
  Xpose_cpu.Fused_f64.c2r ~ws p buf;
  Xpose_obs.Tracer.stop ();
  let report =
    Xpose_obs.Report.of_events ~cal (Xpose_obs.Tracer.events ())
  in
  Xpose_obs.Tracer.clear ();
  report

(* -- machine-readable sink ----------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.6g" x else "null"

(* The work counters of one untimed run of every benchmark, from a reset
   registry: bechamel's iteration counts depend on its time quota and
   the machine, so counters taken after the timed runs scale with the
   engine's speed rather than with the work it does. The prefetch
   hit/wait split records which side of a race won, not work done, so
   it is left out. *)
let timing_dependent = [ "ooc.prefetch_hits"; "ooc.prefetch_waits" ]

let counters_of_one_run tests =
  Xpose_obs.Metrics.reset ();
  List.iter
    (fun elt ->
      match Test.Elt.fn elt with
      | Test.V { fn; kind = Test.Uniq; allocate; free } ->
          let r = allocate () in
          ignore (fn `Init (Test.Uniq.prj r));
          free r
      | Test.V { fn; kind = Test.Multiple; allocate; free } ->
          let r = allocate 1 in
          Array.iter (fun v -> ignore (fn `Init v)) (Test.Multiple.prj r);
          free r)
    (Test.elements tests);
  List.filter_map
    (fun (name, v) ->
      match v with
      | Xpose_obs.Metrics.Counter c when not (List.mem name timing_dependent)
        ->
          Some (name, c)
      | _ -> None)
    (Xpose_obs.Metrics.dump ())

let write_json ~file ~quick ~roofline ~counters rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"suite\": \"xpose\",\n";
  Printf.bprintf b "  \"quick\": %b,\n" quick;
  Buffer.add_string b "  \"benchmarks\": [\n";
  List.iteri
    (fun i (name, est) ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b "    {\"name\": \"%s\", \"ns_per_run\": %s}"
        (json_escape name)
        (match est with
        | Some e when Float.is_finite e -> Printf.sprintf "%.3f" e
        | _ -> "null"))
    rows;
  Buffer.add_string b "\n  ],\n  \"counters\": {\n";
  List.iteri
    (fun i (name, c) ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b "    \"%s\": %d" (json_escape name) c)
    counters;
  Buffer.add_string b "\n  },\n  \"roofline\": {\n";
  List.iteri
    (fun i (r : Xpose_obs.Report.row) ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "    \"%s\": {\"roofline_frac\": %s, \"gbps\": %s, \"rel_err\": %s}"
        (json_escape r.name) (json_float r.roofline_frac) (json_float r.gbps)
        (json_float r.rel_err))
    (match roofline with
    | None -> []
    | Some (rep : Xpose_obs.Report.t) -> rep.passes);
  Buffer.add_string b "\n  }\n}\n";
  let oc = open_out file in
  Buffer.output_buffer oc b;
  close_out oc

let () =
  (* [--quick] shrinks each benchmark's quota to a dry run (CI uses it to
     validate the pipeline and the JSON output, not the numbers);
     [--out FILE] overrides the JSON destination;
     [--only PREFIX] restricts the run to matching benchmark groups. *)
  let quick = Array.exists (String.equal "--quick") Sys.argv in
  let out = ref "BENCH_xpose.json" in
  let only = ref None in
  let cal_file = ref None in
  Array.iteri
    (fun i a ->
      if String.equal a "--out" && i + 1 < Array.length Sys.argv then
        out := Sys.argv.(i + 1);
      if String.equal a "--only" && i + 1 < Array.length Sys.argv then
        only := Some Sys.argv.(i + 1);
      if String.equal a "--calibration" && i + 1 < Array.length Sys.argv then
        cal_file := Some Sys.argv.(i + 1))
    Sys.argv;
  (* Roofline attribution needs the machine's roofs: load a calibration
     file written by [xpose obs calibrate] when given one, otherwise
     run a reduced in-process calibration (2 MiB probes, best of 2 —
     coarse, but the sentinel's thresholds are generous). *)
  let cal =
    match !cal_file with
    | Some file -> (
        match Xpose_obs.Calibrate.load ~file with
        | Ok cal -> cal
        | Error msg ->
            Printf.eprintf "bench: bad calibration %s: %s\n%!" file msg;
            exit 1)
    | None -> Xpose_obs.Calibrate.run ~elems:(1 lsl 18) ~repeats:2 ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let benchmark_cfg =
    if quick then
      Benchmark.cfg ~limit:20 ~quota:(Time.second 0.005) ~stabilize:false ()
    else Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~stabilize:true ()
  in
  let tests = select_tests ~only:!only in
  let raw = Benchmark.all benchmark_cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Printf.printf "%-60s %14s\n" "benchmark" "ns/run";
  Printf.printf "%s\n" (String.make 75 '-');
  let estimates =
    List.map
      (fun (name, ols) ->
        match Analyze.OLS.estimates ols with
        | Some [ est ] ->
            Printf.printf "%-60s %14.1f\n" name est;
            (name, Some est)
        | Some _ | None ->
            Printf.printf "%-60s %14s\n" name "n/a";
            (name, None))
      rows
  in
  let roofline = roofline_report cal in
  let counters = counters_of_one_run tests in
  write_json ~file:!out ~quick ~roofline:(Some roofline) ~counters estimates;
  Printf.printf "wrote %s (%d benchmarks, %d roofline passes)\n" !out
    (List.length estimates)
    (List.length roofline.Xpose_obs.Report.passes)
