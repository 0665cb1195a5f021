(* Shared plumbing for the three workloads: one monotonic clock, process
   accounting, the transpose index oracle, counter snapshots, trace
   summaries and the result printer. *)

module S = Xpose_core.Storage.Float64
module Metrics = Xpose_obs.Metrics
module Tracer = Xpose_obs.Tracer
module Stats = Perfbench_stats.Stats

(* -- clock ------------------------------------------------------------- *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())
let now_s () = now_ns () /. 1e9

(* Benchmark timers and the library's spans and histograms all read this
   one clock, in the benchmark process and in the server child. *)
let install_clock () = Xpose_obs.Clock.install now_ns

let l2_bytes = 4 * 1024 * 1024
let l3_bytes = 300 * 1024 * 1024
let mib = 1024 * 1024
let work_dir = Filename.concat "perfbench" "_work"

let ensure_work_dir () =
  if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755

(* -- process accounting ------------------------------------------------ *)

let read_text path = In_channel.with_open_bin path In_channel.input_all

let proc_dir = function
  | None -> "/proc/self"
  | Some pid -> Printf.sprintf "/proc/%d" pid

(* VmHWM: the resident-set high-water mark, in MiB. *)
let peak_rss_mb ?pid () =
  let status = read_text (Filename.concat (proc_dir pid) "status") in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* User + system CPU seconds. The benchmark's own process uses
   getrusage (microsecond resolution); another process is read from
   /proc in clock ticks of 1/100 s. *)
let cpu_s ?pid () =
  match pid with
  | None ->
      let t = Unix.times () in
      t.Unix.tms_utime +. t.Unix.tms_stime
  | Some _ ->
      let stat = read_text (Filename.concat (proc_dir pid) "stat") in
      let after = String.rindex stat ')' + 2 in
      let fields =
        String.split_on_char ' ' (String.sub stat after (String.length stat - after))
      in
      let field k = float_of_string (List.nth fields k) in
      (field 11 +. field 12) /. 100.0

(* -- transpose index oracle -------------------------------------------- *)

(* Inputs hold their own row-major index, so every output slot has a
   known expected value and no reference copy is kept. *)
let fill_iota (buf : S.t) =
  for l = 0 to Bigarray.Array1.dim buf - 1 do
    Bigarray.Array1.unsafe_set buf l (float_of_int l)
  done

(* [buf] holds the [n x m] transpose of the [m x n] iota matrix. *)
let is_transposed_iota ~m ~n (buf : S.t) =
  Bigarray.Array1.dim buf = m * n
  &&
  let ok = ref true and j = ref 0 in
  while !ok && !j < n do
    let row = !j * m in
    for i = 0 to m - 1 do
      if Bigarray.Array1.unsafe_get buf (row + i) <> float_of_int ((i * n) + !j)
      then ok := false
    done;
    incr j
  done;
  !ok

let is_iota (buf : S.t) =
  let ok = ref true and l = ref 0 and len = Bigarray.Array1.dim buf in
  while !ok && !l < len do
    if Bigarray.Array1.unsafe_get buf !l <> float_of_int !l then ok := false;
    incr l
  done;
  !ok

(* Several library counters are [lazy] values (the tracer's pass and
   panel totals, the plan cache's hits and misses, the ooc window
   counters) that pool workers can force concurrently on first use,
   which OCaml 5.1 reports as CamlinternalLazy.Undefined and which
   aborts the op. Force them once from this domain, before any pool or
   I/O domain runs, with a tiny serial transpose through each engine. *)
let prime_counters () =
  let m = 64 and n = 48 in
  let buf = S.create (m * n) in
  fill_iota buf;
  Xpose_cpu.Fused_f64.transpose ~m ~n buf;
  let path = Filename.concat work_dir (Printf.sprintf "prime-%d.mat" (Unix.getpid ())) in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Xpose_mmap.File_matrix.create ~path ~elements:(m * n);
      Xpose_ooc.Ooc_f64.transpose_file ~window_bytes:(16 * 8 * m) ~prefetch:false ~path
        ~m ~n ())

(* -- counter snapshots ------------------------------------------------- *)

(* Flat name -> value view of the metrics registry; a histogram [h]
   contributes [h.count] and [h.sum]. Only deltas between two snapshots
   are reported, so set-up and warm-up never leak into per-op counts. *)
type snapshot = (string, float) Hashtbl.t

let snapshot_of_dump dump : snapshot =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (name, v) ->
      match v with
      | Metrics.Counter c -> Hashtbl.replace t name (float_of_int c)
      | Metrics.Gauge g -> Hashtbl.replace t name g
      | Metrics.Histogram { count; sum } ->
          Hashtbl.replace t (name ^ ".count") (float_of_int count);
          Hashtbl.replace t (name ^ ".sum") sum)
    dump;
  t

let snapshot () = snapshot_of_dump (Metrics.dump ())

(* The server's [Stats] reply: {"counters":{..},"gauges":{..},
   "histograms":{name:{"count","sum",..}}}. *)
let snapshot_of_stats_json json : snapshot =
  let module J = Xpose_obs.Json_lite in
  let t = Hashtbl.create 64 in
  let doc =
    match J.parse json with Ok d -> d | Error e -> failwith ("stats reply: " ^ e)
  in
  let section k = Option.value ~default:[] (Option.bind (J.mem k doc) J.obj) in
  List.iter
    (fun (name, v) -> Option.iter (Hashtbl.replace t name) (J.num v))
    (section "counters" @ section "gauges");
  List.iter
    (fun (name, h) ->
      Option.iter (Hashtbl.replace t (name ^ ".count")) (J.num_field "count" h);
      Option.iter (Hashtbl.replace t (name ^ ".sum")) (J.num_field "sum" h))
    (section "histograms");
  t

let value (s : snapshot) name = Option.value ~default:0.0 (Hashtbl.find_opt s name)
let delta ~before ~after name = value after name -. value before name
let idelta ~before ~after name = int_of_float (delta ~before ~after name)

(* -- measured phase ---------------------------------------------------- *)

(* One measured phase: per-op latencies of the ops that completed and
   verified, and the accounting the end-to-end metrics derive from. *)
type phase = {
  lat_ms : float array;
  bytes : int;  (** payload bytes of verified ops *)
  wall_s : float;
  cpu_s : float;  (** CPU of the transposing process over the phase *)
  attempted : int;
  failed : int;
}

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Milliseconds of op time per payload MB: the traced/untraced
   comparison behind [trace.overhead_frac]. *)
let ms_per_mb p = Array.fold_left ( +. ) 0.0 p.lat_ms /. (float_of_int p.bytes /. 1e6)

let end_to_end ~setup_s ~peak_rss_mb p =
  if Array.length p.lat_ms < 2 then
    failwith
      (Printf.sprintf "%d of %d ops verified: too few to report" (Array.length p.lat_ms)
         p.attempted);
  let tail = Stats.tail p.lat_ms in
  Printf.printf "  ops: %d attempted, %d failed, failed_frac %s\n" p.attempted
    p.failed
    (Stats.ratio_with_base ~num:p.failed ~den:p.attempted);
  let q1, q2, q3 = Stats.quartiles p.lat_ms in
  Printf.printf
    "  latency: quartiles %.3f / %.3f / %.3f ms over %d samples;\n\
    \  tail = p%d with %d samples beyond it\n"
    q1 q2 q3 tail.Stats.samples tail.Stats.pct tail.Stats.beyond;
  Printf.printf "  measured phase: %.3f s wall, %.3f s CPU, %.1f MB payload\n"
    p.wall_s p.cpu_s
    (float_of_int p.bytes /. 1e6);
  [
    metric "throughput_mbps" "MB/s" (float_of_int p.bytes /. 1e6 /. p.wall_s);
    metric "latency_p50_ms" "ms" (Stats.median p.lat_ms);
    metric "latency_tail_ms" "ms" tail.Stats.value;
    metric "setup_s" "s" setup_s;
    metric "peak_rss_mb" "MB" peak_rss_mb;
    metric "cpu_s_per_gb" "s/GB" (p.cpu_s /. (float_of_int p.bytes /. 1e9));
  ]

(* Set-up runs several times per run; the median is reported. *)
let setup_reps = 3

(* [build ()] returns the system under test and its set-up seconds; each
   earlier build is torn down before the next starts, and the last one
   is kept for the measured phase. *)
let repeated_setup ~build ~teardown =
  let rec go k prev times =
    Option.iter teardown prev;
    let sys, dt = build () in
    if k > 1 then go (k - 1) (Some sys) (dt :: times)
    else begin
      let times = List.rev (dt :: times) in
      Printf.printf "  setup: %s s over %d builds, median reported\n"
        (String.concat ", " (List.map (Printf.sprintf "%.3f") times))
        setup_reps;
      (sys, Stats.median (Array.of_list times))
    end
  in
  go setup_reps None []

(* -- trace summaries --------------------------------------------------- *)

(* What the per-layer metrics need from a trace, small enough to travel
   from the server child over a pipe as text. *)
type pass_agg = { count : int; dur_ns : float; touches : float }

type summary = {
  passes : (string * pass_agg) list;
  imb_num : float;  (** sum over pool-parallel passes of imbalance x time *)
  imb_den : float;  (** their total time *)
  imb_passes : int;
  entry_count : int;  (** entry spans (one public call each) *)
  entry_self_ns : float;  (** their time not covered by pass spans *)
  server_spans : (string * float * int) list;  (** name, duration, jobs *)
}

(* Length of the union of the [children] intervals inside [lo, hi). *)
let covered ~lo ~hi children =
  let inside =
    List.filter (fun (s, e) -> s >= lo && e <= hi) children
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  let total, cur =
    List.fold_left
      (fun (total, cur) (s, e) ->
        match cur with
        | None -> (total, Some (s, e))
        | Some (cs, ce) ->
            if s <= ce then (total, Some (cs, Float.max ce e))
            else (total +. (ce -. cs), Some (s, e)))
      (0.0, None) inside
  in
  match cur with None -> total | Some (cs, ce) -> total +. (ce -. cs)

let int_arg (e : Tracer.event) key =
  match List.assoc_opt key e.Tracer.args with Some (Tracer.Int i) -> i | _ -> 0

let summarize ~entry (evs : Tracer.event list) =
  let complete = List.filter (fun (e : Tracer.event) -> e.Tracer.ph = `Complete) evs in
  let passes = List.filter (fun (e : Tracer.event) -> e.Tracer.cat = "pass") complete in
  let aggs = Hashtbl.create 8 in
  List.iter
    (fun (e : Tracer.event) ->
      let a =
        Option.value ~default:{ count = 0; dur_ns = 0.0; touches = 0.0 }
          (Hashtbl.find_opt aggs e.Tracer.name)
      in
      Hashtbl.replace aggs e.Tracer.name
        {
          count = a.count + 1;
          dur_ns = a.dur_ns +. e.Tracer.dur_ns;
          touches = a.touches +. float_of_int (int_arg e "pred_touches");
        })
    passes;
  (* The repo's own pass/chunk join gives each pool-parallel pass its
     slowest-chunk over mean-chunk ratio. *)
  let report = Xpose_obs.Report.of_events complete in
  let imb_num, imb_den, imb_passes =
    List.fold_left
      (fun (num, den, k) (r : Xpose_obs.Report.row) ->
        if r.Xpose_obs.Report.chunks > 1 then
          ( num +. (r.Xpose_obs.Report.imbalance *. r.Xpose_obs.Report.measured_ns),
            den +. r.Xpose_obs.Report.measured_ns,
            k + 1 )
        else (num, den, k))
      (0.0, 0.0, 0) report.Xpose_obs.Report.passes
  in
  let pass_iv =
    List.map
      (fun (e : Tracer.event) -> (e.Tracer.ts_ns, e.Tracer.ts_ns +. e.Tracer.dur_ns))
      passes
  in
  let entries = List.filter (fun (e : Tracer.event) -> e.Tracer.name = entry) complete in
  let entry_self_ns =
    List.fold_left
      (fun acc (e : Tracer.event) ->
        let lo = e.Tracer.ts_ns and hi = e.Tracer.ts_ns +. e.Tracer.dur_ns in
        acc +. (e.Tracer.dur_ns -. covered ~lo ~hi pass_iv))
      0.0 entries
  in
  let server_spans =
    List.filter_map
      (fun (e : Tracer.event) ->
        match e.Tracer.name with
        | "server.queue_wait" | "server.coalesce" ->
            Some (e.Tracer.name, e.Tracer.dur_ns, 1)
        | "server.dispatch" -> Some (e.Tracer.name, e.Tracer.dur_ns, int_arg e "jobs")
        | _ -> None)
      complete
  in
  {
    passes = List.of_seq (Hashtbl.to_seq aggs);
    imb_num;
    imb_den;
    imb_passes;
    entry_count = List.length entries;
    entry_self_ns;
    server_spans;
  }

let summary_to_lines s =
  List.map
    (fun (name, a) ->
      Printf.sprintf "pass %s %d %.17g %.17g" name a.count a.dur_ns a.touches)
    s.passes
  @ [
      Printf.sprintf "imb %.17g %.17g %d" s.imb_num s.imb_den s.imb_passes;
      Printf.sprintf "entry %d %.17g" s.entry_count s.entry_self_ns;
    ]
  @ List.map
      (fun (name, d, jobs) -> Printf.sprintf "span %s %.17g %d" name d jobs)
      s.server_spans

let summary_of_lines lines =
  List.fold_left
    (fun s line ->
      match String.split_on_char ' ' line with
      | [ "pass"; name; c; d; t ] ->
          let a =
            {
              count = int_of_string c;
              dur_ns = float_of_string d;
              touches = float_of_string t;
            }
          in
          { s with passes = (name, a) :: s.passes }
      | [ "imb"; num; den; k ] ->
          { s with imb_num = float_of_string num; imb_den = float_of_string den;
                   imb_passes = int_of_string k }
      | [ "entry"; c; d ] ->
          { s with entry_count = int_of_string c; entry_self_ns = float_of_string d }
      | [ "span"; name; d; jobs ] ->
          let span = (name, float_of_string d, int_of_string jobs) in
          { s with server_spans = span :: s.server_spans }
      | _ -> failwith ("trace summary: bad line " ^ line))
    {
      passes = [];
      imb_num = 0.0;
      imb_den = 0.0;
      imb_passes = 0;
      entry_count = 0;
      entry_self_ns = 0.0;
      server_spans = [];
    }
    lines

(* -- per-layer metrics shared by every workload ------------------------ *)

let pass_names = [ "rotate_pre"; "row_shuffle"; "fused_col"; "row_unshuffle"; "rotate_post" ]

(* Fused_f64 passes: self time per op, and bandwidth computed from the
   predicted touches (touches x 8 bytes), placed against the calibrated
   roof for the pass's traffic shape. Pass spans have no child span from
   another layer, so a pass's self time is its span. *)
let fused_pass_metrics ~cal ~ops (s : summary) =
  List.concat_map
    (fun pass ->
      let a =
        Option.value ~default:{ count = 0; dur_ns = 0.0; touches = 0.0 }
          (List.assoc_opt pass s.passes)
      in
      let bytes = a.touches *. 8.0 in
      let gbps, frac, cpe =
        if a.count = 0 || a.dur_ns <= 0.0 then (0.0, 0.0, 0.0)
        else
          let kind = Xpose_obs.Roofline.kind_of_pass pass in
          ( Xpose_obs.Roofline.achieved_gbps ~bytes ~dur_ns:a.dur_ns,
            Xpose_obs.Roofline.fraction cal kind ~bytes ~dur_ns:a.dur_ns,
            match cal.Xpose_obs.Calibrate.ghz with
            | Some ghz when a.touches > 0.0 -> a.dur_ns *. ghz /. (a.touches /. 2.0)
            | _ -> 0.0 )
      in
      let p = "fused." ^ pass in
      Printf.printf
        "  %-24s %4d spans  %9.3f ms/op  %7.3f GB/s (computed)  roof %.3f  cpe %.2f\n" p
        a.count
        (a.dur_ns /. 1e6 /. float_of_int ops)
        gbps frac cpe;
      [
        metric (p ^ ".self_ms") "ms" (a.dur_ns /. 1e6 /. float_of_int ops);
        metric (p ^ ".gbps") "GB/s" gbps;
        metric (p ^ ".roof_frac") "ratio" frac;
        metric (p ^ ".cpe") "cycles/elem" cpe;
      ])
    pass_names

let ooc_pass_metrics ~ops (s : summary) =
  List.map
    (fun pass ->
      let name = "ooc." ^ pass in
      let dur = match List.assoc_opt name s.passes with Some a -> a.dur_ns | None -> 0.0 in
      metric (name ^ ".self_ms") "ms" (dur /. 1e6 /. float_of_int ops))
    pass_names

let pool_metrics ~ops ~before ~after (s : summary) =
  let chunks = idelta ~before ~after "pool.chunks_total"
  and barriers = idelta ~before ~after "pool.barriers_total" in
  let imbalance = if s.imb_den > 0.0 then s.imb_num /. s.imb_den else 1.0 in
  Printf.printf
    "  pool: %d chunks, %d barriers over %d ops;\n\
    \  imbalance %.3f (time-weighted over %d pool-parallel passes)\n"
    chunks barriers ops imbalance s.imb_passes;
  [
    metric "pool.imbalance" "ratio" imbalance;
    metric "pool.chunks_per_op" "count" (Stats.ratio ~num:chunks ~den:ops);
    metric "pool.barriers_per_op" "count" (Stats.ratio ~num:barriers ~den:ops);
  ]

(* Plan.make timed outside the cache on each of the workload's shapes,
   in the orientation the engines plan (rows >= columns). *)
let plan_make_us shapes =
  let reps = 200 in
  let times =
    List.map
      (fun (m, n) ->
        let m', n' = (max m n, min m n) in
        let t0 = now_ns () in
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (Xpose_core.Plan.make ~m:m' ~n:n'))
        done;
        (now_ns () -. t0) /. 1e3 /. float_of_int reps)
      shapes
  in
  Stats.mean (Array.of_list times)

let plan_metrics ~before ~after shapes =
  let hits = idelta ~before ~after "plan_cache.hits"
  and misses = idelta ~before ~after "plan_cache.misses" in
  let make_us = plan_make_us shapes in
  Printf.printf "  plan cache: hit ratio %s; Plan.make %.2f us (mean over %d shapes)\n"
    (Stats.ratio_with_base ~num:hits ~den:(hits + misses))
    make_us (List.length shapes);
  [
    metric "plan.cache_hit_ratio" "ratio" (Stats.ratio ~num:hits ~den:(hits + misses));
    metric "plan.make_us" "us" make_us;
  ]

(* Codec probe: encode and decode a Transpose request for each of the
   workload's shapes. Payloads are capped at 2^18 elements (2 MiB), the
   largest a served request carries, so the probe stays small on the
   in-RAM and file workloads. *)
let codec_metrics shapes =
  let module P = Xpose_server.Protocol in
  let cap = 1 lsl 18 in
  let enc = ref 0.0 and dec = ref 0.0 and bytes = ref 0 in
  List.iter
    (fun (m, n) ->
      let rows = max 1 (min m (cap / n)) in
      let n = min n cap in
      let payload = S.create (rows * n) in
      fill_iota payload;
      let req =
        P.Transpose
          { id = 1; trace = 1; tenant = ""; priority = P.Normal; m = rows; n; payload }
      in
      for _ = 1 to 5 do
        let t0 = now_ns () in
        let body = P.encode_request req in
        let t1 = now_ns () in
        (match P.decode_request body with
        | Ok _ -> ()
        | Error e -> failwith ("codec probe: " ^ P.error_to_string e));
        let t2 = now_ns () in
        enc := !enc +. (t1 -. t0);
        dec := !dec +. (t2 -. t1);
        bytes := !bytes + (rows * n * 8)
      done)
    shapes;
  let mb = float_of_int !bytes /. 1e6 in
  Printf.printf "  codec probe: %.1f MB encoded and decoded\n" mb;
  [
    metric "protocol.encode_ms_per_mb" "ms/MB" (!enc /. 1e6 /. mb);
    metric "protocol.decode_ms_per_mb" "ms/MB" (!dec /. 1e6 /. mb);
  ]

let entry_metric (s : summary) =
  metric "entry.self_ms" "ms"
    (if s.entry_count = 0 then 0.0
     else s.entry_self_ns /. 1e6 /. float_of_int s.entry_count)

(* Layers a workload does not exercise report 0; the text output says
   which. *)
let absent names =
  Printf.printf "  not exercised on this workload (reported as 0): %s\n"
    (String.concat ", " (List.map fst names));
  List.map (fun (name, unit_) -> metric name unit_ 0.0) names

let server_metric_names =
  [
    ("client.wire_residual_ms", "ms");
    ("server.queue_wait_ms.p50", "ms");
    ("server.queue_wait_ms.mean", "ms");
    ("server.coalesce_delay_ms.p50", "ms");
    ("server.coalesce_delay_ms.mean", "ms");
    ("server.unaccounted_ms", "ms");
    ("coalescer.batch_ratio", "ratio");
    ("admission.busy_frac", "ratio");
    ("server.exec_ms", "ms");
    ("server.exec_share", "ratio");
  ]

let ooc_metric_names =
  [
    ("ooc.map_amplification", "ratio");
    ("ooc.windows_per_op", "count");
    ("ooc.prefetch_hit_ratio", "ratio");
    ("ooc.peak_over_window", "ratio");
  ]
  @ List.map (fun p -> ("ooc." ^ p ^ ".self_ms", "ms")) pass_names

let overhead_metric ~untraced ~traced =
  let u = ms_per_mb untraced and t = ms_per_mb traced in
  Printf.printf "  tracing overhead: %.4f ms/MB untraced, %.4f ms/MB traced\n" u t;
  metric "trace.overhead_frac" "ratio" ((t -. u) /. u)

(* -- output ------------------------------------------------------------ *)

(* Metric groups print their context lines as they are computed; run
   them top to bottom. *)
let in_order groups = List.concat_map (fun g -> g ()) groups

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~workload ~attempted ~failed ~correct metrics =
  Printf.printf "%s metrics:\n" workload;
  List.iter
    (fun m -> Printf.printf "  %-34s %14.6f %s\n" m.name m.value m.unit_)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_float m.value)
             m.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body
