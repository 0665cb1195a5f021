(* ooc_file: Ooc_f64.transpose_file on a float64 file several times the
   window, in one process, 2 lanes, prefetch on. Each op swaps m and n
   back. *)

open Common
module Pool = Xpose_cpu.Pool
module FM = Xpose_mmap.File_matrix

let lanes = 2
let window_bytes = 8 * mib
let file_mib = 40

(* A large-gcd shape, so every pass of both directions runs; the seed
   picks the dimensions at a fixed payload size. The window stays in the
   guaranteed regime: window_bytes >= 16 * 8 * max m n. *)
let shape ~seed =
  let rng = Random.State.make [| seed; 3 |] in
  let t = file_mib * mib / 8 in
  let pairs = [| (3, 2); (4, 3); (5, 3); (5, 4); (7, 4); (7, 5) |] in
  let a, b = pairs.(Random.State.int rng (Array.length pairs)) in
  let g = int_of_float (Float.round (sqrt (float_of_int t /. float_of_int (a * b)))) in
  let m, n = (g * a, g * b) in
  assert (window_bytes >= 16 * 8 * max m n);
  (m, n)

(* The file is written and checked through read/write in 1 MiB blocks,
   never mapped, so the page cache holds it but the benchmark's own
   accesses add nothing to the process's resident set. *)
let block = 1 lsl 17

let write_iota path ~elems =
  FM.with_fd ~path (fun fd ->
      let b = Bytes.create (block * 8) in
      let l = ref 0 in
      while !l < elems do
        let k = min block (elems - !l) in
        for i = 0 to k - 1 do
          Bytes.set_int64_le b (i * 8) (Int64.bits_of_float (float_of_int (!l + i)))
        done;
        let written = Unix.write fd b 0 (k * 8) in
        assert (written = k * 8);
        l := !l + k
      done)

let file_matches path ~elems ~expect =
  FM.with_fd ~write:false ~path (fun fd ->
      let b = Bytes.create (block * 8) in
      let ok = ref true and l = ref 0 in
      while !ok && !l < elems do
        let k = min block (elems - !l) in
        let got = ref 0 in
        while !got < k * 8 do
          let r = Unix.read fd b !got ((k * 8) - !got) in
          if r = 0 then failwith "ooc_file: short file";
          got := !got + r
        done;
        for i = 0 to k - 1 do
          let v = Int64.float_of_bits (Bytes.get_int64_le b (i * 8)) in
          if v <> expect (!l + i) then ok := false
        done;
        l := !l + k
      done;
      !ok)

(* [flipped]: the file holds the n x m transpose of the m x n iota. *)
let verify path ~m ~n ~flipped =
  let expect =
    if flipped then fun l -> float_of_int (((l mod m) * n) + (l / m)) else float_of_int
  in
  file_matches path ~elems:(m * n) ~expect

type sys = { pool : Pool.t; path : string }

let op sys ~m ~n =
  Tracer.with_span ~cat:"bench" "bench.op" (fun () ->
      Xpose_ooc.Ooc_f64.transpose_file ~pool:sys.pool ~window_bytes ~prefetch:true
        ~path:sys.path ~m ~n ())

(* Set-up: the pool, the file, and one warm-up op; filling the file is
   input generation and is not counted. Leaves the file flipped. *)
let build path (m, n) =
  let t0 = now_s () in
  let pool = Pool.create ~workers:lanes () in
  FM.create ~path ~elements:(m * n);
  let created = now_s () -. t0 in
  write_iota path ~elems:(m * n);
  let sys = { pool; path } in
  let t1 = now_s () in
  op sys ~m ~n;
  let dt = created +. (now_s () -. t1) in
  if not (verify path ~m ~n ~flipped:true) then failwith "ooc_file: warm-up op failed verification";
  (sys, dt)

let run_phase sys (m, n) ~seconds =
  let lat = ref [] and bytes = ref 0 and cpu = ref 0.0 in
  let attempted = ref 0 and failed = ref 0 in
  let flipped = ref true in
  let start = now_s () in
  while now_s () -. start < seconds do
    incr attempted;
    let rows, cols = if !flipped then (n, m) else (m, n) in
    let c0 = cpu_s () and t0 = now_ns () in
    let ok = match op sys ~m:rows ~n:cols with () -> true | exception _ -> false in
    let t1 = now_ns () in
    cpu := !cpu +. (cpu_s () -. c0);
    flipped := not !flipped;
    if ok && verify sys.path ~m ~n ~flipped:!flipped then begin
      lat := ((t1 -. t0) /. 1e6) :: !lat;
      bytes := !bytes + (m * n * 8)
    end
    else begin
      incr failed;
      write_iota sys.path ~elems:(m * n);
      flipped := false
    end
  done;
  let lat_ms = Array.of_list !lat in
  {
    lat_ms;
    bytes = !bytes;
    wall_s = Array.fold_left ( +. ) 0.0 lat_ms /. 1e3;
    cpu_s = !cpu;
    attempted = !attempted;
    failed = !failed;
  }

let run ~seed ~seconds ~trace =
  let m, n = shape ~seed in
  let path = Filename.concat work_dir (Printf.sprintf "ooc-%d.mat" (Unix.getpid ())) in
  Printf.printf
    "ooc_file: %d x %d float64 file (%.1f MiB), window %d MiB (%.1fx), %d lanes, prefetch on\n" m
    n
    (float_of_int (m * n * 8) /. float_of_int mib)
    (window_bytes / mib)
    (float_of_int (m * n * 8) /. float_of_int window_bytes)
    lanes;
  Printf.printf "  the file sits in the page cache: real disk behaviour is not measured\n";
  Printf.printf "  the clock stops while each result is read back and verified\n";
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      if not trace then begin
        let sys, setup_s =
          repeated_setup
            ~build:(fun () -> build path (m, n))
            ~teardown:(fun s -> Pool.shutdown s.pool)
        in
        let p = run_phase sys (m, n) ~seconds in
        Pool.shutdown sys.pool;
        (p.attempted, p.failed, end_to_end ~setup_s ~peak_rss_mb:(peak_rss_mb ()) p)
      end
      else begin
        let cal = Xpose_obs.Calibrate.run () in
        let sys, _ = build path (m, n) in
        let untraced = run_phase sys (m, n) ~seconds:(seconds /. 2.0) in
        let before = snapshot () in
        Tracer.start ();
        let traced = run_phase sys (m, n) ~seconds:(seconds /. 2.0) in
        Tracer.stop ();
        let after = snapshot () in
        Pool.shutdown sys.pool;
        let s = summarize ~entry:"bench.op" (Tracer.events ()) in
        let ops = Array.length traced.lat_ms in
        let file_bytes = m * n * 8 in
        let mapped = idelta ~before ~after "ooc.bytes_mapped"
        and windows = idelta ~before ~after "ooc.windows"
        and hits = idelta ~before ~after "ooc.prefetch_hits"
        and waits = idelta ~before ~after "ooc.prefetch_waits"
        and peak = value after "ooc.window_peak_bytes" in
        Printf.printf "  mapped %d bytes over %d ops of %d file bytes; %d windows\n" mapped ops
          file_bytes windows;
        Printf.printf "  prefetch hit ratio %s; window peak %.0f of %d bytes\n"
          (Stats.ratio_with_base ~num:hits ~den:(hits + waits))
          peak window_bytes;
        let ooc =
          [
            metric "ooc.map_amplification" "ratio"
              (float_of_int mapped /. float_of_int (ops * file_bytes));
            metric "ooc.windows_per_op" "count" (Stats.ratio ~num:windows ~den:ops);
            metric "ooc.prefetch_hit_ratio" "ratio" (Stats.ratio ~num:hits ~den:(hits + waits));
            metric "ooc.peak_over_window" "ratio" (peak /. float_of_int window_bytes);
          ]
          @ ooc_pass_metrics ~ops s
        in
        let metrics =
          in_order
            [
              (fun () -> fused_pass_metrics ~cal ~ops s);
              (fun () -> pool_metrics ~ops ~before ~after s);
              (fun () -> plan_metrics ~before ~after [ (m, n) ]);
              (fun () -> codec_metrics [ (m, n) ]);
              (fun () -> [ entry_metric s ]);
              (fun () -> absent server_metric_names);
              (fun () -> ooc);
              (fun () -> [ overhead_metric ~untraced ~traced ]);
            ]
        in
        (untraced.attempted + traced.attempted, untraced.failed + traced.failed, metrics)
      end)
