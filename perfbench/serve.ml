(* serve_paper_dist: a closed loop of 2 connections from this process
   against the job server running in a child process (the same
   executable, started with --serve-child) under its default config. *)

open Common
module Client = Xpose_server.Client
module P = Xpose_server.Protocol

let connections = 2
let shape_count = 12
let min_elems = 1000
let max_elems = 250_000

(* The paper's log-uniform element counts, with shapes drawn as
   [xpose loadtest] draws them (rows 16..512 by seed, columns from the
   target count). The targets are the midpoints of 12 equal log-width
   bands rather than 12 random draws, so every seed replays the whole
   range with the same payload mass and seeds differ only in shape. *)
let shapes ~seed =
  let rng = Random.State.make [| seed; 2 |] in
  let lo = log (float_of_int min_elems) and hi = log (float_of_int max_elems) in
  Array.init shape_count (fun k ->
      let u = (float_of_int k +. 0.5) /. float_of_int shape_count in
      let target = int_of_float (exp (lo +. (u *. (hi -. lo)))) in
      let m = 16 + Random.State.int rng 497 in
      (m, max 1 (target / m)))

(* -- the server child -------------------------------------------------- *)

(* Runs in the child process. Protocol on its stdin/stdout: it prints
   "ready" once the server accepts connections; a "mark" line starts
   the tracer (answered with "marked"); end of input stops the server,
   after which it prints the trace summary and "end". *)
let child ~socket ~trace =
  let server =
    Xpose_server.Server.start (Xpose_server.Server.default_config ~socket_path:socket)
  in
  print_endline "ready";
  let rec loop () =
    match In_channel.input_line stdin with
    | Some "mark" ->
        if trace then Tracer.start ();
        print_endline "marked";
        loop ()
    | Some _ -> loop ()
    | None -> ()
  in
  loop ();
  Xpose_server.Server.stop server;
  if trace then begin
    Tracer.stop ();
    let s = summarize ~entry:"server.dispatch" (Tracer.events ()) in
    List.iter print_endline (summary_to_lines s)
  end;
  print_endline "end"

type child_proc = { pid : int; to_child : out_channel; from_child : in_channel }

let expect ch line =
  match In_channel.input_line ch.from_child with
  | Some l when l = line -> ()
  | Some l -> failwith (Printf.sprintf "server child: expected %S, got %S" line l)
  | None -> failwith (Printf.sprintf "server child: exited before %S" line)

let spawn ~socket ~trace =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "--serve-child"; socket; (if trace then "1" else "0") |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let ch =
    {
      pid;
      to_child = Unix.out_channel_of_descr in_w;
      from_child = Unix.in_channel_of_descr out_r;
    }
  in
  expect ch "ready";
  ch

(* Stop the server (end of its input), collect what it prints, and
   reap it. *)
let finish ch =
  close_out ch.to_child;
  let rec collect acc =
    match In_channel.input_line ch.from_child with
    | Some "end" | None -> List.rev acc
    | Some l -> collect (l :: acc)
  in
  let lines = collect [] in
  close_in ch.from_child;
  (match Unix.waitpid [] ch.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "server child exited abnormally");
  lines

(* -- the client side --------------------------------------------------- *)

type input = { m : int; n : int; payload : S.t }

type sys = { child : child_proc; clients : Client.t array }

let teardown sys =
  Array.iter Client.close sys.clients;
  ignore (finish sys.child)

(* One served request: retried on Busy (up to 200 times), timed from
   the first send to the final reply, verified outside the clock. *)
let request client inp =
  let trace = Tracer.fresh_trace_id () in
  let send () =
    Tracer.with_span ~cat:"bench"
      ~args:(fun () -> [ ("trace", Tracer.Int trace) ])
      "bench.request"
      (fun () -> Client.transpose ~trace client ~m:inp.m ~n:inp.n inp.payload)
  in
  let rec attempt tries =
    match send () with
    | P.Result { m; n; payload; _ } -> Some (m, n, payload)
    | P.Busy _ when tries < 200 ->
        Thread.delay (0.001 *. float_of_int (1 + (tries mod 8)));
        attempt (tries + 1)
    | P.Busy _ | P.Error_reply _ | P.Stats_reply _ -> None
    | exception (Client.Protocol_failure _ | Unix.Unix_error _) -> None
  in
  let t0 = now_ns () in
  let reply = attempt 0 in
  let ms = (now_ns () -. t0) /. 1e6 in
  match reply with
  | Some (m, n, out)
    when m = inp.n && n = inp.m && is_transposed_iota ~m:inp.m ~n:inp.n out ->
      Some ms
  | _ -> None

(* Set-up: start the server process, connect, and send every shape once
   on every connection. *)
let build ~socket ~trace inputs =
  let t0 = now_s () in
  let child = spawn ~socket ~trace in
  let clients = Array.init connections (fun _ -> Client.connect ~socket_path:socket) in
  let ok = Array.make connections true in
  let threads =
    Array.mapi
      (fun k c ->
        Thread.create
          (fun () -> ok.(k) <- Array.for_all (fun inp -> request c inp <> None) inputs)
          ())
      clients
  in
  Array.iter Thread.join threads;
  let dt = now_s () -. t0 in
  if not (Array.for_all Fun.id ok) then failwith "serve_paper_dist: a warm-up request failed";
  ({ child; clients }, dt)

type worker = {
  mutable lat : float list;
  mutable bytes : int;
  mutable attempted : int;
  mutable failed : int;
}

(* Each connection walks its own seeded shuffle of the shape pool, so
   every run sends the shapes alike. *)
let run_phase sys inputs ~seed ~seconds =
  let cpu0 = cpu_s ~pid:sys.child.pid () in
  let start = now_s () in
  let deadline = start +. seconds in
  let work k =
    let rng = Random.State.make [| seed; 4; k |] in
    let w = { lat = []; bytes = 0; attempted = 0; failed = 0 } in
    let order = Array.init (Array.length inputs) Fun.id in
    let pos = ref (Array.length order) in
    let client = sys.clients.(k) in
    let loop () =
      while now_s () < deadline do
        if !pos = Array.length order then begin
          for i = Array.length order - 1 downto 1 do
            let j = Random.State.int rng (i + 1) in
            let t = order.(i) in
            order.(i) <- order.(j);
            order.(j) <- t
          done;
          pos := 0
        end;
        let inp = inputs.(order.(!pos)) in
        incr pos;
        w.attempted <- w.attempted + 1;
        match request client inp with
        | Some ms ->
            w.lat <- ms :: w.lat;
            w.bytes <- w.bytes + (inp.m * inp.n * 8)
        | None -> w.failed <- w.failed + 1
      done
    in
    (loop, w)
  in
  let jobs = List.init connections work in
  let threads = List.map (fun (f, _) -> Thread.create f ()) jobs in
  List.iter Thread.join threads;
  let wall_s = now_s () -. start in
  let ws = List.map snd jobs in
  {
    lat_ms = Array.of_list (List.concat_map (fun w -> w.lat) ws);
    bytes = List.fold_left (fun a w -> a + w.bytes) 0 ws;
    wall_s;
    cpu_s = cpu_s ~pid:sys.child.pid () -. cpu0;
    attempted = List.fold_left (fun a w -> a + w.attempted) 0 ws;
    failed = List.fold_left (fun a w -> a + w.failed) 0 ws;
  }

let server_snapshot sys = snapshot_of_stats_json (Client.stats sys.clients.(0))

let ms_of_ns = List.map (fun d -> d /. 1e6)

(* Per-layer metrics of the served path: the stage table of means that
   splits the client round trip, then the queue, coalescer, admission and
   dispatch figures. *)
let server_metrics ~before ~after ~(traced : phase) (s : summary) =
  let durs name =
    List.filter_map (fun (n, d, _) -> if n = name then Some d else None) s.server_spans
  in
  let dispatch = List.filter (fun (n, _, _) -> n = "server.dispatch") s.server_spans in
  let queue = Array.of_list (ms_of_ns (durs "server.queue_wait"))
  and coalesce = Array.of_list (ms_of_ns (durs "server.coalesce")) in
  let exec_per_batch =
    Stats.mean (Array.of_list (ms_of_ns (List.map (fun (_, d, _) -> d) dispatch)))
  in
  let exec_per_request =
    let jobs = List.fold_left (fun a (_, _, j) -> a + j) 0 dispatch in
    List.fold_left (fun a (_, d, j) -> a +. (d *. float_of_int j)) 0.0 dispatch
    /. 1e6 /. float_of_int (max 1 jobs)
  in
  let round_trip = Stats.mean traced.lat_ms in
  let lat_count = delta ~before ~after "server.latency_ns.count" in
  let server_side =
    delta ~before ~after "server.latency_ns.sum" /. 1e6 /. Float.max 1.0 lat_count
  in
  let wire = round_trip -. server_side in
  let q_mean = Stats.mean queue and c_mean = Stats.mean coalesce in
  let unaccounted = server_side -. q_mean -. c_mean -. exec_per_request in
  Printf.printf "  stage table (means per request, ms; %d requests, %d dispatches):\n"
    (Array.length traced.lat_ms) (List.length dispatch);
  List.iter
    (fun (name, v) ->
      Printf.printf "    %-28s %9.4f  (%5.1f%%)\n" name v (100.0 *. v /. round_trip))
    [
      ("client round trip", round_trip);
      ("wire residual", wire);
      ("queue wait", q_mean);
      ("coalesce", c_mean);
      ("exec (server.dispatch)", exec_per_request);
      ("unaccounted", unaccounted);
    ];
  let batches = idelta ~before ~after "server.batches"
  and batched = idelta ~before ~after "server.batched_jobs"
  and requests = idelta ~before ~after "server.requests"
  and busy =
    idelta ~before ~after "server.rejects.budget"
    + idelta ~before ~after "server.rejects.queue_full"
  in
  Printf.printf "  coalescer batch ratio %s (jobs/batches); admission busy %s\n"
    (Printf.sprintf "%.4f (%d/%d)" (Stats.ratio ~num:batched ~den:batches) batched batches)
    (Stats.ratio_with_base ~num:busy ~den:requests);
  [
    metric "client.wire_residual_ms" "ms" wire;
    metric "server.queue_wait_ms.p50" "ms" (Stats.median queue);
    metric "server.queue_wait_ms.mean" "ms" q_mean;
    metric "server.coalesce_delay_ms.p50" "ms" (Stats.median coalesce);
    metric "server.coalesce_delay_ms.mean" "ms" c_mean;
    metric "server.unaccounted_ms" "ms" unaccounted;
    metric "coalescer.batch_ratio" "ratio" (Stats.ratio ~num:batched ~den:batches);
    metric "admission.busy_frac" "ratio" (Stats.ratio ~num:busy ~den:requests);
    metric "server.exec_ms" "ms" exec_per_batch;
    metric "server.exec_share" "ratio" (exec_per_request /. round_trip);
  ]

let run ~seed ~seconds ~trace =
  let dims = shapes ~seed in
  let inputs =
    Array.map
      (fun (m, n) ->
        let payload = S.create (m * n) in
        fill_iota payload;
        { m; n; payload })
      dims
  in
  let socket = Filename.concat work_dir (Printf.sprintf "server-%d.sock" (Unix.getpid ())) in
  (* A server that dies mid-request must surface as a failed request,
     not kill the benchmark. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Printf.printf
    "serve_paper_dist: closed loop, %d connections from one client process;\n\
    \  server child with the default config\n"
    connections;
  Printf.printf "  %d shapes, element counts at the midpoints of %d log-width bands over %d..%d:\n"
    shape_count shape_count min_elems max_elems;
  Printf.printf "   %s\n"
    (String.concat " "
       (Array.to_list (Array.map (fun (m, n) -> Printf.sprintf "%dx%d" m n) dims)));
  Printf.printf "  the clock covers send to verified-reply receipt; verification is outside it\n";
  if not trace then begin
    let sys, setup_s =
      repeated_setup ~build:(fun () -> build ~socket ~trace:false inputs) ~teardown
    in
    let p = run_phase sys inputs ~seed ~seconds in
    let rss = peak_rss_mb ~pid:sys.child.pid () in
    teardown sys;
    (p.attempted, p.failed, end_to_end ~setup_s ~peak_rss_mb:rss p)
  end
  else begin
    let cal = Xpose_obs.Calibrate.run () in
    let sys, _ = build ~socket ~trace:true inputs in
    let untraced = run_phase sys inputs ~seed ~seconds:(seconds /. 2.0) in
    let before = server_snapshot sys in
    output_string sys.child.to_child "mark\n";
    flush sys.child.to_child;
    expect sys.child "marked";
    Tracer.start ();
    let traced = run_phase sys inputs ~seed:(seed + 1) ~seconds:(seconds /. 2.0) in
    Tracer.stop ();
    let after = server_snapshot sys in
    Array.iter Client.close sys.clients;
    let s = summary_of_lines (finish sys.child) in
    let ops = Array.length traced.lat_ms in
    let metrics =
      in_order
        [
          (fun () -> fused_pass_metrics ~cal ~ops s);
          (fun () -> pool_metrics ~ops ~before ~after s);
          (fun () -> plan_metrics ~before ~after (Array.to_list dims));
          (fun () -> codec_metrics (Array.to_list dims));
          (fun () -> [ entry_metric s ]);
          (fun () -> server_metrics ~before ~after ~traced s);
          (fun () -> absent ooc_metric_names);
          (fun () -> [ overhead_metric ~untraced ~traced ]);
        ]
    in
    (untraced.attempted + traced.attempted, untraced.failed + traced.failed, metrics)
  end
