module P = Protocol
module FM = Xpose_mmap.File_matrix
module Metrics = Xpose_obs.Metrics
module Tracer = Xpose_obs.Tracer

type config = {
  socket_path : string;
  workers : int;
  budget_bytes : int;
  default_quota_bytes : int;
  default_window_bytes : int;
  tenants : Admission.tenant list;
  max_queue_jobs : int;
  max_queue_bytes : int;
  coalesce_window_ns : int;
  max_batch : int;
  max_frame_bytes : int;
  write_timeout_s : float;
  prefetch : bool;
  metrics_file : string option;
  metrics_interval_s : float;
}

let default_config ~socket_path =
  {
    socket_path;
    workers = 2;
    budget_bytes = 1024 * 1024 * 1024;
    default_quota_bytes = 16 * 1024 * 1024;
    default_window_bytes = 4 * 1024 * 1024;
    tenants = [];
    max_queue_jobs = 1024;
    max_queue_bytes = 256 * 1024 * 1024;
    coalesce_window_ns = 2_000_000;
    max_batch = 8;
    max_frame_bytes = P.default_max_frame_bytes;
    write_timeout_s = 5.0;
    prefetch = true;
    metrics_file = None;
    metrics_interval_s = 1.0;
  }

(* -- metrics ----------------------------------------------------------- *)

let m_connections = Metrics.defer Metrics.counter "server.connections"
let m_requests = Metrics.defer Metrics.counter "server.requests"
let m_responses = Metrics.defer Metrics.counter "server.responses"
let m_stats_requests = Metrics.defer Metrics.counter "server.stats_requests"
let m_protocol_errors = Metrics.defer Metrics.counter "server.protocol_errors"
let m_rej_queue = Metrics.defer Metrics.counter "server.rejects.queue_full"
let m_rej_budget = Metrics.defer Metrics.counter "server.rejects.budget"
let m_job_errors = Metrics.defer Metrics.counter "server.job_errors"
let h_latency = Metrics.defer Metrics.histogram "server.latency_ns"
let h_queue_wait = Metrics.defer Metrics.histogram "server.queue_wait_ns"
let h_coalesce = Metrics.defer Metrics.histogram "server.coalesce_delay_ns"
let g_depth_high = Metrics.defer Metrics.gauge "server.queue_depth.high"
let g_depth_normal = Metrics.defer Metrics.gauge "server.queue_depth.normal"
let g_depth_low = Metrics.defer Metrics.gauge "server.queue_depth.low"

let stats_json () = Metrics.render_json ()

(* -- connections ------------------------------------------------------- *)

(* Replies are written by whichever side finishes the work (reader
   thread for immediate answers, dispatcher for job results), so every
   write goes through the connection's mutex. The accepted fd carries a
   send timeout ([write_timeout_s]): a write that fails — including one
   that times out against a stalled peer's full socket buffer — marks
   the connection dead and further replies to it are dropped (their
   jobs still ran; admission bytes are still released), so one stuck
   client cannot stall the dispatcher for everyone else.

   [inflight], [reader_done], and [closed] (all guarded by the
   server's [cmu]) drive reclamation: once the reader has exited and
   the last queued job's reply has gone out, the fd is closed and the
   conn dropped from the server's list — a long-running server does
   not accumulate an fd per client that ever connected. *)
type conn = {
  fd : Unix.file_descr;
  wmu : Mutex.t;
  mutable alive : bool;
  mutable inflight : int;  (* admitted jobs not yet answered *)
  mutable reader_done : bool;
  mutable closed : bool;
}

let send_response conn resp =
  Mutex.lock conn.wmu;
  (try
     if conn.alive then begin
       P.write_frame conn.fd (P.encode_response resp);
       Metrics.incr (Metrics.force m_responses)
     end
   with Unix.Unix_error _ | Sys_error _ -> conn.alive <- false);
  Mutex.unlock conn.wmu

(* -- jobs -------------------------------------------------------------- *)

type job = {
  j_conn : conn;
  j_id : int;
  j_trace : int;
  j_m : int;
  j_n : int;
  j_payload : P.buf;
  j_bytes : int;
  j_route : Admission.route;
  j_arrival_ns : float;
  (* stamped by the dispatcher when the job leaves the queue; together
     with [j_arrival_ns] and the dispatch time it splits latency into
     queue wait and coalesce delay *)
  mutable j_dequeue_ns : float;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  pool : Xpose_cpu.Pool.t;
  admission : Admission.t;
  plan_cache : Xpose_core.Plan.Cache.t;
  (* queue, guarded by [qmu]; readers enqueue, the dispatcher drains *)
  qmu : Mutex.t;
  queue : job Job_queue.t;
  (* dispatcher wake-up: readers write one byte after enqueueing, the
     dispatcher selects on the read end with its coalesce deadline as
     the timeout (no Condition.timedwait in the stdlib) *)
  wake_rd : Unix.file_descr;
  wake_wr : Unix.file_descr;
  (* lifecycle *)
  stop_readers : bool Atomic.t;
  stop_dispatch : bool Atomic.t;
  conns : conn list ref;
  (* ids of reader threads that have exited, awaiting a join by the
     acceptor's sweep; guarded by [cmu] like [conns] *)
  finished_readers : int list ref;
  cmu : Mutex.t;
  mutable acceptor : unit Domain.t option;
  mutable dispatcher : Thread.t option;
  stop_metrics : bool Atomic.t;
  mutable metrics_writer : Thread.t option;
  mutable stopped : bool;
}

let now_ns () = Xpose_obs.Clock.now_ns ()

let wake t =
  (* Nonblocking: if the pipe is full the dispatcher is already awake. *)
  try ignore (Unix.write t.wake_wr (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let update_depth_gauges t =
  Metrics.set_gauge (Metrics.force g_depth_high)
    (float_of_int (Job_queue.depth t.queue P.High));
  Metrics.set_gauge (Metrics.force g_depth_normal)
    (float_of_int (Job_queue.depth t.queue P.Normal));
  Metrics.set_gauge (Metrics.force g_depth_low)
    (float_of_int (Job_queue.depth t.queue P.Low))

(* -- connection reclamation -------------------------------------------- *)

(* Close and forget a connection once its reader has exited and its
   last in-flight reply has gone out. Caller holds [t.cmu]; the
   [closed] flag keeps [stop] and the acceptor's shutdown sweep off a
   reclaimed (possibly reused) fd number. *)
let reclaim_locked t conn =
  if conn.reader_done && conn.inflight = 0 && not conn.closed then begin
    conn.closed <- true;
    t.conns := List.filter (fun c -> c != conn) !(t.conns);
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

let conn_job_started t conn =
  Mutex.lock t.cmu;
  conn.inflight <- conn.inflight + 1;
  Mutex.unlock t.cmu

let conn_job_finished t conn =
  Mutex.lock t.cmu;
  conn.inflight <- conn.inflight - 1;
  reclaim_locked t conn;
  Mutex.unlock t.cmu

let live_connections t =
  Mutex.lock t.cmu;
  let n = List.length !(t.conns) in
  Mutex.unlock t.cmu;
  n

(* -- request handling (reader threads) --------------------------------- *)

let clamp_u32 v = if v > 0xffff_ffff then 0xffff_ffff else max 0 v

let busy_reply t ~id ~reason =
  Mutex.lock t.qmu;
  let jobs = Job_queue.length t.queue and bytes = Job_queue.bytes t.queue in
  Mutex.unlock t.qmu;
  P.Busy
    {
      id;
      reason;
      queued_jobs = clamp_u32 jobs;
      queued_bytes = clamp_u32 bytes;
    }

let handle_transpose t conn ~id ~trace ~tenant ~priority ~m ~n ~payload =
  Metrics.incr (Metrics.force m_requests);
  let bytes = m * n * 8 in
  match Admission.admit t.admission ~tenant ~bytes with
  | Admission.Reject reason ->
      Metrics.incr
        (Metrics.force
           (match reason with
           | P.Queue_full -> m_rej_queue
           | P.Budget_exhausted -> m_rej_budget));
      send_response conn (busy_reply t ~id ~reason)
  | Admission.Admit route -> (
      let job =
        {
          j_conn = conn;
          j_id = id;
          j_trace = trace;
          j_m = m;
          j_n = n;
          j_payload = payload;
          j_bytes = bytes;
          j_route = route;
          j_arrival_ns = now_ns ();
          j_dequeue_ns = 0.0;
        }
      in
      conn_job_started t conn;
      Mutex.lock t.qmu;
      let verdict = Job_queue.offer t.queue ~priority ~bytes job in
      if verdict = `Ok then update_depth_gauges t;
      Mutex.unlock t.qmu;
      match verdict with
      | `Ok -> wake t
      | `Queue_full | `Bytes_full ->
          Admission.release t.admission ~bytes;
          Metrics.incr (Metrics.force m_rej_queue);
          send_response conn (busy_reply t ~id ~reason:P.Queue_full);
          conn_job_finished t conn)

let serve_conn t conn =
  let rec loop () =
    if Atomic.get t.stop_readers then ()
    else
      match P.read_frame ~max_bytes:t.cfg.max_frame_bytes conn.fd with
      | Error `Eof -> ()
      | Error `Truncated -> ()
      | Error (`Oversized _ as e) ->
          (* The stream cannot resynchronize after an oversized header:
             answer and drop the connection. *)
          Metrics.incr (Metrics.force m_protocol_errors);
          send_response conn
            (P.Error_reply { id = 0; message = P.error_to_string e });
          ()
      | Ok body -> (
          match P.decode_request ~max_bytes:t.cfg.max_frame_bytes body with
          | Error e ->
              (* Frame boundaries survive a bad body; keep the
                 connection. *)
              Metrics.incr (Metrics.force m_protocol_errors);
              send_response conn
                (P.Error_reply { id = 0; message = P.error_to_string e });
              loop ()
          | Ok (P.Stats { id }) ->
              Metrics.incr (Metrics.force m_stats_requests);
              send_response conn (P.Stats_reply { id; json = stats_json () });
              loop ()
          | Ok (P.Stats_text { id }) ->
              Metrics.incr (Metrics.force m_stats_requests);
              send_response conn
                (P.Stats_reply { id; json = Xpose_obs.Exposition.render () });
              loop ()
          | Ok (P.Transpose { id; trace; tenant; priority; m; n; payload }) ->
              handle_transpose t conn ~id ~trace ~tenant ~priority ~m ~n
                ~payload;
              loop ())
  in
  (* The connection is NOT marked dead here: jobs this reader enqueued
     may still be awaiting dispatch, and their replies go out over this
     fd (a peer that half-closed its send side still reads). A failed
     write marks it dead in [send_response]. The fd is reclaimed as
     soon as nothing more can be written to it — right now if no job
     is in flight, otherwise when the dispatcher answers the last
     one. *)
  (try loop () with Unix.Unix_error _ | Sys_error _ -> ());
  Mutex.lock t.cmu;
  conn.reader_done <- true;
  reclaim_locked t conn;
  t.finished_readers := Thread.id (Thread.self ()) :: !(t.finished_readers);
  Mutex.unlock t.cmu

(* -- acceptor domain --------------------------------------------------- *)

let acceptor_loop t () =
  let readers : (int, Thread.t) Hashtbl.t = Hashtbl.create 32 in
  (* Join readers that have announced their exit, so the thread table
     stays bounded by the number of live connections rather than
     growing by one per client that ever connected. *)
  let sweep () =
    Mutex.lock t.cmu;
    let finished = !(t.finished_readers) in
    t.finished_readers := [];
    Mutex.unlock t.cmu;
    List.iter
      (fun tid ->
        match Hashtbl.find_opt readers tid with
        | Some th ->
            Thread.join th;
            Hashtbl.remove readers tid
        | None -> ())
      finished
  in
  let rec loop () =
    if Atomic.get t.stop_readers then ()
    else begin
      sweep ();
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept t.listen_fd with
          | fd, _ ->
              Metrics.incr (Metrics.force m_connections);
              (* Bound every reply write: a peer that stops reading
                 surfaces as a timed-out write, not a dispatcher that
                 hangs on its full socket buffer. 0 keeps writes
                 blocking (the OS convention for SO_SNDTIMEO). *)
              (try
                 Unix.setsockopt_float fd Unix.SO_SNDTIMEO
                   t.cfg.write_timeout_s
               with Unix.Unix_error _ | Invalid_argument _ -> ());
              let conn =
                {
                  fd;
                  wmu = Mutex.create ();
                  alive = true;
                  inflight = 0;
                  reader_done = false;
                  closed = false;
                }
              in
              Mutex.lock t.cmu;
              t.conns := conn :: !(t.conns);
              Mutex.unlock t.cmu;
              let th = Thread.create (serve_conn t) conn in
              Hashtbl.replace readers (Thread.id th) th
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  (try loop () with Unix.Unix_error _ -> ());
  (* Wake readers blocked in [read]: half-close the receive side; the
     send side stays open until [stop] has drained their jobs. Under
     [cmu] so a concurrent reclaim cannot close (and the OS reuse) an
     fd between the snapshot and the shutdown call. *)
  Mutex.lock t.cmu;
  List.iter
    (fun c ->
      if not c.closed then
        try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
        with Unix.Unix_error _ -> ())
    !(t.conns);
  Mutex.unlock t.cmu;
  Hashtbl.iter (fun _ th -> Thread.join th) readers

(* -- job execution (dispatcher) ---------------------------------------- *)

let finish t job resp =
  send_response job.j_conn resp;
  Metrics.observe (Metrics.force h_latency) (now_ns () -. job.j_arrival_ns);
  Admission.release t.admission ~bytes:job.j_bytes;
  conn_job_finished t job.j_conn

let fail_batch t jobs exn =
  Metrics.incr ~by:(List.length jobs) (Metrics.force m_job_errors);
  let message = Printexc.to_string exn in
  List.iter
    (fun job -> finish t job (P.Error_reply { id = job.j_id; message }))
    jobs

let run_fused t ~m ~n jobs =
  match
    Xpose_cpu.Fused_f64.transpose_batch ~cache:t.plan_cache t.pool ~m ~n
      (Array.of_list (List.map (fun j -> j.j_payload) jobs))
  with
  | () ->
      List.iter
        (fun job ->
          finish t job
            (P.Result { id = job.j_id; m = n; n = m; payload = job.j_payload }))
        jobs
  | exception exn -> fail_batch t jobs exn

(* An over-quota job never runs in RAM: its payload is staged to a
   file and transposed there by the windowed engine, mapping at most
   the tenant's window at a time. *)
let run_ooc t ~window_bytes job =
  let m = job.j_m and n = job.j_n in
  match
    let path = Filename.temp_file "xpose_server" ".mat" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        FM.create ~path ~elements:(m * n);
        FM.with_map ~path (fun file ->
            Bigarray.Array1.blit job.j_payload file);
        Xpose_ooc.Ooc_f64.transpose_file ~pool:t.pool ~window_bytes
          ~prefetch:t.cfg.prefetch ~cache:t.plan_cache ~path ~m ~n ();
        FM.with_map ~write:false ~path (fun file ->
            Bigarray.Array1.blit file job.j_payload))
  with
  | () ->
      finish t job
        (P.Result { id = job.j_id; m = n; n = m; payload = job.j_payload })
  | exception exn -> fail_batch t [ job ] exn

(* Retroactive wait spans: a job's queue wait and coalesce delay are
   only known at dispatch, so the spans are built from the stamped
   arrival/dequeue times after the fact. The histograms are always
   observed; trace events only when the tracer records. *)
let observe_waits jobs ~dispatch_ns =
  List.iter
    (fun job ->
      let queue_wait = Float.max 0.0 (job.j_dequeue_ns -. job.j_arrival_ns) in
      let coalesce = Float.max 0.0 (dispatch_ns -. job.j_dequeue_ns) in
      Metrics.observe (Metrics.force h_queue_wait) queue_wait;
      Metrics.observe (Metrics.force h_coalesce) coalesce;
      if Tracer.enabled () then begin
        let args =
          [ ("trace", Tracer.Int job.j_trace); ("id", Tracer.Int job.j_id) ]
        in
        let tid = (Domain.self () :> int) in
        let span name ts_ns dur_ns : Tracer.event =
          { name; cat = "server"; ph = `Complete; ts_ns; dur_ns; tid;
            seq = Tracer.next_seq (); args }
        in
        Tracer.emit (span "server.queue_wait" job.j_arrival_ns queue_wait);
        Tracer.emit (span "server.coalesce" job.j_dequeue_ns coalesce)
      end)
    jobs

let batch_trace_args jobs =
  match jobs with
  | [ j ] -> [ ("trace", Tracer.Int j.j_trace) ]
  | js ->
      [
        ( "trace",
          Tracer.Str
            (String.concat ","
               (List.map (fun j -> string_of_int j.j_trace) js)) );
      ]

let execute_batch t (key : Coalescer.key) jobs =
  match jobs with
  | [] -> ()
  | first :: _ ->
      let dispatch_ns = now_ns () in
      observe_waits jobs ~dispatch_ns;
      let trace_args = batch_trace_args jobs in
      (* Ambient args ride into the engine's pass/panel spans, which run
         on pool worker domains with no lexical path back here; one
         batch executes at a time, so the global cell is race-free. *)
      Tracer.with_ambient_args trace_args (fun () ->
          Tracer.with_span ~cat:"server"
            ~args:(fun () ->
              trace_args
              @ [
                  ("jobs", Tracer.Int (List.length jobs));
                  ("m", Tracer.Int key.Coalescer.m);
                  ("n", Tracer.Int key.Coalescer.n);
                ])
            "server.dispatch"
            (fun () ->
              match first.j_route with
              | Admission.Fused ->
                  run_fused t ~m:key.Coalescer.m ~n:key.Coalescer.n jobs
              | Admission.Ooc { window_bytes } ->
                  List.iter (fun job -> run_ooc t ~window_bytes job) jobs))

let dispatcher_loop t () =
  let coal =
    Coalescer.create ~max_batch:t.cfg.max_batch
      ~window_ns:t.cfg.coalesce_window_ns ()
  in
  let scratch = Bytes.create 64 in
  let rec loop () =
    let now = int_of_float (now_ns ()) in
    (* Drain the queues into the coalescer. *)
    Mutex.lock t.qmu;
    let rec drain acc =
      match Job_queue.pop t.queue with
      | Some (priority, _, job) ->
          job.j_dequeue_ns <- now_ns ();
          drain ((priority, job) :: acc)
      | None -> acc
    in
    let drained = drain [] in
    if drained <> [] then update_depth_gauges t;
    Mutex.unlock t.qmu;
    List.iter
      (fun (priority, job) ->
        let batchable = job.j_route = Admission.Fused in
        Coalescer.add coal ~now_ns:now ~batchable
          ~key:{ Coalescer.priority; m = job.j_m; n = job.j_n }
          job)
      (List.rev drained);
    let stopping = Atomic.get t.stop_dispatch in
    let batches =
      if stopping then Coalescer.flush coal else Coalescer.ready coal ~now_ns:now
    in
    match batches with
    | _ :: _ ->
        List.iter (fun (key, jobs) -> execute_batch t key jobs) batches;
        loop ()
    | [] ->
        if stopping then begin
          (* Readers are joined before [stop_dispatch] is raised, so an
             empty queue and empty coalescer mean nothing is left. *)
          Mutex.lock t.qmu;
          let empty = Job_queue.length t.queue = 0 in
          Mutex.unlock t.qmu;
          if empty && Coalescer.pending coal = 0 then () else loop ()
        end
        else begin
          let timeout =
            match Coalescer.next_deadline_ns coal with
            | Some d -> Float.max 0.0005 (float_of_int (d - now) /. 1e9)
            | None -> 0.05
          in
          (match Unix.select [ t.wake_rd ] [] [] timeout with
          | [], _, _ -> ()
          | _ :: _, _, _ -> (
              try ignore (Unix.read t.wake_rd scratch 0 64)
              with Unix.Unix_error _ -> ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          loop ()
        end
  in
  loop ()

(* -- metrics exposition dump ------------------------------------------- *)

(* Rewrite the whole file each tick (write-temp-then-rename, so a
   scraper never reads a half-written exposition), plus one final dump
   on shutdown so the file reflects the drained server. *)
let metrics_writer_loop t path () =
  let write () =
    try
      let tmp = path ^ ".tmp" in
      let oc = open_out tmp in
      output_string oc (Xpose_obs.Exposition.render ());
      close_out oc;
      Sys.rename tmp path
    with Sys_error _ -> ()
  in
  let interval = Float.max 0.05 t.cfg.metrics_interval_s in
  while not (Atomic.get t.stop_metrics) do
    write ();
    let slept = ref 0.0 in
    while !slept < interval && not (Atomic.get t.stop_metrics) do
      Thread.delay 0.05;
      slept := !slept +. 0.05
    done
  done;
  write ()

(* -- lifecycle --------------------------------------------------------- *)

let start cfg =
  if cfg.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  if cfg.max_batch < 1 then invalid_arg "Server.start: max_batch must be >= 1";
  if cfg.coalesce_window_ns < 0 then
    invalid_arg "Server.start: coalesce_window_ns must be >= 0";
  if cfg.max_frame_bytes < 64 then
    invalid_arg "Server.start: max_frame_bytes must be >= 64";
  if not (cfg.write_timeout_s >= 0.0) then
    invalid_arg "Server.start: write_timeout_s must be >= 0";
  if not (cfg.metrics_interval_s > 0.0) then
    invalid_arg "Server.start: metrics_interval_s must be > 0";
  (* Coalesce deadlines and latency need a wall clock, but an embedding
     application (or a deterministic-clock test) may have installed its
     own source — only fill in the default when nothing has. *)
  Xpose_obs.Clock.install_if_unset (fun () -> Unix.gettimeofday () *. 1e9);
  (* A peer that vanishes mid-reply must surface as EPIPE on the write,
     not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     (match Unix.stat cfg.socket_path with
     | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink cfg.socket_path
     | _ -> ()
     | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen listen_fd 64
   with e ->
     Unix.close listen_fd;
     raise e);
  let wake_rd, wake_wr = Unix.pipe () in
  Unix.set_nonblock wake_wr;
  let plan_cache = Xpose_core.Plan.Cache.create ~capacity:128 () in
  let t =
    {
      cfg;
      listen_fd;
      pool = Xpose_cpu.Pool.create ~workers:cfg.workers ();
      admission =
        Admission.create ~budget_bytes:cfg.budget_bytes
          ~default_quota_bytes:cfg.default_quota_bytes
          ~default_window_bytes:cfg.default_window_bytes ~tenants:cfg.tenants
          ();
      plan_cache;
      qmu = Mutex.create ();
      queue =
        Job_queue.create ~max_jobs:cfg.max_queue_jobs
          ~max_bytes:cfg.max_queue_bytes ();
      wake_rd;
      wake_wr;
      stop_readers = Atomic.make false;
      stop_dispatch = Atomic.make false;
      conns = ref [];
      finished_readers = ref [];
      cmu = Mutex.create ();
      acceptor = None;
      dispatcher = None;
      stop_metrics = Atomic.make false;
      metrics_writer = None;
      stopped = false;
    }
  in
  t.acceptor <- Some (Domain.spawn (acceptor_loop t));
  t.dispatcher <- Some (Thread.create (dispatcher_loop t) ());
  (match cfg.metrics_file with
  | None -> ()
  | Some path ->
      t.metrics_writer <- Some (Thread.create (metrics_writer_loop t path) ()));
  t

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    (* 1. No new connections or frames: the acceptor joins its reader
       threads (waking blocked reads with a receive-side shutdown)
       before exiting, so after this join no job can still be on its
       way into the queue. *)
    Atomic.set t.stop_readers true;
    (match t.acceptor with None -> () | Some d -> Domain.join d);
    t.acceptor <- None;
    (* 2. Drain: every admitted job is executed and answered. *)
    Atomic.set t.stop_dispatch true;
    wake t;
    (match t.dispatcher with None -> () | Some th -> Thread.join th);
    t.dispatcher <- None;
    (* The drain is complete: every span the server will ever record
       exists now. Flush the tracer sink before tear-down so a
       SIGTERM-driven stop cannot lose the trace (historically it was
       only written by an [at_exit] hook that a signal path skipped). *)
    Tracer.flush ();
    Atomic.set t.stop_metrics true;
    (match t.metrics_writer with None -> () | Some th -> Thread.join th);
    t.metrics_writer <- None;
    assert (Admission.in_flight_bytes t.admission = 0);
    (* 3. Tear down. Drained connections were already reclaimed when
       their last reply went out; this sweeps any stragglers. *)
    Mutex.lock t.cmu;
    List.iter
      (fun c ->
        if not c.closed then begin
          c.closed <- true;
          try Unix.close c.fd with Unix.Unix_error _ -> ()
        end)
      !(t.conns);
    t.conns := [];
    Mutex.unlock t.cmu;
    Unix.close t.listen_fd;
    (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
    Unix.close t.wake_rd;
    Unix.close t.wake_wr;
    Xpose_cpu.Pool.shutdown t.pool
  end
