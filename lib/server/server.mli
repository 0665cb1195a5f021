(** Transpose-as-a-service: the concurrent job server.

    One {!start} binds a Unix-domain socket and assembles the pipeline:

    - an {e acceptor domain} (the service-level generalization of
      {!Xpose_ooc.Io_domain}'s in-order worker idiom) accepts
      connections and runs one lightweight reader thread per
      connection: decode a {!Protocol} frame, consult {!Admission},
      and either feed the {!Job_queue} or answer immediately
      ([Busy] backpressure, [Stats_reply], protocol errors);
    - a {e dispatcher} drains the per-priority queues into the
      {!Coalescer} and executes ready groups: fused groups as one
      {!Xpose_cpu.Fused_f64.transpose_batch} over the worker pool
      (same-shape requests share one plan-cache hit), ooc-routed jobs
      through a staging file and {!Xpose_ooc.Ooc_f64.transpose_file}
      under the tenant's window;
    - a {!Xpose_cpu.Pool} of worker domains does the element moving.

    Replies go back over the request's connection, tagged with the
    request [id]; a connection's replies may be reordered by
    coalescing and priorities. All [server.*] metrics (requests,
    responses, rejects, batches, queue-depth gauges, in-flight-bytes
    gauge, latency histogram) live in the process
    {!Xpose_obs.Metrics} registry, which the [Stats] request snapshots
    as JSON and the [Stats_text] request renders as a Prometheus text
    exposition.

    Every stage is traced when the process tracer records: each
    request's [trace] id is carried through the queue (a retroactive
    [server.queue_wait] span from arrival to dequeue), the coalescer
    ([server.coalesce], dequeue to dispatch), the batch execution
    ([server.dispatch]), and — via {!Xpose_obs.Tracer} ambient args —
    into every engine pass/panel span the batch runs, so one Chrome
    trace shows a request end to end under a single trace id.

    {!stop} is the clean-shutdown path: stop accepting, wake and join
    every reader, drain-and-execute everything admitted (no admitted
    job is dropped — its client is always answered), then tear down
    the pool. Idempotent. *)

type config = {
  socket_path : string;
  workers : int;  (** pool lanes for the engines (>= 1) *)
  budget_bytes : int;  (** global in-flight payload budget *)
  default_quota_bytes : int;  (** per-tenant in-memory footprint quota *)
  default_window_bytes : int;  (** per-tenant ooc residency window *)
  tenants : Admission.tenant list;  (** explicit per-tenant overrides *)
  max_queue_jobs : int;  (** per-priority queue depth cap *)
  max_queue_bytes : int;  (** queued payload bytes cap *)
  coalesce_window_ns : int;  (** same-shape grouping window *)
  max_batch : int;  (** coalesced group size cap *)
  max_frame_bytes : int;  (** largest accepted request frame *)
  write_timeout_s : float;
      (** send timeout on every accepted socket: a reply write that
          stalls this long against a peer that stopped reading marks
          the connection dead and the reply is dropped, so a slow
          client cannot stall the dispatcher for everyone else.
          [0.] means no timeout (writes block). *)
  prefetch : bool;  (** ooc jobs double-buffer via an I/O domain *)
  metrics_file : string option;
      (** when set, a writer thread rewrites this file with the
          Prometheus text exposition ({!Xpose_obs.Exposition.render})
          every [metrics_interval_s] — write-temp-then-rename, so a
          scraper never sees a torn file — plus once more on {!stop} *)
  metrics_interval_s : float;  (** dump period, > 0 (default 1 s) *)
}

val default_config : socket_path:string -> config
(** 2 workers, 1 GiB budget, 16 MiB quota, 4 MiB window, 1024-job /
    256 MiB queues, 2 ms coalesce window, batches of 8, 64 MiB frames,
    5 s write timeout, prefetch on. *)

type t

val start : config -> t
(** Bind [socket_path] (replacing a stale socket file), spawn the
    acceptor domain, dispatcher, and pool, and return once the server
    accepts connections.
    @raise Invalid_argument on nonsensical config values;
    @raise Unix.Unix_error if the socket cannot be bound. *)

val stop : t -> unit
(** Clean shutdown as described above, plus the observability half of
    the drain: once the dispatcher has answered the last admitted job,
    the tracer sink is {!Xpose_obs.Tracer.flush}ed (so a SIGTERM-driven
    stop cannot lose the trace) and the metrics writer makes a final
    dump. Idempotent; must be called from the thread/domain that called
    {!start}. *)

val live_connections : t -> int
(** Connections currently held open by the server. A connection is
    reclaimed (fd closed, forgotten) as soon as its peer has gone away
    {e and} its last in-flight reply has been written, so this does not
    grow with the total number of clients ever served. *)

val stats_json : unit -> string
(** The stats payload the [Stats] request returns: the process metrics
    registry as JSON (see {!Xpose_obs.Metrics.render_json}). *)
