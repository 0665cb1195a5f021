(* End-to-end: a real server on a Unix socket, real client
   connections, oracle-checked replies. *)

module P = Xpose_server.Protocol
module Server = Xpose_server.Server
module Client = Xpose_server.Client
module S = Xpose_core.Storage.Float64
module M = Xpose_obs.Metrics

let socket_counter = ref 0

let fresh_socket_path () =
  incr socket_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "xpose_t%d_%d.sock" (Unix.getpid ()) !socket_counter)

let with_server config f =
  let t = Server.start config in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f ())

let iota mn =
  let b = S.create mn in
  for i = 0 to mn - 1 do
    S.set b i (float_of_int i)
  done;
  b

(* The transpose of iota(m*n): element l of the n x m result is
   n * (l mod m) + l / m. *)
let check_result ~m ~n = function
  | P.Result { m = rm; n = rn; payload; _ } ->
      Alcotest.(check int) "result rows" n rm;
      Alcotest.(check int) "result cols" m rn;
      let ok = ref true in
      for l = 0 to (m * n) - 1 do
        let expected = float_of_int ((n * (l mod m)) + (l / m)) in
        if S.get payload l <> expected then ok := false
      done;
      Alcotest.(check bool)
        (Printf.sprintf "%dx%d reply matches the oracle" m n)
        true !ok
  | P.Busy _ -> Alcotest.fail "unexpected Busy reply"
  | P.Error_reply { message; _ } -> Alcotest.failf "server error: %s" message
  | P.Stats_reply _ -> Alcotest.fail "unexpected Stats reply"

let counter_value name = M.counter_value (M.counter name)

(* -- basic round trip ------------------------------------------------- *)

let test_roundtrip () =
  let config = Server.default_config ~socket_path:(fresh_socket_path ()) in
  with_server config (fun () ->
      Client.with_client ~socket_path:config.Server.socket_path (fun c ->
          check_result ~m:32 ~n:17 (Client.transpose c ~m:32 ~n:17 (iota (32 * 17)));
          check_result ~m:1 ~n:64 (Client.transpose c ~m:1 ~n:64 (iota 64));
          check_result ~m:5 ~n:5
            (Client.transpose c ~priority:P.High ~m:5 ~n:5 (iota 25));
          let json = Client.stats c in
          Alcotest.(check bool) "stats is a counters snapshot" true
            (let has needle =
               let rec go i =
                 i + String.length needle <= String.length json
                 && (String.sub json i (String.length needle) = needle
                    || go (i + 1))
               in
               go 0
             in
             has "\"counters\"" && has "server.requests")))

(* -- coalescing ------------------------------------------------------- *)

let test_coalescing () =
  let config =
    {
      (Server.default_config ~socket_path:(fresh_socket_path ())) with
      Server.coalesce_window_ns = 1_000_000_000;
      max_batch = 3;
    }
  in
  with_server config (fun () ->
      let batches0 = counter_value "server.batches" in
      let jobs0 = counter_value "server.batched_jobs" in
      let m = 16 and n = 16 in
      let failures = Atomic.make 0 in
      let client_thread () =
        Thread.create
          (fun () ->
            try
              Client.with_client ~socket_path:config.Server.socket_path
                (fun c ->
                  check_result ~m ~n (Client.transpose c ~m ~n (iota (m * n))))
            with _ -> Atomic.incr failures)
          ()
      in
      let threads = List.init 3 (fun _ -> client_thread ()) in
      List.iter Thread.join threads;
      Alcotest.(check int) "every client got a correct reply" 0
        (Atomic.get failures);
      let batches = counter_value "server.batches" - batches0 in
      let jobs = counter_value "server.batched_jobs" - jobs0 in
      Alcotest.(check int) "three jobs went through the coalescer" 3 jobs;
      (* With a 1 s window, the three concurrent same-shape requests
         group; the full-batch path dispatches them without waiting out
         the window. *)
      Alcotest.(check bool)
        (Printf.sprintf "some coalescing happened (%d batches for 3 jobs)"
           batches)
        true (batches < 3))

(* -- ooc routing ------------------------------------------------------ *)

let test_ooc_routing () =
  let config =
    {
      (Server.default_config ~socket_path:(fresh_socket_path ())) with
      Server.tenants =
        [
          {
            Xpose_server.Admission.name = "tiny";
            quota_bytes = 1024;
            window_bytes = 65536;
          };
        ];
    }
  in
  with_server config (fun () ->
      let ooc0 = counter_value "server.admit.ooc" in
      let fused0 = counter_value "server.admit.fused" in
      Client.with_client ~socket_path:config.Server.socket_path (fun c ->
          (* 32x32 f64 = 8 KiB, over the tenant's 1 KiB quota: the ooc
             engine serves it, and the reply is still oracle-exact. *)
          check_result ~m:32 ~n:32
            (Client.transpose c ~tenant:"tiny" ~m:32 ~n:32 (iota 1024));
          (* The same job from an unconfigured tenant stays in memory. *)
          check_result ~m:32 ~n:32
            (Client.transpose c ~tenant:"other" ~m:32 ~n:32 (iota 1024)));
      Alcotest.(check int) "over-quota job routed out of core" 1
        (counter_value "server.admit.ooc" - ooc0);
      Alcotest.(check int) "default-tenant job ran fused" 1
        (counter_value "server.admit.fused" - fused0))

(* -- faults: an over-quota job with no writable temp dir ---------------- *)

(* The over-quota route is the one path that stages a payload through a
   file. OCaml 5 keeps [Filename]'s temp dir per domain, and the
   dispatcher thread runs on the domain that called [Server.start] (this
   one), so pointing that domain's temp dir at a missing directory makes
   the staging fail inside the server. The job must fail alone: an
   error reply carrying its id, its budget returned, and the connection
   still serving. *)
let test_ooc_staging_fault () =
  let config =
    {
      (Server.default_config ~socket_path:(fresh_socket_path ())) with
      Server.tenants =
        [
          {
            Xpose_server.Admission.name = "tiny";
            quota_bytes = 1024;
            window_bytes = 65536;
          };
        ];
    }
  in
  with_server config (fun () ->
      let errors0 = counter_value "server.job_errors" in
      let saved = Filename.get_temp_dir_name () in
      let missing =
        Filename.concat saved
          (Printf.sprintf "xpose_missing_%d" (Unix.getpid ()))
      in
      Fun.protect
        ~finally:(fun () -> Filename.set_temp_dir_name saved)
        (fun () ->
          Filename.set_temp_dir_name missing;
          Client.with_client ~socket_path:config.Server.socket_path (fun c ->
              (* 32x32 f64 = 8 KiB, over the tenant's 1 KiB quota: routed
                 out of core, where the staging file cannot be made. *)
              (match
                 Client.transpose c ~tenant:"tiny" ~m:32 ~n:32 (iota 1024)
               with
              | P.Error_reply { id; message } ->
                  Alcotest.(check int) "error reply carries the request id" 1
                    id;
                  let names_missing =
                    let k = String.length missing in
                    let rec go i =
                      i + k <= String.length message
                      && (String.sub message i k = missing || go (i + 1))
                    in
                    go 0
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "the staging failed (%s)" message)
                    true names_missing
              | _ -> Alcotest.fail "expected an error reply");
              Alcotest.(check int) "one job error" 1
                (counter_value "server.job_errors" - errors0);
              (* The reply is written before the budget is released, so
                 poll for the gauge. *)
              let inflight () = M.gauge_value (M.gauge "server.inflight_bytes") in
              let deadline = Unix.gettimeofday () +. 5.0 in
              let rec wait () =
                if inflight () = 0.0 then ()
                else if Unix.gettimeofday () > deadline then
                  Alcotest.failf "in-flight bytes stuck at %.0f" (inflight ())
                else begin
                  Unix.sleepf 0.01;
                  wait ()
                end
              in
              wait ();
              (* 8x12 f64 = 768 B, within the quota: served in RAM on the
                 same connection. *)
              check_result ~m:8 ~n:12
                (Client.transpose c ~tenant:"tiny" ~m:8 ~n:12 (iota 96)))))

(* -- backpressure ----------------------------------------------------- *)

let test_backpressure () =
  let config =
    {
      (Server.default_config ~socket_path:(fresh_socket_path ())) with
      Server.budget_bytes = 4096;
    }
  in
  with_server config (fun () ->
      let rejects0 = counter_value "server.rejects.budget" in
      Client.with_client ~socket_path:config.Server.socket_path (fun c ->
          (* 8 KiB payload against a 4 KiB global budget: an explicit
             Busy reply, not a timeout, and nothing is queued. *)
          (match Client.transpose c ~m:32 ~n:32 (iota 1024) with
          | P.Busy { reason = P.Budget_exhausted; _ } -> ()
          | P.Busy { reason = P.Queue_full; _ } ->
              Alcotest.fail "expected a budget rejection, got queue-full"
          | P.Result _ -> Alcotest.fail "over-budget job was served"
          | P.Error_reply { message; _ } -> Alcotest.failf "error: %s" message
          | P.Stats_reply _ -> Alcotest.fail "unexpected stats reply");
          (* The connection survives backpressure, and a job that fits
             the budget still goes through. *)
          check_result ~m:16 ~n:16 (Client.transpose c ~m:16 ~n:16 (iota 256)));
      Alcotest.(check int) "rejection was counted" 1
        (counter_value "server.rejects.budget" - rejects0))

(* -- protocol errors on a live connection ----------------------------- *)

let test_protocol_error_keeps_connection () =
  let config = Server.default_config ~socket_path:(fresh_socket_path ()) in
  with_server config (fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX config.Server.socket_path);
          (* A frame with an unknown tag: the server must answer with a
             protocol error reply, not drop the connection or die. *)
          P.write_frame fd (Bytes.of_string "\x7f\x00\x00\x00\x01");
          (match P.read_frame fd with
          | Ok body -> (
              match P.decode_response body with
              | Ok (P.Error_reply _) -> ()
              | Ok _ -> Alcotest.fail "expected an Error_reply"
              | Error e -> Alcotest.failf "undecodable reply: %s"
                  (P.error_to_string e))
          | Error _ -> Alcotest.fail "no reply to a corrupt frame");
          (* The same connection still serves valid requests. *)
          P.write_frame fd (P.encode_request (P.Stats { id = 42 }));
          match P.read_frame fd with
          | Ok body -> (
              match P.decode_response body with
              | Ok (P.Stats_reply { id = 42; _ }) -> ()
              | _ -> Alcotest.fail "expected Stats_reply with id 42")
          | Error _ -> Alcotest.fail "connection did not survive the error"))

let test_overflow_frame_keeps_connection () =
  let config = Server.default_config ~socket_path:(fresh_socket_path ()) in
  with_server config (fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX config.Server.socket_path);
          (* A ~25-byte frame claiming a 2^31 x 2^31 payload: the byte
             count wraps a 64-bit int, so a multiply-then-compare guard
             would admit it and the allocation would kill the reader.
             The server must answer with a protocol error and live. *)
          P.write_frame fd
            (Bytes.of_string
               "\x01\x00\x00\x00\x2a\x01\x00\x00\x00\x00\x00\x00\x80\x00\x00\x00\x80\x00\x00\x00");
          (match P.read_frame fd with
          | Ok body -> (
              match P.decode_response body with
              | Ok (P.Error_reply _) -> ()
              | Ok _ -> Alcotest.fail "expected an Error_reply"
              | Error e ->
                  Alcotest.failf "undecodable reply: %s" (P.error_to_string e))
          | Error _ -> Alcotest.fail "no reply to the overflowing frame");
          (* The reader thread survived: the connection still serves. *)
          P.write_frame fd (P.encode_request (P.Stats { id = 7 }));
          match P.read_frame fd with
          | Ok body -> (
              match P.decode_response body with
              | Ok (P.Stats_reply { id = 7; _ }) -> ()
              | _ -> Alcotest.fail "expected Stats_reply with id 7")
          | Error _ ->
              Alcotest.fail "connection did not survive the overflow frame"))

(* -- connection reclamation ------------------------------------------- *)

let test_connections_reclaimed () =
  let config = Server.default_config ~socket_path:(fresh_socket_path ()) in
  let t = Server.start config in
  Fun.protect
    ~finally:(fun () -> Server.stop t)
    (fun () ->
      (* Serve a burst of short-lived clients; once they disconnect and
         their replies are out, the server must let go of every fd and
         conn record — not hold them until stop. *)
      for _ = 1 to 8 do
        Client.with_client ~socket_path:config.Server.socket_path (fun c ->
            check_result ~m:8 ~n:8 (Client.transpose c ~m:8 ~n:8 (iota 64)))
      done;
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec wait () =
        let live = Server.live_connections t in
        if live = 0 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.failf "%d connections still held after clients left" live
        else begin
          Thread.yield ();
          Unix.sleepf 0.01;
          wait ()
        end
      in
      wait ())

(* -- shutdown --------------------------------------------------------- *)

let test_stop_idempotent () =
  let config = Server.default_config ~socket_path:(fresh_socket_path ()) in
  let t = Server.start config in
  Client.with_client ~socket_path:config.Server.socket_path (fun c ->
      check_result ~m:8 ~n:8 (Client.transpose c ~m:8 ~n:8 (iota 64)));
  Server.stop t;
  Server.stop t;
  Alcotest.(check bool) "socket file removed" false
    (Sys.file_exists config.Server.socket_path);
  (* The metrics snapshot keeps working after shutdown. *)
  let json = Server.stats_json () in
  Alcotest.(check bool) "stats_json still renders" true
    (String.length json > 0)

(* -- end-to-end request tracing --------------------------------------- *)

module Tracer = Xpose_obs.Tracer

let carries_trace trace (e : Tracer.event) =
  List.exists
    (fun (k, v) -> k = "trace" && v = Tracer.Int trace)
    e.Tracer.args

let test_trace_propagation () =
  let config = Server.default_config ~socket_path:(fresh_socket_path ()) in
  Tracer.clear ();
  Tracer.start ();
  Fun.protect
    ~finally:(fun () ->
      Tracer.stop ();
      Tracer.clear ())
    (fun () ->
      let trace = 0x00ab_cdef in
      with_server config (fun () ->
          Client.with_client ~socket_path:config.Server.socket_path (fun c ->
              check_result ~m:16 ~n:16
                (Client.transpose c ~trace ~m:16 ~n:16 (iota 256))));
      let events = Tracer.events () in
      let named name =
        List.filter (fun e -> e.Tracer.name = name) events
      in
      (* One request, one trace: the client anchor, the two retroactive
         queue spans, the dispatch span, and at least one engine pass
         must all exist and carry the same trace id. *)
      List.iter
        (fun name ->
          match named name with
          | [] -> Alcotest.failf "no %s span recorded" name
          | es ->
              Alcotest.(check bool)
                (name ^ " carries the trace id")
                true
                (List.exists (carries_trace trace) es))
        [ "client.submit"; "server.queue_wait"; "server.coalesce";
          "server.dispatch" ];
      let traced_passes =
        List.filter
          (fun e -> e.Tracer.cat = "pass" && carries_trace trace e)
          events
      in
      Alcotest.(check bool)
        (Printf.sprintf "engine passes carry the trace id (%d)"
           (List.length traced_passes))
        true
        (List.length traced_passes >= 1);
      (* and timing nests: the client span spans the whole round trip *)
      match (named "client.submit", named "server.dispatch") with
      | [ submit ], dispatch :: _ ->
          Alcotest.(check bool) "dispatch starts after submit" true
            (dispatch.Tracer.ts_ns >= submit.Tracer.ts_ns)
      | _ -> Alcotest.fail "expected exactly one client.submit span")

let test_queue_wait_histograms () =
  let config = Server.default_config ~socket_path:(fresh_socket_path ()) in
  let count name = M.histogram_count (M.histogram name) in
  let qw0 = count "server.queue_wait_ns" in
  let co0 = count "server.coalesce_delay_ns" in
  with_server config (fun () ->
      Client.with_client ~socket_path:config.Server.socket_path (fun c ->
          check_result ~m:8 ~n:8 (Client.transpose c ~m:8 ~n:8 (iota 64))));
  Alcotest.(check int) "queue wait observed once" 1
    (count "server.queue_wait_ns" - qw0);
  Alcotest.(check int) "coalesce delay observed once" 1
    (count "server.coalesce_delay_ns" - co0)

(* S2: the drain path flushes the trace sink, so a server torn down by a
   signal still leaves a complete trace file behind. *)
let test_shutdown_flushes_sink () =
  let config = Server.default_config ~socket_path:(fresh_socket_path ()) in
  let flushed = ref [] in
  Tracer.clear ();
  Tracer.set_sink (Some (fun evs -> flushed := evs));
  Tracer.start ();
  Fun.protect
    ~finally:(fun () ->
      Tracer.set_sink None;
      Tracer.stop ();
      Tracer.clear ())
    (fun () ->
      let t = Server.start config in
      Client.with_client ~socket_path:config.Server.socket_path (fun c ->
          check_result ~m:8 ~n:8 (Client.transpose c ~m:8 ~n:8 (iota 64)));
      Server.stop t;
      Alcotest.(check bool)
        (Printf.sprintf "stop flushed the sink (%d events)"
           (List.length !flushed))
        true
        (List.length !flushed > 0);
      Alcotest.(check bool) "flush included a server span" true
        (List.exists
           (fun e -> e.Tracer.cat = "server")
           !flushed))

(* -- Prometheus exposition over the wire ------------------------------ *)

let test_stats_text () =
  let config = Server.default_config ~socket_path:(fresh_socket_path ()) in
  with_server config (fun () ->
      Client.with_client ~socket_path:config.Server.socket_path (fun c ->
          check_result ~m:8 ~n:8 (Client.transpose c ~m:8 ~n:8 (iota 64));
          let text = Client.stats_text c in
          let has needle =
            let rec go i =
              i + String.length needle <= String.length text
              && (String.sub text i (String.length needle) = needle
                 || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "has TYPE lines" true (has "# TYPE ");
          Alcotest.(check bool) "sanitized server counter" true
            (has "server_requests");
          Alcotest.(check bool) "queue-wait histogram exposed" true
            (has "server_queue_wait_ns_bucket")))

let test_metrics_file () =
  let file = Filename.temp_file "xpose_metrics" ".prom" in
  Sys.remove file;
  let config =
    {
      (Server.default_config ~socket_path:(fresh_socket_path ())) with
      Server.metrics_file = Some file;
      metrics_interval_s = 0.05;
    }
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      with_server config (fun () ->
          Client.with_client ~socket_path:config.Server.socket_path (fun c ->
              check_result ~m:8 ~n:8 (Client.transpose c ~m:8 ~n:8 (iota 64))));
      (* stop wrote a final snapshot on the way out *)
      Alcotest.(check bool) "metrics file exists" true (Sys.file_exists file);
      let ic = open_in file in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check bool) "file holds the exposition" true
        (String.length text > 0
        && String.sub text 0 7 = "# TYPE "))

let tests =
  [
    Alcotest.test_case "round trip with oracle check" `Quick test_roundtrip;
    Alcotest.test_case "trace id propagates end to end" `Quick
      test_trace_propagation;
    Alcotest.test_case "queue-wait histograms observe" `Quick
      test_queue_wait_histograms;
    Alcotest.test_case "shutdown flushes the trace sink" `Quick
      test_shutdown_flushes_sink;
    Alcotest.test_case "stats_text serves the exposition" `Quick
      test_stats_text;
    Alcotest.test_case "metrics file is written" `Quick test_metrics_file;
    Alcotest.test_case "same-shape requests coalesce" `Quick test_coalescing;
    Alcotest.test_case "over-quota jobs route to ooc" `Quick test_ooc_routing;
    Alcotest.test_case "ooc staging fault fails one job" `Quick
      test_ooc_staging_fault;
    Alcotest.test_case "budget backpressure" `Quick test_backpressure;
    Alcotest.test_case "protocol error keeps the connection" `Quick
      test_protocol_error_keeps_connection;
    Alcotest.test_case "overflowing frame keeps the connection" `Quick
      test_overflow_frame_keeps_connection;
    Alcotest.test_case "connections are reclaimed" `Quick
      test_connections_reclaimed;
    Alcotest.test_case "stop is idempotent" `Quick test_stop_idempotent;
  ]
