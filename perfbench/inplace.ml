(* inplace_large: a closed loop in one process through
   Engine_select.dispatch on a 2-lane pool. Each op transposes one matrix
   in place and the next op transposes it back. *)

open Common
module ES = Xpose_tune.Engine_select
module Pool = Xpose_cpu.Pool

let lanes = 2

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let elems mib_ = mib_ * mib / 8
let max_elems = elems 112

(* One shape per class, at a fixed payload size per class so every cycle
   moves the same bytes; the seeded generator picks the dimensions inside
   each class, fresh for every cycle, so a run averages over several
   shapes per class. The classes stay narrow enough that shapes time
   alike: aspect ratios within 1.25..2, skinny widths within 40..64, and
   an odd common factor, so no dimension is a multiple of a large power
   of two (the cache-set pathology of power-of-two transposes would
   swamp the comparison). *)
let draw rng =
  let skinny =
    let t = elems 32 in
    let n = 40 + Random.State.int rng 25 in
    let m = ref (t / n) in
    while gcd !m n <> 1 do decr m done;
    ("skinny", !m, n)
  in
  let coprime =
    let t = elems 64 in
    let aspect = 1.25 +. Random.State.float rng 0.75 in
    let m = int_of_float (sqrt (float_of_int t *. aspect)) in
    let n = ref (t / m) in
    while gcd m !n <> 1 do incr n done;
    ("coprime", m, !n)
  in
  let large_gcd =
    let t = max_elems in
    let pairs = [| (4, 3); (5, 3); (5, 4); (7, 4); (7, 5) |] in
    let a, b = pairs.(Random.State.int rng (Array.length pairs)) in
    let g = int_of_float (sqrt (float_of_int t /. float_of_int (a * b))) in
    let g = if g mod 2 = 0 then g - 1 else g in
    ("large-gcd", g * a, g * b)
  in
  [ skinny; coprime; large_gcd ]

type sys = { pool : Pool.t; sel : ES.t }

(* The public call under test, inside the benchmark's own span. *)
let op sys ~m ~n buf =
  Tracer.with_span ~cat:"bench" "bench.op" (fun () ->
      ES.dispatch ~pool:sys.pool sys.sel ~m ~n buf)

let sub big ~m ~n = Bigarray.Array1.sub big 0 (m * n)

(* Set-up: the pool and selector, then one warm-up round trip on a
   fixed skinny shape (32 MiB, the smallest class). It is the same for
   every seed, so set-up time does not move with the drawn shapes. *)
let warm = ("skinny", 82241, 51)

let build big (_, m, n) =
  let t0 = now_s () in
  let sys = { pool = Pool.create ~workers:lanes (); sel = ES.create () } in
  let buf = sub big ~m ~n in
  ES.dispatch ~pool:sys.pool sys.sel ~m ~n buf;
  ES.dispatch ~pool:sys.pool sys.sel ~m:n ~n:m buf;
  let dt = now_s () -. t0 in
  if not (is_iota buf) then failwith "inplace_large: warm-up round trip failed verification";
  (sys, dt)

(* Whole cycles (every class there and back) until [seconds] have
   passed, so each run weighs the classes alike. The clock runs only
   inside the public call; verification happens outside it. *)
let run_phase sys big rng ~seconds =
  let lat = ref [] and bytes = ref 0 and cpu = ref 0.0 in
  let attempted = ref 0 and failed = ref 0 in
  let by_class = Hashtbl.create 3 and drawn = ref [] in
  let timed ~m ~n buf =
    incr attempted;
    let c0 = cpu_s () and t0 = now_ns () in
    let ok = match op sys ~m ~n buf with () -> true | exception _ -> false in
    let t1 = now_ns () in
    cpu := !cpu +. (cpu_s () -. c0);
    (ok, (t1 -. t0) /. 1e6)
  in
  let record cls ~m ~n ms =
    lat := ms :: !lat;
    let prev = Option.value ~default:[] (Hashtbl.find_opt by_class cls) in
    Hashtbl.replace by_class cls (ms :: prev);
    bytes := !bytes + (m * n * 8)
  in
  let fail buf =
    incr failed;
    fill_iota buf
  in
  let start = now_s () in
  while now_s () -. start < seconds do
    let shapes = draw rng in
    drawn := !drawn @ shapes;
    List.iter
      (fun (cls, m, n) ->
        let buf = sub big ~m ~n in
        match timed ~m ~n buf with
        | true, ms when is_transposed_iota ~m ~n buf -> (
            record cls ~m ~n ms;
            match timed ~m:n ~n:m buf with
            | true, ms when is_iota buf -> record cls ~m ~n ms
            | _ -> fail buf)
        | _ -> fail buf)
      shapes
  done;
  List.iter
    (fun cls ->
      let l = Array.of_list (Option.value ~default:[] (Hashtbl.find_opt by_class cls)) in
      Printf.printf "  %-9s median %7.1f ms over %d ops\n" cls (Stats.median l) (Array.length l))
    [ "skinny"; "coprime"; "large-gcd" ];
  let lat_ms = Array.of_list !lat in
  ( {
      lat_ms;
      bytes = !bytes;
      wall_s = Array.fold_left ( +. ) 0.0 lat_ms /. 1e3;
      cpu_s = !cpu;
      attempted = !attempted;
      failed = !failed;
    },
    !drawn )

let describe shapes =
  List.iter
    (fun (cls, m, n) ->
      Printf.printf "  shape %-9s %7d x %-7d gcd %-6d %6.1f MiB\n" cls m n (gcd m n)
        (float_of_int (m * n * 8) /. float_of_int mib))
    shapes

let run ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed; 1 |] in
  Printf.printf "inplace_large: %d lanes, default (empty) tuning DB\n" lanes;
  Printf.printf "  classes of 32 MiB (skinny), 64 MiB (coprime) and 112 MiB (large gcd);\n";
  Printf.printf "  every matrix is > the %d MiB L2 and <= the %d MiB shared L3\n"
    (l2_bytes / mib) (l3_bytes / mib);
  Printf.printf "  the clock stops while each result is verified against the index oracle\n";
  let big = S.create max_elems in
  fill_iota big;
  if not trace then begin
    let sys, setup_s =
      repeated_setup
        ~build:(fun () -> build big warm)
        ~teardown:(fun s -> Pool.shutdown s.pool)
    in
    let p, drawn = run_phase sys big rng ~seconds in
    Pool.shutdown sys.pool;
    Printf.printf "  %d shapes drawn; the first cycle's:\n" (List.length drawn);
    describe (List.filteri (fun i _ -> i < 3) drawn);
    let metrics = end_to_end ~setup_s ~peak_rss_mb:(peak_rss_mb ()) p in
    (p.attempted, p.failed, metrics)
  end
  else begin
    let cal = Xpose_obs.Calibrate.run () in
    let sys, _ = build big warm in
    let untraced, _ = run_phase sys big rng ~seconds:(seconds /. 2.0) in
    let before = snapshot () in
    Tracer.start ();
    let traced, drawn = run_phase sys big rng ~seconds:(seconds /. 2.0) in
    Tracer.stop ();
    let after = snapshot () in
    Pool.shutdown sys.pool;
    let s = summarize ~entry:"bench.op" (Tracer.events ()) in
    let ops = Array.length traced.lat_ms in
    let dims = List.map (fun (_, m, n) -> (m, n)) drawn in
    let metrics =
      in_order
        [
          (fun () -> fused_pass_metrics ~cal ~ops s);
          (fun () -> pool_metrics ~ops ~before ~after s);
          (fun () -> plan_metrics ~before ~after dims);
          (fun () -> codec_metrics dims);
          (fun () -> [ entry_metric s ]);
          (fun () -> absent server_metric_names);
          (fun () -> absent ooc_metric_names);
          (fun () -> [ overhead_metric ~untraced ~traced ]);
        ]
    in
    (untraced.attempted + traced.attempted, untraced.failed + traced.failed, metrics)
  end
