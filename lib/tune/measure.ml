open Xpose_core
module S = Storage.Float64
module FF = Xpose_cpu.Fused_f64

type sample = {
  params : Tune_params.t;
  predicted_ns : float;
  measured_ns : float;
  roofline_frac : float;
}

(* One forward-and-back roundtrip leaves the buffer exactly as it was,
   so repeats need no re-fill and the oracle check is free: any engine
   bug shows up as a non-identity. Halving the roundtrip gives the
   per-transpose time. *)

let roundtrip_single ?pool ~m ~n (params : Tune_params.t) buf =
  let rm = max m n and rn = min m n in
  let p () = Plan.Cache.get ~params ~m:rm ~n:rn () in
  match params.Tune_params.engine with
  | Tune_params.Fused -> (
      let p = p () in
      let panel_width = params.Tune_params.panel_width in
      match pool with
      | Some pool when Xpose_cpu.Pool.workers pool > 1 ->
          FF.c2r_pool ~panel_width pool p buf;
          FF.r2c_pool ~panel_width pool p buf
      | _ ->
          FF.c2r ~panel_width p buf;
          FF.r2c ~panel_width p buf)
  | Tune_params.Ooc ->
      (* The serving path stages out-of-core jobs through a file, so an
         honest ooc measurement pays the staging streams too. *)
      let window_bytes =
        match params.Tune_params.window_bytes with
        | Some w -> w
        | None -> Xpose_ooc.Ooc_f64.default_window_bytes
      in
      let path = Filename.temp_file "xpose_tune" ".mat" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Xpose_mmap.File_matrix.create ~path ~elements:(m * n);
          Xpose_mmap.File_matrix.with_map ~path (fun fbuf ->
              S.blit buf 0 fbuf 0 (m * n));
          (match pool with
          | Some pool ->
              Xpose_ooc.Ooc_f64.transpose_file ~pool ~window_bytes ~path ~m ~n
                ();
              Xpose_ooc.Ooc_f64.transpose_file ~pool ~window_bytes ~path ~m:n
                ~n:m ()
          | None ->
              Xpose_ooc.Ooc_f64.transpose_file ~window_bytes ~path ~m ~n ();
              Xpose_ooc.Ooc_f64.transpose_file ~window_bytes ~path ~m:n ~n:m ());
          Xpose_mmap.File_matrix.with_map ~path (fun fbuf ->
              S.blit fbuf 0 buf 0 (m * n)))

let roundtrip_batch ~pool ~m ~n (params : Tune_params.t) bufs =
  match params.Tune_params.engine with
  | Tune_params.Fused ->
      let split = params.Tune_params.batch_split in
      let panel_width = params.Tune_params.panel_width in
      FF.transpose_batch ~split ~panel_width pool ~m ~n bufs;
      FF.transpose_batch ~split ~panel_width pool ~m:n ~n:m bufs
  | Tune_params.Ooc ->
      Array.iter (fun buf -> roundtrip_single ~pool ~m ~n params buf) bufs

let verify_identity ~what ~m ~n buf =
  let len = m * n in
  let ok = ref true in
  for l = 0 to len - 1 do
    if S.get buf l <> float_of_int l then ok := false
  done;
  if not !ok then
    invalid_arg
      (Printf.sprintf
         "Measure: %s corrupted the %dx%d roundtrip (engine bug)" what m n)

let measure ?pool ?(nb = 1) ~repeats ~m ~n (params : Tune_params.t) =
  if repeats < 1 then invalid_arg "Measure.measure: repeats must be >= 1";
  if m < 1 || n < 1 || nb < 1 then
    invalid_arg "Measure.measure: m, n and nb must be >= 1";
  let what = Tune_params.to_string params in
  Xpose_obs.Tracer.with_span ~cat:"tune"
    ~args:(fun () -> [ ("params", Xpose_obs.Tracer.Str what) ])
    "tune.measure"
    (fun () ->
      let best = ref infinity in
      if nb = 1 then begin
        let buf = S.create (m * n) in
        Storage.fill_iota (module S) buf;
        for _ = 1 to repeats do
          let t0 = Xpose_obs.Clock.now_ns () in
          roundtrip_single ?pool ~m ~n params buf;
          let dt = Xpose_obs.Clock.now_ns () -. t0 in
          if dt < !best then best := dt
        done;
        verify_identity ~what ~m ~n buf
      end
      else begin
        let pool =
          match pool with Some p -> p | None -> Xpose_cpu.Pool.sequential
        in
        let bufs =
          Array.init nb (fun _ ->
              let b = S.create (m * n) in
              Storage.fill_iota (module S) b;
              b)
        in
        for _ = 1 to repeats do
          let t0 = Xpose_obs.Clock.now_ns () in
          roundtrip_batch ~pool ~m ~n params bufs;
          let dt = Xpose_obs.Clock.now_ns () -. t0 in
          if dt < !best then best := dt
        done;
        Array.iter (verify_identity ~what ~m ~n) bufs
      end;
      (* Per-transpose time: half a roundtrip, averaged over the batch. *)
      !best /. (2.0 *. float_of_int nb))

let roofline_frac (cal : Xpose_obs.Calibrate.t) ~m ~n ~ns =
  (* One ideal transpose moves every element once each way. *)
  let bytes = float_of_int (2 * m * n * 8) in
  Xpose_obs.Roofline.fraction cal Xpose_obs.Roofline.Stream ~bytes ~dur_ns:ns

let sample ?pool ?nb ~cal ~repeats ~m ~n (priced : Space.priced) =
  let measured_ns = measure ?pool ?nb ~repeats ~m ~n priced.Space.params in
  {
    params = priced.Space.params;
    predicted_ns = priced.Space.predicted_ns;
    measured_ns;
    roofline_frac = roofline_frac cal ~m ~n ~ns:measured_ns;
  }
