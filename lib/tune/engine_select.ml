open Xpose_core
module S = Storage.Float64
module FF = Xpose_cpu.Fused_f64

type t = {
  db : Db.t;
  cache : Plan.Cache.t;
  mutable hits : int;
  mutable misses : int;
  mutex : Mutex.t;
}

let m_hits = Xpose_obs.Metrics.defer Xpose_obs.Metrics.counter "tune_db.hits"
let m_misses =
  Xpose_obs.Metrics.defer Xpose_obs.Metrics.counter "tune_db.misses"

let create ?db ?(cache = Plan.Cache.default) () =
  let db = match db with Some db -> db | None -> Db.create ~fingerprint:"" in
  { db; cache; hits = 0; misses = 0; mutex = Mutex.create () }

let db t = t.db

let bump t hit =
  Mutex.lock t.mutex;
  if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
  Mutex.unlock t.mutex;
  Xpose_obs.Metrics.incr
    (Xpose_obs.Metrics.force (if hit then m_hits else m_misses))

let hits t =
  Mutex.lock t.mutex;
  let v = t.hits in
  Mutex.unlock t.mutex;
  v

let misses t =
  Mutex.lock t.mutex;
  let v = t.misses in
  Mutex.unlock t.mutex;
  v

(* The DB is keyed on the shape as tuned; a transposed request
   ([n x m] of a tuned [m x n]) runs the same passes on the same plan,
   so it shares the entry. *)
let params_for t ~m ~n =
  match Db.find t.db ~m ~n with
  | Some e ->
      bump t true;
      e.Db.params
  | None -> (
      match Db.find t.db ~m:n ~n:m with
      | Some e ->
          bump t true;
          e.Db.params
      | None ->
          bump t false;
          Tune_params.default)

let window_bytes_for t ~m ~n ~default =
  match params_for t ~m ~n with
  | { Tune_params.window_bytes = Some w; _ } -> min w default
  | _ -> default

let plan_for t ~params ~m ~n =
  let rm = max m n and rn = min m n in
  (m > n, Plan.Cache.get ~cache:t.cache ~params ~m:rm ~n:rn ())

let ooc_via_file ?pool ~window_bytes ~m ~n buf =
  let path = Filename.temp_file "xpose_dispatch" ".mat" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Xpose_mmap.File_matrix.create ~path ~elements:(m * n);
      Xpose_mmap.File_matrix.with_map ~path (fun fbuf ->
          S.blit buf 0 fbuf 0 (m * n));
      Xpose_ooc.Ooc_f64.transpose_file ?pool ~window_bytes ~path ~m ~n ();
      Xpose_mmap.File_matrix.with_map ~path (fun fbuf ->
          S.blit fbuf 0 buf 0 (m * n)))

let run ?pool t ~(params : Tune_params.t) ~m ~n buf =
  match params.Tune_params.engine with
  | Tune_params.Fused -> (
      let c2r_side, p = plan_for t ~params ~m ~n in
      let panel_width = params.Tune_params.panel_width in
      match pool with
      | Some pool when Xpose_cpu.Pool.workers pool > 1 ->
          if c2r_side then FF.c2r_pool ~panel_width pool p buf
          else FF.r2c_pool ~panel_width pool p buf
      | _ ->
          if c2r_side then FF.c2r ~panel_width p buf
          else FF.r2c ~panel_width p buf)
  | Tune_params.Ooc ->
      let window_bytes =
        match params.Tune_params.window_bytes with
        | Some w -> w
        | None -> Xpose_ooc.Ooc_f64.default_window_bytes
      in
      ooc_via_file ?pool ~window_bytes ~m ~n buf

let dispatch ?pool t ~m ~n buf =
  if m < 1 || n < 1 then invalid_arg "Engine_select.dispatch: bad shape";
  if S.length buf <> m * n then
    invalid_arg "Engine_select.dispatch: buffer size does not match shape";
  let params = params_for t ~m ~n in
  run ?pool t ~params ~m ~n buf

let dispatch_batch t pool ~m ~n bufs =
  if m < 1 || n < 1 then
    invalid_arg "Engine_select.dispatch_batch: bad shape";
  if Array.length bufs = 0 then ()
  else begin
    let params = params_for t ~m ~n in
    match params.Tune_params.engine with
    | Tune_params.Fused ->
        FF.transpose_batch ~split:params.Tune_params.batch_split
          ~panel_width:params.Tune_params.panel_width ~cache:t.cache pool ~m
          ~n bufs
    | Tune_params.Ooc ->
        Array.iter (fun buf -> run ~pool t ~params ~m ~n buf) bufs
  end
