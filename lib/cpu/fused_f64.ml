open Xpose_core

type buf = Storage.Float64.t

open Bigarray.Array1
module Ws = Workspace.F64

let default_width = Kernels_f64.default_width

let check_buf whom (p : Plan.t) (buf : buf) =
  if dim buf <> p.m * p.n then
    invalid_arg (whom ^ ": buffer size does not match plan")

(* Lanes take whole stagings: the column groups are [width] wide, the
   engine's staging width, so no staging straddles two lanes. *)
let over_columns pool ~n ~width pass =
  let groups = Intmath.ceil_div n width in
  Pool.parallel_chunks pool ~lo:0 ~hi:groups (fun ~chunk ~lo ~hi ->
      let lo = lo * width and hi = min n (hi * width) in
      if lo < hi then pass ~chunk ~lo ~hi)

let get_workspaces ?workspaces pool =
  match workspaces with
  | Some wss ->
      if Array.length wss < Pool.workers pool then
        invalid_arg "Fused_f64: fewer workspaces than pool lanes";
      wss
  | None -> Array.init (Pool.workers pool) (fun _ -> Ws.create ())

module type ENGINE = sig
  val gather_cols :
    ?panel_width:int ->
    ?ws:Ws.t ->
    ?lo:int ->
    ?hi:int ->
    Plan.t ->
    buf ->
    Kernels_f64.col_map ->
    unit

  val c2r : ?panel_width:int -> ?ws:Ws.t -> Plan.t -> buf -> unit
  val r2c : ?panel_width:int -> ?ws:Ws.t -> Plan.t -> buf -> unit

  val transpose :
    ?order:Layout.order ->
    ?panel_width:int ->
    ?ws:Ws.t ->
    ?cache:Plan.Cache.t ->
    m:int ->
    n:int ->
    buf ->
    unit

  val c2r_pool :
    ?panel_width:int ->
    ?workspaces:Ws.t array ->
    Pool.t ->
    Plan.t ->
    buf ->
    unit

  val r2c_pool :
    ?panel_width:int ->
    ?workspaces:Ws.t array ->
    Pool.t ->
    Plan.t ->
    buf ->
    unit

  val transpose_pool :
    ?order:Layout.order ->
    ?panel_width:int ->
    ?workspaces:Ws.t array ->
    ?cache:Plan.Cache.t ->
    Pool.t ->
    m:int ->
    n:int ->
    buf ->
    unit

  val transpose_batch :
    ?order:Layout.order ->
    ?panel_width:int ->
    ?cache:Plan.Cache.t ->
    Pool.t ->
    m:int ->
    n:int ->
    buf array ->
    unit
end

(* The serial engine is {!Kernels_f64}'s; this adds the plan cache, the
   pool drivers (its pass order over pooled runners) and the batch
   driver, written once over the raw or the checked engine. *)
module Drivers (K : Kernels_f64.ENGINE) : ENGINE = struct
  let gather_cols = K.gather_cols
  let c2r = K.c2r
  let r2c = K.r2c

  let rows_cols ~order ~m ~n =
    match order with Layout.Row_major -> (m, n) | Layout.Col_major -> (n, m)

  let transpose ?(order = Layout.Row_major) ?panel_width:width ?ws ?cache ~m
      ~n buf =
    let rm, rn = rows_cols ~order ~m ~n in
    if rm > rn then
      c2r ?panel_width:width ?ws (Plan.Cache.get ?cache ~m:rm ~n:rn ()) buf
    else r2c ?panel_width:width ?ws (Plan.Cache.get ?cache ~m:rn ~n:rm ()) buf

  (* -- pool drivers ------------------------------------------------------ *)

  let pooled ~passes ?panel_width:(width = default_width) ?workspaces whom pool
      (p : Plan.t) buf =
    check_buf whom p buf;
    let wss = get_workspaces ?workspaces pool in
    let w = Kernels_f64.stage_width ~m:p.m ~panel_width:width in
    passes p ~width
      ~cols:(fun map ->
        over_columns pool ~n:p.n ~width:w (fun ~chunk ~lo ~hi ->
            K.gather_cols ~panel_width:w ~ws:wss.(chunk) ~lo ~hi p buf map))
      ~rows:(fun pass ->
        Pool.parallel_chunks pool ~lo:0 ~hi:p.m (fun ~chunk ~lo ~hi ->
            let ws = wss.(chunk) in
            pass p buf
              ~tmp:(Ws.tmp ws (Plan.scratch_elements p))
              ~idx:(Ws.idx ws p.n) ~row0:0 ~lo ~hi))

  let c2r_pool ?panel_width ?workspaces pool p buf =
    pooled ~passes:K.c2r_passes ?panel_width ?workspaces "Fused_f64.c2r_pool"
      pool p buf

  let r2c_pool ?panel_width ?workspaces pool p buf =
    pooled ~passes:K.r2c_passes ?panel_width ?workspaces "Fused_f64.r2c_pool"
      pool p buf

  let transpose_pool ?(order = Layout.Row_major) ?panel_width:width ?workspaces
      ?cache pool ~m ~n buf =
    let rm, rn = rows_cols ~order ~m ~n in
    if rm > rn then
      c2r_pool ?panel_width:width ?workspaces pool
        (Plan.Cache.get ?cache ~m:rm ~n:rn ())
        buf
    else
      r2c_pool ?panel_width:width ?workspaces pool
        (Plan.Cache.get ?cache ~m:rn ~n:rm ())
        buf

  (* -- batched transpose ------------------------------------------------- *)

  let transpose_batch ?(order = Layout.Row_major) ?panel_width:width ?cache
      pool ~m ~n bufs =
    let rm, rn = rows_cols ~order ~m ~n in
    let nb = Array.length bufs in
    if nb > 0 then begin
      (* Validate the whole batch before moving any element, so a bad
         buffer cannot leave earlier matrices transposed and later ones
         untouched. *)
      Array.iter
        (fun b ->
          if dim b <> rm * rn then
            invalid_arg
              "Fused_f64.transpose_batch: buffer size does not match shape")
        bufs;
      let c2r_side = rm > rn in
      let p =
        if c2r_side then Plan.Cache.get ?cache ~m:rm ~n:rn ()
        else Plan.Cache.get ?cache ~m:rn ~n:rm ()
      in
      let lanes = Pool.workers pool in
      if nb >= lanes then begin
        (* Enough matrices to keep every lane busy (always so on a
           single-lane pool): parallelize across the batch, each lane
           running the serial engine with its own workspace. *)
        let wss = Array.init lanes (fun _ -> Ws.create ()) in
        Pool.parallel_chunks pool ~lo:0 ~hi:nb (fun ~chunk ~lo ~hi ->
            let ws = wss.(chunk) in
            for b = lo to hi - 1 do
              if c2r_side then c2r ?panel_width:width ~ws p bufs.(b)
              else r2c ?panel_width:width ~ws p bufs.(b)
            done)
      end
      else begin
        (* Few large matrices: go panel-parallel inside each one, reusing
           one workspace set across the whole batch. *)
        let wss = get_workspaces pool in
        Array.iter
          (fun buf ->
            if c2r_side then
              c2r_pool ?panel_width:width ~workspaces:wss pool p buf
            else r2c_pool ?panel_width:width ~workspaces:wss pool p buf)
          bufs
      end
    end
end

include Drivers (Kernels_f64)
module Checked = Drivers (Kernels_f64.Checked)
