open Xpose_core

type buf = Storage.Float64.t

open Bigarray.Array1
module Ws = Workspace.F64

let default_width = Tune_params.default_panel_width
let supported_widths = Tune_params.supported_widths
let get_ws = function Some ws -> ws | None -> Ws.create ()

let check_range whom ~n ~lo ~hi =
  if lo < 0 || hi > n || lo > hi then invalid_arg (whom ^ ": bad column range")

let obs_pass (p : Plan.t) name ~pred f =
  Xpose_obs.Tracer.pass ~name ~rows:p.m ~cols:p.n ~pred_touches:pred
    ~scratch_elems:(Plan.scratch_elements p) f

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

(* A lane's scratch row and walk index row for the row passes. *)
let row_tmp ws (p : Plan.t) = Ws.tmp ws (Plan.scratch_elements p)
let row_idx ws (p : Plan.t) = Ws.idx ws p.n

let get_workspaces ?workspaces pool =
  match workspaces with
  | Some wss ->
      if Array.length wss < Pool.workers pool then
        invalid_arg "Fused_f64: fewer workspaces than pool lanes";
      wss
  | None -> Array.init (Pool.workers pool) (fun _ -> Ws.create ())

(* -- the engine over either phase set ------------------------------------ *)

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

  val c2r :
    ?panel_width:int ->
    ?block_rows:int ->
    ?tier:Tune_params.kernel_tier ->
    ?ws:Ws.t ->
    Plan.t ->
    buf ->
    unit

  val r2c :
    ?panel_width:int ->
    ?block_rows:int ->
    ?tier:Tune_params.kernel_tier ->
    ?ws:Ws.t ->
    Plan.t ->
    buf ->
    unit

  val transpose :
    ?order:Layout.order ->
    ?panel_width:int ->
    ?block_rows:int ->
    ?tier:Tune_params.kernel_tier ->
    ?ws:Ws.t ->
    ?cache:Plan.Cache.t ->
    m:int ->
    n:int ->
    buf ->
    unit

  val c2r_pool :
    ?panel_width:int ->
    ?block_rows:int ->
    ?tier:Tune_params.kernel_tier ->
    ?workspaces:Ws.t array ->
    Pool.t ->
    Plan.t ->
    buf ->
    unit

  val r2c_pool :
    ?panel_width:int ->
    ?block_rows:int ->
    ?tier:Tune_params.kernel_tier ->
    ?workspaces:Ws.t array ->
    Pool.t ->
    Plan.t ->
    buf ->
    unit

  val transpose_pool :
    ?order:Layout.order ->
    ?panel_width:int ->
    ?block_rows:int ->
    ?tier:Tune_params.kernel_tier ->
    ?workspaces:Ws.t array ->
    ?cache:Plan.Cache.t ->
    Pool.t ->
    m:int ->
    n:int ->
    buf ->
    unit

  val transpose_batch :
    ?order:Layout.order ->
    ?split:Tune_params.batch_split ->
    ?panel_width:int ->
    ?block_rows:int ->
    ?tier:Tune_params.kernel_tier ->
    ?cache:Plan.Cache.t ->
    Pool.t ->
    m:int ->
    n:int ->
    buf array ->
    unit
end

(* Column passes, serial engines, pool drivers, and the batch driver,
   written once over {!Kernels_f64.PHASES}. Without flambda the functor
   costs an indirect call per staging / per pass chunk — never per
   element — so the raw instantiation keeps its specialized speed. *)
module Engine_of (P : Kernels_f64.PHASES) : ENGINE = struct
  let gather_cols ?panel_width:(width = default_width) ?ws ?(lo = 0) ?hi
      (p : Plan.t) buf map =
    let n = p.n in
    let hi = match hi with Some h -> h | None -> n in
    check_range "Fused_f64.gather_cols" ~n ~lo ~hi;
    let ws = get_ws ws in
    let w = Kernels_f64.stage_width ~m:p.m ~panel_width:width in
    P.gather_cols p buf ~stage:(Ws.tmp ws (p.m * w)) ~idx:(Ws.idx ws w) ~map
      ~pitch:n ~col0:0 ~width:w ~lo ~hi

  (* One column pass over every column, split across lanes by whole
     stagings. *)
  let cols_pool ~width pool wss (p : Plan.t) buf map =
    let w = Kernels_f64.stage_width ~m:p.m ~panel_width:width in
    over_columns pool ~n:p.n ~width:w (fun ~chunk ~lo ~hi ->
        gather_cols ~panel_width:w ~ws:wss.(chunk) ~lo ~hi p buf map)

  let rotate_pred (p : Plan.t) ~width ~amount =
    Pass_cost.panel_rotate p
      ~width:(Kernels_f64.stage_width ~m:p.m ~panel_width:width)
      ~amount

  (* The C2R and R2C pass sequences, over a column-pass runner and a
     row-pass runner (serial or pooled). *)
  let c2r_passes (p : Plan.t) ~width ~cols ~rows =
    if not (Plan.coprime p) then begin
      let amount = Plan.rotate_amount p in
      obs_pass p "rotate_pre" ~pred:(rotate_pred p ~width ~amount) (fun () ->
          cols (Kernels_f64.rotate amount))
    end;
    obs_pass p "row_shuffle" ~pred:(Pass_cost.shuffle p) (fun () ->
        rows P.row_shuffle_gather);
    obs_pass p "fused_col" ~pred:(Pass_cost.fused_col p) (fun () ->
        cols (Kernels_f64.shuffle p))

  let r2c_passes (p : Plan.t) ~width ~cols ~rows =
    obs_pass p "fused_col" ~pred:(Pass_cost.fused_col p) (fun () ->
        cols (Kernels_f64.unshuffle p));
    obs_pass p "row_unshuffle" ~pred:(Pass_cost.shuffle p) (fun () ->
        rows P.row_shuffle_ungather);
    if not (Plan.coprime p) then begin
      let amount j = -Plan.rotate_amount p j in
      obs_pass p "rotate_post" ~pred:(rotate_pred p ~width ~amount) (fun () ->
          cols (Kernels_f64.rotate amount))
    end

  (* -- serial engines ---------------------------------------------------- *)

  (* [block_rows] and [tier] are accepted and ignored: the staged column
     passes have no strip or micro-kernel tier to select. *)
  let serial ~passes ?panel_width:(width = default_width) ?block_rows:_ ?tier:_
      ?ws whom (p : Plan.t) buf =
    check_buf whom p buf;
    if p.m = 1 || p.n = 1 then ()
    else begin
      let ws = get_ws ws in
      passes p ~width ~cols:(gather_cols ~panel_width:width ~ws p buf)
        ~rows:(fun pass ->
          pass p buf ~tmp:(row_tmp ws p) ~idx:(row_idx ws p) ~row0:0 ~lo:0
            ~hi:p.m)
    end

  let c2r ?panel_width ?block_rows ?tier ?ws p buf =
    serial ~passes:c2r_passes ?panel_width ?block_rows ?tier ?ws "Fused_f64.c2r"
      p buf

  let r2c ?panel_width ?block_rows ?tier ?ws p buf =
    serial ~passes:r2c_passes ?panel_width ?block_rows ?tier ?ws "Fused_f64.r2c"
      p buf

  (* Plan-cache entries are keyed by (and carry) the configuration the
     caller actually runs, so differently tuned callers of one shape
     never alias. *)
  let cache_params ?(split = Tune_params.Auto) ?(tier = Tune_params.Scalar)
      width =
    {
      Tune_params.default with
      panel_width = Option.value width ~default:default_width;
      batch_split = split;
      kernel_tier = tier;
    }

  let transpose ?(order = Layout.Row_major) ?panel_width:width ?block_rows
      ?tier ?ws ?cache ~m ~n buf =
    let rm, rn =
      match order with Layout.Row_major -> (m, n) | Layout.Col_major -> (n, m)
    in
    let params = cache_params ?tier width in
    if rm > rn then
      c2r ?panel_width:width ?block_rows ?tier ?ws
        (Plan.Cache.get ?cache ~params ~m:rm ~n:rn ())
        buf
    else
      r2c ?panel_width:width ?block_rows ?tier ?ws
        (Plan.Cache.get ?cache ~params ~m:rn ~n:rm ())
        buf

  (* -- pool drivers ------------------------------------------------------ *)

  let pooled ~passes ?panel_width:(width = default_width) ?block_rows:_
      ?tier:_ ?workspaces whom pool (p : Plan.t) buf =
    check_buf whom p buf;
    if p.m = 1 || p.n = 1 then ()
    else begin
      let wss = get_workspaces ?workspaces pool in
      passes p ~width ~cols:(cols_pool ~width pool wss p buf) ~rows:(fun pass ->
          Pool.parallel_chunks pool ~lo:0 ~hi:p.m (fun ~chunk ~lo ~hi ->
              let ws = wss.(chunk) in
              pass p buf ~tmp:(row_tmp ws p) ~idx:(row_idx ws p) ~row0:0 ~lo
                ~hi))
    end

  let c2r_pool ?panel_width ?block_rows ?tier ?workspaces pool p buf =
    pooled ~passes:c2r_passes ?panel_width ?block_rows ?tier ?workspaces
      "Fused_f64.c2r_pool" pool p buf

  let r2c_pool ?panel_width ?block_rows ?tier ?workspaces pool p buf =
    pooled ~passes:r2c_passes ?panel_width ?block_rows ?tier ?workspaces
      "Fused_f64.r2c_pool" pool p buf

  let transpose_pool ?(order = Layout.Row_major) ?panel_width:width ?block_rows
      ?tier ?workspaces ?cache pool ~m ~n buf =
    let rm, rn =
      match order with Layout.Row_major -> (m, n) | Layout.Col_major -> (n, m)
    in
    let params = cache_params ?tier width in
    if rm > rn then
      c2r_pool ?panel_width:width ?block_rows ?tier ?workspaces pool
        (Plan.Cache.get ?cache ~params ~m:rm ~n:rn ())
        buf
    else
      r2c_pool ?panel_width:width ?block_rows ?tier ?workspaces pool
        (Plan.Cache.get ?cache ~params ~m:rn ~n:rm ())
        buf

  (* -- batched transpose ------------------------------------------------- *)

  let transpose_batch ?(order = Layout.Row_major) ?(split = Tune_params.Auto)
      ?panel_width:width ?block_rows ?tier ?cache pool ~m ~n bufs =
    let rm, rn =
      match order with Layout.Row_major -> (m, n) | Layout.Col_major -> (n, m)
    in
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
      let params = cache_params ~split ?tier width in
      let p =
        if c2r_side then Plan.Cache.get ?cache ~params ~m:rm ~n:rn ()
        else Plan.Cache.get ?cache ~params ~m:rn ~n:rm ()
      in
      let lanes = Pool.workers pool in
      (* The split policy decides matrix- vs panel-parallelism; a
         single-lane pool always runs the (cheaper) serial engine per
         matrix, whatever the policy asked for. *)
      let matrix_parallel =
        lanes = 1
        ||
        match split with
        | Tune_params.Auto -> nb >= lanes
        | Tune_params.Matrix_parallel -> true
        | Tune_params.Panel_parallel -> false
        | Tune_params.Hybrid t -> nb >= t
      in
      if matrix_parallel then begin
        (* Enough matrices to keep every lane busy: parallelize across the
           batch, each lane running the serial engine with its own
           workspace. *)
        let wss = Array.init lanes (fun _ -> Ws.create ()) in
        Pool.parallel_chunks pool ~lo:0 ~hi:nb (fun ~chunk ~lo ~hi ->
            let ws = wss.(chunk) in
            for b = lo to hi - 1 do
              if c2r_side then
                c2r ?panel_width:width ?block_rows ?tier ~ws p bufs.(b)
              else r2c ?panel_width:width ?block_rows ?tier ~ws p bufs.(b)
            done)
      end
      else begin
        (* Few large matrices: go panel-parallel inside each one, reusing
           one workspace set across the whole batch. *)
        let wss = get_workspaces pool in
        Array.iter
          (fun buf ->
            if c2r_side then
              c2r_pool ?panel_width:width ?block_rows ?tier ~workspaces:wss
                pool p buf
            else
              r2c_pool ?panel_width:width ?block_rows ?tier ~workspaces:wss
                pool p buf)
          bufs
      end
    end
end

include Engine_of (Kernels_f64.Phases)

module Checked = Engine_of (Kernels_f64.Checked.Phases)

(* The engine's passes are Kernels_f64's stage-and-gather column pass and
   its walk row passes; their summaries are sub-range quantified, so one
   certificate covers the serial, pool and batch schedules. The trace
   cross-validation (test/check suite_access) keeps them honest: the
   checked twin's recorded accesses must fall inside these summaries and
   cover every element of every column pass. *)
module Summary = struct
  open Access.Passes

  let c2r_passes = [ stage_rotate; stage_shuffle; row_shuffle_gather ]
  let r2c_passes = [ stage_unshuffle; row_shuffle_ungather; stage_rotate ]
  let all = [ stage_rotate; stage_shuffle; stage_unshuffle ]
end
