type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

open Bigarray.Array1

(* -- column passes: stage and gather ---------------------------------------

   Every column pass gathers within columns: row i of column j takes row
   src(i, j) of the same column. A staging copies w columns into a
   contiguous m x w scratch in one row-order sweep, then writes each row's
   w elements back from the scratch rows the map names in a second
   row-order sweep, so both sides stream whole sub-rows. *)

type col_map =
  | Rotate of (int -> int)
  | Shuffle of int array  (* the q table *)
  | Unshuffle of int array  (* the q^-1 table *)

let rotate amount = Rotate amount
let shuffle p = Shuffle (Plan.q_table p)
let unshuffle p = Unshuffle (Plan.q_inv_table p)

let stage_elems = 1 lsl 18

let stage_width ~m ~panel_width =
  if panel_width < 1 then
    invalid_arg "Kernels_f64.stage_width: panel width must be positive";
  max 1 (min panel_width (stage_elems / m))

(* The index math of one staging of columns [j0, j0 + w): the map's
   per-column shift reduced mod m once, so a row needs adds and one
   compare per element. *)
type col_walk = { m : int; w : int; off : int array; map : col_map }

let col_walk ~m map ~j0 ~w =
  let off =
    Array.init w (fun jj ->
        let j = j0 + jj in
        match map with
        | Rotate amount -> Intmath.emod (amount j) m
        | Shuffle _ -> Intmath.emod j m
        | Unshuffle _ -> Intmath.emod (-j) m)
  in
  { m; w; off; map }

(* [idx.(jj)] <- the scratch offset [src * w + jj] that row [i] of column
   [j0 + jj] gathers: src = (i + r_j) mod m for a rotation (Eqs. 23, 36),
   (q(i) + j) mod m for the C2R shuffle (Eqs. 26, 32-33), and
   q^-1((i - j) mod m) for the R2C unshuffle (Eqs. 34-35). *)
let col_walk_row cw i (idx : int array) =
  let m = cw.m and w = cw.w and off = cw.off in
  match cw.map with
  | Unshuffle qi ->
      for jj = 0 to w - 1 do
        let s = i + Array.unsafe_get off jj in
        let s = if s >= m then s - m else s in
        Array.unsafe_set idx jj ((Array.unsafe_get qi s * w) + jj)
      done
  | Rotate _ | Shuffle _ ->
      let base = match cw.map with Shuffle q -> Array.unsafe_get q i | _ -> i in
      for jj = 0 to w - 1 do
        let s = base + Array.unsafe_get off jj in
        let s = if s >= m then s - m else s in
        Array.unsafe_set idx jj ((s * w) + jj)
      done

type col_pass =
  Plan.t ->
  buf ->
  stage:buf ->
  idx:int array ->
  map:col_map ->
  pitch:int ->
  col0:int ->
  width:int ->
  lo:int ->
  hi:int ->
  unit

(* The staging loop both movers share: argument checks once per call,
   then one "panel" span per staging of at most [width] columns. *)
let over_stagings (p : Plan.t) (buf : buf) ~(stage : buf) ~idx ~map ~pitch
    ~col0 ~width ~lo ~hi visit =
  let m = p.m in
  if width < 1 then invalid_arg "Kernels_f64: staging width must be positive";
  if col0 < 0 || lo < col0 || hi < lo || hi > col0 + pitch then
    invalid_arg "Kernels_f64: bad column range";
  if dim buf < m * pitch then invalid_arg "Kernels_f64: buffer smaller than m x pitch";
  let wmax = min width (hi - lo) in
  if dim stage < m * wmax || Array.length idx < wmax then
    invalid_arg "Kernels_f64: staging scratch too small";
  (match map with
  | Shuffle t | Unshuffle t ->
      if Array.length t <> m then
        invalid_arg "Kernels_f64: map table does not match the plan"
  | Rotate _ -> ());
  let j0 = ref lo in
  while !j0 < hi do
    let lo = !j0 in
    let w = min width (hi - lo) in
    Xpose_obs.Tracer.panel ~name:"stage_panel" ~lo ~width:w ~rows:m
      ~pred_touches:(Pass_cost.fused_panel p ~width:w)
      (fun () -> visit (col_walk ~m map ~j0:lo ~w) ~c:(lo - col0));
    j0 := lo + w
  done

module Phases = struct
  let stage_in (buf : buf) ~m ~pitch ~c ~w (stage : buf) =
    let b = ref c and s = ref 0 in
    for _ = 0 to m - 1 do
      let bb = !b and ss = !s in
      for jj = 0 to w - 1 do
        unsafe_set stage (ss + jj) (unsafe_get buf (bb + jj))
      done;
      b := bb + pitch;
      s := ss + w
    done

  let stage_out (buf : buf) ~pitch ~c (stage : buf) ~idx cw =
    let w = cw.w in
    let b = ref c in
    for i = 0 to cw.m - 1 do
      col_walk_row cw i idx;
      let bb = !b in
      for jj = 0 to w - 1 do
        unsafe_set buf (bb + jj) (unsafe_get stage (Array.unsafe_get idx jj))
      done;
      b := bb + pitch
    done

  let gather_cols (p : Plan.t) buf ~stage ~idx ~map ~pitch ~col0 ~width ~lo
      ~hi =
    over_stagings p buf ~stage ~idx ~map ~pitch ~col0 ~width ~lo ~hi
      (fun cw ~c ->
        stage_in buf ~m:p.m ~pitch ~c ~w:cw.w stage;
        stage_out buf ~pitch ~c stage ~idx cw)

  (* Write the shuffled row in [tmp.(0..n-1)] back over row [i]. An
     explicit loop rather than [blit (sub tmp 0 n) (sub buf base n)]:
     the two [sub] views are heap allocations per row, which a batched
     caller pays m times per matrix; the loop allocates nothing and
     vectorizes just as well. *)
  let writeback_row (buf : buf) ~(tmp : buf) ~base ~n =
    for j = 0 to n - 1 do
      unsafe_set buf (base + j) (unsafe_get tmp j)
    done

  (* The row passes: each row's indices come from the {!Plan.walk}
     generator into [idx] (d'_inv for the gather, d' for the ungather and
     the scatter), so the movers below only move. Row [i] of the matrix
     sits at [(i - row0) * n] in [buf]: in-RAM callers pass [row0 = 0];
     the out-of-core engine passes a window's first row, so the maps see
     the global row while [buf] holds only the window. *)
  let gather_rows ~inverse (p : Plan.t) (buf : buf) ~(tmp : buf) ~idx ~row0
      ~lo ~hi =
    let n = p.n in
    let w = Plan.walk p ~row:lo in
    for i = lo to hi - 1 do
      if inverse then Plan.walk_d'_inv w idx else Plan.walk_d' w idx;
      let base = (i - row0) * n in
      for j = 0 to n - 1 do
        unsafe_set tmp j (unsafe_get buf (base + Array.unsafe_get idx j))
      done;
      writeback_row buf ~tmp ~base ~n
    done

  let row_shuffle_gather = gather_rows ~inverse:true
  let row_shuffle_ungather = gather_rows ~inverse:false
end

type row_pass =
  Plan.t ->
  buf ->
  tmp:buf ->
  idx:int array ->
  row0:int ->
  lo:int ->
  hi:int ->
  unit

module type PHASES = sig
  val gather_cols : col_pass
  val row_shuffle_gather : row_pass
  val row_shuffle_ungather : row_pass
end

module Ws = Workspace.F64

let default_width = 16

(* Same per-pass observability hook as Algo.Make (one span per pass;
   nothing per element, so the specialized kernels keep their speed). *)
let obs_pass (p : Plan.t) name ~pred f =
  Xpose_obs.Tracer.pass ~name ~rows:p.m ~cols:p.n ~pred_touches:pred
    ~scratch_elems:(Plan.scratch_elements p) f

let rotate_pred (p : Plan.t) ~width ~amount =
  Pass_cost.panel_rotate p
    ~width:(stage_width ~m:p.m ~panel_width:width)
    ~amount

let check_buf whom (p : Plan.t) (buf : buf) =
  if dim buf <> p.m * p.n then
    invalid_arg (whom ^ ": buffer size does not match plan")

let get_ws = function Some ws -> ws | None -> Ws.create ()

module type ENGINE = sig
  val c2r_passes :
    Plan.t ->
    width:int ->
    cols:(col_map -> unit) ->
    rows:(row_pass -> unit) ->
    unit

  val r2c_passes :
    Plan.t ->
    width:int ->
    cols:(col_map -> unit) ->
    rows:(row_pass -> unit) ->
    unit

  val gather_cols :
    ?panel_width:int ->
    ?ws:Ws.t ->
    ?lo:int ->
    ?hi:int ->
    Plan.t ->
    buf ->
    col_map ->
    unit

  val c2r : ?panel_width:int -> ?ws:Ws.t -> Plan.t -> buf -> unit
  val r2c : ?panel_width:int -> ?ws:Ws.t -> Plan.t -> buf -> unit

  val transpose :
    ?ws:Ws.t -> ?order:Layout.order -> m:int -> n:int -> buf -> unit
end

(* The in-RAM pass order, written once over a column-pass runner [cols]
   and a row-pass runner [rows] (serial here, pooled in the fused
   engine's drivers) and instantiated with both the raw and the checked
   phases. Without flambda a functor application costs an indirect call,
   but only one per staging or per pass chunk -- never per element -- so
   the raw instantiation keeps its specialized speed. *)
module Engine_of (P : PHASES) = struct
  let c2r_passes (p : Plan.t) ~width ~cols ~rows =
    if p.m > 1 && p.n > 1 then begin
      if not (Plan.coprime p) then begin
        let amount = Plan.rotate_amount p in
        obs_pass p "rotate_pre" ~pred:(rotate_pred p ~width ~amount) (fun () ->
            cols (rotate amount))
      end;
      obs_pass p "row_shuffle" ~pred:(Pass_cost.shuffle p) (fun () ->
          rows P.row_shuffle_gather);
      obs_pass p "fused_col" ~pred:(Pass_cost.fused_col p) (fun () ->
          cols (shuffle p))
    end

  let r2c_passes (p : Plan.t) ~width ~cols ~rows =
    if p.m > 1 && p.n > 1 then begin
      obs_pass p "fused_col" ~pred:(Pass_cost.fused_col p) (fun () ->
          cols (unshuffle p));
      obs_pass p "row_unshuffle" ~pred:(Pass_cost.shuffle p) (fun () ->
          rows P.row_shuffle_ungather);
      if not (Plan.coprime p) then begin
        let amount j = -Plan.rotate_amount p j in
        obs_pass p "rotate_post" ~pred:(rotate_pred p ~width ~amount)
          (fun () -> cols (rotate amount))
      end
    end

  let gather_cols ?panel_width:(width = default_width) ?ws ?(lo = 0) ?hi
      (p : Plan.t) buf map =
    let n = p.n in
    let hi = Option.value hi ~default:n in
    if lo < 0 || hi > n || lo > hi then
      invalid_arg "Kernels_f64.gather_cols: bad column range";
    let ws = get_ws ws in
    let w = stage_width ~m:p.m ~panel_width:width in
    P.gather_cols p buf ~stage:(Ws.tmp ws (p.m * w)) ~idx:(Ws.idx ws w) ~map
      ~pitch:n ~col0:0 ~width:w ~lo ~hi

  (* One workspace serves both kinds of pass: its [tmp] holds a staging
     (m * w) or a row (n), its [idx] a staging's offsets or a row's walk
     indices, so a lane's scratch is max(m * w, m, n) elements. *)
  let serial ~passes whom ?panel_width:(width = default_width) ?ws
      (p : Plan.t) buf =
    check_buf whom p buf;
    let ws = get_ws ws in
    passes p ~width ~cols:(gather_cols ~panel_width:width ~ws p buf)
      ~rows:(fun pass ->
        pass p buf
          ~tmp:(Ws.tmp ws (Plan.scratch_elements p))
          ~idx:(Ws.idx ws p.n) ~row0:0 ~lo:0 ~hi:p.m)

  let c2r ?panel_width ?ws p buf =
    serial ~passes:c2r_passes "Kernels_f64.c2r" ?panel_width ?ws p buf

  let r2c ?panel_width ?ws p buf =
    serial ~passes:r2c_passes "Kernels_f64.r2c" ?panel_width ?ws p buf

  let transpose ?ws ?(order = Layout.Row_major) ~m ~n buf =
    let rm, rn =
      match order with Layout.Row_major -> (m, n) | Layout.Col_major -> (n, m)
    in
    if rm > rn then c2r ?ws (Plan.make ~m:rm ~n:rn) buf
    else r2c ?ws (Plan.make ~m:rn ~n:rm) buf
end

include Engine_of (Phases)

(* Checked-access shadow mode: the same phase bodies with every matrix
   and scratch access bounds-verified and every generated index
   range-verified, raising [Checked_access.Violation] instead of
   corrupting memory. Selected by tests and [xpose check --shadow]. *)
module Checked = struct
  let who = "Kernels_f64.Checked"

  let cget (buf : buf) what i =
    Checked_access.bounds ~who ~what ~len:(dim buf) i;
    unsafe_get buf i

  let cset (buf : buf) what i v =
    Checked_access.bounds ~who ~what ~len:(dim buf) i;
    unsafe_set buf i v

  let cidx what ~bound v =
    if v < 0 || v >= bound then
      Checked_access.violation "%s: %s %d outside [0, %d)" who what v bound;
    v

  module Phases = struct
    (* The raw stage-and-gather movers over the same {!col_walk_row}
       offsets, every generated offset range-checked before use. *)
    let gather_cols (p : Plan.t) (buf : buf) ~(stage : buf) ~idx ~map ~pitch
        ~col0 ~width ~lo ~hi =
      Checked_access.distinct ~who ~what:"column stage" stage buf;
      let m = p.m in
      over_stagings p buf ~stage ~idx ~map ~pitch ~col0 ~width ~lo ~hi
        (fun cw ~c ->
          let w = cw.w in
          for i = 0 to m - 1 do
            for jj = 0 to w - 1 do
              cset stage "col stage write" ((i * w) + jj)
                (cget buf "col panel read" ((i * pitch) + c + jj))
            done
          done;
          for i = 0 to m - 1 do
            col_walk_row cw i idx;
            for jj = 0 to w - 1 do
              let src = cidx "stage offset" ~bound:(m * w) idx.(jj) in
              cset buf "col panel write" ((i * pitch) + c + jj)
                (cget stage "col stage read" src)
            done
          done)

    let writeback_row (buf : buf) ~(tmp : buf) ~base ~n =
      for j = 0 to n - 1 do
        cset buf "row writeback" (base + j) (cget tmp "row scratch read" j)
      done

    (* The raw movers over the same {!Plan.walk} rows, every generated
       index range-checked before use. *)
    let gather_rows ~inverse (p : Plan.t) (buf : buf) ~(tmp : buf) ~idx ~row0
        ~lo ~hi =
      Checked_access.distinct ~who ~what:"row-shuffle scratch" tmp buf;
      let n = p.n in
      let what = if inverse then "d'_inv column" else "d' column" in
      let w = Plan.walk p ~row:lo in
      for i = lo to hi - 1 do
        if inverse then Plan.walk_d'_inv w idx else Plan.walk_d' w idx;
        let base = (i - row0) * n in
        for j = 0 to n - 1 do
          let src = cidx what ~bound:n idx.(j) in
          cset tmp "row scratch write" j (cget buf "row read" (base + src))
        done;
        writeback_row buf ~tmp ~base ~n
      done

    let row_shuffle_gather = gather_rows ~inverse:true
    let row_shuffle_ungather = gather_rows ~inverse:false
  end

  include Engine_of (Phases)
end

(* The engine's passes are the stage-and-gather column pass and the walk
   row passes; their summaries are sub-range quantified, so one
   certificate covers the serial, pool, batch and out-of-core schedules.
   The trace cross-validation (test/check suite_access) keeps them
   honest: the checked twin's recorded accesses must fall inside these
   summaries and cover every element of every column pass. *)
let c2r_access =
  Access.Passes.[ stage_rotate; row_shuffle_gather; stage_shuffle ]

let r2c_access =
  Access.Passes.[ stage_unshuffle; row_shuffle_ungather; stage_rotate ]

let stage_access =
  Access.Passes.[ stage_rotate; stage_shuffle; stage_unshuffle ]
