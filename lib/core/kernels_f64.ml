type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

open Bigarray.Array1

let check_args (p : Plan.t) (buf : buf) ~(tmp : buf) =
  if dim buf <> p.m * p.n then
    invalid_arg "Kernels_f64: buffer size does not match plan";
  if dim tmp < Plan.scratch_elements p then
    invalid_arg "Kernels_f64: scratch too small"

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

  let rotate_columns (p : Plan.t) (buf : buf) ~(tmp : buf) ~amount ~lo ~hi =
    let m = p.m and n = p.n in
    for j = lo to hi - 1 do
      let k = Intmath.emod (amount j) m in
      if k <> 0 then begin
        for i = 0 to m - k - 1 do
          unsafe_set tmp i (unsafe_get buf (((i + k) * n) + j))
        done;
        for i = m - k to m - 1 do
          unsafe_set tmp i (unsafe_get buf (((i + k - m) * n) + j))
        done;
        for i = 0 to m - 1 do
          unsafe_set buf ((i * n) + j) (unsafe_get tmp i)
        done
      end
    done

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

  let row_shuffle_scatter (p : Plan.t) (buf : buf) ~(tmp : buf) ~idx ~row0 ~lo
      ~hi =
    let n = p.n in
    let w = Plan.walk p ~row:lo in
    for i = lo to hi - 1 do
      Plan.walk_d' w idx;
      let base = (i - row0) * n in
      for j = 0 to n - 1 do
        unsafe_set tmp (Array.unsafe_get idx j) (unsafe_get buf (base + j))
      done;
      writeback_row buf ~tmp ~base ~n
    done

  let col_shuffle_gather (p : Plan.t) (buf : buf) ~(tmp : buf) ~lo ~hi =
    let m = p.m and n = p.n in
    for j = lo to hi - 1 do
      for i = 0 to m - 1 do
        unsafe_set tmp i (unsafe_get buf ((Plan.s' p ~j i * n) + j))
      done;
      for i = 0 to m - 1 do
        unsafe_set buf ((i * n) + j) (unsafe_get tmp i)
      done
    done

  let col_shuffle_ungather (p : Plan.t) (buf : buf) ~(tmp : buf) ~lo ~hi =
    let m = p.m and n = p.n in
    for j = lo to hi - 1 do
      for i = 0 to m - 1 do
        unsafe_set tmp i (unsafe_get buf ((Plan.s'_inv p ~j i * n) + j))
      done;
      for i = 0 to m - 1 do
        unsafe_set buf ((i * n) + j) (unsafe_get tmp i)
      done
    done

  let permute_rows (p : Plan.t) (buf : buf) ~(tmp : buf) ~index ~lo ~hi =
    let m = p.m and n = p.n in
    let idx = Array.init m index in
    for j = lo to hi - 1 do
      for i = 0 to m - 1 do
        unsafe_set tmp i (unsafe_get buf ((Array.unsafe_get idx i * n) + j))
      done;
      for i = 0 to m - 1 do
        unsafe_set buf ((i * n) + j) (unsafe_get tmp i)
      done
    done
end

(* Same per-pass observability hook as Algo.Make (one span per pass;
   nothing per element, so the specialized kernels keep their speed). *)
let obs_pass (p : Plan.t) name ~pred f =
  Xpose_obs.Tracer.pass ~name ~rows:p.m ~cols:p.n ~pred_touches:pred
    ~scratch_elems:(Plan.scratch_elements p) f

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

  val rotate_columns :
    Plan.t -> buf -> tmp:buf -> amount:(int -> int) -> lo:int -> hi:int -> unit

  val row_shuffle_gather : row_pass
  val row_shuffle_scatter : row_pass
  val row_shuffle_ungather : row_pass
  val col_shuffle_gather : Plan.t -> buf -> tmp:buf -> lo:int -> hi:int -> unit
  val col_shuffle_ungather : Plan.t -> buf -> tmp:buf -> lo:int -> hi:int -> unit

  val permute_rows :
    Plan.t -> buf -> tmp:buf -> index:(int -> int) -> lo:int -> hi:int -> unit
end

module type ENGINE = sig
  val c2r :
    ?variant:Algo.c2r_variant ->
    ?idx:int array ->
    Plan.t ->
    buf ->
    tmp:buf ->
    unit

  val r2c :
    ?variant:Algo.r2c_variant ->
    ?idx:int array ->
    Plan.t ->
    buf ->
    tmp:buf ->
    unit

  val transpose :
    ?ws:Workspace.F64.t -> ?order:Layout.order -> m:int -> n:int -> buf -> unit
end

(* The walk's index row: the caller's, or one per call. *)
let row_idx (p : Plan.t) = function
  | Some idx -> idx
  | None -> Array.make p.n 0

(* The engine orchestration (pass order, variant dispatch, observability)
   is written once and instantiated with both the raw and the checked
   phases. Without flambda a functor application costs an indirect call,
   but only one per *pass* — never per element — so the raw instantiation
   keeps its specialized speed. *)
module Engine_of (P : PHASES) = struct
  let c2r ?(variant = Algo.C2r_gather) ?idx (p : Plan.t) buf ~tmp =
    check_args p buf ~tmp;
    let m = p.m and n = p.n in
    if m = 1 || n = 1 then ()
    else begin
      let idx = row_idx p idx in
      if not (Plan.coprime p) then begin
        let amount = Plan.rotate_amount p in
        obs_pass p "rotate_pre" ~pred:(Pass_cost.rotate p ~amount) (fun () ->
            P.rotate_columns p buf ~tmp ~amount ~lo:0 ~hi:n)
      end;
      (match variant with
      | Algo.C2r_scatter ->
          obs_pass p "row_shuffle" ~pred:(Pass_cost.shuffle p) (fun () ->
              P.row_shuffle_scatter p buf ~tmp ~idx ~row0:0 ~lo:0 ~hi:m)
      | Algo.C2r_gather | Algo.C2r_decomposed ->
          obs_pass p "row_shuffle" ~pred:(Pass_cost.shuffle p) (fun () ->
              P.row_shuffle_gather p buf ~tmp ~idx ~row0:0 ~lo:0 ~hi:m));
      match variant with
      | Algo.C2r_scatter | Algo.C2r_gather ->
          obs_pass p "col_shuffle" ~pred:(Pass_cost.shuffle p) (fun () ->
              P.col_shuffle_gather p buf ~tmp ~lo:0 ~hi:n)
      | Algo.C2r_decomposed ->
          let amount j = j in
          obs_pass p "col_rotate" ~pred:(Pass_cost.rotate p ~amount) (fun () ->
              P.rotate_columns p buf ~tmp ~amount ~lo:0 ~hi:n);
          obs_pass p "row_permute" ~pred:(Pass_cost.permute_rows p) (fun () ->
              P.permute_rows p buf ~tmp ~index:(Plan.q p) ~lo:0 ~hi:n)
    end

  let r2c ?(variant = Algo.R2c_fused) ?idx (p : Plan.t) buf ~tmp =
    check_args p buf ~tmp;
    let m = p.m and n = p.n in
    if m = 1 || n = 1 then ()
    else begin
      let idx = row_idx p idx in
      (match variant with
      | Algo.R2c_fused ->
          obs_pass p "col_unshuffle" ~pred:(Pass_cost.shuffle p) (fun () ->
              P.col_shuffle_ungather p buf ~tmp ~lo:0 ~hi:n)
      | Algo.R2c_decomposed ->
          obs_pass p "row_unpermute" ~pred:(Pass_cost.permute_rows p)
            (fun () ->
              P.permute_rows p buf ~tmp ~index:(Plan.q_inv p) ~lo:0 ~hi:n);
          let amount j = -j in
          obs_pass p "col_unrotate" ~pred:(Pass_cost.rotate p ~amount)
            (fun () -> P.rotate_columns p buf ~tmp ~amount ~lo:0 ~hi:n));
      obs_pass p "row_unshuffle" ~pred:(Pass_cost.shuffle p) (fun () ->
          P.row_shuffle_ungather p buf ~tmp ~idx ~row0:0 ~lo:0 ~hi:m);
      if not (Plan.coprime p) then begin
        let amount j = -Plan.rotate_amount p j in
        obs_pass p "rotate_post" ~pred:(Pass_cost.rotate p ~amount) (fun () ->
            P.rotate_columns p buf ~tmp ~amount ~lo:0 ~hi:n)
      end
    end

  let transpose ?ws ?(order = Layout.Row_major) ~m ~n buf =
    let rm, rn =
      match order with Layout.Row_major -> (m, n) | Layout.Col_major -> (n, m)
    in
    (* Batch callers pass a workspace so the Theorem-6 scratch and the
       walk's index row are allocated once per worker instead of once per
       matrix. *)
    let len = max rm rn in
    let tmp, idx =
      match ws with
      | Some ws -> (Workspace.F64.tmp ws len, Some (Workspace.F64.idx ws len))
      | None ->
          (Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len, None)
    in
    if rm > rn then c2r ?idx (Plan.make ~m:rm ~n:rn) buf ~tmp
    else r2c ?idx (Plan.make ~m:rn ~n:rm) buf ~tmp
end

include Engine_of (Phases)

(* Checked-access shadow mode: the same phase bodies with every matrix
   and scratch access bounds-verified and every index-equation result
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

    let rotate_columns (p : Plan.t) (buf : buf) ~(tmp : buf) ~amount ~lo ~hi =
      Checked_access.distinct ~who ~what:"rotate scratch" tmp buf;
      let m = p.m and n = p.n in
      for j = lo to hi - 1 do
        let k = Intmath.emod (amount j) m in
        if k <> 0 then begin
          for i = 0 to m - k - 1 do
            cset tmp "rotate scratch write" i
              (cget buf "rotate read" (((i + k) * n) + j))
          done;
          for i = m - k to m - 1 do
            cset tmp "rotate scratch write" i
              (cget buf "rotate read" (((i + k - m) * n) + j))
          done;
          for i = 0 to m - 1 do
            cset buf "rotate write" ((i * n) + j)
              (cget tmp "rotate scratch read" i)
          done
        end
      done

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

    let row_shuffle_scatter (p : Plan.t) (buf : buf) ~(tmp : buf) ~idx ~row0
        ~lo ~hi =
      Checked_access.distinct ~who ~what:"row-shuffle scratch" tmp buf;
      let n = p.n in
      let w = Plan.walk p ~row:lo in
      for i = lo to hi - 1 do
        Plan.walk_d' w idx;
        let base = (i - row0) * n in
        for j = 0 to n - 1 do
          let dst = cidx "d' column" ~bound:n idx.(j) in
          cset tmp "row scratch write" dst (cget buf "row read" (base + j))
        done;
        writeback_row buf ~tmp ~base ~n
      done

    let col_shuffle_gather (p : Plan.t) (buf : buf) ~(tmp : buf) ~lo ~hi =
      Checked_access.distinct ~who ~what:"col-shuffle scratch" tmp buf;
      let m = p.m and n = p.n in
      for j = lo to hi - 1 do
        for i = 0 to m - 1 do
          let src = cidx "s' row" ~bound:m (Plan.s' p ~j i) in
          cset tmp "col scratch write" i (cget buf "col read" ((src * n) + j))
        done;
        for i = 0 to m - 1 do
          cset buf "col write" ((i * n) + j) (cget tmp "col scratch read" i)
        done
      done

    let col_shuffle_ungather (p : Plan.t) (buf : buf) ~(tmp : buf) ~lo ~hi =
      Checked_access.distinct ~who ~what:"col-shuffle scratch" tmp buf;
      let m = p.m and n = p.n in
      for j = lo to hi - 1 do
        for i = 0 to m - 1 do
          let src = cidx "s'_inv row" ~bound:m (Plan.s'_inv p ~j i) in
          cset tmp "col scratch write" i (cget buf "col read" ((src * n) + j))
        done;
        for i = 0 to m - 1 do
          cset buf "col write" ((i * n) + j) (cget tmp "col scratch read" i)
        done
      done

    let permute_rows (p : Plan.t) (buf : buf) ~(tmp : buf) ~index ~lo ~hi =
      Checked_access.distinct ~who ~what:"permute scratch" tmp buf;
      let m = p.m and n = p.n in
      let idx = Array.init m (fun i -> cidx "row index" ~bound:m (index i)) in
      for j = lo to hi - 1 do
        for i = 0 to m - 1 do
          cset tmp "permute scratch write" i
            (cget buf "permute read" ((idx.(i) * n) + j))
        done;
        for i = 0 to m - 1 do
          cset buf "permute write" ((i * n) + j)
            (cget tmp "permute scratch read" i)
        done
      done
  end

  include Engine_of (Phases)
end

(* The specialized kernels make the same accesses as Algo.Make -- the row
   passes index by Plan.walk, which the tests check equal to the
   per-element maps -- so they share its access summaries. *)
let c2r_access = Algo.c2r_access
let r2c_access = Algo.r2c_access
