open Xpose_core

type buf = Storage.Float64.t

open Bigarray.Array1
module Ws = Workspace.F64
module G = Fused.Make (Storage.Float64)

let default_width = G.default_width
let default_block_rows = G.default_block_rows
let supported_widths = G.supported_widths
let cycles ~m ~index = G.cycles ~whom:"Fused_f64" ~m ~index
let get_ws = function Some ws -> ws | None -> Ws.create ()

(* -- shared pure index math ---------------------------------------------- *)

let pick_residuals ~m ~lo ~w ~amount ~(res : int array) anchor =
  let k = Intmath.emod (amount anchor) m in
  let maxres = ref 0 in
  for jj = 0 to w - 1 do
    let r = Intmath.emod (amount (lo + jj) - k) m in
    res.(jj) <- r;
    if r > !maxres then maxres := r
  done;
  (k, !maxres)

let check_range whom ~n ~lo ~hi =
  if lo < 0 || hi > n || lo > hi then invalid_arg (whom ^ ": bad column range")

let rotate_panel_pred (p : Plan.t) ~amount ~lo ~w =
  let moved = ref false in
  for jj = 0 to w - 1 do
    if Intmath.emod (amount (lo + jj)) p.m <> 0 then moved := true
  done;
  if !moved then Pass_cost.fused_panel p ~width:w else 0

let cycle_rows cycles =
  Array.fold_left (fun acc chain -> acc + Array.length chain) 0 cycles

let obs_pass (p : Plan.t) name ~pred f =
  Xpose_obs.Tracer.pass ~name ~rows:p.m ~cols:p.n ~pred_touches:pred
    ~scratch_elems:(Plan.scratch_elements p) f

let check_buf whom (p : Plan.t) (buf : buf) =
  if dim buf <> p.m * p.n then
    invalid_arg (whom ^ ": buffer size does not match plan")

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

(* -- panel primitives ---------------------------------------------------- *)

(* The per-element panel work. The raw implementation ({!Prims}) and its
   checked twin ({!Checked_prims}) both satisfy this; {!Engine_of} builds
   the sweeps, serial engines, pool drivers, and batch driver from
   either. *)
module type PRIMS = sig
  val rotate_panel :
    tier:Tune_params.kernel_tier ->
    block_rows:int ->
    Ws.t ->
    Plan.t ->
    buf ->
    amount:(int -> int) ->
    res:int array ->
    lo:int ->
    w:int ->
    unit

  val permute_panel :
    tier:Tune_params.kernel_tier ->
    Ws.t ->
    buf ->
    n:int ->
    cycles:int array array ->
    lo:int ->
    w:int ->
    unit

  val row_shuffle_gather : Kernels_f64.row_pass
  val row_shuffle_ungather : Kernels_f64.row_pass
end

module Prims = struct
  (* -- monomorphic sub-row primitives -----------------------------------
     Explicit unsafe loops instead of [Bigarray.Array1.sub]+[blit]: the sub
     views are heap allocations per transfer, and for the 16-element panel
     width a direct loop vectorizes at least as well. Under an mk tier
     ([mk = true]) the sub-row moves go through the unrolled
     {!Microkernel.copy_span} chunks instead. *)

  let copy_subrow ~mk (buf : buf) ~n ~lo ~w ~src ~dst =
    let sb = (src * n) + lo and db = (dst * n) + lo in
    if mk then Microkernel.copy_span ~src:buf ~soff:sb ~dst:buf ~doff:db ~len:w
    else
      for jj = 0 to w - 1 do
        unsafe_set buf (db + jj) (unsafe_get buf (sb + jj))
      done

  let save_subrow ~mk (buf : buf) ~n ~lo ~w ~row (line : buf) =
    let base = (row * n) + lo in
    if mk then
      Microkernel.copy_span ~src:buf ~soff:base ~dst:line ~doff:0 ~len:w
    else
      for jj = 0 to w - 1 do
        unsafe_set line jj (unsafe_get buf (base + jj))
      done

  let restore_subrow ~mk (line : buf) (buf : buf) ~n ~lo ~w ~row =
    let base = (row * n) + lo in
    if mk then
      Microkernel.copy_span ~src:line ~soff:0 ~dst:buf ~doff:base ~len:w
    else
      for jj = 0 to w - 1 do
        unsafe_set buf (base + jj) (unsafe_get line jj)
      done

  (* Coarse phase of §4.6: cycle-following rotation of the whole panel by a
     shared amount k (gcd(m, k) analytic cycles). *)
  let rotate_coarse ~mk (buf : buf) ~m ~n ~lo ~w ~k ~line =
    if k <> 0 then begin
      let cycles = Intmath.gcd m k in
      for y = 0 to cycles - 1 do
        save_subrow ~mk buf ~n ~lo ~w ~row:y line;
        let i = ref y in
        let continue = ref true in
        while !continue do
          let src = !i + k in
          let src = if src >= m then src - m else src in
          if src = y then begin
            restore_subrow ~mk line buf ~n ~lo ~w ~row:!i;
            continue := false
          end
          else begin
            copy_subrow ~mk buf ~n ~lo ~w ~src ~dst:!i;
            i := src
          end
        done
      done
    end

  (* Per-panel strength reduction shared by the fine-phase gathers:
     [cb.(jj) = res.(jj)*n + lo + jj], so the source index of panel
     element (i, jj) is [i*n + cb.(jj)] — one add per element instead of
     a multiply, and the row term hoists out of the inner loop. *)
  let column_bases ~n ~lo ~w ~(res : int array) =
    let cb = Array.make w 0 in
    for jj = 0 to w - 1 do
      cb.(jj) <- (res.(jj) * n) + lo + jj
    done;
    cb

  let save_head (buf : buf) ~n ~lo ~w ~maxres ~(head : buf) =
    let base = ref lo in
    let hb = ref 0 in
    for _r = 0 to maxres - 1 do
      let b = !base and h = !hb in
      for jj = 0 to w - 1 do
        unsafe_set head (h + jj) (unsafe_get buf (b + jj))
      done;
      base := !base + n;
      hb := !hb + w
    done

  (* Scalar gather of strip rows [t0, rows) (absolute rows [r0+t0,
     r0+rows)) into the block buffer, wrapped rows from the saved head.
     Row bases are strength-reduced: the only per-element work is the
     wrap test and one add. *)
  let gather_scalar (buf : buf) ~m ~n ~w ~(res : int array) ~(cb : int array)
      ~r0 ~t0 ~rows ~(head : buf) ~(block : buf) =
    let ib = ref ((r0 + t0) * n) in
    let tb = ref (t0 * w) in
    for t = t0 to rows - 1 do
      let i = r0 + t in
      let limit = m - 1 - i in
      let b = !ib and d = !tb in
      for jj = 0 to w - 1 do
        let rv = Array.unsafe_get res jj in
        let v =
          if rv > limit then unsafe_get head (((i + rv - m) * w) + jj)
          else unsafe_get buf (b + Array.unsafe_get cb jj)
        in
        unsafe_set block (d + jj) v
      done;
      ib := !ib + n;
      tb := !tb + w
    done

  let writeback_scalar (buf : buf) ~n ~lo ~w ~r0 ~rows ~(block : buf) =
    let base = ref ((r0 * n) + lo) in
    let tb = ref 0 in
    for _t = 0 to rows - 1 do
      let b = !base and s = !tb in
      for jj = 0 to w - 1 do
        unsafe_set buf (b + jj) (unsafe_get block (s + jj))
      done;
      base := !base + n;
      tb := !tb + w
    done

  (* Fine phase of §4.6: per-column residual rotations bounded by [w], read
     in strips of [block_rows] rows through the block buffer; wrapped rows
     come from the saved head. *)
  let rotate_fine (buf : buf) ~m ~n ~lo ~w ~(res : int array) ~maxres
      ~block_rows ~(head : buf) ~(block : buf) =
    if maxres > 0 then begin
      let cb = column_bases ~n ~lo ~w ~res in
      save_head buf ~n ~lo ~w ~maxres ~head;
      let r = ref 0 in
      while !r < m do
        let rows = min block_rows (m - !r) in
        gather_scalar buf ~m ~n ~w ~res ~cb ~r0:!r ~t0:0 ~rows ~head ~block;
        writeback_scalar buf ~n ~lo ~w ~r0:!r ~rows ~block;
        r := !r + rows
      done
    end

  (* Micro-kernel fine phase: identical movement, but rows whose whole
     [bk]-row chunk stays unwrapped ([r0 + t + bk - 1 + maxres < m])
     gather through fully unrolled strided column movers — one
     {!Microkernel.col8}/{!col16} call per panel column, no per-element
     wrap test — and the strip writes back through unrolled
     {!Microkernel.copy_span} rows. The strip tail and the wrap region
     take the strength-reduced scalar path. *)
  let rotate_fine_mk ~bk (buf : buf) ~m ~n ~lo ~w ~(res : int array) ~maxres
      ~block_rows ~(head : buf) ~(block : buf) =
    if maxres > 0 then begin
      let cb = column_bases ~n ~lo ~w ~res in
      save_head buf ~n ~lo ~w ~maxres ~head;
      let r = ref 0 in
      while !r < m do
        let rows = min block_rows (m - !r) in
        (* chunk start t admits the unrolled movers iff every source row
           of its bk rows is below m: t <= m - maxres - bk - r0 *)
        let tmax = min (rows - bk) (m - maxres - bk - !r) in
        let t = ref 0 in
        while !t <= tmax do
          let ib = (!r + !t) * n in
          let tb = !t * w in
          if bk = 8 then
            for jj = 0 to w - 1 do
              Microkernel.col8 ~src:buf
                ~soff:(ib + Array.unsafe_get cb jj)
                ~sstride:n ~dst:block ~doff:(tb + jj) ~dstride:w
            done
          else
            for jj = 0 to w - 1 do
              Microkernel.col16 ~src:buf
                ~soff:(ib + Array.unsafe_get cb jj)
                ~sstride:n ~dst:block ~doff:(tb + jj) ~dstride:w
            done;
          t := !t + bk
        done;
        if !t < rows then
          gather_scalar buf ~m ~n ~w ~res ~cb ~r0:!r ~t0:!t ~rows ~head ~block;
        let base = ref ((!r * n) + lo) in
        let tb = ref 0 in
        for _t = 0 to rows - 1 do
          Microkernel.copy_span ~src:block ~soff:!tb ~dst:buf ~doff:!base
            ~len:w;
          base := !base + n;
          tb := !tb + w
        done;
        r := !r + rows
      done
    end

  let rotate_panel ~tier ~block_rows ws (p : Plan.t) (buf : buf) ~amount ~res
      ~lo ~w =
    let m = p.m and n = p.n in
    let k, maxres =
      let k, mr = pick_residuals ~m ~lo ~w ~amount ~res lo in
      if mr < w then (k, mr)
      else pick_residuals ~m ~lo ~w ~amount ~res (lo + w - 1)
    in
    if maxres < w && maxres < m then begin
      let mk = tier <> Tune_params.Scalar in
      rotate_coarse ~mk buf ~m ~n ~lo ~w ~k ~line:(Ws.line ws w);
      let head = Ws.head ws (w * w) in
      let block = Ws.block ws (block_rows * w) in
      match tier with
      | Tune_params.Scalar ->
          rotate_fine buf ~m ~n ~lo ~w ~res ~maxres ~block_rows ~head ~block
      | Tune_params.Mk8 ->
          rotate_fine_mk ~bk:8 buf ~m ~n ~lo ~w ~res ~maxres ~block_rows ~head
            ~block
      | Tune_params.Mk16 ->
          rotate_fine_mk ~bk:16 buf ~m ~n ~lo ~w ~res ~maxres ~block_rows
            ~head ~block
    end
    else
      Kernels_f64.Phases.rotate_columns p buf ~tmp:(Ws.tmp ws m) ~amount ~lo
        ~hi:(lo + w)

  let permute_panel ~tier ws (buf : buf) ~n ~cycles ~lo ~w =
    let mk = tier <> Tune_params.Scalar in
    let line = Ws.line ws w in
    Array.iter
      (fun (chain : int array) ->
        let len = Array.length chain in
        save_subrow ~mk buf ~n ~lo ~w ~row:chain.(0) line;
        for t = 0 to len - 2 do
          copy_subrow ~mk buf ~n ~lo ~w ~src:chain.(t + 1) ~dst:chain.(t)
        done;
        restore_subrow ~mk line buf ~n ~lo ~w ~row:chain.(len - 1))
      cycles

  let row_shuffle_gather = Kernels_f64.Phases.row_shuffle_gather
  let row_shuffle_ungather = Kernels_f64.Phases.row_shuffle_ungather
end

(* Checked twins of the panel primitives: every access to the matrix and
   to the line/head/block workspace buffers is bounds-verified, and the
   workspace buffers are verified distinct from the matrix
   ([Checked_access.Violation] on the first bad access). *)
module Checked_prims = struct
  let who = "Fused_f64.Checked"

  let cget (buf : buf) what i =
    Checked_access.bounds ~who ~what ~len:(dim buf) i;
    unsafe_get buf i

  let cset (buf : buf) what i v =
    Checked_access.bounds ~who ~what ~len:(dim buf) i;
    unsafe_set buf i v

  (* The mk-tier twins route the same tile structure through
     {!Microkernel.Checked}: every unrolled mover access is bounds
     verified, so the shadow run exercises exactly the tier the raw
     engine would. *)
  let copy_subrow ~mk (buf : buf) ~n ~lo ~w ~src ~dst =
    let sb = (src * n) + lo and db = (dst * n) + lo in
    if mk then
      Microkernel.Checked.copy_span ~src:buf ~soff:sb ~dst:buf ~doff:db ~len:w
    else
      for jj = 0 to w - 1 do
        cset buf "panel copy write" (db + jj)
          (cget buf "panel copy read" (sb + jj))
      done

  let save_subrow ~mk (buf : buf) ~n ~lo ~w ~row (line : buf) =
    let base = (row * n) + lo in
    if mk then
      Microkernel.Checked.copy_span ~src:buf ~soff:base ~dst:line ~doff:0
        ~len:w
    else
      for jj = 0 to w - 1 do
        cset line "panel line write" jj (cget buf "panel save read" (base + jj))
      done

  let restore_subrow ~mk (line : buf) (buf : buf) ~n ~lo ~w ~row =
    let base = (row * n) + lo in
    if mk then
      Microkernel.Checked.copy_span ~src:line ~soff:0 ~dst:buf ~doff:base
        ~len:w
    else
      for jj = 0 to w - 1 do
        cset buf "panel restore write" (base + jj)
          (cget line "panel line read" jj)
      done

  let rotate_coarse ~mk (buf : buf) ~m ~n ~lo ~w ~k ~line =
    Checked_access.distinct ~who ~what:"panel line buffer" line buf;
    if k <> 0 then begin
      let cycles = Intmath.gcd m k in
      for y = 0 to cycles - 1 do
        save_subrow ~mk buf ~n ~lo ~w ~row:y line;
        let i = ref y in
        let continue = ref true in
        while !continue do
          let src = !i + k in
          let src = if src >= m then src - m else src in
          if src = y then begin
            restore_subrow ~mk line buf ~n ~lo ~w ~row:!i;
            continue := false
          end
          else begin
            copy_subrow ~mk buf ~n ~lo ~w ~src ~dst:!i;
            i := src
          end
        done
      done
    end

  let gather_scalar (buf : buf) ~m ~n ~lo ~w ~(res : int array) ~r0 ~t0 ~rows
      ~(head : buf) ~(block : buf) =
    for t = t0 to rows - 1 do
      let i = r0 + t in
      for jj = 0 to w - 1 do
        let src = i + res.(jj) in
        let v =
          if src >= m then cget head "panel head read" (((src - m) * w) + jj)
          else cget buf "panel fine read" ((src * n) + lo + jj)
        in
        cset block "panel block write" ((t * w) + jj) v
      done
    done

  let rotate_fine ~tier (buf : buf) ~m ~n ~lo ~w ~(res : int array) ~maxres
      ~block_rows ~(head : buf) ~(block : buf) =
    Checked_access.distinct ~who ~what:"panel head buffer" head buf;
    Checked_access.distinct ~who ~what:"panel block buffer" block buf;
    let bk = Tune_params.tier_block tier in
    if maxres > 0 then begin
      for r = 0 to maxres - 1 do
        let base = (r * n) + lo in
        for jj = 0 to w - 1 do
          cset head "panel head write" ((r * w) + jj)
            (cget buf "panel fine read" (base + jj))
        done
      done;
      let r = ref 0 in
      while !r < m do
        let rows = min block_rows (m - !r) in
        let t = ref 0 in
        if bk > 1 then begin
          let tmax = min (rows - bk) (m - maxres - bk - !r) in
          while !t <= tmax do
            let ib = (!r + !t) * n in
            let tb = !t * w in
            for jj = 0 to w - 1 do
              let soff = ib + (res.(jj) * n) + lo + jj in
              if bk = 8 then
                Microkernel.Checked.col8 ~src:buf ~soff ~sstride:n ~dst:block
                  ~doff:(tb + jj) ~dstride:w
              else
                Microkernel.Checked.col16 ~src:buf ~soff ~sstride:n ~dst:block
                  ~doff:(tb + jj) ~dstride:w
            done;
            t := !t + bk
          done
        end;
        if !t < rows then
          gather_scalar buf ~m ~n ~lo ~w ~res ~r0:!r ~t0:!t ~rows ~head ~block;
        for t = 0 to rows - 1 do
          let base = ((!r + t) * n) + lo in
          if bk > 1 then
            Microkernel.Checked.copy_span ~src:block ~soff:(t * w) ~dst:buf
              ~doff:base ~len:w
          else
            for jj = 0 to w - 1 do
              cset buf "panel fine write" (base + jj)
                (cget block "panel block read" ((t * w) + jj))
            done
        done;
        r := !r + rows
      done
    end

  let rotate_panel ~tier ~block_rows ws (p : Plan.t) (buf : buf) ~amount ~res
      ~lo ~w =
    let m = p.m and n = p.n in
    let k, maxres =
      let k, mr = pick_residuals ~m ~lo ~w ~amount ~res lo in
      if mr < w then (k, mr)
      else pick_residuals ~m ~lo ~w ~amount ~res (lo + w - 1)
    in
    if maxres < w && maxres < m then begin
      let mk = tier <> Tune_params.Scalar in
      rotate_coarse ~mk buf ~m ~n ~lo ~w ~k ~line:(Ws.line ws w);
      rotate_fine ~tier buf ~m ~n ~lo ~w ~res ~maxres ~block_rows
        ~head:(Ws.head ws (w * w))
        ~block:(Ws.block ws (block_rows * w))
    end
    else
      Kernels_f64.Checked.Phases.rotate_columns p buf ~tmp:(Ws.tmp ws m)
        ~amount ~lo ~hi:(lo + w)

  let permute_panel ~tier ws (buf : buf) ~n ~cycles ~lo ~w =
    let mk = tier <> Tune_params.Scalar in
    let line = Ws.line ws w in
    Checked_access.distinct ~who ~what:"panel line buffer" line buf;
    Array.iter
      (fun (chain : int array) ->
        let len = Array.length chain in
        save_subrow ~mk buf ~n ~lo ~w ~row:chain.(0) line;
        for t = 0 to len - 2 do
          copy_subrow ~mk buf ~n ~lo ~w ~src:chain.(t + 1) ~dst:chain.(t)
        done;
        restore_subrow ~mk line buf ~n ~lo ~w ~row:chain.(len - 1))
      cycles

  let row_shuffle_gather = Kernels_f64.Checked.Phases.row_shuffle_gather
  let row_shuffle_ungather = Kernels_f64.Checked.Phases.row_shuffle_ungather
end

(* -- the engine over either primitive set -------------------------------- *)

module type ENGINE = sig
  val rotate_columns :
    ?panel_width:int ->
    ?block_rows:int ->
    ?tier:Tune_params.kernel_tier ->
    ?ws:Ws.t ->
    ?lo:int ->
    ?hi:int ->
    Plan.t ->
    buf ->
    amount:(int -> int) ->
    unit

  val permute_cols :
    ?panel_width:int ->
    ?tier:Tune_params.kernel_tier ->
    ?ws:Ws.t ->
    ?lo:int ->
    ?hi:int ->
    Plan.t ->
    buf ->
    cycles:int array array ->
    unit

  val c2r_cols :
    ?panel_width:int ->
    ?block_rows:int ->
    ?tier:Tune_params.kernel_tier ->
    ?ws:Ws.t ->
    ?lo:int ->
    ?hi:int ->
    Plan.t ->
    buf ->
    cycles:int array array ->
    unit

  val r2c_cols :
    ?panel_width:int ->
    ?block_rows:int ->
    ?tier:Tune_params.kernel_tier ->
    ?ws:Ws.t ->
    ?lo:int ->
    ?hi:int ->
    Plan.t ->
    buf ->
    cycles:int array array ->
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

(* Sweeps, serial engines, pool drivers, and the batch driver, written
   once over {!PRIMS}. Without flambda the functor costs an indirect call
   per panel visit / per pass chunk — never per element — so the raw
   instantiation keeps its specialized speed. *)
module Engine_of (P : PRIMS) : ENGINE = struct
  (* -- column-range sweeps ---------------------------------------------- *)

  let rotate_columns ?panel_width:(width = default_width)
      ?(block_rows = default_block_rows) ?(tier = Tune_params.Scalar) ?ws
      ?(lo = 0) ?hi (p : Plan.t) buf ~amount =
    let m = p.m and n = p.n in
    let hi = match hi with Some h -> h | None -> n in
    check_range "Fused_f64.rotate_columns" ~n ~lo ~hi;
    let ws = get_ws ws in
    let res = Array.make width 0 in
    let g = ref lo in
    while !g < hi do
      let lo = !g in
      let w = min width (hi - lo) in
      Xpose_obs.Tracer.panel ~name:"rotate_panel" ~lo ~width:w ~rows:m
        ~pred_touches:(rotate_panel_pred p ~amount ~lo ~w)
        (fun () ->
          P.rotate_panel ~tier ~block_rows ws p buf ~amount ~res ~lo ~w);
      g := lo + w
    done

  let permute_cols ?panel_width:(width = default_width)
      ?(tier = Tune_params.Scalar) ?ws ?(lo = 0) ?hi (p : Plan.t) buf ~cycles =
    let m = p.m and n = p.n in
    let hi = match hi with Some h -> h | None -> n in
    check_range "Fused_f64.permute_cols" ~n ~lo ~hi;
    let ws = get_ws ws in
    let rows = cycle_rows cycles in
    let g = ref lo in
    while !g < hi do
      let lo = !g in
      let w = min width (hi - lo) in
      Xpose_obs.Tracer.panel ~name:"permute_panel" ~lo ~width:w ~rows:m
        ~pred_touches:(2 * rows * w)
        (fun () -> P.permute_panel ~tier ws buf ~n ~cycles ~lo ~w);
      g := lo + w
    done

  (* -- fused panel visits ------------------------------------------------ *)

  let c2r_cols ?panel_width:(width = default_width) ?(block_rows = default_block_rows)
      ?(tier = Tune_params.Scalar) ?ws ?(lo = 0) ?hi (p : Plan.t) buf ~cycles =
    let m = p.m and n = p.n in
    let hi = match hi with Some h -> h | None -> n in
    check_range "Fused_f64.c2r_cols" ~n ~lo ~hi;
    let ws = get_ws ws in
    let res = Array.make width 0 in
    let g = ref lo in
    while !g < hi do
      let lo = !g in
      let w = min width (hi - lo) in
      Xpose_obs.Tracer.panel ~name:"fused_panel" ~lo ~width:w ~rows:m
        ~pred_touches:(Pass_cost.fused_panel p ~width:w)
        (fun () ->
          P.rotate_panel ~tier ~block_rows ws p buf ~amount:(fun j -> j) ~res
            ~lo ~w;
          P.permute_panel ~tier ws buf ~n ~cycles ~lo ~w);
      g := lo + w
    done

  let r2c_cols ?panel_width:(width = default_width) ?(block_rows = default_block_rows)
      ?(tier = Tune_params.Scalar) ?ws ?(lo = 0) ?hi (p : Plan.t) buf ~cycles =
    let m = p.m and n = p.n in
    let hi = match hi with Some h -> h | None -> n in
    check_range "Fused_f64.r2c_cols" ~n ~lo ~hi;
    let ws = get_ws ws in
    let res = Array.make width 0 in
    let g = ref lo in
    while !g < hi do
      let lo = !g in
      let w = min width (hi - lo) in
      Xpose_obs.Tracer.panel ~name:"fused_panel" ~lo ~width:w ~rows:m
        ~pred_touches:(Pass_cost.fused_panel p ~width:w)
        (fun () ->
          P.permute_panel ~tier ws buf ~n ~cycles ~lo ~w;
          P.rotate_panel ~tier ~block_rows ws p buf ~amount:(fun j -> -j) ~res
            ~lo ~w);
      g := lo + w
    done

  (* -- serial engines ---------------------------------------------------- *)

  let c2r ?panel_width:(width = default_width) ?(block_rows = default_block_rows)
      ?(tier = Tune_params.Scalar) ?ws (p : Plan.t) buf =
    check_buf "Fused_f64.c2r" p buf;
    let m = p.m in
    if m = 1 || p.n = 1 then ()
    else begin
      let ws = get_ws ws in
      if not (Plan.coprime p) then begin
        let amount = Plan.rotate_amount p in
        obs_pass p "rotate_pre" ~pred:(Pass_cost.panel_rotate p ~width ~amount)
          (fun () ->
            rotate_columns ~panel_width:width ~block_rows ~tier ~ws p buf
              ~amount)
      end;
      obs_pass p "row_shuffle" ~pred:(Pass_cost.shuffle p) (fun () ->
          P.row_shuffle_gather p buf ~tmp:(row_tmp ws p) ~idx:(row_idx ws p)
            ~row0:0 ~lo:0 ~hi:m);
      let cycles = cycles ~m ~index:(Plan.q p) in
      obs_pass p "fused_col" ~pred:(Pass_cost.fused_col p) (fun () ->
          c2r_cols ~panel_width:width ~block_rows ~tier ~ws p buf ~cycles)
    end

  let r2c ?panel_width:(width = default_width) ?(block_rows = default_block_rows)
      ?(tier = Tune_params.Scalar) ?ws (p : Plan.t) buf =
    check_buf "Fused_f64.r2c" p buf;
    let m = p.m in
    if m = 1 || p.n = 1 then ()
    else begin
      let ws = get_ws ws in
      let cycles = cycles ~m ~index:(Plan.q_inv p) in
      obs_pass p "fused_col" ~pred:(Pass_cost.fused_col p) (fun () ->
          r2c_cols ~panel_width:width ~block_rows ~tier ~ws p buf ~cycles);
      obs_pass p "row_unshuffle" ~pred:(Pass_cost.shuffle p) (fun () ->
          P.row_shuffle_ungather p buf ~tmp:(row_tmp ws p)
            ~idx:(row_idx ws p) ~row0:0 ~lo:0 ~hi:m);
      if not (Plan.coprime p) then begin
        let amount j = -Plan.rotate_amount p j in
        obs_pass p "rotate_post"
          ~pred:(Pass_cost.panel_rotate p ~width ~amount)
          (fun () ->
            rotate_columns ~panel_width:width ~block_rows ~tier ~ws p buf
              ~amount)
      end
    end

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

  let c2r_pool ?panel_width:(width = default_width) ?(block_rows = default_block_rows)
      ?(tier = Tune_params.Scalar) ?workspaces pool (p : Plan.t) buf =
    check_buf "Fused_f64.c2r_pool" p buf;
    let m = p.m and n = p.n in
    if m = 1 || n = 1 then ()
    else begin
      let wss = get_workspaces ?workspaces pool in
      if not (Plan.coprime p) then begin
        let amount = Plan.rotate_amount p in
        obs_pass p "rotate_pre" ~pred:(Pass_cost.panel_rotate p ~width ~amount)
          (fun () ->
            over_columns pool ~n ~width (fun ~chunk ~lo ~hi ->
                rotate_columns ~panel_width:width ~block_rows ~tier
                  ~ws:wss.(chunk) ~lo ~hi p buf ~amount))
      end;
      obs_pass p "row_shuffle" ~pred:(Pass_cost.shuffle p) (fun () ->
          Pool.parallel_chunks pool ~lo:0 ~hi:m (fun ~chunk ~lo ~hi ->
              let ws = wss.(chunk) in
              P.row_shuffle_gather p buf ~tmp:(row_tmp ws p)
                ~idx:(row_idx ws p) ~row0:0 ~lo ~hi));
      let cycles = cycles ~m ~index:(Plan.q p) in
      obs_pass p "fused_col" ~pred:(Pass_cost.fused_col p) (fun () ->
          over_columns pool ~n ~width (fun ~chunk ~lo ~hi ->
              c2r_cols ~panel_width:width ~block_rows ~tier ~ws:wss.(chunk)
                ~lo ~hi p buf ~cycles))
    end

  let r2c_pool ?panel_width:(width = default_width) ?(block_rows = default_block_rows)
      ?(tier = Tune_params.Scalar) ?workspaces pool (p : Plan.t) buf =
    check_buf "Fused_f64.r2c_pool" p buf;
    let m = p.m and n = p.n in
    if m = 1 || n = 1 then ()
    else begin
      let wss = get_workspaces ?workspaces pool in
      let cycles = cycles ~m ~index:(Plan.q_inv p) in
      obs_pass p "fused_col" ~pred:(Pass_cost.fused_col p) (fun () ->
          over_columns pool ~n ~width (fun ~chunk ~lo ~hi ->
              r2c_cols ~panel_width:width ~block_rows ~tier ~ws:wss.(chunk)
                ~lo ~hi p buf ~cycles));
      obs_pass p "row_unshuffle" ~pred:(Pass_cost.shuffle p) (fun () ->
          Pool.parallel_chunks pool ~lo:0 ~hi:m (fun ~chunk ~lo ~hi ->
              let ws = wss.(chunk) in
              P.row_shuffle_ungather p buf ~tmp:(row_tmp ws p)
                ~idx:(row_idx ws p) ~row0:0 ~lo ~hi));
      if not (Plan.coprime p) then begin
        let amount j = -Plan.rotate_amount p j in
        obs_pass p "rotate_post"
          ~pred:(Pass_cost.panel_rotate p ~width ~amount)
          (fun () ->
            over_columns pool ~n ~width (fun ~chunk ~lo ~hi ->
                rotate_columns ~panel_width:width ~block_rows ~tier
                  ~ws:wss.(chunk) ~lo ~hi p buf ~amount))
      end
    end

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
           batch, each lane running the serial fused engine with its own
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

include Engine_of (Prims)

module Checked = Engine_of (Checked_prims)

(* Fused.Make's summaries cover this engine. Its panel primitives make
   the same accesses as Fused.Make's, and its row passes are
   Kernels_f64's walk movers, which the tests check equal to the
   per-element maps exhaustively on small shapes (test/core). What makes
   the sharing sound is the trace cross-validation (test/check
   suite_access): the checked twin's recorded accesses must fall inside
   these summaries on a grid of shapes, widths and tiers. *)
module Summary = Fused.Summary
