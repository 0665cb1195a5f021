open Xpose_core

(* -- strided atoms -------------------------------------------------------- *)

type atom = { base : int; width : int; stride : int; count : int }

let interval ~lo ~hi = { base = lo; width = hi - lo; stride = max 1 (hi - lo); count = 1 }

let columns ~m ~n ~lo ~hi = { base = lo; width = hi - lo; stride = n; count = m }

let block_slots ~reps ~block ~lo ~hi =
  { base = lo; width = hi - lo; stride = block; count = reps }

let is_empty a = a.width <= 0 || a.count <= 0

(* Collapse a dense atom (width = stride) into one interval so the
   common "chunk of contiguous rows" footprint takes the fast path. *)
let normalize a =
  if is_empty a then a
  else if a.count = 1 || a.width = a.stride then
    interval ~lo:a.base ~hi:(a.base + ((a.count - 1) * a.stride) + a.width)
  else a

let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)

(* First flat index covered by both atoms, if any. Exact — no
   over-approximation, so a reported conflict is a real overlap and a
   clean verdict is a proof (for the modeled footprints). *)
let rec overlap a b =
  let a = normalize a and b = normalize b in
  if is_empty a || is_empty b then None
  else if a.count = 1 && b.count = 1 then
    let lo = max a.base b.base and hi = min (a.base + a.width) (b.base + b.width) in
    if lo < hi then Some lo else None
  else if a.count = 1 then
    (* interval vs strided: smallest rep of b ending after a.base *)
    let k = max 0 (fdiv (a.base - b.width - b.base) b.stride + 1) in
    if k < b.count && b.base + (k * b.stride) < a.base + a.width then
      Some (max a.base (b.base + (k * b.stride)))
    else None
  else if b.count = 1 then overlap b a
  else if a.stride = b.stride then begin
    (* reps a_i = [a.base + i*s, +a.width), b_j = [b.base + j*s, +b.width):
       they meet iff delta + (j - i)*s lands in (-b.width, a.width). *)
    let s = a.stride in
    let delta = b.base - a.base in
    let d0 = fdiv (-b.width - delta) s + 1 in
    let d = max d0 (-(a.count - 1)) in
    if d <= b.count - 1 && delta + (d * s) < a.width then begin
      let i = max 0 (-d) in
      let j = i + d in
      Some (max (a.base + (i * s)) (b.base + (j * s)))
    end
    else None
  end
  else begin
    (* incommensurate strides: materialize the atom with fewer reps *)
    let small, big = if a.count <= b.count then (a, b) else (b, a) in
    let rec try_rep k =
      if k >= small.count then None
      else
        let lo = small.base + (k * small.stride) in
        match overlap (interval ~lo ~hi:(lo + small.width)) big with
        | Some w -> Some w
        | None -> try_rep (k + 1)
    in
    try_rep 0
  end

(* -- chunks, barriers, conflicts ----------------------------------------- *)

type chunk = { id : int; writes : atom list; reads : atom list; scratch : int }

type barrier = { name : string; chunks : chunk list }

type kind = Write_write | Write_read | Scratch_shared

type conflict = {
  barrier : string;
  kind : kind;
  chunk_a : int;
  chunk_b : int;
  index : int;
}

let kind_name = function
  | Write_write -> "write/write"
  | Write_read -> "write/read"
  | Scratch_shared -> "shared scratch"

let pp_conflict ppf c =
  Format.fprintf ppf "%s conflict in pass %s between chunks %d and %d at index %d"
    (kind_name c.kind) c.barrier c.chunk_a c.chunk_b c.index

let first_overlap xs ys =
  List.fold_left
    (fun acc x ->
      match acc with
      | Some _ -> acc
      | None ->
          List.fold_left
            (fun acc y ->
              match acc with Some _ -> acc | None -> overlap x y)
            None ys)
    None xs

let check_pair ~barrier a b =
  let mk kind index =
    Some { barrier; kind; chunk_a = a.id; chunk_b = b.id; index }
  in
  if a.scratch = b.scratch then mk Scratch_shared a.scratch
  else
    match first_overlap a.writes b.writes with
    | Some w -> mk Write_write w
    | None -> (
        match first_overlap a.writes b.reads with
        | Some w -> mk Write_read w
        | None -> (
            match first_overlap b.writes a.reads with
            | Some w -> mk Write_read w
            | None -> None))

(* First conflict by (lower chunk id, higher chunk id) order, matching
   the deterministic exception order of [Pool.parallel_chunks]. *)
let check_barrier (b : barrier) =
  let chunks = List.sort (fun x y -> compare x.id y.id) b.chunks in
  let rec outer = function
    | [] -> None
    | x :: rest ->
        let rec inner = function
          | [] -> outer rest
          | y :: more -> (
              match check_pair ~barrier:b.name x y with
              | Some c -> Some c
              | None -> inner more)
        in
        inner rest
  in
  outer chunks

let check barriers =
  List.fold_left
    (fun acc b -> match acc with Some _ -> acc | None -> check_barrier b)
    None barriers

(* -- chunk splits --------------------------------------------------------- *)

type split = lo:int -> hi:int -> chunks:int -> int -> int * int

let pool_split : split =
 fun ~lo ~hi ~chunks k -> Xpose_cpu.Pool.chunk_bounds ~lo ~hi ~chunks k

(* The deliberately broken split for the negative CI test: every chunk
   but the last claims one extra trailing element, recreating the classic
   off-by-one ([hi] treated as inclusive) partitioning bug. *)
let off_by_one_split : split =
 fun ~lo ~hi ~chunks k ->
  let c_lo, c_hi = Xpose_cpu.Pool.chunk_bounds ~lo ~hi ~chunks k in
  if k < chunks - 1 then (c_lo, min hi (c_hi + 1)) else (c_lo, c_hi)

(* -- barrier models of the parallel drivers ------------------------------- *)

let row_barrier ~split ~lanes ~name (p : Plan.t) =
  let n = p.n in
  let chunks =
    List.init lanes (fun k ->
        let lo, hi = split ~lo:0 ~hi:p.m ~chunks:lanes k in
        let fp = if lo < hi then [ interval ~lo:(lo * n) ~hi:(hi * n) ] else [] in
        { id = k; writes = fp; reads = fp; scratch = k })
  in
  { name; chunks }

let col_barrier ~split ~lanes ~name (p : Plan.t) =
  let m = p.m and n = p.n in
  let chunks =
    List.init lanes (fun k ->
        let lo, hi = split ~lo:0 ~hi:n ~chunks:lanes k in
        let fp = if lo < hi then [ columns ~m ~n ~lo ~hi ] else [] in
        { id = k; writes = fp; reads = fp; scratch = k })
  in
  { name; chunks }

(* Panel-parallel passes chunk over column groups of [width] and touch
   the columns [g_lo * width, min n (g_hi * width)). *)
let panel_barrier ~split ~lanes ~width ~name (p : Plan.t) =
  let m = p.m and n = p.n in
  let groups = Intmath.ceil_div n width in
  let chunks =
    List.init lanes (fun k ->
        let g_lo, g_hi = split ~lo:0 ~hi:groups ~chunks:lanes k in
        let lo = g_lo * width and hi = min n (g_hi * width) in
        let fp = if lo < hi then [ columns ~m ~n ~lo ~hi ] else [] in
        { id = k; writes = fp; reads = fp; scratch = k })
  in
  { name; chunks }

let default_panel_width = 16

let rowcol_engine_barriers ~split ~lanes ~decomposed (p : Plan.t) ~c2r_side =
  let col = col_barrier ~split ~lanes p and row = row_barrier ~split ~lanes p in
  if p.m = 1 || p.n = 1 then []
  else if c2r_side then
    (if Plan.coprime p then [] else [ col ~name:"rotate_pre" ])
    @ [ row ~name:"row_shuffle" ]
    @
    if decomposed then
      [ col ~name:"col_rotate"; col ~name:"row_permute" ]
    else [ col ~name:"col_shuffle" ]
  else
    (if decomposed then
       [ col ~name:"row_unpermute"; col ~name:"col_unrotate" ]
     else [ col ~name:"col_unshuffle" ])
    @ [ row ~name:"row_unshuffle" ]
    @ if Plan.coprime p then [] else [ col ~name:"rotate_post" ]

(* The f64 engines' lanes take whole stagings: their column groups are
   the staging width the engine derives from the panel width. *)
let stage_width (p : Plan.t) ~width =
  Kernels_f64.stage_width ~m:p.m ~panel_width:width

let panel_engine_barriers ~split ~lanes ~width (p : Plan.t) ~c2r_side =
  let panel = panel_barrier ~split ~lanes ~width p
  and row = row_barrier ~split ~lanes p in
  if p.m = 1 || p.n = 1 then []
  else if c2r_side then
    (if Plan.coprime p then [] else [ panel ~name:"rotate_pre" ])
    @ [ row ~name:"row_shuffle"; panel ~name:"fused_col" ]
  else
    [ panel ~name:"fused_col"; row ~name:"row_unshuffle" ]
    @ if Plan.coprime p then [] else [ panel ~name:"rotate_post" ]

let transpose_barriers ?(split = pool_split) ?(width = default_panel_width)
    ~engine ~lanes ~m ~n () =
  let c2r_side = m > n in
  let p = if c2r_side then Plan.make ~m ~n else Plan.make ~m:n ~n:m in
  match (engine : Spec.engine) with
  | Spec.Functor ->
      rowcol_engine_barriers ~split ~lanes ~decomposed:false p ~c2r_side
  | Spec.Decomposed ->
      rowcol_engine_barriers ~split ~lanes ~decomposed:true p ~c2r_side
  | Spec.Cache -> panel_engine_barriers ~split ~lanes ~width p ~c2r_side
  | Spec.Fused ->
      panel_engine_barriers ~split ~lanes ~width:(stage_width p ~width) p
        ~c2r_side

(* Fused_f64.transpose_batch: batch-parallel when the batch has a matrix
   for every lane (each lane owns whole matrices), panel-parallel per
   matrix otherwise -- the engine's own rule, so the proof models the
   schedule the engine runs. *)
let batch_barriers ?(split = pool_split) ?(width = default_panel_width) ~lanes
    ~m ~n ~nb () =
  if nb = 0 then []
  else begin
    let len = m * n in
    if nb >= lanes then
      [
        {
          name = "batch";
          chunks =
            List.init lanes (fun k ->
                let lo, hi = split ~lo:0 ~hi:nb ~chunks:lanes k in
                let fp =
                  if lo < hi then [ interval ~lo:(lo * len) ~hi:(hi * len) ]
                  else []
                in
                { id = k; writes = fp; reads = fp; scratch = k });
        };
      ]
    else
      (* each matrix runs panel-parallel; footprints repeat per matrix,
         so one matrix's barriers represent them all *)
      let c2r_side = m > n in
      let p = if c2r_side then Plan.make ~m ~n else Plan.make ~m:n ~n:m in
      panel_engine_barriers ~split ~lanes ~width:(stage_width p ~width) p
        ~c2r_side
  end

(* Xpose_ooc.Ooc_f64.transpose_file: window-granular barriers (each
   window is one "chunk" of its split, with its own mapping — conflicts
   here mean two windows claim the same file region) plus, inside every
   window, the pool barrier the engine actually runs. Matrices that fit
   the budget delegate to the fused pool engine and its panel model. *)
let ooc_barriers ?(split = pool_split) ?(window_split = Xpose_ooc.Window.split)
    ?(width = default_panel_width) ~lanes ~m ~n ~window_bytes () =
  let c2r_side = m > n in
  let p = if c2r_side then Plan.make ~m ~n else Plan.make ~m:n ~n:m in
  let budget = Xpose_ooc.Window.budget_elems ~window_bytes in
  if p.m * p.n <= budget then
    panel_engine_barriers ~split ~lanes ~width:(stage_width p ~width) p
      ~c2r_side
  else if p.m = 1 || p.n = 1 then []
  else begin
    let row_per = Xpose_ooc.Window.row_rows ~budget_elems:budget ~n:p.n in
    let col_per = Xpose_ooc.Window.panel_cols ~budget_elems:budget ~m:p.m in
    let s_per = Xpose_ooc.Window.stripe_rows ~budget_elems:budget ~n:p.n in
    let rows_w = window_split ~total:p.m ~per:row_per in
    let cols_w = window_split ~total:p.n ~per:col_per in
    let stripes = window_split ~total:p.m ~per:s_per in
    (* One chunk per window: distinct mappings are distinct "scratch",
       and the footprint is the window's slice of the file. *)
    let window_barrier ~name ~atom ws =
      let chunks =
        List.mapi
          (fun k (w : Xpose_ooc.Window.t) ->
            let fp =
              if w.Xpose_ooc.Window.lo < w.Xpose_ooc.Window.hi then
                [ atom ~lo:w.Xpose_ooc.Window.lo ~hi:w.Xpose_ooc.Window.hi ]
              else []
            in
            { id = k; writes = fp; reads = fp; scratch = k })
          ws
      in
      { name; chunks }
    in
    let row_atom ~lo ~hi = interval ~lo:(lo * p.n) ~hi:(hi * p.n) in
    let col_atom ~lo ~hi = columns ~m:p.m ~n:p.n ~lo ~hi in
    (* Per row window, the pool splits the window's rows across lanes. *)
    let shuffle_barrier (w : Xpose_ooc.Window.t) =
      let chunks =
        List.init lanes (fun k ->
            let lo, hi =
              split ~lo:w.Xpose_ooc.Window.lo ~hi:w.Xpose_ooc.Window.hi
                ~chunks:lanes k
            in
            let fp = if lo < hi then [ row_atom ~lo ~hi ] else [] in
            { id = k; writes = fp; reads = fp; scratch = k })
      in
      { name = "ooc.row_shuffle"; chunks }
    in
    (* Per column panel, the pool splits the staging's columns into
       groups of the staging width: the staging is a contiguous
       [p.m x wd] matrix in panel coordinates. *)
    let sw = stage_width p ~width:default_panel_width in
    let staging_barrier ~name (w : Xpose_ooc.Window.t) =
      let wd = w.Xpose_ooc.Window.hi - w.Xpose_ooc.Window.lo in
      let groups = Intmath.ceil_div wd sw in
      let chunks =
        List.init lanes (fun k ->
            let g_lo, g_hi = split ~lo:0 ~hi:groups ~chunks:lanes k in
            let lo = g_lo * sw and hi = min wd (g_hi * sw) in
            let fp =
              if lo < hi then [ columns ~m:p.m ~n:wd ~lo ~hi ] else []
            in
            { id = k; writes = fp; reads = fp; scratch = k })
      in
      { name; chunks }
    in
    [
      window_barrier ~name:"ooc.row_windows" ~atom:row_atom rows_w;
      window_barrier ~name:"ooc.col_panels" ~atom:col_atom cols_w;
      window_barrier ~name:"ooc.stripes" ~atom:row_atom stripes;
    ]
    @ List.map shuffle_barrier rows_w
    @ List.map (staging_barrier ~name:"ooc.stage") cols_w
  end

(* Par_permute.transpose: batch-axis chunking for batched passes, block
   (sub-element) axis chunking for wide single blocks, plain row/col
   barriers for the flat case. *)
let permute_pass_barriers ?(split = pool_split) ~lanes
    (pass : Xpose_permute.Decompose.pass) () =
  let { Xpose_permute.Decompose.batch; rows; cols; block } = pass in
  if rows = 1 || cols = 1 then []
  else begin
    let c2r_side = rows > cols in
    let rm = max rows cols and rn = min rows cols in
    let p = Plan.make ~m:rm ~n:rn in
    if batch = 1 && block = 1 then
      rowcol_engine_barriers ~split ~lanes ~decomposed:false p ~c2r_side
    else if batch > 1 then begin
      let len = rows * cols * block in
      [
        {
          name = "batch_slices";
          chunks =
            List.init lanes (fun k ->
                let lo, hi = split ~lo:0 ~hi:batch ~chunks:lanes k in
                let fp =
                  if lo < hi then [ interval ~lo:(lo * len) ~hi:(hi * len) ]
                  else []
                in
                { id = k; writes = fp; reads = fp; scratch = k });
        };
      ]
    end
    else
      [
        {
          name = "block_split";
          chunks =
            List.init lanes (fun k ->
                let lo, hi = split ~lo:0 ~hi:block ~chunks:lanes k in
                let fp =
                  if lo < hi then
                    [ block_slots ~reps:(rows * cols) ~block ~lo ~hi ]
                  else []
                in
                { id = k; writes = fp; reads = fp; scratch = k });
        };
      ]
  end

let permute_barriers ?(split = pool_split) ~lanes
    (plan : Xpose_permute.Permute.plan) () =
  List.concat_map
    (fun pass -> permute_pass_barriers ~split ~lanes pass ())
    (Xpose_permute.Permute.passes plan)
