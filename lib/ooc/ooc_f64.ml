open Xpose_core
module Ws = Workspace.F64
module FF = Xpose_cpu.Fused_f64
module Pool = Xpose_cpu.Pool
module FM = Xpose_mmap.File_matrix

type buf = Storage.Float64.t

let default_window_bytes = 64 * 1024 * 1024

(* Registered on first use so linking the library does not grow the
   metrics dump of runs that never go out of core. *)
let m_windows = Xpose_obs.Metrics.defer Xpose_obs.Metrics.counter "ooc.windows"
let m_bytes =
  Xpose_obs.Metrics.defer Xpose_obs.Metrics.counter "ooc.bytes_mapped"
let m_hits =
  Xpose_obs.Metrics.defer Xpose_obs.Metrics.counter "ooc.prefetch_hits"
let m_waits =
  Xpose_obs.Metrics.defer Xpose_obs.Metrics.counter "ooc.prefetch_waits"
let g_peak =
  Xpose_obs.Metrics.defer Xpose_obs.Metrics.gauge "ooc.window_peak_bytes"

(* -- residency ledger ------------------------------------------------------

   Logical residency: bytes of mappings and stagings currently live, the
   high-water mark published as the [ooc.window_peak_bytes] gauge. The
   compute domain and the I/O domain both map and release, hence the
   atomics. *)

type ledger = { cur : int Atomic.t; peak : int Atomic.t }

let ledger () = { cur = Atomic.make 0; peak = Atomic.make 0 }

let resident led bytes =
  let now = Atomic.fetch_and_add led.cur bytes + bytes in
  let rec bump () =
    let p = Atomic.get led.peak in
    if now > p && not (Atomic.compare_and_set led.peak p now) then bump ()
  in
  bump ();
  let g = Xpose_obs.Metrics.force g_peak in
  let p = float_of_int (Atomic.get led.peak) in
  if p > Xpose_obs.Metrics.gauge_value g then Xpose_obs.Metrics.set_gauge g p

let released led bytes = ignore (Atomic.fetch_and_add led.cur (-bytes))

let map_counted led ?(write = true) fd ~pos ~len =
  Xpose_obs.Metrics.incr (Xpose_obs.Metrics.force m_windows);
  Xpose_obs.Metrics.incr ~by:(len * 8) (Xpose_obs.Metrics.force m_bytes);
  resident led (len * 8);
  FM.map_range ~write fd ~pos ~len

let unmap_counted led ~len = released led (len * 8)

let count_await job =
  if Io_domain.await job then
    Xpose_obs.Metrics.incr (Xpose_obs.Metrics.force m_hits)
  else Xpose_obs.Metrics.incr (Xpose_obs.Metrics.force m_waits)

(* Touch one element per page so the prefetching domain takes the page
   faults, not the pool workers. 512 float64s = one 4 KiB page. *)
let page_elems = 512

let prefault (a : buf) =
  let acc = ref 0.0 in
  let len = Bigarray.Array1.dim a in
  let i = ref 0 in
  while !i < len do
    acc := !acc +. Bigarray.Array1.unsafe_get a !i;
    i := !i + page_elems
  done;
  ignore (Sys.opaque_identity !acc)

let span_window ~rows ~cols ~pred f =
  Xpose_obs.Tracer.with_span ~cat:"ooc"
    ~args:(fun () ->
      [
        ("rows", Xpose_obs.Tracer.Int rows);
        ("cols", Xpose_obs.Tracer.Int cols);
        ("pred_touches", Xpose_obs.Tracer.Int pred);
      ])
    "ooc.window" f

(* -- row phases ------------------------------------------------------------

   The in-RAM row passes themselves, run on one mapped row window: the
   phases take the window's first row as [row0], so the maps see global
   rows while the buffer holds only the window, and a shuffle of rows
   [lo, hi) reads and writes only inside its own window. *)

let row_pass ~led ~io ~pool ~wss ~budget (p : Plan.t) fd ~name ~ungather =
  let scratch = Plan.scratch_elements p in
  let shuffle =
    if ungather then Kernels_f64.Phases.row_shuffle_ungather
    else Kernels_f64.Phases.row_shuffle_gather
  in
  Xpose_obs.Tracer.pass ~name ~rows:p.m ~cols:p.n
    ~pred_touches:(Pass_cost.shuffle p) ~scratch_elems:scratch
  @@ fun () ->
  let per = Window.row_rows ~budget_elems:budget ~n:p.n in
  let windows = Array.of_list (Window.split ~total:p.m ~per) in
  let k_max = Array.length windows in
  let slots : buf option array = Array.make k_max None in
  let map_window k =
    let w = windows.(k) in
    let a =
      map_counted led fd ~pos:(w.Window.lo * p.n)
        ~len:((w.Window.hi - w.Window.lo) * p.n)
    in
    prefault a;
    slots.(k) <- Some a
  in
  let release k =
    let w = windows.(k) in
    slots.(k) <- None;
    unmap_counted led ~len:((w.Window.hi - w.Window.lo) * p.n)
  in
  let compute k =
    let w = windows.(k) in
    let win = Option.get slots.(k) in
    let rows = w.Window.hi - w.Window.lo in
    span_window ~rows ~cols:p.n ~pred:(Pass_cost.ooc_row_window p ~rows)
      (fun () ->
        Pool.parallel_chunks pool ~lo:w.Window.lo ~hi:w.Window.hi
          (fun ~chunk ~lo ~hi ->
            if lo < hi then
              shuffle p win ~tmp:(Ws.tmp wss.(chunk) scratch)
                ~idx:(Ws.idx wss.(chunk) p.n) ~row0:w.Window.lo ~lo ~hi))
  in
  match io with
  | None ->
      for k = 0 to k_max - 1 do
        map_window k;
        compute k;
        release k
      done
  | Some io ->
      let job = ref (Io_domain.async io (fun () -> map_window 0)) in
      for k = 0 to k_max - 1 do
        count_await !job;
        if k + 1 < k_max then
          job := Io_domain.async io (fun () -> map_window (k + 1));
        compute k;
        release k
      done

(* -- column phases ---------------------------------------------------------

   The stride-[n] passes run on a contiguous [m x w] staging per column
   panel, filled and drained through bounded row stripes. On the staging
   the pool runs the in-RAM column pass itself
   ({!Kernels_f64.Phases.gather_cols}) with the staging's width as pitch
   and its first global column as [col0], so the maps see global columns
   while the buffer holds only the panel; lanes take whole stagings. *)

let gather_panel ~led ~s_per (p : Plan.t) fd (pan : Window.t) (stag : buf) =
  let w = pan.Window.hi - pan.Window.lo in
  List.iter
    (fun (st : Window.t) ->
      let len = (st.Window.hi - st.Window.lo) * p.n in
      let win = map_counted led ~write:false fd ~pos:(st.Window.lo * p.n) ~len in
      for i = st.Window.lo to st.Window.hi - 1 do
        let src = ((i - st.Window.lo) * p.n) + pan.Window.lo in
        let dst = i * w in
        for jj = 0 to w - 1 do
          Bigarray.Array1.unsafe_set stag (dst + jj)
            (Bigarray.Array1.unsafe_get win (src + jj))
        done
      done;
      unmap_counted led ~len)
    (Window.split ~total:p.m ~per:s_per)

let scatter_panel ~led ~s_per (p : Plan.t) fd (pan : Window.t) (stag : buf) =
  let w = pan.Window.hi - pan.Window.lo in
  List.iter
    (fun (st : Window.t) ->
      let len = (st.Window.hi - st.Window.lo) * p.n in
      let win = map_counted led fd ~pos:(st.Window.lo * p.n) ~len in
      for i = st.Window.lo to st.Window.hi - 1 do
        let src = i * w in
        let dst = ((i - st.Window.lo) * p.n) + pan.Window.lo in
        for jj = 0 to w - 1 do
          Bigarray.Array1.unsafe_set win (dst + jj)
            (Bigarray.Array1.unsafe_get stag (src + jj))
        done
      done;
      unmap_counted led ~len)
    (Window.split ~total:p.m ~per:s_per)

let col_pass ~led ~io ~pool ~wss ~budget (p : Plan.t) fd ~name ~pred map =
  Xpose_obs.Tracer.pass ~name ~rows:p.m ~cols:p.n ~pred_touches:pred
    ~scratch_elems:(Plan.scratch_elements p)
  @@ fun () ->
  let w_per = Window.panel_cols ~budget_elems:budget ~m:p.m in
  let s_per = Window.stripe_rows ~budget_elems:budget ~n:p.n in
  let panels = Array.of_list (Window.split ~total:p.n ~per:w_per) in
  let k_max = Array.length panels in
  let w_max = min w_per p.n in
  let stag_bytes = p.m * w_max * 8 in
  let make_staging () =
    resident led stag_bytes;
    Storage.Float64.create (p.m * w_max)
  in
  let gather = gather_panel ~led ~s_per p fd
  and scatter = scatter_panel ~led ~s_per p fd in
  let map = map () in
  let sw = Kernels_f64.stage_width ~m:p.m ~panel_width:FF.default_width in
  let compute (pan : Window.t) stag =
    let w = pan.Window.hi - pan.Window.lo in
    span_window ~rows:p.m ~cols:w ~pred:(Pass_cost.ooc_panel_window p ~width:w)
      (fun () ->
        Pool.parallel_chunks pool ~lo:0 ~hi:(Intmath.ceil_div w sw)
          (fun ~chunk ~lo ~hi ->
            let lo = pan.Window.lo + (lo * sw)
            and hi = min pan.Window.hi (pan.Window.lo + (hi * sw)) in
            if lo < hi then
              let ws = wss.(chunk) in
              Kernels_f64.Phases.gather_cols p stag
                ~stage:(Ws.tmp ws (p.m * sw))
                ~idx:(Ws.idx ws sw) ~map ~pitch:w ~col0:pan.Window.lo
                ~width:sw ~lo ~hi))
  in
  match io with
  | None ->
      let stag = make_staging () in
      Array.iter
        (fun pan ->
          gather pan stag;
          compute pan stag;
          scatter pan stag)
        panels;
      released led stag_bytes
  | Some io ->
      (* Two stagings, even panels in [a], odd in [b]. The I/O domain
         runs jobs in order, so job [k+1] scatters panel [k-1] (same
         staging parity as [k+1]) before gathering panel [k+1] into it,
         while the pool computes panel [k] on the other staging. *)
      let a = make_staging () and b = make_staging () in
      let stag k = if k land 1 = 0 then a else b in
      let job = ref (Io_domain.async io (fun () -> gather panels.(0) (stag 0))) in
      for k = 0 to k_max - 1 do
        count_await !job;
        job :=
          Io_domain.async io (fun () ->
              if k >= 1 then scatter panels.(k - 1) (stag (k - 1));
              if k + 1 < k_max then gather panels.(k + 1) (stag (k + 1)));
        compute panels.(k) (stag k)
      done;
      ignore (Io_domain.await !job);
      scatter panels.(k_max - 1) (stag (k_max - 1));
      released led stag_bytes;
      released led stag_bytes

(* -- the engine ------------------------------------------------------------ *)

let transpose_file ?(order = Layout.Row_major) ?(pool = Pool.sequential)
    ?(window_bytes = default_window_bytes) ?(prefetch = true) ?cache ~path ~m
    ~n () =
  if m < 1 || n < 1 then
    invalid_arg "Ooc_f64.transpose_file: dimensions must be positive";
  if window_bytes < 8 then
    invalid_arg "Ooc_f64.transpose_file: window_bytes must be at least 8";
  let rm, rn =
    match order with Layout.Row_major -> (m, n) | Layout.Col_major -> (n, m)
  in
  (* Same §5.2 routing as the in-RAM engines: more rows than columns
     favours C2R; either way the plan satisfies [p.m >= p.n]. *)
  let c2r_side = rm > rn in
  let p =
    if c2r_side then Plan.Cache.get ?cache ~m:rm ~n:rn ()
    else Plan.Cache.get ?cache ~m:rn ~n:rm ()
  in
  FM.with_fd ~path @@ fun fd ->
  let bytes = (Unix.fstat fd).Unix.st_size in
  if bytes <> p.m * p.n * 8 then
    invalid_arg "Ooc_f64.transpose_file: file does not hold m*n elements";
  let led = ledger () in
  let budget = Window.budget_elems ~window_bytes in
  let total = p.m * p.n in
  if total <= budget then begin
    (* Fits in one window: map the whole file and run the fused pool
       engine on it. *)
    let buf = map_counted led fd ~pos:0 ~len:total in
    span_window ~rows:p.m ~cols:p.n ~pred:(Pass_cost.ooc_row_window p ~rows:p.m)
      (fun () -> if c2r_side then FF.c2r_pool pool p buf else FF.r2c_pool pool p buf);
    unmap_counted led ~len:total
  end
  else if p.m = 1 || p.n = 1 then
    (* A degenerate matrix is its own transpose: no pass runs, nothing
       needs mapping. *)
    ()
  else begin
    let lanes = Pool.workers pool in
    let wss = Array.init lanes (fun _ -> Ws.create ()) in
    let with_io f =
      if prefetch then Io_domain.with_io (fun io -> f (Some io)) else f None
    in
    with_io @@ fun io ->
    let row_pass = row_pass ~led ~io ~pool ~wss ~budget p fd in
    let col_pass = col_pass ~led ~io ~pool ~wss ~budget p fd in
    let rotate_pred ~amount =
      Pass_cost.panel_rotate p
        ~width:(Window.panel_cols ~budget_elems:budget ~m:p.m)
        ~amount
    in
    if c2r_side then begin
      if not (Plan.coprime p) then begin
        let amount = Plan.rotate_amount p in
        col_pass ~name:"ooc.rotate_pre" ~pred:(rotate_pred ~amount) (fun () ->
            Kernels_f64.rotate amount)
      end;
      row_pass ~name:"ooc.row_shuffle" ~ungather:false;
      col_pass ~name:"ooc.fused_col" ~pred:(Pass_cost.fused_col p) (fun () ->
          Kernels_f64.shuffle p)
    end
    else begin
      col_pass ~name:"ooc.fused_col" ~pred:(Pass_cost.fused_col p) (fun () ->
          Kernels_f64.unshuffle p);
      row_pass ~name:"ooc.row_unshuffle" ~ungather:true;
      if not (Plan.coprime p) then begin
        let amount j = -Plan.rotate_amount p j in
        col_pass ~name:"ooc.rotate_post" ~pred:(rotate_pred ~amount) (fun () ->
            Kernels_f64.rotate amount)
      end
    end
  end
