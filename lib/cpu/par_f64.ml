open Xpose_core

type buf = Kernels_f64.buf

let scratches pool (p : Plan.t) =
  Array.init (Pool.workers pool) (fun _ ->
      Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout
        (Plan.scratch_elements p))

(* One walk index row per lane for the row passes. *)
let index_rows pool (p : Plan.t) =
  Array.init (Pool.workers pool) (fun _ -> Array.make p.n 0)

let check (p : Plan.t) (buf : buf) =
  if Bigarray.Array1.dim buf <> p.m * p.n then
    invalid_arg "Par_f64: buffer size does not match plan"

let c2r ?(variant = Algo.C2r_gather) pool (p : Plan.t) buf =
  check p buf;
  let m = p.m and n = p.n in
  if m = 1 || n = 1 then ()
  else begin
    let tmp = scratches pool p in
    let over_cols pass =
      Pool.parallel_chunks pool ~lo:0 ~hi:n (fun ~chunk ~lo ~hi ->
          pass ~tmp:tmp.(chunk) ~lo ~hi)
    and over_rows pass =
      let idx = index_rows pool p in
      Pool.parallel_chunks pool ~lo:0 ~hi:m (fun ~chunk ~lo ~hi ->
          pass ~tmp:tmp.(chunk) ~idx:idx.(chunk) ~row0:0 ~lo ~hi)
    in
    if not (Plan.coprime p) then
      over_cols
        (Kernels_f64.Phases.rotate_columns p buf ~amount:(Plan.rotate_amount p));
    (match variant with
    | Algo.C2r_scatter -> over_rows (Kernels_f64.Phases.row_shuffle_scatter p buf)
    | Algo.C2r_gather | Algo.C2r_decomposed ->
        over_rows (Kernels_f64.Phases.row_shuffle_gather p buf));
    match variant with
    | Algo.C2r_scatter | Algo.C2r_gather ->
        over_cols (Kernels_f64.Phases.col_shuffle_gather p buf)
    | Algo.C2r_decomposed ->
        over_cols (Kernels_f64.Phases.rotate_columns p buf ~amount:(fun j -> j));
        over_cols (Kernels_f64.Phases.permute_rows p buf ~index:(Plan.q p))
  end

let r2c ?(variant = Algo.R2c_fused) pool (p : Plan.t) buf =
  check p buf;
  let m = p.m and n = p.n in
  if m = 1 || n = 1 then ()
  else begin
    let tmp = scratches pool p in
    let over_cols pass =
      Pool.parallel_chunks pool ~lo:0 ~hi:n (fun ~chunk ~lo ~hi ->
          pass ~tmp:tmp.(chunk) ~lo ~hi)
    and over_rows pass =
      let idx = index_rows pool p in
      Pool.parallel_chunks pool ~lo:0 ~hi:m (fun ~chunk ~lo ~hi ->
          pass ~tmp:tmp.(chunk) ~idx:idx.(chunk) ~row0:0 ~lo ~hi)
    in
    (match variant with
    | Algo.R2c_fused -> over_cols (Kernels_f64.Phases.col_shuffle_ungather p buf)
    | Algo.R2c_decomposed ->
        over_cols
          (Kernels_f64.Phases.permute_rows p buf ~index:(Plan.q_inv p));
        over_cols
          (Kernels_f64.Phases.rotate_columns p buf ~amount:(fun j -> -j)));
    over_rows (Kernels_f64.Phases.row_shuffle_ungather p buf);
    if not (Plan.coprime p) then
      over_cols
        (Kernels_f64.Phases.rotate_columns p buf
           ~amount:(fun j -> -Plan.rotate_amount p j))
  end

let transpose ?(order = Layout.Row_major) pool ~m ~n buf =
  let rm, rn =
    match order with Layout.Row_major -> (m, n) | Layout.Col_major -> (n, m)
  in
  if rm > rn then c2r pool (Plan.make ~m:rm ~n:rn) buf
  else r2c pool (Plan.make ~m:rn ~n:rm) buf
