open Xpose_core

type engine = Functor | Decomposed | Cache | Fused

let all_engines = [ Functor; Decomposed; Cache; Fused ]

let engine_name = function
  | Functor -> "functor"
  | Decomposed -> "decomposed"
  | Cache -> "cache"
  | Fused -> "fused"

module Passes = struct
  let size (p : Plan.t) = p.m * p.n

  let rotate_columns (p : Plan.t) ~amount =
    let m = p.m and n = p.n in
    Perm.make ~size:(size p) (fun l ->
        let i = l / n and j = l mod n in
        let k = Intmath.emod (amount j) m in
        (((i + k) mod m) * n) + j)

  let row_shuffle_gather (p : Plan.t) =
    let n = p.n in
    Perm.make ~size:(size p) (fun l ->
        let i = l / n and j = l mod n in
        (i * n) + Plan.d'_inv p ~i j)

  let row_shuffle_ungather (p : Plan.t) =
    let n = p.n in
    Perm.make ~size:(size p) (fun l ->
        let i = l / n and j = l mod n in
        (i * n) + Plan.d' p ~i j)

  let col_shuffle_gather (p : Plan.t) =
    let n = p.n in
    Perm.make ~size:(size p) (fun l ->
        let i = l / n and j = l mod n in
        (Plan.s' p ~j i * n) + j)

  let col_shuffle_ungather (p : Plan.t) =
    let n = p.n in
    Perm.make ~size:(size p) (fun l ->
        let i = l / n and j = l mod n in
        (Plan.s'_inv p ~j i * n) + j)

  let permute_rows (p : Plan.t) ~index =
    let n = p.n in
    Perm.make ~size:(size p) (fun l ->
        let i = l / n and j = l mod n in
        (index i * n) + j)

  let decompose_pass ~size (pass : Xpose_permute.Decompose.pass) =
    let { Xpose_permute.Decompose.batch; rows; cols; block } = pass in
    let len = rows * cols * block in
    if batch * len <> size then
      invalid_arg "Spec.Passes.decompose_pass: pass size mismatch";
    (* After the pass the slice is laid out [cols x rows x block]; output
       cell (c', r', off) gathers from input cell (r', c', off). *)
    Perm.make ~size (fun g ->
        let b = g / len and l = g mod len in
        let off = l mod block in
        let lc = l / block in
        let c' = lc / rows and r' = lc mod rows in
        (b * len) + (((r' * cols) + c') * block) + off)
end

(* -- 2-D transpose targets ---------------------------------------------- *)

let transpose_target ~m ~n =
  Perm.make ~size:(m * n) (fun l -> ((l mod m) * n) + (l / m))

let c2r_target (p : Plan.t) = transpose_target ~m:p.m ~n:p.n
let r2c_target (p : Plan.t) = transpose_target ~m:p.n ~n:p.m

(* -- engine pass models -------------------------------------------------- *)

let rotate_pre (p : Plan.t) acc =
  if Plan.coprime p then acc
  else ("rotate_pre", Passes.rotate_columns p ~amount:(Plan.rotate_amount p)) :: acc

let rotate_post (p : Plan.t) acc =
  if Plan.coprime p then acc
  else
    acc
    @ [
        ( "rotate_post",
          Passes.rotate_columns p ~amount:(fun j -> -Plan.rotate_amount p j) );
      ]

let c2r_model ?(variant = Algo.C2r_gather) (p : Plan.t) =
  if p.m = 1 || p.n = 1 then []
  else
    let tail =
      match variant with
      | Algo.C2r_gather | Algo.C2r_scatter ->
          [
            ("row_shuffle", Passes.row_shuffle_gather p);
            ("col_shuffle", Passes.col_shuffle_gather p);
          ]
      | Algo.C2r_decomposed ->
          [
            ("row_shuffle", Passes.row_shuffle_gather p);
            ("col_rotate", Passes.rotate_columns p ~amount:(fun j -> j));
            ("row_permute", Passes.permute_rows p ~index:(Plan.q p));
          ]
    in
    rotate_pre p tail

let r2c_model ?(variant = Algo.R2c_fused) (p : Plan.t) =
  if p.m = 1 || p.n = 1 then []
  else
    let head =
      match variant with
      | Algo.R2c_fused -> [ ("col_unshuffle", Passes.col_shuffle_ungather p) ]
      | Algo.R2c_decomposed ->
          [
            ("row_unpermute", Passes.permute_rows p ~index:(Plan.q_inv p));
            ("col_unrotate", Passes.rotate_columns p ~amount:(fun j -> -j));
          ]
    in
    rotate_post p (head @ [ ("row_unshuffle", Passes.row_shuffle_ungather p) ])

(* The f64 engine (Kernels_f64, driven by Fused_f64) performs the
   decomposed column work (rotate by j, permute rows by q) in one staged
   sweep; both sub-passes are column-local, so the net map of the
   fused_col pass is their composition. *)
let fused_c2r_model (p : Plan.t) =
  if p.m = 1 || p.n = 1 then []
  else
    let size = p.m * p.n in
    let fused_col =
      Perm.pipeline ~size
        [
          Passes.rotate_columns p ~amount:(fun j -> j);
          Passes.permute_rows p ~index:(Plan.q p);
        ]
    in
    rotate_pre p
      [ ("row_shuffle", Passes.row_shuffle_gather p); ("fused_col", fused_col) ]

let fused_r2c_model (p : Plan.t) =
  if p.m = 1 || p.n = 1 then []
  else
    let size = p.m * p.n in
    let fused_col =
      Perm.pipeline ~size
        [
          Passes.permute_rows p ~index:(Plan.q_inv p);
          Passes.rotate_columns p ~amount:(fun j -> -j);
        ]
    in
    rotate_post p
      [
        ("fused_col", fused_col);
        ("row_unshuffle", Passes.row_shuffle_ungather p);
      ]

let transpose_model engine ~m ~n =
  (* Same §5.2 routing as every [transpose]: the long side becomes the
     plan's row count. *)
  let c2r_side = m > n in
  let p = if c2r_side then Plan.make ~m ~n else Plan.make ~m:n ~n:m in
  match engine with
  | Functor ->
      if c2r_side then c2r_model ~variant:Algo.C2r_gather p
      else r2c_model ~variant:Algo.R2c_fused p
  | Decomposed | Cache ->
      if c2r_side then c2r_model ~variant:Algo.C2r_decomposed p
      else r2c_model ~variant:Algo.R2c_decomposed p
  | Fused -> if c2r_side then fused_c2r_model p else fused_r2c_model p

(* -- structured probes ---------------------------------------------------- *)

let dedup_in_range ~bound l =
  List.sort_uniq compare (List.filter (fun x -> x >= 0 && x < bound) l)

let border ~bound =
  dedup_in_range ~bound [ 0; 1; 2; bound / 2; bound - 3; bound - 2; bound - 1 ]

(* Flat probe indices for an [m x n] shape: border rows x (border columns
   + panel edges + one column per gcd residue class), the index classes
   where the engines' case splits live (rotation wrap, panel boundary,
   CRT residue selection in d'_inv / q_inv). Panel edges are taken at
   every width in [widths], not just the default 16, so the
   verification evidence covers each proved panel geometry. *)
let widths = [ 8; 16; 32; 64 ]

let probes ?(widths = widths) ~m ~n () =
  let c = Intmath.gcd m n in
  let rows = border ~bound:m in
  let panel_edges =
    List.concat_map
      (fun panel_width ->
        let groups = Intmath.ceil_div n panel_width in
        let picked =
          dedup_in_range ~bound:groups
            [ 0; 1; 2; groups / 2; groups - 2; groups - 1 ]
        in
        List.concat_map
          (fun g ->
            [ (g * panel_width) - 1; g * panel_width; (g * panel_width) + 1 ])
          picked)
      widths
  in
  let residues =
    List.init (min c 8) (fun r ->
        let j = (n / 2) - ((n / 2) mod c) + r in
        [ j; j + c ])
    |> List.concat
  in
  let cols = dedup_in_range ~bound:n (border ~bound:n @ panel_edges @ residues) in
  List.concat_map (fun i -> List.map (fun j -> (i * n) + j) cols) rows

let verify_transpose ?threshold engine ~m ~n =
  let model = transpose_model engine ~m ~n in
  let net = Perm.pipeline ~size:(m * n) (List.map snd model) in
  let verdict =
    Perm.verify ?threshold ~probes:(probes ~m ~n ())
      ~target:(transpose_target ~m ~n) net
  in
  (List.map fst model, verdict)

(* -- rank-N permutation planner ------------------------------------------ *)

let permute_target ~dims ~perm =
  let module Shape = Xpose_permute.Shape in
  let out_dims = Shape.permuted_dims ~dims ~perm in
  let rank = Array.length dims in
  Perm.make ~size:(Shape.nelems dims) (fun l ->
      let out_multi = Shape.multi_index ~dims:out_dims l in
      let src = Array.make rank 0 in
      (* output axis k carries source axis perm.(k) *)
      Array.iteri (fun k ax -> src.(ax) <- out_multi.(k)) perm;
      Shape.linear_index ~dims src)

let permute_model (plan : Xpose_permute.Permute.plan) =
  let size = Xpose_permute.Shape.nelems plan.Xpose_permute.Permute.dims in
  List.map
    (fun pass ->
      ( Format.asprintf "%a" Xpose_permute.Decompose.pp_pass pass,
        Passes.decompose_pass ~size pass ))
    (Xpose_permute.Permute.passes plan)

let permute_probes ~dims =
  let module Shape = Xpose_permute.Shape in
  let axes = Array.map (fun d -> border ~bound:d) dims in
  (* Cartesian product of per-axis border coordinates, capped. *)
  let rec product = function
    | [] -> [ [] ]
    | axis :: rest ->
        let tails = product rest in
        List.concat_map (fun v -> List.map (fun t -> v :: t) tails) axis
  in
  let combos = product (Array.to_list axes) in
  let cap = 4096 in
  List.filteri (fun i _ -> i < cap) combos
  |> List.map (fun multi -> Shape.linear_index ~dims (Array.of_list multi))

let verify_permute ?threshold (plan : Xpose_permute.Permute.plan) =
  let dims = plan.Xpose_permute.Permute.dims
  and perm = plan.Xpose_permute.Permute.perm in
  let model = permute_model plan in
  let size = Xpose_permute.Shape.nelems dims in
  let net = Perm.pipeline ~size (List.map snd model) in
  let verdict =
    Perm.verify ?threshold ~probes:(permute_probes ~dims)
      ~target:(permute_target ~dims ~perm) net
  in
  (List.map fst model, verdict)
