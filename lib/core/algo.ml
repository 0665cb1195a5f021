type c2r_variant = C2r_scatter | C2r_gather | C2r_decomposed
type r2c_variant = R2c_fused | R2c_decomposed

module Make (S : Storage.S) = struct
  type buf = S.t

  let check_args (p : Plan.t) buf ~tmp =
    if S.length buf <> p.m * p.n then
      invalid_arg
        (Printf.sprintf "Algo: buffer has %d elements, plan needs %d x %d"
           (S.length buf) p.m p.n);
    if S.length tmp < Plan.scratch_elements p then
      invalid_arg
        (Printf.sprintf "Algo: scratch has %d elements, plan needs %d"
           (S.length tmp) (Plan.scratch_elements p))

  module Phases = struct
    (* All passes view [buf] as row-major m x n: element (i, j) lives at
       linear index j + i*n (Theorem 7 lets us fix this view regardless of
       the caller's storage order). *)

    let rotate_columns (p : Plan.t) buf ~tmp ~amount ~lo ~hi =
      let m = p.m and n = p.n in
      for j = lo to hi - 1 do
        let k = Intmath.emod (amount j) m in
        if k <> 0 then begin
          (* Split gather: rows [0, m-k) read from [k, m), the rest wrap. *)
          for i = 0 to m - k - 1 do
            S.set tmp i (S.get buf (((i + k) * n) + j))
          done;
          for i = m - k to m - 1 do
            S.set tmp i (S.get buf (((i + k - m) * n) + j))
          done;
          for i = 0 to m - 1 do
            S.set buf ((i * n) + j) (S.get tmp i)
          done
        end
      done

    let row_shuffle_scatter (p : Plan.t) buf ~tmp ~lo ~hi =
      let n = p.n in
      for i = lo to hi - 1 do
        let base = i * n in
        for j = 0 to n - 1 do
          S.set tmp (Plan.d' p ~i j) (S.get buf (base + j))
        done;
        S.blit tmp 0 buf base n
      done

    let row_shuffle_gather (p : Plan.t) buf ~tmp ~lo ~hi =
      let n = p.n in
      for i = lo to hi - 1 do
        let base = i * n in
        for j = 0 to n - 1 do
          S.set tmp j (S.get buf (base + Plan.d'_inv p ~i j))
        done;
        S.blit tmp 0 buf base n
      done

    let row_shuffle_ungather (p : Plan.t) buf ~tmp ~lo ~hi =
      let n = p.n in
      for i = lo to hi - 1 do
        let base = i * n in
        for j = 0 to n - 1 do
          S.set tmp j (S.get buf (base + Plan.d' p ~i j))
        done;
        S.blit tmp 0 buf base n
      done

    let col_shuffle_gather (p : Plan.t) buf ~tmp ~lo ~hi =
      let m = p.m and n = p.n in
      for j = lo to hi - 1 do
        for i = 0 to m - 1 do
          S.set tmp i (S.get buf ((Plan.s' p ~j i * n) + j))
        done;
        for i = 0 to m - 1 do
          S.set buf ((i * n) + j) (S.get tmp i)
        done
      done

    let col_shuffle_ungather (p : Plan.t) buf ~tmp ~lo ~hi =
      let m = p.m and n = p.n in
      for j = lo to hi - 1 do
        for i = 0 to m - 1 do
          S.set tmp i (S.get buf ((Plan.s'_inv p ~j i * n) + j))
        done;
        for i = 0 to m - 1 do
          S.set buf ((i * n) + j) (S.get tmp i)
        done
      done

    let permute_rows (p : Plan.t) buf ~tmp ~index ~lo ~hi =
      let m = p.m and n = p.n in
      (* The same permutation applies to every column; precompute it so the
         index function runs once per row rather than once per element. *)
      let idx = Array.init m index in
      for j = lo to hi - 1 do
        for i = 0 to m - 1 do
          S.set tmp i (S.get buf ((Array.unsafe_get idx i * n) + j))
        done;
        for i = 0 to m - 1 do
          S.set buf ((i * n) + j) (S.get tmp i)
        done
      done
  end

  (* One observability span per permutation pass: the shape, the exact
     Theorem-6 element-touch count of the pass (Pass_cost), and the
     scratch it needs. Zero-cost when the tracer is off beyond one flag
     read per pass — never per element. *)
  let obs_pass (p : Plan.t) name ~pred f =
    Xpose_obs.Tracer.pass ~name ~rows:p.m ~cols:p.n ~pred_touches:pred
      ~scratch_elems:(Plan.scratch_elements p) f

  let c2r ?(variant = C2r_gather) (p : Plan.t) buf ~tmp =
    check_args p buf ~tmp;
    let m = p.m and n = p.n in
    if m = 1 || n = 1 then ()
    else begin
      if not (Plan.coprime p) then begin
        let amount = Plan.rotate_amount p in
        obs_pass p "rotate_pre" ~pred:(Pass_cost.rotate p ~amount) (fun () ->
            Phases.rotate_columns p buf ~tmp ~amount ~lo:0 ~hi:n)
      end;
      (match variant with
      | C2r_scatter ->
          obs_pass p "row_shuffle" ~pred:(Pass_cost.shuffle p) (fun () ->
              Phases.row_shuffle_scatter p buf ~tmp ~lo:0 ~hi:m)
      | C2r_gather | C2r_decomposed ->
          obs_pass p "row_shuffle" ~pred:(Pass_cost.shuffle p) (fun () ->
              Phases.row_shuffle_gather p buf ~tmp ~lo:0 ~hi:m));
      match variant with
      | C2r_scatter | C2r_gather ->
          obs_pass p "col_shuffle" ~pred:(Pass_cost.shuffle p) (fun () ->
              Phases.col_shuffle_gather p buf ~tmp ~lo:0 ~hi:n)
      | C2r_decomposed ->
          let amount j = j in
          obs_pass p "col_rotate" ~pred:(Pass_cost.rotate p ~amount) (fun () ->
              Phases.rotate_columns p buf ~tmp ~amount ~lo:0 ~hi:n);
          obs_pass p "row_permute" ~pred:(Pass_cost.permute_rows p) (fun () ->
              Phases.permute_rows p buf ~tmp ~index:(Plan.q p) ~lo:0 ~hi:n)
    end

  let r2c ?(variant = R2c_fused) (p : Plan.t) buf ~tmp =
    check_args p buf ~tmp;
    let m = p.m and n = p.n in
    if m = 1 || n = 1 then ()
    else begin
      (match variant with
      | R2c_fused ->
          obs_pass p "col_unshuffle" ~pred:(Pass_cost.shuffle p) (fun () ->
              Phases.col_shuffle_ungather p buf ~tmp ~lo:0 ~hi:n)
      | R2c_decomposed ->
          obs_pass p "row_unpermute" ~pred:(Pass_cost.permute_rows p)
            (fun () ->
              Phases.permute_rows p buf ~tmp ~index:(Plan.q_inv p) ~lo:0 ~hi:n);
          let amount j = -j in
          obs_pass p "col_unrotate" ~pred:(Pass_cost.rotate p ~amount)
            (fun () -> Phases.rotate_columns p buf ~tmp ~amount ~lo:0 ~hi:n));
      obs_pass p "row_unshuffle" ~pred:(Pass_cost.shuffle p) (fun () ->
          Phases.row_shuffle_ungather p buf ~tmp ~lo:0 ~hi:m);
      if not (Plan.coprime p) then begin
        let amount j = -Plan.rotate_amount p j in
        obs_pass p "rotate_post" ~pred:(Pass_cost.rotate p ~amount) (fun () ->
            Phases.rotate_columns p buf ~tmp ~amount ~lo:0 ~hi:n)
      end
    end

  (* A row-major m x n matrix is transposed by C2R on plan (m, n) (Thm. 1)
     or by R2C on plan (n, m) (Thm. 2). A column-major m x n matrix shares
     its linearization with the row-major n x m problem. *)
  let normalize_dims ?(order = Layout.Row_major) ~m ~n () =
    match order with Layout.Row_major -> (m, n) | Layout.Col_major -> (n, m)

  let transpose_with ~algorithm ?order ~m ~n buf ~tmp =
    let m, n = normalize_dims ?order ~m ~n () in
    match algorithm with
    | `C2r -> c2r (Plan.make ~m ~n) buf ~tmp
    | `R2c -> r2c (Plan.make ~m:n ~n:m) buf ~tmp

  let transpose ?order ~m ~n buf =
    let rm, rn = normalize_dims ?order ~m ~n () in
    let tmp = S.create (max rm rn) in
    (* §5.2 heuristic: more rows than columns favours C2R. *)
    let algorithm = if rm > rn then `C2r else `R2c in
    transpose_with ~algorithm ~order:Layout.Row_major ~m:rm ~n:rn buf ~tmp

  let transpose_oop ?order ~m ~n src dst =
    let m, n = normalize_dims ?order ~m ~n () in
    if S.length src <> m * n || S.length dst <> m * n then
      invalid_arg "Algo.transpose_oop: buffer sizes";
    for l = 0 to (m * n) - 1 do
      S.set dst (Layout.transpose_index ~m ~n l) (S.get src l)
    done

  let is_transpose_of ?order ~m ~n ~original buf =
    let m, n = normalize_dims ?order ~m ~n () in
    S.length original = m * n
    && S.length buf = m * n
    &&
    let ok = ref true in
    (try
       for l = 0 to (m * n) - 1 do
         if
           not
             (S.equal
                (S.get buf (Layout.transpose_index ~m ~n l))
                (S.get original l))
         then begin
           ok := false;
           raise Exit
         end
       done
     with Exit -> ());
    !ok

  let copy buf =
    let dst = S.create (S.length buf) in
    S.blit buf 0 dst 0 (S.length buf);
    dst
end

(* -- access metadata -----------------------------------------------------
   The symbolic access summaries of the pipelines above, storage-
   independent by construction: Access.Passes mirrors the phase bodies
   of this functor (whose row shuffles Kernels_f64 shares) expression
   for expression. *)

let c2r_access = function
  | C2r_gather -> Access.Passes.c2r Access.Passes.Gather
  | C2r_scatter -> Access.Passes.c2r Access.Passes.Scatter
  | C2r_decomposed -> Access.Passes.c2r Access.Passes.Decomposed

let r2c_access = function
  | R2c_fused -> Access.Passes.r2c Access.Passes.Fused_inverse
  | R2c_decomposed -> Access.Passes.r2c Access.Passes.Decomposed_inverse
