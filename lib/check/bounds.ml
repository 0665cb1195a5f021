(* Parametric bounds certification: every access summary of every
   engine pass is turned into polynomial obligations ("index >= 0" and
   "size - 1 - index >= 0" along every translation branch) and
   discharged by {!Poly.prove_nonneg} over the summary's basis -- the
   plan basis (a, b, c >= 1, a_inv, b_inv >= 0, m = a*c, n = b*c) or
   the free basis (m, n >= 1) -- with the pass parameters (sub-range,
   panel width, window geometry) as bounded symbolic variables. No
   shape is ever enumerated for a certificate.

   When a proof fails, the verdict is NOT "out of bounds": the prover
   is incomplete. The analyzer then searches deterministically for a
   concrete counterexample shape by evaluating the summary on small
   shapes and sampled parameters; a found witness turns the failure
   into a definite refutation with a printable shape (this is how the
   seeded [--seed-oob-static] summary is caught). The search is total
   and bounded: a sample whose evaluation divides by zero is infeasible,
   and at most [max_samples] samples are evaluated. *)

open Xpose_core

type result = {
  subject : string;
  pass : string;
  proved : bool;
  obligations : int;  (** polynomial goals discharged (branches counted) *)
  detail : string;
  counterexample : string option;
}

(* -- obligation generation and discharge --------------------------------- *)

exception Fail of string

let fail fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

let prelude (s : Access.summary) : Poly.ctx * Poly.env =
  let open Poly in
  let ctx, env =
    match s.basis with
    | Access.Plan_basis ->
        let ctx =
          List.fold_left
            (fun ctx (v, lo) ->
              add_var ctx v ~lowers:[ P.const lo ] ~uppers:[])
            ctx_empty
            [ ("a", 1); ("b", 1); ("c", 1); ("a_inv", 0); ("b_inv", 0) ]
        in
        let env =
          SMap.of_seq
            (List.to_seq
               [
                 ("a", P.var "a");
                 ("b", P.var "b");
                 ("c", P.var "c");
                 ("a_inv", P.var "a_inv");
                 ("b_inv", P.var "b_inv");
                 ("m", P.mul (P.var "a") (P.var "c"));
                 ("n", P.mul (P.var "b") (P.var "c"));
               ])
        in
        (ctx, env)
    | Access.Free_basis ->
        let ctx =
          List.fold_left
            (fun ctx v -> add_var ctx v ~lowers:[ P.const 1 ] ~uppers:[])
            ctx_empty [ "m"; "n" ]
        in
        ( ctx,
          SMap.of_seq
            (List.to_seq [ ("m", P.var "m"); ("n", P.var "n") ]) )
  in
  (* Parameters become bounded symbolic variables. Their bound
     expressions must translate without forking (plain affine bounds;
     conjunctions of uppers are expressed as lists, not Min). *)
  let single what ctx env e =
    match Poly.translate ctx env e with
    | [ (ctx', p) ]
      when ctx'.fresh = ctx.fresh
           && List.length ctx'.facts = List.length ctx.facts ->
        p
    | _ -> fail "parameter %s bound %s is not a plain polynomial" what
             (Access.to_string e)
  in
  List.fold_left
    (fun (ctx, env) (p : Access.param) ->
      let lo = single p.name ctx env p.p_lo in
      if not (prove_nonneg ctx lo) then
        fail "parameter %s may be negative (lower bound %s)" p.name
          (P.to_string lo);
      let uppers = List.map (single p.name ctx env) p.p_his in
      let ctx = add_var ctx p.name ~lowers:[ lo ] ~uppers in
      (ctx, SMap.add p.name (P.var p.name) env))
    (ctx, env) s.params

let certify_summary (s : Access.summary) : (int, string) Stdlib.result =
  let open Poly in
  let obligations = ref 0 in
  let must ctx goal what =
    incr obligations;
    if not (prove_nonneg ctx goal) then
      fail "%s: no proof of %s >= 0" what (P.to_string goal)
  in
  try
    let ctx0, env0 = prelude s in
    (* Region sizes may fork (Max (m, n) scratch): walk the body once
       per covering branch of the size translations. *)
    let region_branches =
      List.fold_left
        (fun branches (r : Access.region) ->
          List.concat_map
            (fun (ctx, sizes) ->
              List.map
                (fun (ctx, p) -> (ctx, (r.rname, p) :: sizes))
                (translate ctx env0 r.size))
            branches)
        [ (ctx0, []) ]
        s.regions
    in
    let rec walk ctx env sizes nodes = List.iter (node ctx env sizes) nodes
    and node ctx env sizes : Access.node -> unit = function
      | Access.Acc { region; kind; index } ->
          let size =
            match List.assoc_opt region sizes with
            | Some p -> p
            | None -> fail "undeclared region %s in %s" region s.pass
          in
          let what =
            Printf.sprintf "%s %s %s"
              (match kind with Access.Read -> "read" | Access.Write -> "write")
              region (Access.to_string index)
          in
          List.iter
            (fun (ctx, idx) ->
              must ctx idx what;
              must ctx (P.sub (P.sub size (P.const 1)) idx) what)
            (translate ctx env index)
      | Access.For { var; lo; hi; body } ->
          List.iter
            (fun (ctx, plo) ->
              must ctx plo (Printf.sprintf "loop %s lower bound" var);
              List.iter
                (fun (ctx, phi) ->
                  let ctx =
                    add_var ctx var ~lowers:[ plo ]
                      ~uppers:[ P.sub phi (P.const 1) ]
                  in
                  walk ctx (SMap.add var (P.var var) env) sizes body)
                (translate ctx env hi))
            (translate ctx env lo)
      | Access.Bind { var; def; body } ->
          List.iter
            (fun (ctx, pdef) -> walk ctx (SMap.add var pdef env) sizes body)
            (translate ctx env def)
      | Access.When (c, body) ->
          List.iter (fun ctx -> walk ctx env sizes body) (assume ctx env c)
    in
    List.iter (fun (ctx, sizes) -> walk ctx env0 sizes s.body) region_branches;
    Ok !obligations
  with
  | Fail msg -> Error msg
  | Poly.Unsupported msg -> Error msg

(* -- counterexample search ------------------------------------------------ *)

(* Small shapes, smallest area first: the first witness found is the
   minimal one in this deterministic order. *)
let search_shapes =
  let all = ref [] in
  for m = 1 to 8 do
    for n = 1 to 8 do
      all := (m, n) :: !all
    done
  done;
  List.sort
    (fun (m1, n1) (m2, n2) -> compare (m1 * n1, m1, n1) (m2 * n2, m2, n2))
    !all

exception Found of string

let describe env (s : Access.summary) (e : Access.event) size =
  let shape =
    Printf.sprintf "m=%d n=%d" (List.assoc "m" env) (List.assoc "n" env)
  in
  let params =
    String.concat " "
      (List.map
         (fun (p : Access.param) ->
           Printf.sprintf "%s=%d" p.name (List.assoc p.name env))
         s.params)
  in
  Printf.sprintf "%s %s: %s %s[%d] outside [0, %d) in %s" shape params
    (match e.Access.e_kind with Access.Read -> "read" | Access.Write -> "write")
    e.Access.e_region e.Access.e_index size s.pass

(* The search's budget: evaluated samples (full parameter assignments),
   smallest shapes first. A failed proof of a many-parameter summary
   otherwise evaluates tens of thousands of samples. *)
let max_samples = 4096

exception Budget_spent

let find_counterexample (s : Access.summary) : string option =
  let basis_envs =
    List.map
      (fun (m, n) ->
        match s.basis with
        | Access.Plan_basis -> Access.env_of_plan (Plan.make ~m ~n)
        | Access.Free_basis -> [ ("m", m); ("n", n) ])
      search_shapes
  in
  (* A parameter value whose bounds divide by zero (say a width
     [min(width, hi - j0)] at [hi = j0]) is infeasible, not a crash. *)
  let rec combos env params k =
    match params with
    | [] -> k env
    | (p : Access.param) :: rest ->
        let ok v =
          match
            v >= Access.eval env p.p_lo
            && List.for_all (fun u -> v <= Access.eval env u) p.p_his
          with
          | ok -> ok
          | exception Division_by_zero -> false
        in
        List.iter
          (fun v -> if ok v then combos ((p.name, v) :: env) rest k)
          (List.sort_uniq compare p.sample)
  in
  let samples = ref 0 in
  let check env =
    if !samples >= max_samples then raise Budget_spent;
    incr samples;
    match
      let sizes =
        List.map
          (fun (r : Access.region) -> (r.rname, Access.eval env r.size))
          s.regions
      in
      (sizes, Access.concretize ~cap:200_000 ~env s)
    with
    | exception (Access.Too_many_accesses | Division_by_zero) -> ()
    | sizes, events ->
        List.iter
          (fun (e : Access.event) ->
            let size = List.assoc e.e_region sizes in
            if e.e_index < 0 || e.e_index >= size then
              raise (Found (describe env s e size)))
          events
  in
  try
    List.iter (fun env0 -> combos env0 s.params check) basis_envs;
    None
  with
  | Found msg -> Some msg
  | Budget_spent -> None

(* -- the certificate grid ------------------------------------------------- *)

let certify ~subject (s : Access.summary) : result =
  match certify_summary s with
  | Ok obligations ->
      {
        subject;
        pass = s.pass;
        proved = true;
        obligations;
        detail =
          Printf.sprintf "%d obligations proved for all shapes%s" obligations
            (if s.exact then "" else " (superset summary)");
        counterexample = None;
      }
  | Error reason -> (
      match find_counterexample s with
      | Some cx ->
          {
            subject;
            pass = s.pass;
            proved = false;
            obligations = 0;
            detail = Printf.sprintf "refuted: %s" cx;
            counterexample = Some cx;
          }
      | None ->
          {
            subject;
            pass = s.pass;
            proved = false;
            obligations = 0;
            detail = Printf.sprintf "no proof found (%s); no small counterexample" reason;
            counterexample = None;
          })

(* The passes of the generic reference engines (Algo.Make, and the
   unfused sweeps of Cache_aware): the row/column pipeline summaries. *)
let kernel_results () =
  List.map
    (fun (s : Access.summary) ->
      certify ~subject:(Printf.sprintf "kernels/%s" s.pass) s)
    Access.Passes.all_pipeline_passes

(* The panel primitives of the generic Fused.Make (the Cache engine's
   reference) and the stage-and-gather column passes of the f64
   engine. Each summary is certified once for every width and again
   pinned at each width of [Spec.widths], so each proved staging width
   is named in the grid (still no shape enumerated). *)
let fused_results ~widths () =
  List.concat_map
    (fun (s : Access.summary) ->
      certify ~subject:(Printf.sprintf "%s w=*" s.pass) s
      :: List.map
           (fun w ->
             certify
               ~subject:(Printf.sprintf "%s w=%d" s.pass w)
               (Access.pin s "w" w))
           widths)
    (Xpose_cpu.Fused.Summary.panel_passes @ Kernels_f64.stage_access)

let ooc_results () =
  List.map
    (fun (s : Access.summary) ->
      certify ~subject:(Printf.sprintf "%s" s.pass) s)
    Xpose_ooc.Ooc_access.all

(* Roll-up entries: an engine (or the batch driver, or ooc pipeline) is
   certified when every pass certificate it schedules is. These carry
   no new proofs -- they make the grid answer "is engine X safe for all
   shapes?" directly. *)
let rollup ~subject ~detail ~passes results =
  let covers (r : result) = List.exists (String.equal r.pass) passes in
  let relevant = List.filter covers results in
  let ok = relevant <> [] && List.for_all (fun r -> r.proved) relevant in
  {
    subject;
    pass = subject;
    proved = ok;
    obligations = List.fold_left (fun a r -> a + r.obligations) 0 relevant;
    detail;
    counterexample = None;
  }

let pass_names (l : Access.summary list) =
  List.map (fun (s : Access.summary) -> s.pass) l

let engine_rollups results =
  let open Access.Passes in
  let functor_engines =
    List.concat_map
      (fun engine ->
        [
          rollup results
            ~subject:(Printf.sprintf "engine %s c2r" engine)
            ~detail:"gather, scatter and decomposed pipelines, all sub-ranges"
            ~passes:
              (pass_names (c2r Gather @ c2r Scatter @ c2r Decomposed));
          rollup results
            ~subject:(Printf.sprintf "engine %s r2c" engine)
            ~detail:"fused-inverse and decomposed pipelines, all sub-ranges"
            ~passes:
              (pass_names (r2c Fused_inverse @ r2c Decomposed_inverse));
        ])
      [ "functor"; "decomposed" ]
  in
  let kernels =
    [
      rollup results ~subject:"engine kernels c2r"
        ~detail:"staged rotation and shuffle + walk row shuffle, all stagings"
        ~passes:(pass_names Kernels_f64.c2r_access);
      rollup results ~subject:"engine kernels r2c"
        ~detail:
          "staged unshuffle and rotation + walk row unshuffle, all stagings"
        ~passes:(pass_names Kernels_f64.r2c_access);
    ]
  in
  let panel_passes = pass_names Xpose_cpu.Fused.Summary.panel_passes in
  let staged = pass_names (Kernels_f64.c2r_access @ Kernels_f64.r2c_access) in
  let fused =
    [
      rollup results ~subject:"engine cache"
        ~detail:
          "kernel shuffles + panel sweeps (rotate/permute per panel), all \
           widths"
        ~passes:
          (panel_passes
          @ pass_names
              [ rotate_pre; rotate_post; col_rotate; col_unrotate;
                row_shuffle_gather; row_shuffle_ungather; row_permute_q;
                row_permute_q_inv ]);
      rollup results ~subject:"engine fused"
        ~detail:
          "staged rotations and shuffles + walk row shuffles; serial, pool \
           and batch schedules (sub-range quantified)"
        ~passes:staged;
    ]
  in
  let batch =
    [
      rollup results ~subject:"batch"
        ~detail:
          "matrix-parallel (serial engine per lane) when nb >= lanes, \
           panel-parallel (pool pipeline) otherwise; both reduce to the \
           fused certificates"
        ~passes:staged;
    ]
  in
  let ooc =
    [
      rollup results ~subject:"engine ooc"
        ~detail:
          "window row shuffles + stripe gather/scatter; the column passes \
           run the staged certificates on each staging (pitch = its width, \
           col0 = its first column)"
        ~passes:
          (pass_names Xpose_ooc.Ooc_access.all
          @ pass_names Kernels_f64.stage_access);
    ]
  in
  functor_engines @ kernels @ fused @ batch @ ooc

let seeded_result () =
  certify ~subject:"seeded/rotate-oob"
    (Access.Passes.seeded_oob_rotate Access.Ix.rotate_amount)

let run ?(widths = Spec.widths) ?(seed_oob_static = false) () : result list =
  let base = kernel_results () @ fused_results ~widths () @ ooc_results () in
  let rollups = engine_rollups base in
  let seeded = if seed_oob_static then [ seeded_result () ] else [] in
  base @ rollups @ seeded
