(* Parametric alias certification: the chunk and window splits the
   parallel drivers partition index space with are proved disjoint
   symbolically -- for every range, lane count, panel width, batch
   size, block width and window budget at once -- by the same
   polynomial prover that backs {!Bounds}. {!Footprint} checks the
   same splits pairwise on concrete shapes; the certificates here
   quantify that argument, so a green grid says the drivers' barriers
   can never overlap on ANY shape, not just the enumerated ones.

   Each certificate models one split family: [Pool.chunk_bounds] (base
   and remainder of the Euclidean division enter as bounded variables
   tied by the division identity), the ooc [Window.split], and the
   footprint maps the drivers lift a split through (row intervals,
   column ranges, width-scaled panel groups, batch slices, strided
   block slots, per-lane scratch slices). When a proof fails the
   analyzer searches the corresponding concrete split function for a
   minimal overlap witness, turning incompleteness into a refutation
   when one exists -- the seeded [off_by_one_split] and
   [overlapping_split] negatives are refuted exactly this way. *)

open Xpose_core

type result = {
  subject : string;
  proved : bool;
  obligations : int;  (** polynomial goals discharged (branches counted) *)
  detail : string;
  counterexample : string option;
}

exception Fail of string

let v = Poly.P.var
let pc = Poly.P.const

let env_of names =
  Poly.SMap.of_seq (List.to_seq (List.map (fun n -> (n, Poly.P.var n)) names))

(* -- symbolic split models ------------------------------------------------ *)

(* Symbolic [Pool.chunk_bounds] over [lo, hi) with [lanes] chunks.
   [base] and [rem] are the quotient and remainder of (hi - lo) /
   lanes, constrained only by the Euclidean identity and 0 <= rem <
   lanes, so one proof covers every division result. [pair] caps the
   chunk index [k] at lanes - 2 so adjacent-pair goals may mention
   k + 1; otherwise k ranges over all chunks. *)
let add_pool ctx ~lo ~hi ~pair =
  let open Poly in
  let ctx = add_var ctx "lanes" ~lowers:[ pc 1 ] ~uppers:[] in
  let ctx = add_var ctx "base" ~lowers:[ P.zero ] ~uppers:[] in
  let ctx =
    add_var ctx "rem" ~lowers:[ P.zero ] ~uppers:[ P.sub (v "lanes") (pc 1) ]
  in
  let len = P.sub hi lo in
  let split = P.add (P.mul (v "base") (v "lanes")) (v "rem") in
  let ctx = add_fact ctx (P.sub len split) in
  let ctx = add_fact ctx (P.sub split len) in
  add_var ctx "k" ~lowers:[ P.zero ]
    ~uppers:[ P.sub (v "lanes") (pc (if pair then 2 else 1)) ]

(* Chunk k of the pool split covers [pool_clo k, pool_chi k) -- the
   expression-level transcription of [Pool.chunk_bounds]. *)
let pool_clo ~lo k = Access.(lo +: (k *: var "base") +: Min (k, var "rem"))

let pool_chi ~lo k =
  Access.(pool_clo ~lo k +: var "base" +: Ite (lt k (var "rem"), num 1, num 0))

let pool_names = [ "lo"; "hi"; "lanes"; "base"; "rem"; "k" ]

let range_ctx =
  let open Poly in
  let ctx = add_var ctx_empty "lo" ~lowers:[ P.zero ] ~uppers:[] in
  add_var ctx "hi" ~lowers:[ v "lo" ] ~uppers:[]

(* Symbolic [Window.split ~total ~per]: window k covers
   [k*per, min total ((k+1)*per)) and exists iff k*per < total. *)
let add_window ctx ~pair =
  let open Poly in
  let ctx = add_var ctx "total" ~lowers:[ pc 1 ] ~uppers:[] in
  let ctx = add_var ctx "per" ~lowers:[ pc 1 ] ~uppers:[] in
  let ctx = add_var ctx "k" ~lowers:[ P.zero ] ~uppers:[] in
  let exists k = P.sub (P.sub (v "total") (pc 1)) (P.mul k (v "per")) in
  let ctx = add_fact ctx (exists (v "k")) in
  if pair then add_fact ctx (exists (P.add (v "k") (pc 1))) else ctx

let win_clo k = Access.(k *: var "per")
let win_chi k = Access.(Min (var "total", (k +: num 1) *: var "per"))

(* -- obligation discharge ------------------------------------------------- *)

type goal = {
  what : string;
  gctx : Poly.ctx;
  genv : Poly.env;
  exp : Access.exp;  (** must be [>= 0] on every covering branch *)
}

let prove ~count { what; gctx; genv; exp } =
  List.iter
    (fun (ctx, p) ->
      incr count;
      if not (Poly.prove_nonneg ctx p) then
        raise
          (Fail
             (Printf.sprintf "%s: no proof of %s >= 0" what
                (Poly.P.to_string p))))
    (Poly.translate gctx genv exp)

let certificate ~subject ~detail ~counter goals : result =
  let count = ref 0 in
  match List.iter (prove ~count) goals with
  | () ->
      {
        subject;
        proved = true;
        obligations = !count;
        detail =
          Printf.sprintf "%d obligations proved for all shapes: %s" !count
            detail;
        counterexample = None;
      }
  | exception (Fail msg | Poly.Unsupported msg) -> (
      match counter () with
      | Some cx ->
          {
            subject;
            proved = false;
            obligations = 0;
            detail = Printf.sprintf "refuted: %s" cx;
            counterexample = Some cx;
          }
      | None ->
          {
            subject;
            proved = false;
            obligations = 0;
            detail =
              Printf.sprintf "no proof found (%s); no small counterexample" msg;
            counterexample = None;
          })

(* -- concrete refutation search ------------------------------------------- *)

exception Found of string

(* Smallest range first, then lane count: the first overlap or escape
   found is the minimal witness in this deterministic order. *)
let split_counterexample (split : Footprint.split) : string option =
  try
    for hi = 0 to 12 do
      for lanes = 1 to 4 do
        let b = Array.init lanes (fun k -> split ~lo:0 ~hi ~chunks:lanes k) in
        Array.iteri
          (fun k (l1, h1) ->
            if l1 < h1 && (l1 < 0 || h1 > hi) then
              raise
                (Found
                   (Printf.sprintf
                      "lo=0 hi=%d lanes=%d: chunk %d [%d,%d) escapes [0,%d)" hi
                      lanes k l1 h1 hi));
            for k' = k + 1 to lanes - 1 do
              let l2, h2 = b.(k') in
              let o_lo = max l1 l2 and o_hi = min h1 h2 in
              if o_lo < o_hi then
                raise
                  (Found
                     (Printf.sprintf
                        "lo=0 hi=%d lanes=%d: chunk %d [%d,%d) overlaps chunk \
                         %d [%d,%d) at index %d"
                        hi lanes k l1 h1 k' l2 h2 o_lo))
            done)
          b
      done
    done;
    None
  with Found s -> Some s

let window_counterexample (splitter : Xpose_ooc.Window.splitter) :
    string option =
  try
    for total = 0 to 12 do
      for per = 1 to 4 do
        let ws = Array.of_list (splitter ~total ~per) in
        Array.iteri
          (fun i (w : Xpose_ooc.Window.t) ->
            if w.lo < w.hi && (w.lo < 0 || w.hi > total) then
              raise
                (Found
                   (Printf.sprintf
                      "total=%d per=%d: window %d [%d,%d) escapes [0,%d)" total
                      per i w.lo w.hi total));
            for j = i + 1 to Array.length ws - 1 do
              let x = ws.(j) in
              let o_lo = max w.lo x.Xpose_ooc.Window.lo
              and o_hi = min w.hi x.Xpose_ooc.Window.hi in
              if o_lo < o_hi then
                raise
                  (Found
                     (Printf.sprintf
                        "total=%d per=%d: window %d [%d,%d) overlaps window %d \
                         [%d,%d) at index %d"
                        total per i w.lo w.hi j x.Xpose_ooc.Window.lo
                        x.Xpose_ooc.Window.hi o_lo))
            done)
          ws
      done
    done;
    None
  with Found s -> Some s

(* -- the certificates ----------------------------------------------------- *)

(* The split itself: [Pool.chunk_bounds] partitions [lo, hi) exactly,
   for every range and lane count. Everything the row/column drivers
   run ([Par_transpose], the f64 pool drivers' row passes, the ooc
   per-window shuffles)
   reduces to this split or a monotone image of it. *)
let split_pool () =
  let any = add_pool range_ctx ~lo:(v "lo") ~hi:(v "hi") ~pair:false in
  let pair = add_pool range_ctx ~lo:(v "lo") ~hi:(v "hi") ~pair:true in
  let genv = env_of pool_names in
  let k = Access.var "k" in
  let k1 = Access.(k +: num 1) in
  let lo = Access.var "lo" in
  let clo = pool_clo ~lo and chi = pool_chi ~lo in
  certificate ~subject:"split/pool"
    ~detail:
      "Pool.chunk_bounds partitions [lo, hi) exactly for every range and \
       lane count"
    ~counter:(fun () -> split_counterexample Footprint.pool_split)
    [
      { what = "chunk well-formed"; gctx = any; genv; exp = Access.(chi k -: clo k) };
      {
        what = "chunk starts at or after lo";
        gctx = any;
        genv;
        exp = Access.(clo k -: var "lo");
      };
      {
        what = "chunk ends at or before hi";
        gctx = any;
        genv;
        exp = Access.(var "hi" -: chi k);
      };
      {
        what = "adjacent chunks disjoint";
        gctx = pair;
        genv;
        exp = Access.(clo k1 -: chi k);
      };
      {
        what = "chunks tile exactly";
        gctx = pair;
        genv;
        exp = Access.(chi k -: clo k1);
      };
      {
        what = "first chunk starts at lo";
        gctx = any;
        genv;
        exp = Access.(clo (num 0) -: var "lo");
      };
      {
        what = "first chunk starts at lo";
        gctx = any;
        genv;
        exp = Access.(var "lo" -: clo (num 0));
      };
      {
        what = "last chunk ends at hi";
        gctx = any;
        genv;
        exp = Access.(var "hi" -: chi (var "lanes" -: num 1));
      };
      {
        what = "last chunk ends at hi";
        gctx = any;
        genv;
        exp = Access.(chi (var "lanes" -: num 1) -: var "hi");
      };
    ]

(* The ooc windowing: [Window.split] tiles [0, total) exactly for
   every total and budget-derived window size. *)
let split_window () =
  let any = add_window Poly.ctx_empty ~pair:false in
  let pair = add_window Poly.ctx_empty ~pair:true in
  let genv = env_of [ "total"; "per"; "k" ] in
  let k = Access.var "k" in
  let k1 = Access.(k +: num 1) in
  certificate ~subject:"split/window"
    ~detail:
      "Window.split tiles [0, total) exactly for every total and window size"
    ~counter:(fun () -> window_counterexample Xpose_ooc.Window.split)
    [
      {
        what = "window well-formed";
        gctx = any;
        genv;
        exp = Access.(win_chi k -: win_clo k);
      };
      {
        what = "window within range";
        gctx = any;
        genv;
        exp = Access.(var "total" -: win_chi k);
      };
      {
        what = "adjacent windows disjoint";
        gctx = any;
        genv;
        exp = Access.(win_clo k1 -: win_chi k);
      };
      {
        what = "windows tile exactly";
        gctx = pair;
        genv;
        exp = Access.(win_chi k -: win_clo k1);
      };
    ]

(* Interval lift: lanes own [clo*scale, chi*scale) of a flat buffer --
   the row barriers (scale = row width n) and the batch/permute slice
   barriers (scale = elements per matrix). Disjoint chunk index ranges
   stay disjoint under the scaling, parametrically in the scale. *)
let interval_lift ~subject ~scale ~detail () =
  let base = Poly.add_var range_ctx scale ~lowers:[ pc 1 ] ~uppers:[] in
  let any = add_pool base ~lo:(v "lo") ~hi:(v "hi") ~pair:false in
  let pair = add_pool base ~lo:(v "lo") ~hi:(v "hi") ~pair:true in
  let genv = env_of (scale :: pool_names) in
  let k = Access.var "k" in
  let k1 = Access.(k +: num 1) in
  let s = Access.var scale in
  let lo = Access.var "lo" in
  let clo = pool_clo ~lo and chi = pool_chi ~lo in
  certificate ~subject ~detail
    ~counter:(fun () -> split_counterexample Footprint.pool_split)
    [
      {
        what = "adjacent footprints disjoint";
        gctx = pair;
        genv;
        exp = Access.((clo k1 *: s) -: (chi k *: s));
      };
      {
        what = "footprint below range top";
        gctx = any;
        genv;
        exp = Access.((var "hi" *: s) -: (chi k *: s));
      };
      {
        what = "footprint above range base";
        gctx = any;
        genv;
        exp = Access.((clo k *: s) -: (var "lo" *: s));
      };
    ]

(* Column barriers: lanes own column ranges of a row-major matrix; the
   strided footprints {r*n + j | j in [clo, chi)} of two lanes are
   disjoint because the column ranges are disjoint sub-ranges of one
   row, i.e. the ranges never overlap and never leave [0, n). *)
let column_chunks () =
  let base = Poly.add_var Poly.ctx_empty "n" ~lowers:[ pc 1 ] ~uppers:[] in
  let any = add_pool base ~lo:Poly.P.zero ~hi:(v "n") ~pair:false in
  let pair = add_pool base ~lo:Poly.P.zero ~hi:(v "n") ~pair:true in
  let genv = env_of [ "n"; "lanes"; "base"; "rem"; "k" ] in
  let k = Access.var "k" in
  let k1 = Access.(k +: num 1) in
  let clo = pool_clo ~lo:(Access.num 0) and chi = pool_chi ~lo:(Access.num 0) in
  certificate ~subject:"barrier/column-chunks"
    ~detail:
      "per-lane column ranges are disjoint sub-ranges of every row (strided \
       footprints never meet)"
    ~counter:(fun () -> split_counterexample Footprint.pool_split)
    [
      {
        what = "adjacent column ranges disjoint";
        gctx = pair;
        genv;
        exp = Access.(clo k1 -: chi k);
      };
      {
        what = "column range within the row";
        gctx = any;
        genv;
        exp = Access.(var "n" -: chi k);
      };
      {
        what = "column range starts in the row";
        gctx = any;
        genv;
        exp = clo k;
      };
    ]

(* Panel barriers: the pool splits ceil(n/w) column groups and each
   lane touches columns [g_lo*w, min n (g_hi*w)). The group count
   enters via the two ceiling-division facts, the width stays
   symbolic, so one proof covers every (n, w, lanes). *)
let panel_groups () =
  let open Poly in
  let base = add_var ctx_empty "n" ~lowers:[ pc 1 ] ~uppers:[] in
  let base = add_var base "w" ~lowers:[ pc 1 ] ~uppers:[] in
  let base = add_var base "groups" ~lowers:[ pc 1 ] ~uppers:[] in
  let gw = P.mul (v "groups") (v "w") in
  let base = add_fact base (P.sub gw (v "n")) in
  let base =
    add_fact base (P.sub (P.add (v "n") (P.sub (v "w") (pc 1))) gw)
  in
  let any = add_pool base ~lo:P.zero ~hi:(v "groups") ~pair:false in
  let pair = add_pool base ~lo:P.zero ~hi:(v "groups") ~pair:true in
  let genv = env_of [ "n"; "w"; "groups"; "lanes"; "base"; "rem"; "k" ] in
  let k = Access.var "k" in
  let k1 = Access.(k +: num 1) in
  let clo = pool_clo ~lo:(Access.num 0) and chi = pool_chi ~lo:(Access.num 0) in
  certificate ~subject:"barrier/panel-groups"
    ~detail:
      "width-aligned panel-group column ranges are disjoint and clipped to \
       the matrix for every width and lane count"
    ~counter:(fun () -> split_counterexample Footprint.pool_split)
    [
      {
        what = "adjacent panel groups disjoint";
        gctx = pair;
        genv;
        exp =
          Access.((clo k1 *: var "w") -: Min (var "n", chi k *: var "w"));
      };
      {
        what = "panel group clipped to the matrix";
        gctx = any;
        genv;
        exp = Access.(var "n" -: Min (var "n", chi k *: var "w"));
      };
      {
        what = "panel group starts in the matrix";
        gctx = any;
        genv;
        exp = Access.(clo k *: var "w");
      };
    ]

(* Staging groups: the f64 engines split the global columns [col0,
   col0 + pitch) a buffer holds into ceil(pitch/w) groups of the staging
   width w and each lane runs its columns [col0 + g_lo*w, min(col0 +
   pitch, col0 + g_hi*w)) through the staged pass. In RAM col0 = 0 and
   pitch = n; out of core col0 is the staging's first column and pitch
   its width. The lane ranges must be disjoint and stay inside the
   buffer's columns: the sub-ranges the stage summaries' staging
   parameters quantify. *)
let stage_groups () =
  let open Poly in
  let base = add_var ctx_empty "col0" ~lowers:[ P.zero ] ~uppers:[] in
  let base = add_var base "pitch" ~lowers:[ pc 1 ] ~uppers:[] in
  let base = add_var base "w" ~lowers:[ pc 1 ] ~uppers:[] in
  let base = add_var base "groups" ~lowers:[ pc 1 ] ~uppers:[] in
  let gw = P.mul (v "groups") (v "w") in
  let base = add_fact base (P.sub gw (v "pitch")) in
  let base =
    add_fact base (P.sub (P.add (v "pitch") (P.sub (v "w") (pc 1))) gw)
  in
  let any = add_pool base ~lo:P.zero ~hi:(v "groups") ~pair:false in
  let pair = add_pool base ~lo:P.zero ~hi:(v "groups") ~pair:true in
  let genv =
    env_of [ "col0"; "pitch"; "w"; "groups"; "lanes"; "base"; "rem"; "k" ]
  in
  let k = Access.var "k" in
  let k1 = Access.(k +: num 1) in
  let clo = pool_clo ~lo:(Access.num 0) and chi = pool_chi ~lo:(Access.num 0) in
  let top = Access.(var "col0" +: var "pitch") in
  let lane_lo kx = Access.(var "col0" +: (clo kx *: var "w")) in
  let lane_hi kx = Access.(Min (top, var "col0" +: (chi kx *: var "w"))) in
  certificate ~subject:"barrier/stage-groups"
    ~detail:
      "staging-width column groups of an in-RAM matrix or an out-of-core \
       staging are disjoint and inside the buffer's columns for every \
       width, offset and lane count"
    ~counter:(fun () -> split_counterexample Footprint.pool_split)
    [
      {
        what = "adjacent lanes' stagings disjoint";
        gctx = pair;
        genv;
        exp = Access.(lane_lo k1 -: lane_hi k);
      };
      {
        what = "lane stagings below the buffer's last column";
        gctx = any;
        genv;
        exp = Access.(top -: lane_hi k);
      };
      {
        what = "lane stagings from the buffer's first column";
        gctx = any;
        genv;
        exp = Access.(lane_lo k -: var "col0");
      };
    ]

(* Block-axis barriers ([Par_permute] wide single blocks): lane k owns
   slots [clo, chi) of each of [reps] consecutive [blk]-wide units.
   Same-rep disjointness is the split; cross-rep disjointness needs
   the slot ranges to stay inside one block. *)
let block_slots () =
  let open Poly in
  let base = add_var ctx_empty "blk" ~lowers:[ pc 1 ] ~uppers:[] in
  let base = add_var base "reps" ~lowers:[ pc 1 ] ~uppers:[] in
  let any = add_pool base ~lo:P.zero ~hi:(v "blk") ~pair:false in
  let pair = add_pool base ~lo:P.zero ~hi:(v "blk") ~pair:true in
  let cross =
    let ctx =
      add_var any "r1" ~lowers:[ P.zero ] ~uppers:[ P.sub (v "reps") (pc 1) ]
    in
    let ctx =
      add_var ctx "r2"
        ~lowers:[ P.add (v "r1") (pc 1) ]
        ~uppers:[ P.sub (v "reps") (pc 1) ]
    in
    add_var ctx "k2" ~lowers:[ P.zero ] ~uppers:[ P.sub (v "lanes") (pc 1) ]
  in
  let genv =
    env_of [ "blk"; "reps"; "lanes"; "base"; "rem"; "k"; "r1"; "r2"; "k2" ]
  in
  let k = Access.var "k" in
  let k1 = Access.(k +: num 1) in
  let clo = pool_clo ~lo:(Access.num 0) and chi = pool_chi ~lo:(Access.num 0) in
  certificate ~subject:"barrier/block-slots"
    ~detail:
      "strided block-slot footprints are disjoint within and across \
       repetitions for every block width, repetition count and lane count"
    ~counter:(fun () -> split_counterexample Footprint.pool_split)
    [
      {
        what = "adjacent slot ranges disjoint";
        gctx = pair;
        genv;
        exp = Access.(clo k1 -: chi k);
      };
      {
        what = "slot range within the block";
        gctx = any;
        genv;
        exp = Access.(var "blk" -: chi k);
      };
      {
        what = "later-rep slots after earlier-rep slots";
        gctx = cross;
        genv;
        exp =
          Access.(
            ((var "r2" *: var "blk") +: clo (var "k2"))
            -: ((var "r1" *: var "blk") +: chi k));
      };
    ]

(* Ooc row windows and stripes: window k owns file rows [clo, chi),
   i.e. the flat interval [clo*n, chi*n). *)
let ooc_windows () =
  let base = Poly.add_var Poly.ctx_empty "n" ~lowers:[ pc 1 ] ~uppers:[] in
  let any = add_window base ~pair:false in
  let genv = env_of [ "n"; "total"; "per"; "k" ] in
  let k = Access.var "k" in
  let k1 = Access.(k +: num 1) in
  let s = Access.var "n" in
  certificate ~subject:"barrier/ooc-windows"
    ~detail:
      "row-window and stripe file footprints are disjoint and within the \
       file for every shape and window budget (column panels reduce to the \
       window split on columns)"
    ~counter:(fun () -> window_counterexample Xpose_ooc.Window.split)
    [
      {
        what = "adjacent window footprints disjoint";
        gctx = any;
        genv;
        exp = Access.((win_clo k1 *: s) -: (win_chi k *: s));
      };
      {
        what = "window footprint within the file";
        gctx = any;
        genv;
        exp = Access.((var "total" *: s) -: (win_chi k *: s));
      };
    ]

(* Per-lane workspace: lane k's scratch slice [k*slot, (k+1)*slot) of
   a shared pool. The engines actually allocate one buffer per lane
   (scratch id = lane index), which this subsumes: distinct lanes
   never share a workspace slot. *)
let scratch_slots () =
  let open Poly in
  let ctx = add_var ctx_empty "slot" ~lowers:[ P.zero ] ~uppers:[] in
  let ctx = add_var ctx "lanes" ~lowers:[ pc 1 ] ~uppers:[] in
  let any =
    add_var ctx "k" ~lowers:[ P.zero ] ~uppers:[ P.sub (v "lanes") (pc 1) ]
  in
  let pairc =
    add_var any "k2"
      ~lowers:[ P.add (v "k") (pc 1) ]
      ~uppers:[ P.sub (v "lanes") (pc 1) ]
  in
  let genv = env_of [ "slot"; "lanes"; "k"; "k2" ] in
  let k = Access.var "k" in
  certificate ~subject:"barrier/scratch-slots"
    ~detail:
      "per-lane workspace slices are pairwise disjoint and within the pool \
       for every slot size and lane count"
    ~counter:(fun () -> None)
    [
      {
        what = "distinct lanes' slices disjoint";
        gctx = pairc;
        genv;
        exp =
          Access.((var "k2" *: var "slot") -: ((k +: num 1) *: var "slot"));
      };
      {
        what = "slice within the pool";
        gctx = any;
        genv;
        exp =
          Access.((var "lanes" *: var "slot") -: ((k +: num 1) *: var "slot"));
      };
    ]

(* Workspace <-> matrix disjointness is structural: every pass
   declares its scratch as a region distinct from the matrix, and
   distinct regions are distinct allocations. With {!Bounds}'
   in-bounds certificates an access can therefore only alias an
   access to the same region. This check enforces the two premises
   that argument rests on: region names are pairwise distinct within
   each summary, and every access targets a declared region. *)
let region_discipline () =
  let summaries =
    Access.Passes.all_pipeline_passes
    @ Xpose_cpu.Fused.Summary.panel_passes
    @ Xpose_cpu.Fused.Summary.c2r_passes
    @ Xpose_cpu.Fused.Summary.r2c_passes
    @ Kernels_f64.stage_access
    @ Xpose_ooc.Ooc_access.all
  in
  let count = ref 0 in
  let problem = ref None in
  let flag msg = if !problem = None then problem := Some msg in
  List.iter
    (fun (s : Access.summary) ->
      let declared =
        List.map (fun (r : Access.region) -> r.rname) s.regions
      in
      incr count;
      if
        List.length (List.sort_uniq compare declared)
        <> List.length declared
      then flag (Printf.sprintf "%s: duplicate region declaration" s.pass);
      let rec walk = function
        | Access.Acc { region; _ } ->
            incr count;
            if not (List.mem region declared) then
              flag
                (Printf.sprintf "%s: access to undeclared region %s" s.pass
                   region)
        | Access.For { body; _ }
        | Access.Bind { body; _ }
        | Access.When (_, body) ->
            List.iter walk body
      in
      List.iter walk s.body)
    summaries;
  match !problem with
  | None ->
      {
        subject = "regions/workspace-matrix";
        proved = true;
        obligations = !count;
        detail =
          Printf.sprintf
            "%d structural checks: regions are distinct allocations and \
             every access names a declared one (cross-region disjointness \
             by construction, in-region bounds by the Bounds grid)"
            !count;
        counterexample = None;
      }
  | Some msg ->
      {
        subject = "regions/workspace-matrix";
        proved = false;
        obligations = 0;
        detail = msg;
        counterexample = None;
      }

(* -- seeded negatives ----------------------------------------------------- *)

(* The off-by-one chunk split ([Footprint.off_by_one_split]): every
   chunk but the last claims one extra trailing element. Its adjacency
   goal is false, so no sound proof exists; the refutation comes from
   the concrete split, smallest range first. *)
let seeded_pool () =
  let pair = add_pool range_ctx ~lo:(v "lo") ~hi:(v "hi") ~pair:true in
  let genv = env_of pool_names in
  let k = Access.var "k" in
  let lo = Access.var "lo" in
  let clo = pool_clo ~lo and chi = pool_chi ~lo in
  let chi_bad kx =
    Access.(
      Ite
        ( lt kx (var "lanes" -: num 1),
          Min (var "hi", chi kx +: num 1),
          chi kx ))
  in
  certificate ~subject:"seeded/off-by-one-split"
    ~detail:"the off-by-one chunk split must be refuted"
    ~counter:(fun () -> split_counterexample Footprint.off_by_one_split)
    [
      {
        what = "adjacent chunks disjoint";
        gctx = pair;
        genv;
        exp = Access.(clo (k +: num 1) -: chi_bad k);
      };
    ]

(* The overlapping window split ([Window.overlapping_split]): every
   window but the last claims one extra trailing unit. *)
let seeded_window () =
  let pair = add_window Poly.ctx_empty ~pair:true in
  let genv = env_of [ "total"; "per"; "k" ] in
  let k = Access.var "k" in
  let chi_bad kx =
    Access.(
      Ite (lt (win_chi kx) (var "total"), win_chi kx +: num 1, win_chi kx))
  in
  certificate ~subject:"seeded/overlapping-windows"
    ~detail:"the overlapping window split must be refuted"
    ~counter:(fun () -> window_counterexample Xpose_ooc.Window.overlapping_split)
    [
      {
        what = "adjacent windows disjoint";
        gctx = pair;
        genv;
        exp = Access.(win_clo (k +: num 1) -: chi_bad k);
      };
    ]

(* -- the certificate grid ------------------------------------------------- *)

let run ?(seed_race = false) () : result list =
  [
    split_pool ();
    split_window ();
    interval_lift ~subject:"barrier/row-chunks" ~scale:"n"
      ~detail:
        "per-lane row intervals of the flat matrix are disjoint and within \
         the buffer for every shape and lane count (row barriers of every \
         engine and the ooc per-window shuffles)"
      ();
    column_chunks ();
    panel_groups ();
    stage_groups ();
    interval_lift ~subject:"barrier/batch-slices" ~scale:"len"
      ~detail:
        "per-lane whole-matrix slices of a batch are disjoint and within \
         the buffer for every matrix size, batch size and lane count \
         (matrix-parallel batch schedules and permute batch/slice axes)"
      ();
    block_slots ();
    ooc_windows ();
    scratch_slots ();
    region_discipline ();
  ]
  @ if seed_race then [ seeded_pool (); seeded_window () ] else []
