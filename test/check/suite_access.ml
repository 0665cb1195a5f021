(* Cross-validation of the symbolic access summaries (Xpose_core.Access)
   against reality: run the checked-access twins with a trace recorder
   installed and diff the recorded index set against the concretized
   summary. [exact] summaries must match set-for-set; superset summaries
   must contain the trace. This is what keeps the Bounds/Alias proof
   obligations honest: a summary that drifts from the code fails here
   long before a wrong certificate could be issued. *)

open Xpose_core

let contains s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  lb = 0 || go 0

(* Map a checked access (who/what) to the summary's region name. *)
let region_of ~who ~what =
  if contains what "stage" then "stage"
  else if contains who "Kernels_f64" || contains who "Recording" then
    if contains what "scratch" then "tmp" else "matrix"
  else if contains what "line" then "line"
  else if contains what "head" then "head"
  else if contains what "block" then "block"
  else "matrix"

let kind_of what : Access.kind =
  if contains what "write" then Write else Read

let with_trace f =
  let events = ref [] in
  Checked_access.set_recorder
    (Some
       (fun ~who ~what ~len:_ i ->
         events :=
           {
             Access.e_region = region_of ~who ~what;
             e_kind = kind_of what;
             e_index = i;
           }
           :: !events));
  Fun.protect ~finally:(fun () -> Checked_access.set_recorder None) f;
  List.sort_uniq compare !events

let pp_events evs =
  let shown = List.filteri (fun i _ -> i < 8) evs in
  let suffix = if List.length evs > 8 then ", ..." else "" in
  String.concat ", "
    (List.map
       (fun (e : Access.event) ->
         Printf.sprintf "%s %s[%d]" e.e_region
           (match e.e_kind with Read -> "r" | Write -> "w")
           e.e_index)
       shown)
  ^ suffix

let check_exact ~msg summary env trace =
  let want = Access.concretize ~env summary in
  if want <> trace then
    Alcotest.failf "%s: summary %s disagrees with trace\n summary-only: %s\n trace-only: %s"
      msg summary.Access.pass
      (pp_events (List.filter (fun e -> not (List.mem e trace)) want))
      (pp_events (List.filter (fun e -> not (List.mem e want)) trace))

let check_superset ~msg summary env trace =
  let want = Access.concretize ~env summary in
  let missing = List.filter (fun e -> not (List.mem e want)) trace in
  if missing <> [] then
    Alcotest.failf "%s: trace escapes summary %s: %s" msg
      summary.Access.pass (pp_events missing)

(* -- the row/column kernel phases ----------------------------------------
   The reference summaries model Algo.Make's phases (the paper's
   row/column passes). They run here over a recording storage whose
   get/set report every access to the recorder, so each summary is diffed
   against the functor code itself; the f64 engine's walk row passes are
   diffed against the same row summaries. *)

let f64 len = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len

let fill buf =
  for i = 0 to Bigarray.Array1.dim buf - 1 do
    Bigarray.Array1.set buf i (float_of_int i)
  done

module Recording = struct
  type t = { region : string; data : float array }
  type elt = float

  let name = "recording"
  let elt_bytes = 8
  let of_region region len = { region; data = Array.init len float_of_int }
  let create len = of_region "scratch" len
  let length t = Array.length t.data

  let report t what i =
    Checked_access.bounds ~who:"Recording" ~what:(t.region ^ " " ^ what)
      ~len:(length t) i

  let get t i =
    report t "read" i;
    t.data.(i)

  let set t i v =
    report t "write" i;
    t.data.(i) <- v

  let blit src spos dst dpos len =
    for k = 0 to len - 1 do
      set dst (dpos + k) (get src (spos + k))
    done

  let of_int = float_of_int
  let to_int = int_of_float
  let equal = Float.equal
  let pp ppf v = Format.fprintf ppf "%g" v
end

module RA = Algo.Make (Recording)
module RP = RA.Phases

type axis = Rows | Cols

let kernel_cases (p : Plan.t) =
  let module K = Kernels_f64.Checked.Phases in
  let open Access.Passes in
  let rows pass ~lo ~hi =
    let buf = f64 (p.m * p.n) and tmp = f64 (max p.m p.n) in
    fill buf;
    fill tmp;
    with_trace (fun () ->
        pass p buf ~tmp ~idx:(Array.make p.n 0) ~row0:0 ~lo ~hi)
  in
  let functor_ run ~lo ~hi =
    let buf = Recording.of_region "matrix" (p.m * p.n)
    and tmp = Recording.create (max p.m p.n) in
    with_trace (fun () -> run buf ~tmp ~lo ~hi)
  in
  let rotate amount buf ~tmp ~lo ~hi =
    RP.rotate_columns p buf ~tmp ~amount ~lo ~hi
  in
  [
    (rotate_pre, Cols, functor_ (rotate (Plan.rotate_amount p)));
    (rotate_post, Cols, functor_ (rotate (fun j -> -Plan.rotate_amount p j)));
    (col_rotate, Cols, functor_ (rotate (fun j -> j)));
    (col_unrotate, Cols, functor_ (rotate (fun j -> -j)));
    (row_shuffle_gather, Rows, functor_ (RP.row_shuffle_gather p));
    (row_shuffle_scatter, Rows, functor_ (RP.row_shuffle_scatter p));
    (row_shuffle_ungather, Rows, functor_ (RP.row_shuffle_ungather p));
    (row_shuffle_gather, Rows, rows K.row_shuffle_gather);
    (row_shuffle_ungather, Rows, rows K.row_shuffle_ungather);
    (col_shuffle_gather, Cols, functor_ (RP.col_shuffle_gather p));
    (col_shuffle_ungather, Cols, functor_ (RP.col_shuffle_ungather p));
    ( row_permute_q,
      Cols,
      functor_ (fun buf ~tmp ~lo ~hi ->
          RP.permute_rows p buf ~tmp ~index:(Plan.q p) ~lo ~hi) );
    ( row_permute_q_inv,
      Cols,
      functor_ (fun buf ~tmp ~lo ~hi ->
          RP.permute_rows p buf ~tmp ~index:(Plan.q_inv p) ~lo ~hi) );
  ]

let check_kernel_phases ~m ~n ~lo_frac ~hi_frac =
  let p = Plan.make ~m ~n in
  List.iter
    (fun (summary, axis, run) ->
      let full = match axis with Rows -> m | Cols -> n in
      let lo = min full (lo_frac * full / 4)
      and hi = max 0 (hi_frac * full / 4) in
      let lo = min lo hi in
      let trace = run ~lo ~hi in
      let env = ("lo", lo) :: ("hi", hi) :: Access.env_of_plan p in
      check_exact
        ~msg:(Printf.sprintf "m=%d n=%d lo=%d hi=%d" m n lo hi)
        summary env trace)
    (kernel_cases p)

let test_kernel_phases_grid () =
  List.iter
    (fun (m, n) ->
      check_kernel_phases ~m ~n ~lo_frac:0 ~hi_frac:4;
      check_kernel_phases ~m ~n ~lo_frac:1 ~hi_frac:3)
    [
      (1, 1); (1, 7); (7, 1); (2, 2); (3, 5); (5, 3); (4, 6); (6, 4);
      (8, 12); (12, 8); (9, 9); (7, 11); (16, 10);
    ]

(* -- the windowed row passes ----------------------------------------------
   The out-of-core engine runs the same checked-twin row phases on one
   mapped window of rows [win_lo, win_hi), passing row0 = win_lo. Every
   window Window.split can cut and every pool chunk inside it must trace
   exactly Ooc_access.shuffle_rows, whose window buffer is named "win". *)

let check_window_rows ~m ~n ~win_lo ~win_hi ~lo ~hi =
  let module K = Kernels_f64.Checked.Phases in
  let p = Plan.make ~m ~n in
  let win = f64 ((win_hi - win_lo) * n) and tmp = f64 (max m n) in
  let idx = Array.make n 0 in
  let env =
    [ ("win_lo", win_lo); ("win_hi", win_hi); ("lo", lo); ("hi", hi) ]
    @ Access.env_of_plan p
  in
  List.iter
    (fun ungather ->
      let pass =
        if ungather then K.row_shuffle_ungather else K.row_shuffle_gather
      in
      fill win;
      fill tmp;
      let trace =
        with_trace (fun () -> pass p win ~tmp ~idx ~row0:win_lo ~lo ~hi)
        |> List.map (fun (e : Access.event) ->
               if e.e_region = "matrix" then { e with e_region = "win" } else e)
        |> List.sort_uniq compare
      in
      check_exact
        ~msg:
          (Printf.sprintf "m=%d n=%d window [%d,%d) rows [%d,%d)" m n win_lo
             win_hi lo hi)
        (Xpose_ooc.Ooc_access.shuffle_rows ~ungather)
        env trace)
    [ false; true ]

let test_window_rows_grid () =
  List.iter
    (fun (m, n) ->
      for per = 1 to m do
        List.iter
          (fun (w : Xpose_ooc.Window.t) ->
            for lanes = 1 to 3 do
              for k = 0 to lanes - 1 do
                let lo, hi =
                  Xpose_cpu.Pool.chunk_bounds ~lo:w.lo ~hi:w.hi ~chunks:lanes k
                in
                check_window_rows ~m ~n ~win_lo:w.lo ~win_hi:w.hi ~lo ~hi
              done
            done)
          (Xpose_ooc.Window.split ~total:m ~per)
      done)
    [ (2, 2); (3, 5); (5, 3); (4, 6); (6, 4); (9, 9); (7, 11); (12, 8) ]

(* -- the staged column passes: inclusion and coverage ----------------------
   The stage summaries are supersets (a rotation quantifies its residue,
   and the checked twin records no table reads), so the trace must fall
   inside the concretized summary. And it must cover: each column pass
   reads and writes every element of its columns and fills the stage, so
   a checked engine that silently ran the raw movers (recording nothing)
   fails here. *)

let stage_cases (p : Plan.t) =
  [
    ("rotate_pre", Access.Passes.stage_rotate, Kernels_f64.rotate (Plan.rotate_amount p));
    ("rotate_post", Access.Passes.stage_rotate,
      Kernels_f64.rotate (fun j -> -Plan.rotate_amount p j));
    ("shuffle", Access.Passes.stage_shuffle, Kernels_f64.shuffle p);
    ("unshuffle", Access.Passes.stage_unshuffle, Kernels_f64.unshuffle p);
  ]

(* The environments of the stagings gather_cols cuts [lo, hi) into. *)
let stage_envs (p : Plan.t) ~pitch ~col0 ~width ~lo ~hi =
  let rec go j0 acc =
    if j0 >= hi then List.rev acc
    else
      let w = min width (hi - j0) in
      go (j0 + w)
        (([ ("pitch", pitch); ("col0", col0); ("w", w); ("j0", j0) ]
         @ Access.env_of_plan p)
        :: acc)
  in
  go lo []

let check_included ~msg allowed trace =
  List.iter
    (fun (e : Access.event) ->
      if not (Hashtbl.mem allowed e) then
        Alcotest.failf "%s: access %s escapes the summaries" msg
          (pp_events [ e ]))
    trace

let table_of envs_summaries =
  let tbl = Hashtbl.create 4096 in
  List.iter
    (fun (env, s) ->
      List.iter (fun e -> Hashtbl.replace tbl e ()) (Access.concretize ~env s))
    envs_summaries;
  tbl

(* Every element of global columns [lo, hi) of the m x pitch buffer is
   read and written, and the stage is written. *)
let check_covers ~msg ~m ~pitch ~col0 ~lo ~hi trace =
  let has kind region i =
    List.mem { Access.e_region = region; e_kind = kind; e_index = i } trace
  in
  for i = 0 to m - 1 do
    for j = lo to hi - 1 do
      let ix = (i * pitch) + j - col0 in
      if not (has Access.Read "matrix" ix && has Access.Write "matrix" ix) then
        Alcotest.failf "%s: element (%d, %d) not moved through the checked pass"
          msg i j
    done
  done;
  if hi > lo && not (List.exists (fun (e : Access.event) -> e.e_region = "stage") trace)
  then Alcotest.failf "%s: no stage access recorded" msg

(* One checked column pass on an m x pitch buffer holding global columns
   [col0, col0 + pitch) of the plan's matrix, over [lo, hi). *)
let check_stage_pass (p : Plan.t) ~pitch ~col0 ~width ~lo ~hi =
  let m = p.m in
  let buf = f64 (m * pitch) and stage = f64 (m * width) in
  let idx = Array.make width 0 in
  List.iter
    (fun (name, summary, map) ->
      fill buf;
      let trace =
        with_trace (fun () ->
            Kernels_f64.Checked.Phases.gather_cols p buf ~stage ~idx ~map ~pitch
              ~col0 ~width ~lo ~hi)
      in
      let msg =
        Printf.sprintf "%s m=%d n=%d pitch=%d col0=%d w=%d [%d,%d)" name m p.n
          pitch col0 width lo hi
      in
      let envs = stage_envs p ~pitch ~col0 ~width ~lo ~hi in
      check_included ~msg
        (table_of (List.map (fun env -> (env, summary)) envs))
        trace;
      check_covers ~msg ~m ~pitch ~col0 ~lo ~hi trace)
    (stage_cases p)

let test_stage_grid () =
  List.iter
    (fun (m, n) ->
      let p = Plan.make ~m ~n in
      List.iter
        (fun width ->
          (* in RAM: the whole matrix, any sub-range *)
          List.iter
            (fun (lo, hi) -> check_stage_pass p ~pitch:n ~col0:0 ~width ~lo ~hi)
            [ (0, n); (0, n / 2); (n / 2, n); (min n 1, min n 4) ];
          (* out of core: a staging of columns [col0, col0 + pitch) *)
          List.iter
            (fun (col0, pitch) ->
              if col0 + pitch <= n then
                check_stage_pass p ~pitch ~col0 ~width ~lo:col0
                  ~hi:(col0 + pitch))
            [ (1, 2); (2, 3); (n / 2, n - (n / 2)) ])
        [ 1; 2; 3; 16 ])
    [ (2, 2); (3, 5); (5, 3); (4, 6); (8, 12); (9, 9); (7, 11); (16, 10) ]

let fused_allowed (p : Plan.t) ~width =
  let base = Access.env_of_plan p in
  let envs = stage_envs p ~pitch:p.n ~col0:0 ~width ~lo:0 ~hi:p.n in
  let renv = ("lo", 0) :: ("hi", p.m) :: base in
  table_of
    (List.concat_map
       (fun env -> List.map (fun s -> (env, s)) Kernels_f64.stage_access)
       envs
    @ [
        (renv, Access.Passes.row_shuffle_gather);
        (renv, Access.Passes.row_shuffle_ungather);
      ])

let check_fused ~m ~n ~width =
  let module FC = Xpose_cpu.Fused_f64.Checked in
  let p = Plan.make ~m ~n in
  let buf = f64 (m * n) in
  let w = Kernels_f64.stage_width ~m ~panel_width:width in
  let msg = Printf.sprintf "fused m=%d n=%d w=%d" m n width in
  let allowed = fused_allowed p ~width:w in
  List.iter
    (fun (name, _, map) ->
      fill buf;
      let trace = with_trace (fun () -> FC.gather_cols ~panel_width:width p buf map) in
      check_included ~msg:(msg ^ " " ^ name) allowed trace;
      check_covers ~msg:(msg ^ " " ^ name) ~m ~pitch:n ~col0:0 ~lo:0 ~hi:n trace)
    (stage_cases p);
  List.iter
    (fun run ->
      fill buf;
      let trace = with_trace run in
      check_included ~msg allowed trace;
      if m > 1 && n > 1
         && not (List.exists (fun (e : Access.event) -> e.e_region = "stage") trace)
      then Alcotest.failf "%s: the checked engine staged nothing" msg)
    [
      (fun () -> FC.c2r ~panel_width:width p buf);
      (fun () -> FC.r2c ~panel_width:width p buf);
      (fun () ->
        FC.c2r_pool ~panel_width:width Xpose_cpu.Pool.sequential p buf);
    ]

let test_fused_grid () =
  List.iter
    (fun (m, n) ->
      List.iter (fun width -> check_fused ~m ~n ~width) [ 2; 3; 8; 16 ])
    [ (2, 2); (3, 5); (5, 3); (4, 6); (8, 12); (9, 9); (7, 11); (16, 10) ]

let test_fused_random =
  QCheck.Test.make ~count:40 ~name:"random shapes: fused traces included"
    QCheck.(
      make
        ~print:(fun ((m, n), w) -> Printf.sprintf "m=%d n=%d width=%d" m n w)
        QCheck.Gen.(pair (pair (int_range 1 20) (int_range 1 20)) (int_range 1 17)))
    (fun ((m, n), width) ->
      check_fused ~m ~n ~width;
      true)

let shape_gen =
  QCheck.Gen.(pair (int_range 1 24) (int_range 1 24))

let test_kernel_phases_random =
  QCheck.Test.make ~count:60 ~name:"random shapes: kernel phase traces"
    QCheck.(
      make
        ~print:(fun ((m, n), (lf, hf)) ->
          Printf.sprintf "m=%d n=%d lo_frac=%d hi_frac=%d" m n lf hf)
        QCheck.Gen.(pair shape_gen (pair (int_range 0 2) (int_range 2 4))))
    (fun ((m, n), (lo_frac, hi_frac)) ->
      check_kernel_phases ~m ~n ~lo_frac ~hi_frac;
      true)

let tests =
  [
    Alcotest.test_case "kernel phase traces = summaries (grid)" `Quick
      test_kernel_phases_grid;
    QCheck_alcotest.to_alcotest test_kernel_phases_random;
    Alcotest.test_case "windowed row passes = ooc summaries (grid)" `Quick
      test_window_rows_grid;
    Alcotest.test_case "staged column passes: traces in and cover (grid)"
      `Quick test_stage_grid;
    Alcotest.test_case "fused engine traces included in summaries (grid)"
      `Quick test_fused_grid;
    QCheck_alcotest.to_alcotest test_fused_random;
  ]
