open Xpose_core

type status = Proved | Violated | Detected

type entry = {
  check : string;  (** "plan" | "race" | "shadow" | "bounds" | "alias" *)
  subject : string;
  status : status;
  detail : string;
}

type report = {
  entries : entry list;
  checked : int;
  violations : int;  (** unexpected failures *)
  detections : int;  (** seeded defects the analyzer caught *)
}

let status_name = function
  | Proved -> "proved"
  | Violated -> "violated"
  | Detected -> "detected"

(* Shapes exercising every structural regime: coprime and non-coprime
   sides, primes (trivial gcd, maximal rotation churn), squares, skinny
   matrices (degenerate and near-degenerate), panel-boundary cases
   around the 16-column fused width, and one shape past the exhaustive
   threshold so the probe path is exercised too. *)
let default_shapes =
  [
    (2, 2);
    (3, 5);
    (7, 13);
    (16, 16);
    (17, 1);
    (1, 17);
    (31, 33);
    (33, 31);
    (32, 48);
    (48, 36);
    (97, 89);
    (3, 1000);
    (1000, 3);
    (512, 384);
    (1024, 768);
  ]

let default_permutes =
  [
    ([| 4; 5; 6 |], [| 2; 0; 1 |]);
    ([| 2; 3; 4 |], [| 0; 2; 1 |]);
    ([| 3; 4; 5; 6 |], [| 1; 3; 0; 2 |]);
    ([| 6; 4; 2; 3 |], [| 3; 2; 1; 0 |]);
    ([| 32; 3; 5; 7 |], [| 2; 0; 3; 1 |]);
  ]

let default_lanes = [ 2; 3; 8 ]

(* -- plan verification ---------------------------------------------------- *)

let plan_entries ?threshold ~shapes ~permutes () =
  let transpose_entries =
    List.concat_map
      (fun (m, n) ->
        List.map
          (fun engine ->
            let passes, verdict = Spec.verify_transpose ?threshold engine ~m ~n in
            let subject =
              Printf.sprintf "%s %dx%d" (Spec.engine_name engine) m n
            in
            let detail =
              Format.asprintf "[%s] %a"
                (String.concat "; " passes)
                Perm.pp_verdict verdict
            in
            let status =
              match verdict with
              | Perm.Proved _ -> Proved
              | Perm.Mismatch _ -> Violated
            in
            { check = "plan"; subject; status; detail })
          Spec.all_engines)
      shapes
  in
  let permute_entries =
    List.map
      (fun (dims, perm) ->
        let plan = Xpose_permute.Permute.plan ~dims ~perm () in
        let passes, verdict = Spec.verify_permute ?threshold plan in
        let subject =
          Format.asprintf "permute %a %a" Xpose_permute.Shape.pp_dims dims
            Xpose_permute.Shape.pp_perm perm
        in
        let detail =
          Format.asprintf "[%s] %a"
            (String.concat "; " passes)
            Perm.pp_verdict verdict
        in
        let status =
          match verdict with
          | Perm.Proved _ -> Proved
          | Perm.Mismatch _ -> Violated
        in
        { check = "plan"; subject; status; detail })
      permutes
  in
  transpose_entries @ permute_entries

(* -- race analysis --------------------------------------------------------- *)

(* A seeded split is vacuous when the driver runs no genuinely parallel
   pass: degenerate shapes produce no barriers at all, and a schedule
   whose every barrier lands all its work on a single lane (e.g. a
   1-matrix batch forced matrix-parallel) has nothing a bad split could
   corrupt, so no entry. *)
let parallel_work barriers =
  List.exists
    (fun (b : Footprint.barrier) ->
      let occupied =
        List.filter
          (fun (c : Footprint.chunk) -> c.writes <> [] || c.reads <> [])
          b.chunks
      in
      List.length occupied >= 2)
    barriers

let race_entry ~subject ~seeded barriers =
  if seeded && not (parallel_work barriers) then None
  else
    let nbar = List.length barriers in
    match Footprint.check barriers with
    | None ->
        let status = if seeded then Violated else Proved in
        let detail =
          if seeded then
            Printf.sprintf "seeded off-by-one split NOT detected (%d barriers)"
              nbar
          else Printf.sprintf "disjoint (%d barriers)" nbar
        in
        Some { check = "race"; subject; status; detail }
    | Some c ->
        let status = if seeded then Detected else Violated in
        let detail = Format.asprintf "%a" Footprint.pp_conflict c in
        Some { check = "race"; subject; status; detail }

let race_entries ?(seeded = false) ~shapes ~permutes ~lanes () =
  let split =
    if seeded then Footprint.off_by_one_split else Footprint.pool_split
  in
  (* Panel engines are proved at every width in [Spec.widths]; the
     row/column engines have no panel geometry, so one entry each
     suffices. *)
  let panel_engine engine =
    match (engine : Spec.engine) with
    | Spec.Cache | Spec.Fused -> true
    | Spec.Functor | Spec.Decomposed -> false
  in
  let widths_of engine =
    if panel_engine engine then Spec.widths
    else [ Footprint.default_panel_width ]
  in
  let engine_entries =
    List.concat_map
      (fun (m, n) ->
        List.concat_map
          (fun engine ->
            List.concat_map
              (fun l ->
                List.filter_map
                  (fun width ->
                    let subject =
                      if panel_engine engine then
                        Printf.sprintf "%s w%d %dx%d @%d lanes"
                          (Spec.engine_name engine) width m n l
                      else
                        Printf.sprintf "%s %dx%d @%d lanes"
                          (Spec.engine_name engine) m n l
                    in
                    race_entry ~subject ~seeded
                      (Footprint.transpose_barriers ~split ~width ~engine
                         ~lanes:l ~m ~n ()))
                  (widths_of engine))
              lanes)
          Spec.all_engines)
      shapes
  in
  (* The batch driver is proved at the batch sizes on both sides of its
     matrix- vs panel-parallel rule (nb >= lanes), and at every width
     (the panel-parallel side inherits the panel barriers). *)
  let batch_entries =
    List.concat_map
      (fun (m, n) ->
        List.concat_map
          (fun l ->
            List.concat_map
              (fun nb ->
                List.filter_map
                  (fun width ->
                    let subject =
                      Printf.sprintf "batch[%d] w%d %dx%d @%d lanes" nb width
                        m n l
                    in
                    race_entry ~subject ~seeded
                      (Footprint.batch_barriers ~split ~width ~lanes:l ~m ~n
                         ~nb ()))
                  Spec.widths)
              [ 1; l; (2 * l) + 1 ])
          lanes)
      [ (32, 48); (97, 89) ]
  in
  (* The out-of-core engine adds a second axis of partitioning: the
     window splits themselves. A seeded run swaps the windowing policy
     for the overlapping one, so the analyzer's detection of two windows
     claiming the same file region stays tested alongside the pool's
     off-by-one chunk split. The budget is a quarter of the matrix, the
     CI smoke configuration (>= 4 windows whenever any pass runs). *)
  let ooc_entries =
    let window_split =
      if seeded then Xpose_ooc.Window.overlapping_split
      else Xpose_ooc.Window.split
    in
    List.concat_map
      (fun (m, n) ->
        List.filter_map
          (fun l ->
            let window_bytes = max 8 (m * n * 8 / 4) in
            let subject = Printf.sprintf "ooc %dx%d @%d lanes" m n l in
            race_entry ~subject ~seeded
              (Footprint.ooc_barriers ~split ~window_split ~lanes:l ~m ~n
                 ~window_bytes ()))
          lanes)
      shapes
  in
  let permute_entries =
    List.concat_map
      (fun (dims, perm) ->
        let plan = Xpose_permute.Permute.plan ~dims ~perm () in
        List.filter_map
          (fun l ->
            let subject =
              Format.asprintf "permute %a %a @%d lanes"
                Xpose_permute.Shape.pp_dims dims Xpose_permute.Shape.pp_perm
                perm l
            in
            race_entry ~subject ~seeded
              (Footprint.permute_barriers ~split ~lanes:l plan ()))
          lanes)
      permutes
  in
  engine_entries @ batch_entries @ ooc_entries @ permute_entries

(* -- checked-access shadow runs ------------------------------------------- *)

let f64 len = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len

let iota_buf len =
  let buf = f64 len in
  Storage.fill_iota (module Storage.Float64) buf;
  buf

let transposed_ok ~m ~n buf =
  let ok = ref true in
  for l = 0 to (m * n) - 1 do
    let src = (l mod m * n) + (l / m) in
    if Storage.Float64.get buf l <> float_of_int src then ok := false
  done;
  !ok

let shadow_entry ~subject run =
  match run () with
  | exception Checked_access.Violation msg ->
      {
        check = "shadow";
        subject;
        status = Violated;
        detail = "access violation: " ^ msg;
      }
  | false ->
      { check = "shadow"; subject; status = Violated; detail = "wrong result" }
  | true ->
      {
        check = "shadow";
        subject;
        status = Proved;
        detail = "checked run clean";
      }

let shadow_entries ~shapes () =
  let small = List.filter (fun (m, n) -> m * n <= 1 lsl 16) shapes in
  let per_shape kind run =
    List.map
      (fun (m, n) ->
        shadow_entry ~subject:(Printf.sprintf "%s %dx%d" kind m n) (fun () ->
            run ~m ~n))
      small
  in
  let kernels =
    per_shape "kernels" (fun ~m ~n ->
        let buf = iota_buf (m * n) in
        Kernels_f64.Checked.transpose ~m ~n buf;
        transposed_ok ~m ~n buf)
  in
  let fused =
    per_shape "fused" (fun ~m ~n ->
        let buf = iota_buf (m * n) in
        Xpose_cpu.Fused_f64.Checked.transpose ~m ~n buf;
        transposed_ok ~m ~n buf)
  in
  let pool =
    per_shape "fused-pool" (fun ~m ~n ->
        let buf = iota_buf (m * n) in
        Xpose_cpu.Fused_f64.Checked.transpose_pool Xpose_cpu.Pool.sequential
          ~m ~n buf;
        transposed_ok ~m ~n buf)
  in
  let batch =
    per_shape "fused-batch" (fun ~m ~n ->
        let bufs = Array.init 3 (fun _ -> iota_buf (m * n)) in
        Xpose_cpu.Fused_f64.Checked.transpose_batch Xpose_cpu.Pool.sequential
          ~m ~n bufs;
        Array.for_all (transposed_ok ~m ~n) bufs)
  in
  kernels @ fused @ pool @ batch

(* The negative shadow test: a checked row pass over an [m x n] matrix
   whose buffer is one element short. The raw kernel would read one slot
   past the end; the checked kernel must refuse. *)
let seeded_oob_entry () =
  let m = 7 and n = 5 in
  let p = Plan.make ~m ~n in
  let buf = iota_buf ((m * n) - 1) in
  let tmp = f64 n and idx = Array.make n 0 in
  match
    Kernels_f64.Checked.Phases.row_shuffle_gather p buf ~tmp ~idx ~row0:0
      ~lo:0 ~hi:m
  with
  | () ->
      {
        check = "shadow";
        subject = "seeded out-of-bounds";
        status = Violated;
        detail = "seeded short-buffer access NOT detected";
      }
  | exception Checked_access.Violation msg ->
      {
        check = "shadow";
        subject = "seeded out-of-bounds";
        status = Detected;
        detail = msg;
      }

(* -- parametric certificates (bounds & alias) ------------------------------ *)

(* A certificate maps onto the report the same way a seeded race does:
   clean subjects must be proved; a "seeded/" subject must be refuted
   with a concrete counterexample (a seeded summary that proves, or that
   merely fails without a witness, means the analyzer is broken). *)
let seeded_subject s =
  String.length s >= 7 && String.sub s 0 7 = "seeded/"

let certificate_entry ~check ~subject ~proved ~counterexample ~detail =
  let status =
    if seeded_subject subject then
      if proved then Violated
      else match counterexample with Some _ -> Detected | None -> Violated
    else if proved then Proved
    else Violated
  in
  { check; subject; status; detail }

let bounds_entries ?widths ~grid ~seeded () =
  let results =
    (if grid then Bounds.run ?widths () else [])
    @ if seeded then [ Bounds.seeded_result () ] else []
  in
  List.map
    (fun (r : Bounds.result) ->
      certificate_entry ~check:"bounds" ~subject:r.subject ~proved:r.proved
        ~counterexample:r.counterexample ~detail:r.detail)
    results

let alias_entries ~seed_race () =
  List.map
    (fun (r : Alias.result) ->
      certificate_entry ~check:"alias" ~subject:r.subject ~proved:r.proved
        ~counterexample:r.counterexample ~detail:r.detail)
    (Alias.run ~seed_race ())

(* -- assembling the report ------------------------------------------------ *)

let families = [ "plan"; "race"; "shadow"; "bounds"; "alias" ]

let family_of_name = function
  | "perm" -> Some "plan"
  | f when List.mem f families -> Some f
  | _ -> None

let run ?threshold ?(shapes = default_shapes) ?(permutes = default_permutes)
    ?(lanes = default_lanes) ?(seed_race = false) ?(seed_oob = false)
    ?(shadow = false) ?(prove_bounds = false) ?(seed_oob_static = false)
    ?widths ?(only = []) () =
  let only =
    List.map (fun f -> match family_of_name f with Some f -> f | None -> f) only
  in
  let want fam ~default = if only = [] then default else List.mem fam only in
  (* Each opt-in family follows the same rule: its grid runs when its
     enabling flag is set or it is named in [only] with no seeding flag;
     its seeding flag alone adds just the (fast) seeded negative. *)
  let shadow_wanted = want "shadow" ~default:(shadow || seed_oob) in
  let shadow_grid = shadow_wanted && (shadow || not seed_oob) in
  let bounds_wanted = want "bounds" ~default:(prove_bounds || seed_oob_static) in
  let bounds_grid = bounds_wanted && (prove_bounds || not seed_oob_static) in
  let entries =
    (if want "plan" ~default:true then plan_entries ?threshold ~shapes ~permutes ()
     else [])
    @ (if want "race" ~default:true then
         race_entries ~seeded:seed_race ~shapes ~permutes ~lanes ()
       else [])
    @ (if shadow_grid then shadow_entries ~shapes () else [])
    @ (if shadow_wanted && seed_oob then [ seeded_oob_entry () ] else [])
    @ (if bounds_wanted then
         bounds_entries ?widths ~grid:bounds_grid ~seeded:seed_oob_static ()
       else [])
    @
    if want "alias" ~default:prove_bounds then alias_entries ~seed_race ()
    else []
  in
  let count st = List.length (List.filter (fun e -> e.status = st) entries) in
  {
    entries;
    checked = List.length entries;
    violations = count Violated;
    detections = count Detected;
  }

let ok r = r.violations = 0 && r.detections = 0

let verdict r =
  if ok r then Ok ()
  else if r.violations > 0 then
    Error (Printf.sprintf "%d of %d checks violated" r.violations r.checked)
  else Error (Printf.sprintf "%d seeded defect(s) detected" r.detections)

(* -- rendering ------------------------------------------------------------ *)

let pp ppf r =
  List.iter
    (fun e ->
      Format.fprintf ppf "%-6s %-9s %-34s %s@." e.check (status_name e.status)
        e.subject e.detail)
    r.entries;
  Format.fprintf ppf "checked %d: %d violation%s, %d seeded detection%s@."
    r.checked r.violations
    (if r.violations = 1 then "" else "s")
    r.detections
    (if r.detections = 1 then "" else "s")

let buf_add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let to_json r =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"checked\":";
  Buffer.add_string b (string_of_int r.checked);
  Buffer.add_string b ",\"violations\":";
  Buffer.add_string b (string_of_int r.violations);
  Buffer.add_string b ",\"detections\":";
  Buffer.add_string b (string_of_int r.detections);
  Buffer.add_string b ",\"entries\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"check\":";
      buf_add_json_string b e.check;
      Buffer.add_string b ",\"subject\":";
      buf_add_json_string b e.subject;
      Buffer.add_string b ",\"status\":";
      buf_add_json_string b (status_name e.status);
      Buffer.add_string b ",\"detail\":";
      buf_add_json_string b e.detail;
      Buffer.add_char b '}')
    r.entries;
  Buffer.add_string b "]}";
  Buffer.contents b
