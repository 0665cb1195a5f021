open Xpose_core

type entry = {
  m : int;
  n : int;
  nb : int;
  params : Tune_params.t;
  predicted_ns : float;
  measured_ns : float;
  default_ns : float;
  roofline_frac : float;
}

type t = {
  fingerprint : string;
  table : (int * int, entry) Hashtbl.t;
  mutex : Mutex.t;
}

let create ~fingerprint =
  { fingerprint; table = Hashtbl.create 32; mutex = Mutex.create () }

let fingerprint t = t.fingerprint

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let find t ~m ~n = locked t (fun () -> Hashtbl.find_opt t.table (m, n))

let add t e =
  if e.m < 1 || e.n < 1 || e.nb < 1 then
    invalid_arg "Db.add: m, n and nb must be >= 1";
  locked t (fun () -> Hashtbl.replace t.table (e.m, e.n) e)

let length t = locked t (fun () -> Hashtbl.length t.table)

let entries t =
  locked t (fun () -> Hashtbl.fold (fun _ e acc -> e :: acc) t.table [])
  |> List.sort (fun a b -> compare (a.m, a.n) (b.m, b.n))

(* -- JSON ------------------------------------------------------------------ *)

let json_float x =
  if not (Float.is_finite x) then "null" else Printf.sprintf "%.17g" x

let entry_json e =
  let window =
    match e.params.Tune_params.window_bytes with
    | None -> ""
    | Some w -> Printf.sprintf " \"window_bytes\": %d," w
  in
  Printf.sprintf
    "    {\"m\": %d, \"n\": %d, \"nb\": %d, \"engine\": %S, \"panel_width\": \
     %d, \"batch_split\": %S,%s \"predicted_ns\": %s, \
     \"measured_ns\": %s, \"default_ns\": %s, \"roofline_frac\": %s}"
    e.m e.n e.nb
    (Tune_params.engine_to_string e.params.Tune_params.engine)
    e.params.Tune_params.panel_width
    (Tune_params.split_to_string e.params.Tune_params.batch_split)
    window (json_float e.predicted_ns) (json_float e.measured_ns)
    (json_float e.default_ns)
    (json_float e.roofline_frac)

let to_json t =
  Printf.sprintf
    "{\n\
    \  \"version\": 1,\n\
    \  \"fingerprint\": %S,\n\
    \  \"entries\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    t.fingerprint
    (String.concat ",\n" (List.map entry_json (entries t)))

let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v

let int_field key j =
  match Xpose_obs.Json_lite.num_field key j with
  | Some v when Float.is_integer v -> Ok (int_of_float v)
  | _ -> Error (Printf.sprintf "tuning db: missing integer %S" key)

let str_field key j =
  match Xpose_obs.Json_lite.mem key j with
  | Some s -> (
      match Xpose_obs.Json_lite.str s with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "tuning db: %S is not a string" key))
  | None -> Error (Printf.sprintf "tuning db: missing string %S" key)

let float_field key j =
  match Xpose_obs.Json_lite.num_field key j with
  | Some v when Float.is_finite v -> Ok v
  | _ -> Error (Printf.sprintf "tuning db: missing number %S" key)

let entry_of_json j =
  let* m = int_field "m" j in
  let* n = int_field "n" j in
  let* nb = int_field "nb" j in
  let* engine_s = str_field "engine" j in
  let* engine =
    match (Tune_params.engine_of_string engine_s, engine_s) with
    | Some e, _ -> Ok e
    (* Engines retired from the candidate set: their entries load with
       the default engine rather than invalidating the DB. *)
    | None, ("kernels" | "cache") -> Ok Tune_params.default.engine
    | None, _ -> Error (Printf.sprintf "tuning db: unknown engine %S" engine_s)
  in
  let* panel_width = int_field "panel_width" j in
  let* split_s = str_field "batch_split" j in
  let* batch_split =
    match Tune_params.split_of_string split_s with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "tuning db: unknown split %S" split_s)
  in
  let window_bytes =
    match Xpose_obs.Json_lite.num_field "window_bytes" j with
    | Some v when Float.is_integer v && v > 0.0 -> Some (int_of_float v)
    | _ -> None
  in
  let* predicted_ns = float_field "predicted_ns" j in
  let* measured_ns = float_field "measured_ns" j in
  let* default_ns = float_field "default_ns" j in
  let* roofline_frac = float_field "roofline_frac" j in
  if m < 1 || n < 1 || nb < 1 || panel_width < 1 then
    Error "tuning db: non-positive shape field"
  else
    Ok
      {
        m;
        n;
        nb;
        params =
          {
            Tune_params.engine;
            panel_width;
            batch_split;
            window_bytes;
          };
        predicted_ns;
        measured_ns;
        default_ns;
        roofline_frac;
      }

let of_json s =
  let* j =
    match Xpose_obs.Json_lite.parse s with
    | Ok j -> Ok j
    | Error m -> Error (Printf.sprintf "tuning db: %s" m)
  in
  let* version = int_field "version" j in
  if version <> 1 then
    Error (Printf.sprintf "tuning db: unsupported version %d" version)
  else
    let* fingerprint = str_field "fingerprint" j in
    let* items =
      match Xpose_obs.Json_lite.mem "entries" j with
      | Some e -> (
          match Xpose_obs.Json_lite.arr e with
          | Some l -> Ok l
          | None -> Error "tuning db: \"entries\" is not an array")
      | None -> Error "tuning db: missing \"entries\""
    in
    let t = create ~fingerprint in
    let rec fill = function
      | [] -> Ok t
      | item :: tl ->
          let* e = entry_of_json item in
          add t e;
          fill tl
    in
    fill items

type status = Fresh | Loaded | Invalidated

let load ~file ~fingerprint:fp =
  if not (Sys.file_exists file) then Ok (create ~fingerprint:fp, Fresh)
  else
    match open_in_bin file with
    | exception Sys_error m -> Error m
    | ic ->
        let s =
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        let* t = of_json s in
        (* A tuning entry is only meaningful under the calibration it
           was priced and measured against: a different fingerprint
           invalidates the whole DB rather than serving stale
           winners. *)
        if t.fingerprint = fp then Ok (t, Loaded)
        else Ok (create ~fingerprint:fp, Invalidated)

let save t ~file =
  let dir = Filename.dirname file in
  let tmp =
    Filename.temp_file ~temp_dir:dir
      ("." ^ Filename.basename file ^ ".")
      ".tmp"
  in
  let ok = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !ok then try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (to_json t));
      (* Atomic on POSIX: readers see either the old DB or the new one,
         never a torn write. *)
      Sys.rename tmp file;
      ok := true)
