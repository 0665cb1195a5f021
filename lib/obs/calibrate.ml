type probe = { gbps : float; ns_per_byte : float }

type t = {
  elems : int;
  repeats : int;
  panel_width : int;
  stream : probe;
  gather : probe;
  scatter : probe;
  permute : probe;
  ghz : float option;
}

let default_elems = 1 lsl 21 (* 16 MiB of float64: past any sane L2 *)
let default_repeats = 3
let default_panel_width = 16 (* the fused engine's default panel width *)

(* Every probe moves [2 * 8 * elems] bytes (each element read once,
   written once) — the same accounting Theorem-6 touches use, so a
   pass's achieved GB/s computed from its touch count is directly
   comparable against these roofs. *)
let probe_bytes ~elems = float_of_int (2 * 8 * elems)

let time_best ~repeats f =
  (* Warm-up run first: page the buffers in and JIT nothing (this is
     OCaml), then best-of-N to shed scheduler noise. *)
  f ();
  let best = ref infinity in
  for _ = 1 to repeats do
    let t0 = Clock.now_ns () in
    f ();
    let dt = Clock.now_ns () -. t0 in
    if dt < !best then best := dt
  done;
  Float.max !best 1.0 (* clamp: a clock too coarse to see the run *)

let probe_of_dt ~elems dt_ns =
  let bytes = probe_bytes ~elems in
  { gbps = bytes /. dt_ns; ns_per_byte = dt_ns /. bytes }

(* -- the four probes ----------------------------------------------------- *)

(* Streaming copy: both sides unit-stride — the bandwidth roof. *)
let run_stream ~elems src dst =
  for i = 0 to elems - 1 do
    Float.Array.unsafe_set dst i (Float.Array.unsafe_get src i)
  done

(* Strided gather: read column-major out of a [rows x width] row-major
   panel (consecutive reads [width] elements = one panel row apart,
   as the fused engine's column walk does), write unit-stride. *)
let run_gather ~elems ~width src dst =
  let rows = elems / width in
  let k = ref 0 in
  for j = 0 to width - 1 do
    for i = 0 to rows - 1 do
      Float.Array.unsafe_set dst !k
        (Float.Array.unsafe_get src ((i * width) + j));
      incr k
    done
  done;
  (* Remainder elements (elems not divisible by width): keep the byte
     count honest. *)
  for i = rows * width to elems - 1 do
    Float.Array.unsafe_set dst i (Float.Array.unsafe_get src i)
  done

(* Strided scatter: the mirror image — unit-stride reads, column-major
   writes. *)
let run_scatter ~elems ~width src dst =
  let rows = elems / width in
  let k = ref 0 in
  for j = 0 to width - 1 do
    for i = 0 to rows - 1 do
      Float.Array.unsafe_set dst ((i * width) + j)
        (Float.Array.unsafe_get src !k);
      incr k
    done
  done;
  for i = rows * width to elems - 1 do
    Float.Array.unsafe_set dst i (Float.Array.unsafe_get src i)
  done

(* Frequency probe: a loop-carried integer-add chain retires one add
   per cycle on any out-of-order core — the dependence through [acc]
   serializes the adds while the trip bookkeeping fills spare issue
   slots. Adds per nanosecond is then the effective clock in GHz, which
   the report layer uses to turn pass nanoseconds into cycles per
   element without ever touching a hardware counter. *)
let spin_iters = 1 lsl 27

let run_spin iters =
  let acc = ref 0 in
  for i = 1 to iters do
    acc := !acc + (i lor 1)
  done;
  !acc

(* Permuted write: sequential reads scattered through a full-buffer
   permutation — the worst traffic shape a row-permutation pass can
   produce (no two consecutive writes share a cache line). *)
let run_permute ~elems perm src dst =
  for i = 0 to elems - 1 do
    Float.Array.unsafe_set dst (Array.unsafe_get perm i)
      (Float.Array.unsafe_get src i)
  done

let run ?(elems = default_elems) ?(repeats = default_repeats)
    ?(panel_width = default_panel_width) () =
  if elems < 1024 then invalid_arg "Calibrate.run: elems must be >= 1024";
  if repeats < 1 then invalid_arg "Calibrate.run: repeats must be >= 1";
  if panel_width < 2 then
    invalid_arg "Calibrate.run: panel_width must be >= 2";
  let src = Float.Array.init elems (fun i -> float_of_int (i land 0xffff)) in
  let dst = Float.Array.make elems 0.0 in
  (* A multiplicative full-cycle permutation (any odd multiplier is
     coprime with a power-of-two modulus; for general [elems] fall back
     to a shuffle-free odd-stride walk that still visits scattered
     addresses). *)
  let perm =
    let a = 2654435761 in
    Array.init elems (fun i -> i * a mod elems)
  in
  (* [i * a mod elems] is only a permutation when [gcd a elems = 1];
     repair collisions by walking forward — the probe needs scattered
     distinct addresses, not group theory. *)
  let seen = Bytes.make elems '\000' in
  Array.iteri
    (fun i p ->
      let p = ref ((p mod elems + elems) mod elems) in
      while Bytes.get seen !p <> '\000' do
        p := (!p + 1) mod elems
      done;
      Bytes.set seen !p '\001';
      perm.(i) <- !p)
    perm;
  let stream =
    probe_of_dt ~elems (time_best ~repeats (fun () -> run_stream ~elems src dst))
  in
  let gather =
    probe_of_dt ~elems
      (time_best ~repeats (fun () -> run_gather ~elems ~width:panel_width src dst))
  in
  let scatter =
    probe_of_dt ~elems
      (time_best ~repeats (fun () ->
           run_scatter ~elems ~width:panel_width src dst))
  in
  let permute =
    probe_of_dt ~elems (time_best ~repeats (fun () -> run_permute ~elems perm src dst))
  in
  let ghz =
    let dt =
      time_best ~repeats (fun () ->
          ignore (Sys.opaque_identity (run_spin spin_iters)))
    in
    Some (float_of_int spin_iters /. dt)
  in
  ignore (Float.Array.get dst 0);
  { elems; repeats; panel_width; stream; gather; scatter; permute; ghz }

(* -- persistence --------------------------------------------------------- *)

let json_float x =
  if not (Float.is_finite x) then "null" else Printf.sprintf "%.17g" x

let probe_json p =
  Printf.sprintf "{\"gbps\": %s, \"ns_per_byte\": %s}" (json_float p.gbps)
    (json_float p.ns_per_byte)

(* [ghz] is emitted only when present so a pre-frequency-probe file
   still survives [load] -> [to_json] byte-identically. *)
let to_json t =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"version\": 1,\n";
  Printf.bprintf b "  \"elems\": %d,\n" t.elems;
  Printf.bprintf b "  \"repeats\": %d,\n" t.repeats;
  Printf.bprintf b "  \"panel_width\": %d,\n" t.panel_width;
  (match t.ghz with
  | None -> ()
  | Some g -> Printf.bprintf b "  \"ghz\": %s,\n" (json_float g));
  Buffer.add_string b "  \"roofs\": {\n";
  Printf.bprintf b "    \"stream\": %s,\n" (probe_json t.stream);
  Printf.bprintf b "    \"gather\": %s,\n" (probe_json t.gather);
  Printf.bprintf b "    \"scatter\": %s,\n" (probe_json t.scatter);
  Printf.bprintf b "    \"permute\": %s\n" (probe_json t.permute);
  Buffer.add_string b "  }\n}\n";
  Buffer.contents b

let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v

let of_json s =
  let* j =
    match Json_lite.parse s with
    | Ok j -> Ok j
    | Error m -> Error (Printf.sprintf "calibration: %s" m)
  in
  let int_field key =
    match Json_lite.num_field key j with
    | Some v when Float.is_integer v && v >= 0.0 -> Ok (int_of_float v)
    | _ -> Error (Printf.sprintf "calibration: missing integer %S" key)
  in
  let* version = int_field "version" in
  if version <> 1 then
    Error (Printf.sprintf "calibration: unsupported version %d" version)
  else
    let* elems = int_field "elems" in
    let* repeats = int_field "repeats" in
    let* panel_width = int_field "panel_width" in
    let* roofs =
      match Json_lite.mem "roofs" j with
      | Some r -> Ok r
      | None -> Error "calibration: missing \"roofs\""
    in
    let probe_field key =
      match Json_lite.mem key roofs with
      | None -> Error (Printf.sprintf "calibration: missing roof %S" key)
      | Some p -> (
          match
            (Json_lite.num_field "gbps" p, Json_lite.num_field "ns_per_byte" p)
          with
          | Some gbps, Some ns_per_byte
            when Float.is_finite gbps && gbps > 0.0
                 && Float.is_finite ns_per_byte && ns_per_byte > 0.0 ->
              Ok { gbps; ns_per_byte }
          | _ ->
              Error
                (Printf.sprintf "calibration: roof %S needs positive gbps and \
                                 ns_per_byte"
                   key))
    in
    let* stream = probe_field "stream" in
    let* gather = probe_field "gather" in
    let* scatter = probe_field "scatter" in
    let* permute = probe_field "permute" in
    let* ghz =
      match Json_lite.mem "ghz" j with
      | None -> Ok None (* pre-frequency-probe calibration file *)
      | Some v -> (
          match Json_lite.num v with
          | Some g when Float.is_finite g && g > 0.0 -> Ok (Some g)
          | _ -> Error "calibration: \"ghz\" must be a positive number")
    in
    Ok { elems; repeats; panel_width; stream; gather; scatter; permute; ghz }

let save t ~file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json t))

let load ~file =
  match open_in file with
  | exception Sys_error m -> Error m
  | ic ->
      let s =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      of_json s
