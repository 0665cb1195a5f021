type engine = Fused | Ooc

type batch_split = Auto | Matrix_parallel | Panel_parallel | Hybrid of int

type t = {
  engine : engine;
  panel_width : int;
  batch_split : batch_split;
  window_bytes : int option;
}

let supported_widths = [ 8; 16; 32; 64 ]
let default_panel_width = 16

let default =
  {
    engine = Fused;
    panel_width = default_panel_width;
    batch_split = Auto;
    window_bytes = None;
  }

let engine_to_string = function Fused -> "fused" | Ooc -> "ooc"

let engine_of_string = function
  | "fused" -> Some Fused
  | "ooc" -> Some Ooc
  | _ -> None

let split_to_string = function
  | Auto -> "auto"
  | Matrix_parallel -> "matrix"
  | Panel_parallel -> "panel"
  | Hybrid t -> Printf.sprintf "hybrid:%d" t

let split_of_string s =
  match s with
  | "auto" -> Some Auto
  | "matrix" -> Some Matrix_parallel
  | "panel" -> Some Panel_parallel
  | _ -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "hybrid" -> (
          match
            int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
          with
          | Some t when t >= 0 -> Some (Hybrid t)
          | _ -> None)
      | _ -> None)

let to_string t =
  let base =
    Printf.sprintf "%s/w%d/%s" (engine_to_string t.engine) t.panel_width
      (split_to_string t.batch_split)
  in
  match t.window_bytes with
  | None -> base
  | Some b -> Printf.sprintf "%s/win%d" base b

let equal (a : t) (b : t) = a = b

let validate t =
  if t.panel_width < 1 then
    invalid_arg "Tune_params: panel_width must be >= 1";
  (match t.window_bytes with
  | Some b when b < 1 -> invalid_arg "Tune_params: window_bytes must be >= 1"
  | _ -> ());
  t
