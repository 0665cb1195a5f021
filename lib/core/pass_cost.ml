let shuffle (p : Plan.t) = 2 * p.m * p.n

let rotate (p : Plan.t) ~amount =
  let m = p.m in
  let moved = ref 0 in
  for j = 0 to p.n - 1 do
    if Intmath.emod (amount j) m <> 0 then incr moved
  done;
  2 * m * !moved

let permute_rows (p : Plan.t) = 2 * p.m * p.n

let panel_rotate (p : Plan.t) ~width ~amount =
  if width < 1 then invalid_arg "Pass_cost.panel_rotate: width must be >= 1";
  let m = p.m in
  let traffic = ref 0 in
  let lo = ref 0 in
  while !lo < p.n do
    let w = min width (p.n - !lo) in
    let moved = ref false in
    for jj = 0 to w - 1 do
      if Intmath.emod (amount (!lo + jj)) m <> 0 then moved := true
    done;
    if !moved then traffic := !traffic + (2 * m * w);
    lo := !lo + w
  done;
  !traffic

let fused_panel (p : Plan.t) ~width = 2 * p.m * width

let fused_col (p : Plan.t) = 2 * p.m * p.n

let ooc_row_window (p : Plan.t) ~rows =
  if rows < 0 then invalid_arg "Pass_cost.ooc_row_window: rows must be >= 0";
  2 * rows * p.n

let ooc_panel_window (p : Plan.t) ~width =
  if width < 1 then invalid_arg "Pass_cost.ooc_panel_window: width must be >= 1";
  2 * p.m * width

(* -- calibrated per-byte pricing ----------------------------------------- *)

type rates = {
  stream_ns_per_byte : float;
  gather_ns_per_byte : float;
  scatter_ns_per_byte : float;
  permute_ns_per_byte : float;
}

let rates_of_calibration (cal : Xpose_obs.Calibrate.t) =
  let open Xpose_obs.Calibrate in
  {
    stream_ns_per_byte = cal.stream.ns_per_byte;
    gather_ns_per_byte = cal.gather.ns_per_byte;
    scatter_ns_per_byte = cal.scatter.ns_per_byte;
    permute_ns_per_byte = cal.permute.ns_per_byte;
  }

let rate_for r (kind : Xpose_obs.Roofline.kind) =
  match kind with
  | Stream -> r.stream_ns_per_byte
  | Gather -> r.gather_ns_per_byte
  | Scatter -> r.scatter_ns_per_byte
  | Permute -> r.permute_ns_per_byte

let predicted_ns r ~kind ~touches =
  if touches < 0 then invalid_arg "Pass_cost.predicted_ns: touches must be >= 0";
  float_of_int (touches * 8) *. rate_for r kind

(* Locality-aware width scaling: the gather/scatter/permute probes are
   measured at one panel width, where every transaction moves a
   [width * 8]-byte sub-row. A wider panel amortizes the strided part
   of the access toward the streaming rate; a narrower one pays more
   per byte. Linear in [calibrated_width / width] on the strided excess
   over the streaming rate, floored at the streaming rate (no panel
   beats a pure stream). Streaming traffic is width-independent. *)
let rate_at_width r (kind : Xpose_obs.Roofline.kind) ~calibrated_width ~width =
  if calibrated_width < 1 then
    invalid_arg "Pass_cost.rate_at_width: calibrated_width must be >= 1";
  if width < 1 then invalid_arg "Pass_cost.rate_at_width: width must be >= 1";
  match kind with
  | Stream -> r.stream_ns_per_byte
  | Gather | Scatter | Permute ->
      let stream = r.stream_ns_per_byte in
      let excess = rate_for r kind -. stream in
      let scaled =
        stream
        +. (excess *. float_of_int calibrated_width /. float_of_int width)
      in
      Float.max stream scaled

let predicted_ns_at_width r ~kind ~calibrated_width ~width ~touches =
  if touches < 0 then
    invalid_arg "Pass_cost.predicted_ns_at_width: touches must be >= 0";
  float_of_int (touches * 8) *. rate_at_width r kind ~calibrated_width ~width
