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
