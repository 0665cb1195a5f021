let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let mean a =
  let n = Array.length a in
  if n = 0 then Float.nan else Array.fold_left ( +. ) 0.0 a /. float_of_int n

let median a =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let s = sorted a in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Python's "exclusive" method: positions i * (n + 1) / 4, interpolated
   between the neighbouring order statistics. *)
let quartiles a =
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let s = sorted a in
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

type tail = { pct : int; value : float; beyond : int; samples : int }

let tail a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  let s = sorted a in
  let rank p = ((p * n) + 99) / 100 in
  let rec find p =
    if p < 1 then { pct = 100; value = s.(n - 1); beyond = 0; samples = n }
    else
      let r = max 1 (rank p) in
      if n - r >= 10 then { pct = p; value = s.(r - 1); beyond = n - r; samples = n }
      else find (p - 1)
  in
  find 99

let ratio ~num ~den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let ratio_with_base ~num ~den =
  Printf.sprintf "%.4f (%d/%d)" (ratio ~num ~den) num den
