let time_ns f =
  let t0 = Xpose_obs.Clock.now_ns () in
  f ();
  Xpose_obs.Clock.now_ns () -. t0

let best_of_samples ?(repeats = 3) f =
  let samples = Array.init (max 1 repeats) (fun _ -> time_ns f) in
  (Array.fold_left Float.min infinity samples, samples)

let best_of ?repeats f = fst (best_of_samples ?repeats f)

let throughput_gbps ~elems ~elt_bytes ~ns =
  if ns <= 0.0 then 0.0 else 2.0 *. float_of_int (elems * elt_bytes) /. ns
