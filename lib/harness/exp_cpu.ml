(** Figure 3 and Table 1: CPU in-place transposition throughput over
    randomly sized matrices of 64-bit elements.

    Paper setup: 1000 matrices, m,n uniform in [1000, 10000), Core i7 950.
    Default here: dimensions scaled by 10 (m,n in [100, 1000)) and fewer
    samples so the experiment completes quickly; pass a larger [scale] to
    move toward the paper's sizes. The C2R rows run the f64 engine
    ({!Xpose_core.Kernels_f64} serially, [Xpose_cpu.Fused_f64] on a
    2-lane pool); the generic and Gustavson rows are the element-generic
    references — see EXPERIMENTS.md. A sample matrix's time is the
    median of 5 calls after one untimed call. *)

open Xpose_core
module S = Storage.Float64
module Par = Xpose_cpu.Par_transpose.Make (S)
module Mkl = Xpose_baselines.Mkl_like.Make (S)
module Gus = Xpose_baselines.Gustavson.Make (S)

type impl = {
  name : string;
  metric_key : string;
  run : pool:Xpose_cpu.Pool.t -> m:int -> n:int -> S.t -> unit;
}

let impls =
  [
    {
      name = "MKL-like (cycle leader)";
      metric_key = "median_mkl_gbps";
      run = (fun ~pool:_ ~m ~n buf -> Mkl.imatcopy ~rows:m ~cols:n buf);
    };
    {
      name = "C2R, 1 thread";
      metric_key = "median_c2r_1t_gbps";
      run = (fun ~pool:_ ~m ~n buf -> Kernels_f64.transpose ~m ~n buf);
    };
    {
      (* Same algorithm through the element-generic functor: the fair
         yardstick for the generic tiled baseline below. *)
      name = "C2R, 1 thread (generic)";
      metric_key = "median_c2r_generic_gbps";
      run =
        (fun ~pool:_ ~m ~n buf ->
          Par.transpose Xpose_cpu.Pool.sequential ~m ~n buf);
    };
    {
      name = "C2R, pooled";
      metric_key = "median_c2r_pool_gbps";
      run =
        (fun ~pool ~m ~n buf ->
          Xpose_cpu.Fused_f64.transpose_pool pool ~m ~n buf);
    };
    {
      name = "Gustavson (tiled)";
      metric_key = "median_gustavson_gbps";
      run = (fun ~pool ~m ~n buf -> Gus.transpose ~pool ~m ~n buf);
    };
  ]

(* Timed calls per sample matrix; the matrix's time is their median. *)
let timed = 5

let run ?(seed = 42) ?(samples = 24) ?(dim_lo = 100) ?(dim_hi = 600)
    ?(workers = 2) () =
  let rng = Rng.create ~seed in
  let dims = Workload.random_dims rng ~lo:dim_lo ~hi:dim_hi ~count:samples in
  let results =
    Xpose_cpu.Pool.with_pool ~workers (fun pool ->
        List.map
          (fun impl ->
            let gbps =
              Array.map
                (fun (m, n) ->
                  let buf = S.create (m * n) in
                  Storage.fill_iota (module S) buf;
                  (* One untimed call warms the caches, the plan cache and
                     the pool, then the median of [timed] calls. Each
                     in-place call transposes an m x n matrix of the same
                     shape again, so one buffer serves them all. *)
                  let call () = impl.run ~pool ~m ~n buf in
                  call ();
                  let ns =
                    Stats.median
                      (Array.init timed (fun _ -> Timing.time_ns call))
                  in
                  Timing.throughput_gbps ~elems:(m * n) ~elt_bytes:8 ~ns)
                dims
            in
            (impl, gbps))
          impls)
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun (impl, gbps) ->
      Buffer.add_string b
        (Render.histogram ~bins:16 ~title:impl.name ~unit:"GB/s" gbps);
      Buffer.add_char b '\n')
    results;
  Buffer.add_string b "Table 1: Median in-place transposition throughputs (GB/s)\n";
  Buffer.add_string b
    (Render.table
       ~header:[ "Implementation"; "Median GB/s" ]
       ~rows:
         (List.map
            (fun (impl, gbps) ->
              [ impl.name; Printf.sprintf "%.4f" (Stats.median gbps) ])
            results));
  let metrics =
    List.map (fun (impl, gbps) -> (impl.metric_key, Stats.median gbps)) results
  in
  let figures =
    List.map
      (fun (impl, gbps) ->
        ( Printf.sprintf "fig3_%s.svg" impl.metric_key,
          Svg.histogram ~title:impl.name ~unit:"GB/s" gbps ))
      results
  in
  {
    Outcome.id = "fig3";
    title =
      Printf.sprintf
        "CPU throughput histograms & medians (Figure 3 / Table 1); %d \
         samples, dims in [%d, %d), float64, %d workers"
        samples dim_lo dim_hi workers;
    rendered = Buffer.contents b;
    metrics;
    figures;
  }

let table1 ?seed ?samples ?dim_lo ?dim_hi ?workers () =
  let o = run ?seed ?samples ?dim_lo ?dim_hi ?workers () in
  { o with Outcome.id = "table1" }
