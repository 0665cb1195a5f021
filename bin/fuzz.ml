(* Differential fuzzer: every transposition implementation in the
   repository is run on the same random matrices and compared against the
   out-of-place reference. Two families share each random shape: the
   element-generic implementations on int storage, and the float64
   serving set (the staged engine at every proved staging-width cap,
   serial, pooled and batched; Engine_select dispatch; the out-of-core
   file engine under windows smaller than the matrix). Exits non-zero
   after the run if anything diverged, with one reproducer line per
   divergence. CI runs `xpose-fuzz -i 300 --max-dim 96 --seed 7` beyond
   the unit test suite's fixed cases. *)

open Cmdliner
open Xpose_core
module S = Storage.Int_elt
module A = Instances.I
module CacheA = Xpose_cpu.Cache_aware.Make (S)
module ParT = Xpose_cpu.Par_transpose.Make (S)
module Cycle = Xpose_baselines.Cycle_follow.Make (S)
module Gus = Xpose_baselines.Gustavson.Make (S)
module SungI = Xpose_baselines.Sung.Make (S)

let iota len =
  let buf = S.create len in
  Storage.fill_iota (module S) buf;
  buf

let to_list buf = List.init (S.length buf) (S.get buf)

let expected ~m ~n = List.init (m * n) (fun l -> (n * (l mod m)) + (l / m))

type impl = { name : string; run : pool:Xpose_cpu.Pool.t -> m:int -> n:int -> S.t -> unit }

let impls =
  [
    { name = "algo-gather";
      run = (fun ~pool:_ ~m ~n buf ->
          A.c2r ~variant:Algo.C2r_gather (Plan.make ~m ~n) buf
            ~tmp:(S.create (max m n))) };
    { name = "algo-scatter";
      run = (fun ~pool:_ ~m ~n buf ->
          A.c2r ~variant:Algo.C2r_scatter (Plan.make ~m ~n) buf
            ~tmp:(S.create (max m n))) };
    { name = "algo-decomposed";
      run = (fun ~pool:_ ~m ~n buf ->
          A.c2r ~variant:Algo.C2r_decomposed (Plan.make ~m ~n) buf
            ~tmp:(S.create (max m n))) };
    { name = "algo-r2c";
      run = (fun ~pool:_ ~m ~n buf ->
          A.r2c (Plan.make ~m:n ~n:m) buf ~tmp:(S.create (max m n))) };
    { name = "cache-aware";
      run = (fun ~pool:_ ~m ~n buf ->
          CacheA.c2r (Plan.make ~m ~n) buf ~tmp:(S.create (max m n))) };
    { name = "parallel";
      run = (fun ~pool ~m ~n buf -> ParT.c2r pool (Plan.make ~m ~n) buf) };
    { name = "cycle-bitvec";
      run = (fun ~pool:_ ~m ~n buf -> Cycle.transpose_bitvec ~m ~n buf) };
    { name = "cycle-leader";
      run = (fun ~pool:_ ~m ~n buf -> Cycle.transpose_leader ~m ~n buf) };
    { name = "gustavson";
      run = (fun ~pool:_ ~m ~n buf -> Gus.transpose ~m ~n buf) };
    { name = "sung";
      run = (fun ~pool:_ ~m ~n buf -> SungI.transpose ~m ~n buf) };
  ]

(* -- the float64 serving set --------------------------------------------- *)

module F64 = Storage.Float64
module FF = Xpose_cpu.Fused_f64
module FM = Xpose_mmap.File_matrix

let f64_iota len =
  let buf = F64.create len in
  Storage.fill_iota (module F64) buf;
  buf

let f64_to_list buf = List.init (F64.length buf) (F64.get buf)

(* Each configuration transposes fresh iota matrices and returns every
   result it produced (a batch returns each of its matrices). *)
type serving = {
  s_name : string;
  produce : pool:Xpose_cpu.Pool.t -> m:int -> n:int -> F64.t list;
}

let single f ~pool ~m ~n =
  let buf = f64_iota (m * n) in
  f ~pool ~m ~n buf;
  [ buf ]

(* Out of core through a temp file, removed afterwards; the file's
   contents come back as an in-RAM copy. *)
let ooc_run ~window ~prefetch ~pool ~m ~n =
  let path = Filename.temp_file "xpose_fuzz" ".mat" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      FM.create ~path ~elements:(m * n);
      FM.with_map ~path (fun buf -> Storage.fill_iota (module F64) buf);
      Xpose_ooc.Ooc_f64.transpose_file ~pool ~window_bytes:(window ~m ~n)
        ~prefetch ~path ~m ~n ();
      FM.with_map ~write:false ~path (fun buf ->
          let out = F64.create (m * n) in
          Bigarray.Array1.blit buf out;
          [ out ]))

(* Two window budgets smaller than the matrix wherever the shape allows
   one (at least 8 bytes): a quarter of the matrix capped below
   16 * 8 * max(m, n) bytes, so every staging is narrower than 16
   columns, and half the matrix. *)
let narrow_window ~m ~n = max 8 (min (64 * max m n) (8 * m * n / 4))
let half_window ~m ~n = max 8 (8 * m * n / 2)

let serving =
  let select = Xpose_tune.Engine_select.create () in
  let per_width name f =
    List.map
      (fun w -> { s_name = Printf.sprintf "%s-w%d" name w; produce = single (f w) })
      Xpose_check.Spec.widths
  in
  let batch which nb_of =
    {
      s_name = Printf.sprintf "fused-f64-batch-%s" which;
      produce =
        (fun ~pool ~m ~n ->
          let bufs =
            Array.init (nb_of (Xpose_cpu.Pool.workers pool)) (fun _ ->
                f64_iota (m * n))
          in
          FF.transpose_batch pool ~m ~n bufs;
          Array.to_list bufs);
    }
  in
  let ooc wname window prefetch =
    {
      s_name =
        Printf.sprintf "ooc-f64-%s-%s" wname
          (if prefetch then "prefetch" else "no-prefetch");
      produce = ooc_run ~window ~prefetch;
    }
  in
  per_width "fused-f64" (fun panel_width ~pool:_ ~m ~n buf ->
      FF.transpose ~panel_width ~m ~n buf)
  @ per_width "fused-f64-pool" (fun panel_width ~pool ~m ~n buf ->
        FF.transpose_pool ~panel_width pool ~m ~n buf)
  @ [
      batch "1" (fun _ -> 1);
      batch "lanes" Fun.id;
      batch "2lanes+1" (fun lanes -> (2 * lanes) + 1);
      {
        s_name = "engine-select";
        produce =
          single (fun ~pool:_ ~m ~n buf ->
              Xpose_tune.Engine_select.dispatch select ~m ~n buf);
      };
      {
        s_name = "engine-select-pool";
        produce =
          single (fun ~pool ~m ~n buf ->
              Xpose_tune.Engine_select.dispatch ~pool select ~m ~n buf);
      };
      ooc "narrow" narrow_window true;
      ooc "narrow" narrow_window false;
      ooc "half" half_window true;
      ooc "half" half_window false;
    ]

module Nd = Tensor_nd.Make (S)
module ParP = Xpose_cpu.Par_permute.Make (S)
module Shape = Xpose_permute.Shape

(* random rank-N permutation problem with at most 2^16 elements *)
let random_problem rng =
  let rank = Xpose_harness.Rng.int_range rng ~lo:1 ~hi:6 in
  let dims = Array.make rank 1 in
  let budget = ref 65536 in
  for ax = 0 to rank - 1 do
    let hi = min 16 !budget in
    dims.(ax) <- Xpose_harness.Rng.int_range rng ~lo:1 ~hi:(hi + 1);
    budget := !budget / dims.(ax)
  done;
  (dims, Xpose_harness.Rng.permutation rng rank)

let permute_check ~pool ~rng it seed failures =
  let dims, perm = random_problem rng in
  let total = Shape.nelems dims in
  let want = Array.make total 0 in
  for l = 0 to total - 1 do
    want.(Shape.permuted_index ~dims ~perm (Shape.multi_index ~dims l)) <- l
  done;
  let reproducer name =
    incr failures;
    Printf.printf "MISMATCH %s at dims %s perm %s (iteration %d, seed %d)\n"
      name
      (Format.asprintf "%a" Shape.pp_dims dims)
      (Format.asprintf "%a" Shape.pp_perm perm)
      it seed
  in
  let agrees buf = Array.for_all Fun.id
      (Array.init total (fun i -> S.to_int (S.get buf i) = want.(i)))
  in
  let serial = iota total in
  (match Nd.permute ~dims ~perm serial with
  | () -> if not (agrees serial) then reproducer "permute-serial"
  | exception exn ->
      incr failures;
      Printf.printf "EXCEPTION permute-serial at dims %s: %s\n"
        (Format.asprintf "%a" Shape.pp_dims dims)
        (Printexc.to_string exn));
  let par = iota total in
  match ParP.permute pool ~dims ~perm par with
  | () -> if not (agrees par) then reproducer "permute-parallel"
  | exception exn ->
      incr failures;
      Printf.printf "EXCEPTION permute-parallel at dims %s: %s\n"
        (Format.asprintf "%a" Shape.pp_dims dims)
        (Printexc.to_string exn)

let gpu_exec_check ~m ~n =
  (* the executed GPU kernels, on a fresh simulated memory *)
  let open Xpose_simd_machine in
  let mem =
    Memory.create Config.k20c
      ~words:((m * n) + Xpose_simd.Gpu_exec.scratch_words ~m ~n)
  in
  for l = 0 to (m * n) - 1 do
    Memory.poke mem l l
  done;
  ignore (Xpose_simd.Gpu_exec.c2r mem ~m ~n);
  List.init (m * n) (Memory.peek mem)

let run_fuzz iterations seed max_dim workers =
  let rng = Xpose_harness.Rng.create ~seed in
  let failures = ref 0 in
  Xpose_cpu.Pool.with_pool ~workers (fun pool ->
      for it = 1 to iterations do
        let m = Xpose_harness.Rng.int_range rng ~lo:1 ~hi:(max_dim + 1) in
        let n = Xpose_harness.Rng.int_range rng ~lo:1 ~hi:(max_dim + 1) in
        let want = expected ~m ~n in
        let want_f64 = List.map float_of_int want in
        (* [agrees ()] runs one implementation on this shape and
           compares its output with the oracle. *)
        let check name agrees =
          match agrees () with
          | true -> ()
          | false ->
              incr failures;
              Printf.printf "MISMATCH %s at m=%d n=%d (iteration %d, seed %d)\n"
                name m n it seed
          | exception exn ->
              incr failures;
              Printf.printf "EXCEPTION %s at m=%d n=%d: %s\n" name m n
                (Printexc.to_string exn)
        in
        List.iter
          (fun impl ->
            check impl.name (fun () ->
                let buf = iota (m * n) in
                impl.run ~pool ~m ~n buf;
                to_list buf = want))
          impls;
        List.iter
          (fun cfg ->
            check cfg.s_name (fun () ->
                List.for_all
                  (fun buf -> f64_to_list buf = want_f64)
                  (cfg.produce ~pool ~m ~n)))
          serving;
        if gpu_exec_check ~m ~n <> want then begin
          incr failures;
          Printf.printf "MISMATCH gpu-exec at m=%d n=%d (iteration %d)\n" m n it
        end;
        permute_check ~pool ~rng it seed failures
      done);
  if !failures = 0 then begin
    Printf.printf "fuzz: %d iterations x %d implementations, all agree\n"
      iterations
      (List.length impls + 1);
    Printf.printf
      "fuzz: %d iterations x %d float64 serving configurations, all agree\n"
      iterations (List.length serving);
    Printf.printf
      "fuzz: %d rank-N permutations x 2 executors, all match the oracle\n"
      iterations;
    `Ok ()
  end
  else `Error (false, Printf.sprintf "%d divergences found" !failures)

let iterations_arg =
  Arg.(value & opt int 50 & info [ "i"; "iterations" ] ~docv:"N" ~doc:"Iterations.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let max_dim_arg =
  Arg.(value & opt int 64 & info [ "max-dim" ] ~docv:"D" ~doc:"Maximum dimension.")

let workers_arg =
  Arg.(value & opt int 2 & info [ "workers" ] ~docv:"W" ~doc:"Pool workers.")

let main =
  let doc = "Differential fuzzing across every transposition implementation." in
  Cmd.v (Cmd.info "xpose-fuzz" ~doc)
    Term.(ret (const run_fuzz $ iterations_arg $ seed_arg $ max_dim_arg $ workers_arg))

let () = exit (Cmd.eval main)
