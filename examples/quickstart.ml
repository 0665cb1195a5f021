(* Quickstart: transpose a matrix in place.

   Run with: dune exec examples/quickstart.exe *)

open Xpose_core

let () =
  (* A 3 x 5 row-major matrix of floats. *)
  let m = 3 and n = 5 in
  let a = Storage.Float64.create (m * n) in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      Storage.Float64.set a ((i * n) + j) (float_of_int ((10 * i) + j))
    done
  done;

  Printf.printf "before (3 x 5):\n";
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      Printf.printf "%5.1f " (Storage.Float64.get a ((i * n) + j))
    done;
    print_newline ()
  done;

  (* One call. The library picks C2R or R2C by the paper's heuristic and
     allocates the max(m, n) scratch internally. For float64 the
     specialized kernels are the fast path: *)
  Kernels_f64.transpose ~m ~n a;

  Printf.printf "\nafter, in the same buffer (5 x 3):\n";
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      Printf.printf "%5.1f " (Storage.Float64.get a ((i * m) + j))
    done;
    print_newline ()
  done;

  (* The same works for any element type through the generic functor, and
     with explicit control over algorithm and storage order: *)
  let module A = Algo.Make (Storage.Int64_elt) in
  let b = Storage.Int64_elt.create (m * n) in
  Storage.fill_iota (module Storage.Int64_elt) b;
  let original = A.copy b in
  let tmp = Storage.Int64_elt.create (max m n) in
  A.transpose_with ~algorithm:`C2r ~order:Layout.Col_major ~m ~n b ~tmp;
  assert (A.is_transpose_of ~order:Layout.Col_major ~m ~n ~original b);
  Printf.printf "\ncolumn-major int64 transpose via explicit C2R: verified\n";

  (* In-place means in place: large matrices need no second copy. *)
  let m = 2000 and n = 1500 in
  let big = Storage.Float64.create (m * n) in
  Storage.fill_iota (module Storage.Float64) big;
  let ws = Workspace.F64.create () in
  let t0 = Unix.gettimeofday () in
  Kernels_f64.transpose ~ws ~m ~n big;
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf
    "\n%d x %d float64 transposed in place in %.1f ms (%.2f GB/s), using \
     only a %d-element scratch\n"
    m n (dt *. 1e3)
    (2.0 *. float_of_int (m * n * 8) /. (dt *. 1e9))
    (Bigarray.Array1.dim (Workspace.F64.tmp ws 0))
