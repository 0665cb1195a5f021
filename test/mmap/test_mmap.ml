open Xpose_core
open Xpose_mmap

let temp_path () = Filename.temp_file "xpose_mmap" ".mat"

let test_create_and_map () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      File_matrix.create ~path ~elements:100;
      File_matrix.with_map ~path (fun buf ->
          Alcotest.(check int) "size" 100 (Bigarray.Array1.dim buf);
          Alcotest.(check (float 0.0)) "zeroed" 0.0 (Bigarray.Array1.get buf 7);
          for l = 0 to 99 do
            Bigarray.Array1.set buf l (float_of_int (l * 2))
          done);
      (* the write persisted *)
      File_matrix.with_map ~write:false ~path (fun buf ->
          Alcotest.(check (float 0.0)) "persisted" 14.0 (Bigarray.Array1.get buf 7)))

let test_transpose_file () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let m = 37 and n = 52 in
      File_matrix.create ~path ~elements:(m * n);
      File_matrix.with_map ~path (fun buf ->
          for l = 0 to (m * n) - 1 do
            Bigarray.Array1.set buf l (float_of_int l)
          done);
      File_matrix.transpose_file ~path ~m ~n ();
      File_matrix.with_map ~write:false ~path (fun buf ->
          for l = 0 to (m * n) - 1 do
            Alcotest.(check (float 0.0))
              "transposed in the file"
              (float_of_int ((n * (l mod m)) + (l / m)))
              (Bigarray.Array1.get buf l)
          done))

let test_size_mismatch () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      File_matrix.create ~path ~elements:10;
      Alcotest.check_raises "mismatch"
        (Invalid_argument "File_matrix.transpose_file: file does not hold m*n elements")
        (fun () -> File_matrix.transpose_file ~path ~m:3 ~n:4 ()))

let test_misaligned_file () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "12 bytes here";
      close_out oc;
      Alcotest.check_raises "misaligned"
        (Invalid_argument "File_matrix.with_map: file length is not a multiple of 8")
        (fun () -> File_matrix.with_map ~write:false ~path (fun _ -> ())))

(* The file holds the transpose of an iota m x n matrix: element l of
   the n x m result is element (l mod m, l / m) of the original. *)
let check_transposed ~msg ~path ~m ~n =
  File_matrix.with_map ~write:false ~path (fun buf ->
      let ok = ref true in
      for l = 0 to (m * n) - 1 do
        if Bigarray.Array1.get buf l <> float_of_int ((n * (l mod m)) + (l / m))
        then ok := false
      done;
      Alcotest.(check bool) msg true !ok)

let with_iota_file ~m ~n f =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      File_matrix.create ~path ~elements:(m * n);
      File_matrix.with_map ~path (fun buf ->
          Storage.fill_iota (module Storage.Float64) buf);
      f path)

(* Edge shapes, each checked against the transpose index formula:
   degenerate rows/columns (the transpose is the identity), prime x
   prime, and a shape whose staging count (ceil (n/16) = 5) is not a
   multiple of any pool worker count the suites use. *)
let test_edge_shapes () =
  List.iter
    (fun (m, n) ->
      with_iota_file ~m ~n (fun path ->
          File_matrix.transpose_file ~path ~m ~n ();
          check_transposed
            ~msg:(Printf.sprintf "%dx%d matches the transpose formula" m n)
            ~path ~m ~n))
    [ (1, 40); (40, 1); (13, 17); (23, 29); (31, 78) ]

(* Tall files, where the staging budget narrows the column passes: past
   stage_elems / 16 rows a staging holds fewer than 16 columns, past
   stage_elems rows exactly one. Both files run on one workspace, and the
   workspace's scratch stays within max(rows * w, rows). *)
let test_narrow_stagings () =
  let ws = Workspace.F64.create () in
  List.iter
    (fun (m, n, w) ->
      Alcotest.(check int)
        (Printf.sprintf "%d-row stagings" m)
        w
        (Kernels_f64.stage_width ~m ~panel_width:Kernels_f64.default_width);
      with_iota_file ~m ~n (fun path ->
          File_matrix.transpose_file ~ws ~path ~m ~n ();
          check_transposed ~msg:(Printf.sprintf "%dx%d transposed" m n) ~path
            ~m ~n);
      Alcotest.(check bool)
        (Printf.sprintf "%dx%d scratch within max(m * w, m)" m n)
        true
        (Bigarray.Array1.dim (Workspace.F64.tmp ws 0) <= max (m * w) m))
    [
      ((Kernels_f64.stage_elems / 16) + 3, 37, 15);
      (Kernels_f64.stage_elems + 5, 3, 1);
    ]

let test_workspace_reuse () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let m = 24 and n = 36 in
      File_matrix.create ~path ~elements:(m * n);
      File_matrix.with_map ~path (fun buf ->
          Storage.fill_iota (module Storage.Float64) buf);
      (* one workspace across both directions: the round trip must land
         back on the identity *)
      let ws = Workspace.F64.create () in
      File_matrix.transpose_file ~ws ~path ~m ~n ();
      File_matrix.transpose_file ~ws ~path ~m:n ~n:m ();
      File_matrix.with_map ~write:false ~path (fun buf ->
          let ok = ref true in
          for l = 0 to (m * n) - 1 do
            if Bigarray.Array1.get buf l <> float_of_int l then ok := false
          done;
          Alcotest.(check bool) "round trip through one workspace" true !ok))

let test_generic_functor_on_map () =
  (* mapped buffers are ordinary Storage.Float64 values *)
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let m = 8 and n = 14 in
      File_matrix.create ~path ~elements:(m * n);
      File_matrix.with_map ~path (fun buf ->
          Storage.fill_iota (module Storage.Float64) buf;
          let original = Instances.F64.copy buf in
          Instances.F64.transpose ~m ~n buf;
          Alcotest.(check bool) "functor works on mapped file" true
            (Instances.F64.is_transpose_of ~m ~n ~original buf)))

let () =
  Alcotest.run "xpose_mmap"
    [
      ( "file_matrix",
        [
          Alcotest.test_case "create and map" `Quick test_create_and_map;
          Alcotest.test_case "transpose in file" `Quick test_transpose_file;
          Alcotest.test_case "size mismatch" `Quick test_size_mismatch;
          Alcotest.test_case "misaligned file" `Quick test_misaligned_file;
          Alcotest.test_case "edge shapes vs in-RAM oracle" `Quick
            test_edge_shapes;
          Alcotest.test_case "narrow and one-column stagings" `Quick
            test_narrow_stagings;
          Alcotest.test_case "workspace reuse" `Quick test_workspace_reuse;
          Alcotest.test_case "generic functor on map" `Quick
            test_generic_functor_on_map;
        ] );
    ]
