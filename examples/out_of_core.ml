(* Out-of-core transposition: a matrix living in a file is transposed in
   place in the file, with at most max(m * w, m, n) doubles of RAM
   scratch, where a column staging of w columns holds
   m * w <= max(m, 2^18) doubles — the O(max(m,n)) auxiliary-space bound
   plus a fixed staging budget is what makes this practical.

   Run with: dune exec examples/out_of_core.exe *)

let () =
  let path = Filename.temp_file "xpose_demo" ".mat" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let m = 1200 and n = 900 in
      Xpose_mmap.File_matrix.create ~path ~elements:(m * n);
      Xpose_mmap.File_matrix.with_map ~path (fun buf ->
          for l = 0 to (m * n) - 1 do
            Bigarray.Array1.set buf l (float_of_int l)
          done);
      Printf.printf "wrote a %d x %d float64 matrix (%.1f MB) to %s\n" m n
        (float_of_int (m * n * 8) /. 1e6)
        path;

      let ws = Xpose_core.Workspace.F64.create () in
      let t0 = Unix.gettimeofday () in
      Xpose_mmap.File_matrix.transpose_file ~ws ~path ~m ~n ();
      let dt = Unix.gettimeofday () -. t0 in
      Printf.printf "transposed in place in the file in %.1f ms using %d \
                     doubles of RAM scratch\n"
        (dt *. 1e3)
        (Bigarray.Array1.dim (Xpose_core.Workspace.F64.tmp ws 0));

      Xpose_mmap.File_matrix.with_map ~write:false ~path (fun buf ->
          let ok = ref true in
          for l = 0 to (m * n) - 1 do
            if
              Bigarray.Array1.get buf l
              <> float_of_int ((n * (l mod m)) + (l / m))
            then ok := false
          done;
          Printf.printf "file contents verified: %s\n"
            (if !ok then "the n x m transpose" else "FAILED")))
