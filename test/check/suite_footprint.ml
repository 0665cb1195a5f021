(* The race analyzer's overlap algebra, checked against brute force, and
   the barrier models' behaviour under the real and the seeded split. *)

open Xpose_check
open Footprint

let atom_indices (a : atom) =
  List.concat
    (List.init (max 0 a.count) (fun k ->
         List.init (max 0 a.width) (fun w -> a.base + (k * a.stride) + w)))

let member l a = List.mem l (atom_indices a)

let gen_atom =
  QCheck2.Gen.(
    let* base = int_range 0 30 in
    let* width = int_range 0 6 in
    let* stride = int_range 1 9 in
    let* count = int_range 1 6 in
    return { base; width; stride; count })

let print_atom a =
  Printf.sprintf "{base=%d; width=%d; stride=%d; count=%d}" a.base a.width
    a.stride a.count

let prop_overlap_exact =
  (* overlap = brute-force set intersection: Some w is a genuine shared
     index, None means the materialized sets are disjoint. *)
  QCheck2.Test.make ~name:"overlap matches brute force" ~count:2000
    ~print:(fun (a, b) -> print_atom a ^ " vs " ^ print_atom b)
    QCheck2.Gen.(pair gen_atom gen_atom)
    (fun (a, b) ->
      let brute =
        List.exists (fun l -> member l b) (atom_indices a)
      in
      match overlap a b with
      | Some w -> brute && member w a && member w b
      | None -> not brute)

let prop_overlap_symmetric =
  QCheck2.Test.make ~name:"overlap is symmetric in emptiness" ~count:1000
    QCheck2.Gen.(pair gen_atom gen_atom)
    (fun (a, b) -> overlap a b = None = (overlap b a = None))

let test_constructors () =
  Alcotest.(check bool)
    "interval membership" true
    (member 7 (interval ~lo:5 ~hi:9) && not (member 9 (interval ~lo:5 ~hi:9)));
  (* columns [1, 3) of a 2x4 matrix: indices 1, 2, 5, 6 *)
  let c = columns ~m:2 ~n:4 ~lo:1 ~hi:3 in
  Alcotest.(check (list int)) "columns atom" [ 1; 2; 5; 6 ] (atom_indices c);
  (* slots [1, 2) of 3 reps of width-4 blocks: 1, 5, 9 *)
  let b = block_slots ~reps:3 ~block:4 ~lo:1 ~hi:2 in
  Alcotest.(check (list int)) "block_slots atom" [ 1; 5; 9 ] (atom_indices b)

let test_adjacent_columns_disjoint () =
  (* The panel split's critical case: column ranges that touch but do
     not overlap, with witness checks one column over. *)
  let a = columns ~m:97 ~n:89 ~lo:0 ~hi:16 in
  let b = columns ~m:97 ~n:89 ~lo:16 ~hi:32 in
  Alcotest.(check bool) "adjacent panels disjoint" true (overlap a b = None);
  let b' = columns ~m:97 ~n:89 ~lo:15 ~hi:32 in
  match overlap a b' with
  | Some w -> Alcotest.(check bool) "witness in both" true (member w a)
  | None -> Alcotest.fail "one-column overlap missed"

let test_scratch_conflict () =
  let fp = [ interval ~lo:0 ~hi:10 ] in
  let barrier =
    {
      name = "b";
      chunks =
        [
          { id = 0; writes = fp; reads = fp; scratch = 7 };
          { id = 1; writes = [ interval ~lo:10 ~hi:20 ]; reads = []; scratch = 7 };
        ];
    }
  in
  match check_barrier barrier with
  | Some { kind = Scratch_shared; index = 7; _ } -> ()
  | Some c -> Alcotest.failf "wrong conflict: %s" (kind_name c.kind)
  | None -> Alcotest.fail "shared scratch missed"

let test_conflict_pair_order () =
  (* Two overlapping pairs: (0,2) and (1,2). The reported conflict must
     be (0,2) — the same deterministic order Pool reports failures in. *)
  let w lo hi = [ interval ~lo ~hi ] in
  let barrier =
    {
      name = "b";
      chunks =
        [
          { id = 2; writes = w 5 15; reads = []; scratch = 2 };
          { id = 0; writes = w 0 6; reads = []; scratch = 0 };
          { id = 1; writes = w 10 20; reads = []; scratch = 1 };
        ];
    }
  in
  match check_barrier barrier with
  | Some { chunk_a = 0; chunk_b = 2; kind = Write_write; _ } -> ()
  | Some c -> Alcotest.failf "wrong pair (%d, %d)" c.chunk_a c.chunk_b
  | None -> Alcotest.fail "overlap missed"

let test_write_read_conflict () =
  let barrier =
    {
      name = "b";
      chunks =
        [
          { id = 0; writes = [ interval ~lo:0 ~hi:10 ]; reads = []; scratch = 0 };
          {
            id = 1;
            writes = [ interval ~lo:20 ~hi:30 ];
            reads = [ interval ~lo:8 ~hi:12 ];
            scratch = 1;
          };
        ];
    }
  in
  match check_barrier barrier with
  | Some { kind = Write_read; _ } -> ()
  | Some c -> Alcotest.failf "wrong kind: %s" (kind_name c.kind)
  | None -> Alcotest.fail "write/read overlap missed"

let test_pool_split_is_chunk_bounds () =
  for k = 0 to 4 do
    Alcotest.(check (pair int int))
      (Printf.sprintf "chunk %d" k)
      (Xpose_cpu.Pool.chunk_bounds ~lo:3 ~hi:45 ~chunks:5 k)
      (pool_split ~lo:3 ~hi:45 ~chunks:5 k)
  done

let engines = pooled_engines

let test_real_split_proves_seeded_split_detected () =
  List.iter
    (fun engine ->
      List.iter
        (fun (m, n) ->
          let name =
            Printf.sprintf "%s %dx%d" (Spec.engine_name engine) m n
          in
          let clean =
            check (transpose_barriers ~engine ~lanes:3 ~m ~n ())
          in
          Alcotest.(check bool) (name ^ " clean") true (clean = None);
          let seeded =
            check
              (transpose_barriers ~split:off_by_one_split ~engine ~lanes:3 ~m
                 ~n ())
          in
          match seeded with
          | Some { kind = Write_write; _ } -> ()
          | Some c ->
              Alcotest.failf "%s: seeded split gave %s" name (kind_name c.kind)
          | None -> Alcotest.failf "%s: seeded split not detected" name)
        [ (48, 36); (97, 89); (33, 31) ])
    engines

let test_batch_barriers_seeded () =
  (match check (batch_barriers ~lanes:3 ~m:48 ~n:36 ~nb:7 ()) with
  | None -> ()
  | Some _ -> Alcotest.fail "batch clean split flagged");
  match
    check (batch_barriers ~split:off_by_one_split ~lanes:3 ~m:48 ~n:36 ~nb:7 ())
  with
  | Some { kind = Write_write; _ } -> ()
  | _ -> Alcotest.fail "batch seeded split not detected"

let test_permute_barriers_seeded () =
  let plan =
    Xpose_permute.Permute.plan ~dims:[| 4; 5; 6 |] ~perm:[| 2; 0; 1 |] ()
  in
  (match check (permute_barriers ~lanes:3 plan ()) with
  | None -> ()
  | Some _ -> Alcotest.fail "permute clean split flagged");
  match check (permute_barriers ~split:off_by_one_split ~lanes:3 plan ()) with
  | Some _ -> ()
  | None -> Alcotest.fail "permute seeded split not detected"

let tests =
  [
    Alcotest.test_case "atom constructors" `Quick test_constructors;
    Alcotest.test_case "adjacent columns disjoint" `Quick
      test_adjacent_columns_disjoint;
    Alcotest.test_case "shared scratch conflict" `Quick test_scratch_conflict;
    Alcotest.test_case "conflict pair order" `Quick test_conflict_pair_order;
    Alcotest.test_case "write/read conflict" `Quick test_write_read_conflict;
    Alcotest.test_case "pool_split = Pool.chunk_bounds" `Quick
      test_pool_split_is_chunk_bounds;
    Alcotest.test_case "real split proves, seeded split detected" `Quick
      test_real_split_proves_seeded_split_detected;
    Alcotest.test_case "batch barriers seeded" `Quick test_batch_barriers_seeded;
    Alcotest.test_case "permute barriers seeded" `Quick
      test_permute_barriers_seeded;
    QCheck_alcotest.to_alcotest prop_overlap_exact;
    QCheck_alcotest.to_alcotest prop_overlap_symmetric;
  ]
