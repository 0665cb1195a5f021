open Xpose_core

let gen_dims =
  QCheck2.Gen.(
    oneof
      [
        pair (int_range 1 64) (int_range 1 64);
        pair (int_range 1 400) (int_range 1 400);
        (* Force shared factors, the interesting c > 1 regime. *)
        map
          (fun ((a, b), c) -> (a * c, b * c))
          (pair (pair (int_range 1 20) (int_range 1 20)) (int_range 1 12));
      ])

let test_internal_consistency () =
  for m = 1 to 24 do
    for n = 1 to 24 do
      Plan.check_internal (Plan.make ~m ~n)
    done
  done;
  Plan.check_internal (Plan.make ~m:7200 ~n:1800)

let test_invalid () =
  Alcotest.check_raises "bad plan" (Invalid_argument "Plan.make: dimensions must be positive")
    (fun () -> ignore (Plan.make ~m:0 ~n:4))

let test_coprime () =
  Alcotest.(check bool) "3x8 coprime" true (Plan.coprime (Plan.make ~m:3 ~n:8));
  Alcotest.(check bool) "4x8 not" false (Plan.coprime (Plan.make ~m:4 ~n:8));
  Alcotest.(check int) "scratch" 8 (Plan.scratch_elements (Plan.make ~m:4 ~n:8))

let test_periodicity_lemma1 () =
  (* Lemma 1: d_i(j) = (i + j*m) mod n is periodic with period b. *)
  let m = 6 and n = 9 in
  let p = Plan.make ~m ~n in
  let b = p.Plan.b in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 - b do
      Alcotest.(check int) "period b"
        (Layout.d ~m ~n i j)
        (Layout.d ~m ~n i (j + b))
    done
  done

let prop_d'_bijective =
  QCheck2.Test.make ~name:"Theorem 3: d' bijective in j for every i" ~count:300
    gen_dims (fun (m, n) ->
      let p = Plan.make ~m ~n in
      let ok = ref true in
      for i = 0 to m - 1 do
        let seen = Array.make n false in
        for j = 0 to n - 1 do
          let x = Plan.d' p ~i j in
          if x < 0 || x >= n || seen.(x) then ok := false else seen.(x) <- true
        done
      done;
      !ok)

let prop_d'_inv =
  QCheck2.Test.make ~name:"Eq. 31: d'_inv inverts d'" ~count:300 gen_dims
    (fun (m, n) ->
      let p = Plan.make ~m ~n in
      let ok = ref true in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          if Plan.d' p ~i (Plan.d'_inv p ~i j) <> j then ok := false;
          if Plan.d'_inv p ~i (Plan.d' p ~i j) <> j then ok := false
        done
      done;
      !ok)

let prop_s'_decomposition =
  QCheck2.Test.make ~name:"§4.2: p_j (q i) = s'_j i" ~count:300 gen_dims
    (fun (m, n) ->
      let p = Plan.make ~m ~n in
      let ok = ref true in
      for j = 0 to n - 1 do
        for i = 0 to m - 1 do
          if Plan.p p ~j (Plan.q p i) <> Plan.s' p ~j i then ok := false
        done
      done;
      !ok)

let prop_q_inv =
  QCheck2.Test.make ~name:"Eq. 34: q_inv inverts q" ~count:300 gen_dims
    (fun (m, n) ->
      let p = Plan.make ~m ~n in
      let ok = ref true in
      for i = 0 to m - 1 do
        if Plan.q p (Plan.q_inv p i) <> i then ok := false;
        if Plan.q_inv p (Plan.q p i) <> i then ok := false
      done;
      !ok)

let prop_s'_inv =
  QCheck2.Test.make ~name:"s'_inv inverts s' (composition order §4.3)"
    ~count:300 gen_dims (fun (m, n) ->
      let p = Plan.make ~m ~n in
      let ok = ref true in
      for j = 0 to min (n - 1) 40 do
        for i = 0 to m - 1 do
          if Plan.s' p ~j (Plan.s'_inv p ~j i) <> i then ok := false
        done
      done;
      !ok)

let prop_rotations_inverse =
  QCheck2.Test.make ~name:"Eqs. 23/36 and 32/35 are mutually inverse"
    ~count:300 gen_dims (fun (m, n) ->
      let p = Plan.make ~m ~n in
      let ok = ref true in
      for j = 0 to min (n - 1) 40 do
        for i = 0 to m - 1 do
          if Plan.r_inv p ~j (Plan.r p ~j i) <> i then ok := false;
          if Plan.p_inv p ~j (Plan.p p ~j i) <> i then ok := false
        done
      done;
      !ok)

let prop_coprime_degenerate =
  QCheck2.Test.make ~name:"coprime dims: d' = d (paper §3)" ~count:300
    QCheck2.Gen.(pair (int_range 1 100) (int_range 1 100))
    (fun (m, n) ->
      QCheck2.assume (Intmath.is_coprime m n);
      let p = Plan.make ~m ~n in
      let ok = ref true in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          if Plan.d' p ~i j <> Layout.d ~m ~n i j then ok := false
        done
      done;
      !ok)

let test_cache_hit_miss () =
  let cache = Plan.Cache.create ~capacity:8 () in
  let p1 = Plan.Cache.get ~cache ~m:48 ~n:36 () in
  let p2 = Plan.Cache.get ~cache ~m:48 ~n:36 () in
  Alcotest.(check bool) "hit returns the cached plan" true (p1 == p2);
  Alcotest.(check int) "one miss" 1 (Plan.Cache.misses cache);
  Alcotest.(check int) "one hit" 1 (Plan.Cache.hits cache);
  let p3 = Plan.Cache.get ~cache ~m:36 ~n:48 () in
  Alcotest.(check bool) "transposed shape is a distinct entry" true
    (p3 != p1 && p3.m = 36 && p3.n = 48);
  Alcotest.(check int) "two entries" 2 (Plan.Cache.length cache);
  Plan.Cache.clear cache;
  Alcotest.(check int) "clear empties" 0 (Plan.Cache.length cache);
  Alcotest.(check int) "clear resets hits" 0 (Plan.Cache.hits cache)

(* A plan depends on the shape alone, so the cache keys on the shape:
   one shape transposed at two staging widths shares one entry (and one
   plan) instead of caching the same plan twice. *)
let test_cache_keyed_by_shape () =
  let module FF = Xpose_cpu.Fused_f64 in
  let cache = Plan.Cache.create ~capacity:8 () in
  let m = 48 and n = 36 in
  let transposed_iota ~panel_width =
    let buf = Storage.Float64.create (m * n) in
    Storage.fill_iota (module Storage.Float64) buf;
    FF.transpose ~panel_width ~cache ~m ~n buf;
    Alcotest.(check bool)
      (Printf.sprintf "w%d transposes" panel_width)
      true
      (List.for_all
         (fun l ->
           Storage.Float64.get buf l = float_of_int ((n * (l mod m)) + (l / m)))
         (List.init (m * n) Fun.id))
  in
  transposed_iota ~panel_width:8;
  Alcotest.(check int) "first call misses" 1 (Plan.Cache.misses cache);
  let p1 = Plan.Cache.get ~cache ~m ~n () in
  transposed_iota ~panel_width:32;
  Alcotest.(check int) "one entry for the shape" 1 (Plan.Cache.length cache);
  Alcotest.(check int) "the second width is a hit" 1 (Plan.Cache.misses cache);
  Alcotest.(check int) "two hits" 2 (Plan.Cache.hits cache);
  Alcotest.(check bool) "both widths ran the one cached plan" true
    (Plan.Cache.get ~cache ~m ~n () == p1)

let test_cache_lru_eviction () =
  let cache = Plan.Cache.create ~capacity:2 () in
  let p_a = Plan.Cache.get ~cache ~m:3 ~n:4 () in
  let _ = Plan.Cache.get ~cache ~m:5 ~n:6 () in
  (* Touch (3,4) so (5,6) is the least recently used, then overflow. *)
  let p_a' = Plan.Cache.get ~cache ~m:3 ~n:4 () in
  Alcotest.(check bool) "touch is a hit" true (p_a == p_a');
  let _ = Plan.Cache.get ~cache ~m:7 ~n:8 () in
  Alcotest.(check int) "capacity respected" 2 (Plan.Cache.length cache);
  let p_a'' = Plan.Cache.get ~cache ~m:3 ~n:4 () in
  Alcotest.(check bool) "recently used survives eviction" true (p_a == p_a'');
  let misses = Plan.Cache.misses cache in
  let _ = Plan.Cache.get ~cache ~m:5 ~n:6 () in
  Alcotest.(check int) "LRU victim was evicted (rebuild misses)"
    (misses + 1) (Plan.Cache.misses cache)

let test_cache_eviction_counter () =
  let cache = Plan.Cache.create ~capacity:2 () in
  Alcotest.(check int) "fresh cache" 0 (Plan.Cache.evictions cache);
  let _ = Plan.Cache.get ~cache ~m:3 ~n:4 () in
  let _ = Plan.Cache.get ~cache ~m:5 ~n:6 () in
  Alcotest.(check int) "fills don't evict" 0 (Plan.Cache.evictions cache);
  let _ = Plan.Cache.get ~cache ~m:7 ~n:8 () in
  Alcotest.(check int) "overflow evicts once" 1 (Plan.Cache.evictions cache);
  (* Hits never evict. *)
  let _ = Plan.Cache.get ~cache ~m:5 ~n:6 () in
  Alcotest.(check int) "hit doesn't evict" 1 (Plan.Cache.evictions cache);
  (* Rebuilding the evicted (3,4) entry overflows again. *)
  let _ = Plan.Cache.get ~cache ~m:3 ~n:4 () in
  Alcotest.(check int) "rebuild of evicted entry evicts again" 2
    (Plan.Cache.evictions cache);
  Plan.Cache.clear cache;
  Alcotest.(check int) "clear resets evictions" 0 (Plan.Cache.evictions cache)

(* Hammer the cache from several domains at once: the server resolves
   plans concurrently (acceptor threads and dispatcher), so lookups,
   inserts, and LRU evictions must not corrupt the table or the
   bookkeeping. Each [get] counts exactly one hit or one miss under the
   lock, so the totals must balance the number of calls exactly. *)
let test_cache_hammer () =
  let capacity = 4 in
  let cache = Plan.Cache.create ~capacity () in
  (* More shapes than capacity, so the domains also race evictions. *)
  let shapes =
    [| (48, 36); (36, 48); (7, 1000); (1000, 7); (128, 128); (31, 97) |]
  in
  let domains = 4 and iterations = 400 in
  let bad = Atomic.make 0 in
  let worker d () =
    for i = 0 to iterations - 1 do
      (* Distinct traversal order per domain: same-shape collisions and
         disjoint working sets both occur. *)
      let m, n = shapes.((i + (d * 2)) mod Array.length shapes) in
      let p = Plan.Cache.get ~cache ~m ~n () in
      if p.Plan.m <> m || p.Plan.n <> n then Atomic.incr bad
    done
  in
  let spawned = Array.init domains (fun d -> Domain.spawn (worker d)) in
  Array.iter Domain.join spawned;
  Alcotest.(check int) "every lookup returned its own shape's plan" 0
    (Atomic.get bad);
  let gets = domains * iterations in
  Alcotest.(check int) "hits + misses account for every get" gets
    (Plan.Cache.hits cache + Plan.Cache.misses cache);
  Alcotest.(check bool) "capacity never exceeded" true
    (Plan.Cache.length cache <= capacity);
  Alcotest.(check bool) "the working set overflowed, so evictions ran" true
    (Plan.Cache.evictions cache > 0);
  (* The cached survivors still resolve correctly after the storm. *)
  Array.iter
    (fun (m, n) ->
      let p = Plan.Cache.get ~cache ~m ~n () in
      Alcotest.(check bool) "post-hammer plan is consistent" true
        (p.Plan.m = m && p.Plan.n = n))
    shapes

let test_cache_invalid () =
  Alcotest.check_raises "capacity >= 1"
    (Invalid_argument "Plan.Cache.create: capacity must be >= 1") (fun () ->
      ignore (Plan.Cache.create ~capacity:0 ()));
  let cache = Plan.Cache.create () in
  Alcotest.check_raises "bad dims propagate"
    (Invalid_argument "Plan.make: dimensions must be positive") (fun () ->
      ignore (Plan.Cache.get ~cache ~m:0 ~n:4 ()));
  Alcotest.(check int) "failed build not cached" 0 (Plan.Cache.length cache)

let tests =
  [
    Alcotest.test_case "internal consistency (exhaustive small)" `Quick
      test_internal_consistency;
    Alcotest.test_case "cache hit/miss bookkeeping" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache keyed by shape alone" `Quick
      test_cache_keyed_by_shape;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache eviction counter" `Quick
      test_cache_eviction_counter;
    Alcotest.test_case "cache invalid args" `Quick test_cache_invalid;
    Alcotest.test_case "cache concurrent hammer" `Quick test_cache_hammer;
    Alcotest.test_case "invalid dims" `Quick test_invalid;
    Alcotest.test_case "coprime / scratch" `Quick test_coprime;
    Alcotest.test_case "Lemma 1 periodicity" `Quick test_periodicity_lemma1;
    QCheck_alcotest.to_alcotest prop_d'_bijective;
    QCheck_alcotest.to_alcotest prop_d'_inv;
    QCheck_alcotest.to_alcotest prop_s'_decomposition;
    QCheck_alcotest.to_alcotest prop_q_inv;
    QCheck_alcotest.to_alcotest prop_s'_inv;
    QCheck_alcotest.to_alcotest prop_rotations_inverse;
    QCheck_alcotest.to_alcotest prop_coprime_degenerate;
  ]
