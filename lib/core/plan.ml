type t = {
  m : int;
  n : int;
  c : int;
  a : int;
  b : int;
  a_inv : int;
  b_inv : int;
}

let make ~m ~n =
  if m < 1 || n < 1 then invalid_arg "Plan.make: dimensions must be positive";
  let c = Intmath.gcd m n in
  let a = m / c and b = n / c in
  let a_inv = if b = 1 then 1 else Intmath.mmi a b in
  let b_inv = if a = 1 then 1 else Intmath.mmi b a in
  { m; n; c; a; b; a_inv; b_inv }

let coprime t = t.c = 1

let scratch_elements t = if t.m > t.n then t.m else t.n

let rotate_amount t j = j / t.b

let r t ~j i = (i + (j / t.b)) mod t.m

let d' t ~i j = (((i + (j / t.b)) mod t.m) + (j * t.m)) mod t.n

(* Eq. 31. The helper f (§4.2) selects between two affine forms depending on
   whether the pre-rotation wrapped for this (i, j). *)
let d'_inv t ~i j =
  let f =
    if i - (j mod t.c) + t.c <= t.m then j + (i * (t.n - 1))
    else j + (i * (t.n - 1)) + t.m
  in
  (t.a_inv * (f / t.c mod t.b) mod t.b) + (f mod t.c * t.b)

let s' t ~j i = Intmath.emod (j + (i * t.n) - (i / t.a)) t.m

let p t ~j i = (i + j) mod t.m

let q t i = Intmath.emod ((i * t.n) - (i / t.a)) t.m

(* Eq. 34. The quotient (c-1+i)/c is at most a; a quotient of exactly a
   is congruent to 0. *)
let q_inv t i =
  let v = (t.c - 1 + i) / t.c in
  let v = if v = t.a then 0 else v in
  (v * t.b_inv mod t.a) + ((t.c - 1) * i mod t.c * t.a)

let p_inv t ~j i = Intmath.emod (i - j) t.m

let r_inv t ~j i = Intmath.emod (i - (j / t.b)) t.m

let s'_inv t ~j i = q_inv t (Intmath.emod (i - j) t.m)

(* -- row walks -------------------------------------------------------------

   d' and d'_inv evaluated along a row by adds and compares instead of
   divisions (ALGORITHM.md §5). The cursor carries the per-row seeds, so
   a walk over rows [lo, hi) divides once, at [walk], and steps from row
   to row without dividing either. *)

type walk = {
  plan : t;
  m_mod_n : int;  (* step of j*m mod n along a row *)
  a_inv_b : int;  (* a^-1 mod b: step of x when f mod c wraps *)
  mutable row : int;
  mutable row_mod_n : int;  (* row mod n *)
  mutable f_rem : int;  (* row*(n-1) mod c *)
  mutable f_x : int;  (* a^-1 * (row*(n-1) / c) mod b *)
}

let walk t ~row =
  if row < 0 || row > t.m then invalid_arg "Plan.walk: row outside [0, m]";
  let f0 = row * (t.n - 1) in
  {
    plan = t;
    m_mod_n = t.m mod t.n;
    a_inv_b = t.a_inv mod t.b;
    row;
    row_mod_n = row mod t.n;
    f_rem = f0 mod t.c;
    f_x = t.a_inv * (f0 / t.c mod t.b) mod t.b;
  }

(* row*(n-1) grows by n - 1 = c*b - 1 per row: f mod c steps down by
   one, and when it borrows, f / c grows by b - 1 instead of b, which
   moves x by -a^-1 (mod b). *)
let next_row w =
  let t = w.plan in
  w.row <- w.row + 1;
  w.row_mod_n <- (if w.row_mod_n + 1 = t.n then 0 else w.row_mod_n + 1);
  if w.f_rem > 0 then w.f_rem <- w.f_rem - 1
  else begin
    w.f_rem <- t.c - 1;
    let x = w.f_x - w.a_inv_b in
    w.f_x <- (if x < 0 then x + t.b else x)
  end

let check_row who t (dst : int array) =
  if Array.length dst < t.n then
    invalid_arg (who ^ ": index row shorter than n")

(* d'(i, j) = (u mod n + v) mod n with u = (i + j/b) mod m and
   v = j*m mod n: v steps by m mod n, u by one every b columns, and
   u mod n resets with u when u wraps at m. *)
let walk_d' w (dst : int array) =
  let t = w.plan in
  let m = t.m and n = t.n and b = t.b and step = w.m_mod_n in
  check_row "Plan.walk_d'" t dst;
  let u = ref w.row and um = ref w.row_mod_n and v = ref 0 and jb = ref 0 in
  for j = 0 to n - 1 do
    let d = !um + !v in
    Array.unsafe_set dst j (if d >= n then d - n else d);
    let v' = !v + step in
    v := if v' >= n then v' - n else v';
    incr jb;
    if !jb = b then begin
      jb := 0;
      incr u;
      if !u = m then begin
        u := 0;
        um := 0
      end
      else begin
        incr um;
        if !um = n then um := 0
      end
    end
  done;
  next_row w

(* d'_inv(i, j) = x + (f mod c)*b with x = a^-1 * (f / c) mod b: along
   a row f mod c steps by one and x by a^-1 each time it wraps. The +m
   case of Eq. 31 (j mod c < i + c - m) adds a*c to f, which leaves
   f mod c alone and moves x by a*a^-1 = 1 (mod b). *)
let walk_d'_inv w (dst : int array) =
  let t = w.plan in
  let n = t.n and b = t.b and c = t.c and step = w.a_inv_b in
  check_row "Plan.walk_d'_inv" t dst;
  let wrap = w.row + c - t.m in
  let jc = ref 0 and frb = ref (w.f_rem * b) and x = ref w.f_x in
  for j = 0 to n - 1 do
    let xj =
      if !jc < wrap then (if !x + 1 = b then 0 else !x + 1) else !x
    in
    Array.unsafe_set dst j (xj + !frb);
    incr jc;
    if !jc = c then jc := 0;
    frb := !frb + b;
    if !frb = n then begin
      frb := 0;
      let x' = !x + step in
      x := if x' >= b then x' - b else x'
    end
  done;
  next_row w

(* -- q tables -----------------------------------------------------------

   Eq. 33 along consecutive rows: i*n mod m steps by n mod m and i/a by
   one every a rows, and i/a < c <= m, so one conditional add keeps
   q(i) = (i*n mod m - i/a) mod m in range. q^-1 is its inverse table. *)

let q_table t =
  let m = t.m in
  let q = Array.make m 0 in
  let step = t.n mod m in
  let v = ref 0 and u = ref 0 and ua = ref 0 in
  for i = 0 to m - 1 do
    let d = !v - !u in
    Array.unsafe_set q i (if d < 0 then d + m else d);
    let v' = !v + step in
    v := if v' >= m then v' - m else v';
    incr ua;
    if !ua = t.a then begin
      ua := 0;
      incr u
    end
  done;
  q

let q_inv_table t =
  let q = q_table t in
  let qi = Array.make t.m 0 in
  Array.iteri (fun i v -> qi.(v) <- i) q;
  qi

let check_internal t =
  assert (t.a * t.c = t.m);
  assert (t.b * t.c = t.n);
  assert (Intmath.gcd t.a t.b = 1);
  assert (t.b = 1 || Intmath.emod (t.a * t.a_inv) t.b = 1);
  assert (t.a = 1 || Intmath.emod (t.b * t.b_inv) t.a = 1)

let pp ppf t =
  Format.fprintf ppf "@[<h>plan %dx%d (c=%d a=%d b=%d a^-1=%d b^-1=%d)@]" t.m
    t.n t.c t.a t.b t.a_inv t.b_inv

module Cache = struct
  type plan = t

  type entry = { plan : plan; mutable stamp : int }

  (* A plan depends on the shape alone, so the shape is the whole key:
     callers running one shape at different staging widths share its
     entry. *)
  type key = int * int

  type t = {
    capacity : int;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    table : (key, entry) Hashtbl.t;
    mutex : Mutex.t;
  }

  let create ?(capacity = 64) () =
    if capacity < 1 then invalid_arg "Plan.Cache.create: capacity must be >= 1";
    {
      capacity;
      clock = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      table = Hashtbl.create 32;
      mutex = Mutex.create ();
    }

  let default = create ()

  let m_hits =
    Xpose_obs.Metrics.defer Xpose_obs.Metrics.counter "plan_cache.hits"
  let m_misses =
    Xpose_obs.Metrics.defer Xpose_obs.Metrics.counter "plan_cache.misses"
  let m_evictions =
    Xpose_obs.Metrics.defer Xpose_obs.Metrics.counter "plan_cache.evictions"

  (* Least-recently-used entry by stamp; a linear scan is fine at the
     capacities plans are cached at (the table holds tens of entries). *)
  let evict_lru t =
    let victim =
      Hashtbl.fold
        (fun key e acc ->
          match acc with
          | Some (_, stamp) when stamp <= e.stamp -> acc
          | _ -> Some (key, e.stamp))
        t.table None
    in
    match victim with
    | Some (key, _) ->
        Hashtbl.remove t.table key;
        t.evictions <- t.evictions + 1;
        Xpose_obs.Metrics.incr (Xpose_obs.Metrics.force m_evictions)
    | None -> ()

  let get ?(cache = default) ~m ~n () =
    let key = (m, n) in
    Mutex.lock cache.mutex;
    cache.clock <- cache.clock + 1;
    match Hashtbl.find_opt cache.table key with
    | Some e ->
        e.stamp <- cache.clock;
        cache.hits <- cache.hits + 1;
        Mutex.unlock cache.mutex;
        Xpose_obs.Metrics.incr (Xpose_obs.Metrics.force m_hits);
        e.plan
    | None ->
        cache.misses <- cache.misses + 1;
        Mutex.unlock cache.mutex;
        Xpose_obs.Metrics.incr (Xpose_obs.Metrics.force m_misses);
        (* Build outside the lock: [make] is the expensive part (gcd,
           two modular inverses) and may raise. A
           racing lookup of the same shape builds twice; the table keeps
           one winner. *)
        let plan = make ~m ~n in
        Mutex.lock cache.mutex;
        (if not (Hashtbl.mem cache.table key) then begin
           if Hashtbl.length cache.table >= cache.capacity then
             evict_lru cache;
           Hashtbl.replace cache.table key { plan; stamp = cache.clock }
         end);
        Mutex.unlock cache.mutex;
        plan

  (* Readers take the mutex too: the server resolves plans from several
     domains at once, and unsynchronized reads of the mutable totals are
     data races under the OCaml 5 memory model (each total is also
     updated under the lock, so a locked read is exact). *)
  let locked t f =
    Mutex.lock t.mutex;
    let v = f t in
    Mutex.unlock t.mutex;
    v

  let length t = locked t (fun t -> Hashtbl.length t.table)
  let hits t = locked t (fun t -> t.hits)
  let misses t = locked t (fun t -> t.misses)
  let evictions t = locked t (fun t -> t.evictions)

  let clear t =
    Mutex.lock t.mutex;
    Hashtbl.reset t.table;
    t.hits <- 0;
    t.misses <- 0;
    t.evictions <- 0;
    Mutex.unlock t.mutex
end
