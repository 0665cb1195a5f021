(** A transposition plan: the quantities shared by every permutation pass of
    the decomposed C2R/R2C transposition of an [m x n] matrix (paper §3-4).

    A plan precomputes [c = gcd(m,n)], [a = m/c], [b = n/c] and the
    modular inverses [a^-1 mod b] and [b^-1 mod a].

    All index functions follow the paper's equation numbers and evaluate
    one element at a time with hardware division: they are the reference
    maps the engines and tests are checked against. The f64 row passes do
    not call them per element; they fill whole rows through the
    division-free {!walk} instead (ALGORITHM.md §5). Rotation
    "gather" semantics: a column rotated by [k] satisfies
    [x'[i] = x[(i + k) mod m]]. *)

type t = private {
  m : int;  (** rows *)
  n : int;  (** columns *)
  c : int;  (** gcd (m, n) *)
  a : int;  (** m / c *)
  b : int;  (** n / c *)
  a_inv : int;  (** modular inverse of [a] mod [b] ([1] if [b = 1]) *)
  b_inv : int;  (** modular inverse of [b] mod [a] ([1] if [a = 1]) *)
}

val make : m:int -> n:int -> t
(** [make ~m ~n] precomputes a plan for an [m x n] matrix.
    @raise Invalid_argument if [m < 1] or [n < 1]. *)

val coprime : t -> bool
(** [coprime t] is [t.c = 1]: the pre-rotation phase can be skipped and the
    row-shuffle target [d'] degenerates to [d] (paper §3, after Lemma 1). *)

val scratch_elements : t -> int
(** [max m n]: the auxiliary space of Theorem 6 needed per worker. *)

(** {1 C2R index equations}

    All functions are total over [i] in [[0, m)] and [j] in [[0, n)]. *)

val rotate_amount : t -> int -> int
(** Pre-rotation amount for column [j]: [j / b] (Eq. 23: the rotated column
    gathers with [r_j(i) = (i + j/b) mod m]). *)

val r : t -> j:int -> int -> int
(** [r t ~j i] is Eq. 23, [(i + j/b) mod m]. *)

val d' : t -> i:int -> int -> int
(** [d' t ~i j] is Eq. 24: the destination column of element [j] of row [i]
    after the pre-rotation, [((i + j/b) mod m + j*m) mod n]. Bijective in
    [j] for fixed [i] (Theorem 3). *)

val d'_inv : t -> i:int -> int -> int
(** [d'_inv t ~i j] is Eq. 31, the inverse of {!d'} in its second argument:
    [d' t ~i (d'_inv t ~i j) = j]. Enables a fully gather-based row
    shuffle (§4.2). *)

val s' : t -> j:int -> int -> int
(** [s' t ~j i] is Eq. 26, the source row for the final column shuffle:
    [(j + i*n - i/a) mod m]. *)

val p : t -> j:int -> int -> int
(** [p t ~j i] is Eq. 32, the column-rotation component of [s']:
    [(i + j) mod m]. *)

val q : t -> int -> int
(** [q t i] is Eq. 33, the row-permutation component of [s']:
    [(i*n - i/a) mod m]. The decomposition satisfies
    [p t ~j (q t i) = s' t ~j i] (§4.2). *)

(** {1 R2C (inverse) index equations} *)

val q_inv : t -> int -> int
(** [q_inv t i] is Eq. 34, the inverse of {!q}:
    [((c-1+i)/c * b^-1) mod a + ((c-1)*i mod c) * a]. *)

val p_inv : t -> j:int -> int -> int
(** [p_inv t ~j i] is Eq. 35, [(i - j) mod m]. *)

val r_inv : t -> j:int -> int -> int
(** [r_inv t ~j i] is Eq. 36, [(i - j/b) mod m]. *)

val s'_inv : t -> j:int -> int -> int
(** [s'_inv t ~j i] is [(q_inv t ((i - j) mod m))]: the inverse of {!s'},
    i.e. [q^-1 ∘ p_j^-1] (composition order per §4.3). *)

(** {1 Row walks}

    {!d'} and {!d'_inv} evaluated along consecutive rows by adds and
    compares only: one row's indices per call, written into a
    caller-owned [int array] (the f64 engines take it from their
    {!Workspace}). A walk over rows [[lo, hi)] divides once, when it is
    created at [lo]; stepping from row to row divides nothing. Every
    index a walk writes lies in [[0, n)] whatever the row, so an unsafe
    mover indexing by it stays inside its row. *)

type walk
(** A cursor over the rows of one plan. *)

val walk : t -> row:int -> walk
(** [walk t ~row] is a cursor at row [row].
    @raise Invalid_argument unless [0 <= row <= m]. *)

val walk_d' : walk -> int array -> unit
(** [walk_d' w dst] sets [dst.(j)] to [d' t ~i j] for every [j] in
    [[0, n)], where [i] is the cursor's row, then moves the cursor to row
    [i + 1].
    @raise Invalid_argument if [dst] holds fewer than [n] elements. *)

val walk_d'_inv : walk -> int array -> unit
(** [walk_d'_inv w dst] is {!walk_d'} for {!d'_inv}. *)

(** {1 Row-permutation tables}

    The column passes read {!q} and {!q_inv} once per row or element;
    these build them as [m]-entry arrays by adds and compares. *)

val q_table : t -> int array
(** [(q_table t).(i) = q t i] for every [i] in [[0, m)]. *)

val q_inv_table : t -> int array
(** [(q_inv_table t).(i) = q_inv t i] for every [i] in [[0, m)]. *)

(** {1 Specification helpers} *)

val check_internal : t -> unit
(** Verifies the algebraic identities the plan relies on ([a*c = m],
    [b*c = n], [a*a_inv ≡ 1 (mod b)], [b*b_inv ≡ 1 (mod a)]); used by
    tests and by [make] under assertions. @raise Assert_failure *)

val pp : Format.formatter -> t -> unit

(** {1 Plan cache}

    [make] pays a gcd and two extended-gcd modular inverses. A serving
    workload transposing the same
    handful of shapes over and over should pay that once per shape: the
    cache memoizes plans keyed by [(m, n)] with LRU eviction. Lookups are
    thread-safe (pool workers may share a cache); hit/miss/eviction
    totals are also published as the [plan_cache.hits] /
    [plan_cache.misses] / [plan_cache.evictions] metrics counters. *)

module Cache : sig
  type plan = t
  type t

  val create : ?capacity:int -> unit -> t
  (** An empty cache holding at most [capacity] (default 64) plans.
      @raise Invalid_argument if [capacity < 1]. *)

  val default : t
  (** The process-global cache used when no explicit one is given. *)

  val get : ?cache:t -> m:int -> n:int -> unit -> plan
  (** [get ~m ~n ()] is [make ~m ~n], memoized: a hit returns the cached
      plan (physically equal to the one built on the miss), a miss
      builds, stores, and (at capacity) evicts the least recently used
      entry. Entries are keyed by the shape alone: a plan depends on
      nothing else, so every caller of one shape shares its entry,
      whatever staging width it runs.
      @raise Invalid_argument as {!val:make}. *)

  val length : t -> int
  val hits : t -> int
  val misses : t -> int

  val evictions : t -> int
  (** Number of LRU evictions performed at capacity; also published as
      the [plan_cache.evictions] metrics counter. *)

  val clear : t -> unit
end
