(** The decomposed in-place transposition algorithm (paper §3, Algorithm 1),
    element-generic over a {!Storage.S} instance.

    All entry points operate on a flat buffer of exactly [m * n] elements
    and an auxiliary scratch buffer of at least [max m n] elements
    (Theorem 6). They perform O(mn) work; no cycle following is involved
    except in the optional cache-aware passes of [Xpose_cpu]. *)

(** Which formulation of the C2R permutation passes to run (§4). *)
type c2r_variant =
  | C2r_scatter
      (** Algorithm 1 verbatim: gather pre-rotation (Eq. 23), scatter row
          shuffle (Eq. 24), fused gather column shuffle (Eq. 26). *)
  | C2r_gather
      (** Fully gather-based (§5.1): row shuffle gathers with the inverse
          Eq. 31 instead of scattering. *)
  | C2r_decomposed
      (** Gather-based with the column shuffle decomposed into a column
          rotation (Eq. 32) followed by a row permutation (Eq. 33), the
          restricted primitives of §4.1 that the cache-aware and SIMD
          implementations build on. *)

type r2c_variant =
  | R2c_fused  (** Inverse passes with the column shuffle fused (Eq. 26⁻¹). *)
  | R2c_decomposed
      (** Row permutation (Eq. 34), column rotation (Eq. 35), gather row
          shuffle (Eq. 24), post-rotation (Eq. 36) — §4.3. *)

module Make (S : Storage.S) : sig
  type buf = S.t

  (** {1 Individual permutation passes}

      These are the building blocks; each processes an index range so
      callers (e.g. the parallel CPU implementation) can partition work.
      Ranges are half-open. Each worker needs its own [tmp]. *)

  module Phases : sig
    val rotate_columns :
      Plan.t -> buf -> tmp:buf -> amount:(int -> int) -> lo:int -> hi:int -> unit
    (** [rotate_columns p buf ~tmp ~amount ~lo ~hi] rotates each column
        [j] in [[lo, hi)] by [amount j]: afterwards
        [col_j[i] = old_col_j[(i + amount j) mod m]]. [amount] may return
        any integer (reduced Euclidean-mod [m]). *)

    val row_shuffle_scatter : Plan.t -> buf -> tmp:buf -> lo:int -> hi:int -> unit
    (** Scatter each row [i] in [[lo, hi)] by Eq. 24: [tmp[d'_i(j)] = row[j]]. *)

    val row_shuffle_gather : Plan.t -> buf -> tmp:buf -> lo:int -> hi:int -> unit
    (** Gather each row [i] by the inverse Eq. 31: [tmp[j] = row[d'⁻¹_i(j)]].
        Equivalent to {!row_shuffle_scatter}. *)

    val row_shuffle_ungather : Plan.t -> buf -> tmp:buf -> lo:int -> hi:int -> unit
    (** Gather each row [i] by Eq. 24 itself: [tmp[j] = row[d'_i(j)]] — the
        inverse permutation of the two functions above, used by R2C. *)

    val col_shuffle_gather : Plan.t -> buf -> tmp:buf -> lo:int -> hi:int -> unit
    (** Gather each column [j] in [[lo, hi)] by Eq. 26:
        [tmp[i] = col[s'_j(i)]]. *)

    val col_shuffle_ungather : Plan.t -> buf -> tmp:buf -> lo:int -> hi:int -> unit
    (** Gather each column [j] by the inverse of Eq. 26
        ([q⁻¹ ∘ p_j⁻¹], §4.3). *)

    val permute_rows : Plan.t -> buf -> tmp:buf -> index:(int -> int) -> lo:int -> hi:int -> unit
    (** [permute_rows p buf ~tmp ~index ~lo ~hi] applies the same row
        permutation to every column [j] in [[lo, hi)]:
        [col_j[i] = old_col_j[index i]] (§4.1 "row permutation"). [index]
        is evaluated once per row, not per element. *)
  end

  (** {1 Whole transpositions} *)

  val c2r : ?variant:c2r_variant -> Plan.t -> buf -> tmp:buf -> unit
  (** [c2r p buf ~tmp] performs the C2R transposition in place: if [buf]
      held an [m x n] row-major matrix, it afterwards holds its [n x m]
      row-major transpose (Theorem 1). Default variant: {!C2r_gather}.
      @raise Invalid_argument if [length buf <> m*n] or
             [length tmp < max m n]. *)

  val r2c : ?variant:r2c_variant -> Plan.t -> buf -> tmp:buf -> unit
  (** [r2c p buf ~tmp] is the exact inverse of [c2r p]: if [buf] held an
      [n x m] row-major matrix (note the swap), it afterwards holds its
      [m x n] row-major transpose. Default variant: {!R2c_fused}. *)

  val transpose : ?order:Layout.order -> m:int -> n:int -> buf -> unit
  (** [transpose ~m ~n buf] transposes the [m x n] matrix stored in [buf]
      (default [Row_major]) in place, allocating the [max m n] scratch
      internally and choosing C2R or R2C by the paper's heuristic (§5.2:
      [m > n] → C2R). Afterwards [buf] holds the [n x m] transpose in the
      same storage order. *)

  val transpose_with :
    algorithm:[ `C2r | `R2c ] ->
    ?order:Layout.order ->
    m:int ->
    n:int ->
    buf ->
    tmp:buf ->
    unit
  (** Like {!transpose} but with an explicit algorithm choice and caller-
      provided scratch (Theorems 1 and 2 guarantee both choices are
      correct for either storage order). *)

  (** {1 Reference and validation} *)

  val transpose_oop : ?order:Layout.order -> m:int -> n:int -> buf -> buf -> unit
  (** [transpose_oop ~m ~n src dst] writes the transpose of [src] into
      [dst] out of place (the specification all in-place algorithms are
      tested against). *)

  val is_transpose_of :
    ?order:Layout.order -> m:int -> n:int -> original:buf -> buf -> bool
  (** [is_transpose_of ~m ~n ~original buf] checks element-wise that [buf]
      is the [n x m] transpose of the [m x n] matrix [original]. *)

  val copy : buf -> buf
  (** Allocate-and-blit convenience. *)
end

val c2r_access : c2r_variant -> Access.summary list
(** The symbolic access summaries of the C2R pass pipeline for a
    variant, in pass order -- the proof obligations
    [Xpose_check.Bounds] certifies for every [Make] instantiation. *)

val r2c_access : r2c_variant -> Access.summary list
(** R2C counterpart of {!c2r_access}. *)
