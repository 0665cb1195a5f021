(** Arithmetic strength reduction for integer division and modulus (paper
    §4.4, after Warren's "Hacker's Delight" and Granlund-Montgomery).

    The paper's index equations, such as Eq. 31, repeatedly divide by the
    same small divisors ([a], [b], [c], [m], [n]). A {!t} precomputes a
    fixed-point reciprocal so each division becomes a multiply and a
    shift, and each modulus one further multiply and subtract.

    This module reproduces §4.4 for the ablation bench ([magic_divmod]
    against hardware division). {!Plan} does not use it: its reference
    maps divide in hardware, and the row passes index by the
    division-free {!Plan.walk}. *)

type t
(** A precomputed reciprocal for one positive divisor. *)

val max_dividend : int
(** Largest dividend for which {!div} and {!modu} are exact ([2^30 - 1]). *)

val make : int -> t
(** [make d] precomputes the reciprocal of [d].
    @raise Invalid_argument if [d < 1] or [d > max_dividend]. *)

val divisor : t -> int
(** [divisor t] is the [d] passed to {!make}. *)

val div : t -> int -> int
(** [div t x] is [x / divisor t], exact for [0 <= x <= max_dividend]. *)

val modu : t -> int -> int
(** [modu t x] is [x mod divisor t], exact for [0 <= x <= max_dividend]. *)

val divmod : t -> int -> int * int
(** [divmod t x] is [(div t x, modu t x)] with one shared multiply. *)
