(** Symbolic models of every engine's pass pipeline, and the targets they
    must equal.

    Each entry point rebuilds, as {!Perm.t} gather maps, the exact pass
    sequence an engine executes for a shape — same plan equations, same
    variant dispatch, same §5.2 C2R/R2C routing — composes them, and
    proves the composition equal to the transpose (or rank-N permutation)
    specification with {!Perm.verify}. No matrix data is ever touched:
    the proof is over index space. *)

open Xpose_core

(** The transpose engines, named as on the [xpose] command line:
    [Functor] and [Decomposed] are [Algo.Make] with its default and
    decomposed variants, [Cache] the cache-aware sweeps, [Fused] the f64
    engine ([Kernels_f64], driven serially, pooled and batched by
    [Fused_f64]). *)
type engine = Functor | Decomposed | Cache | Fused

val all_engines : engine list
val engine_name : engine -> string

(** Gather maps of the individual passes (exposed for the test suite). *)
module Passes : sig
  val rotate_columns : Plan.t -> amount:(int -> int) -> Perm.t
  val row_shuffle_gather : Plan.t -> Perm.t
  val row_shuffle_ungather : Plan.t -> Perm.t
  val col_shuffle_gather : Plan.t -> Perm.t
  val col_shuffle_ungather : Plan.t -> Perm.t
  val permute_rows : Plan.t -> index:(int -> int) -> Perm.t

  val decompose_pass : size:int -> Xpose_permute.Decompose.pass -> Perm.t
  (** The [batch x rows x cols x block] middle-axes swap of the rank-N
      planner, as a gather map over a buffer of [size] elements.
      @raise Invalid_argument if [Decompose.elems pass <> size]. *)
end

val transpose_target : m:int -> n:int -> Perm.t
(** The specification: after transposing a row-major [m x n] matrix in
    place, [buf.(l) = original.((l mod m) * n + l / m)]. *)

val c2r_target : Plan.t -> Perm.t
val r2c_target : Plan.t -> Perm.t

val c2r_model : ?variant:Algo.c2r_variant -> Plan.t -> (string * Perm.t) list
(** The named pass sequence [c2r] executes on this plan (empty for
    degenerate [m = 1] or [n = 1] shapes, like the engines). *)

val r2c_model : ?variant:Algo.r2c_variant -> Plan.t -> (string * Perm.t) list

val transpose_model : engine -> m:int -> n:int -> (string * Perm.t) list
(** The pass sequence [transpose ~m ~n] executes on the given engine:
    default variants for [Functor], decomposed variants for
    [Decomposed]/[Cache], and the fused column pass (symbolically the
    composition of its two column-local sub-passes) for [Fused]. *)

val widths : int list
(** The panel and staging widths the check layer proves every engine
    at: [[8; 16; 32; 64]]. Any positive [?panel_width] stays accepted
    and correct; these are the ones the race grid, the probes and the
    pinned bounds certificates name. *)

val probes : ?widths:int list -> m:int -> n:int -> unit -> int list
(** Structured probe indices for a shape: border rows crossed with border
    columns, panel-edge columns ([wk - 1, wk, wk + 1] for every panel
    width [w] in [widths], default {!val:widths}) and one column per
    [gcd(m, n)] residue class — the index classes where the engines'
    case splits live (rotation wrap, panel boundary, CRT residue
    selection). *)

val verify_transpose :
  ?threshold:int -> engine -> m:int -> n:int -> string list * Perm.verdict
(** Compose {!transpose_model} and verify it against
    {!transpose_target} (exhaustive below [threshold], structured
    {!probes} plus deterministic samples above); returns the pass names
    and the verdict. *)

val permute_target : dims:int array -> perm:int array -> Perm.t
(** Gather form of [Xpose_permute]'s [permuted_index] specification. *)

val permute_model : Xpose_permute.Permute.plan -> (string * Perm.t) list

val permute_probes : dims:int array -> int list
(** Cartesian product of per-axis border coordinates (capped). *)

val verify_permute :
  ?threshold:int -> Xpose_permute.Permute.plan -> string list * Perm.verdict
(** Prove a planner-produced pass pipeline equal to the permutation
    specification for its [dims]/[perm]. *)
