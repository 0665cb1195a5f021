(** Reusable per-worker scratch buffers for the cache-aware and fused
    engines.

    The §4.6/§4.7 passes need four small buffers: a [line] holding one
    sub-row (group width), a [head] caching the first rows of a panel
    (width x width), a [block] staging the fine-rotation strips
    (block_rows x width), and the Theorem-6 [tmp] scratch (max m n). The
    row passes add an [idx] row of walk indices ({!Plan.walk}). The f64
    engines' staged column passes take their [m * w] staging from [tmp]
    and one row's scratch offsets from [idx].
    Allocating them per call is cheap for one large transpose but
    dominates a batched many-small-matrices workload, so a workspace owns
    all five and grows them monotonically on demand: the accessors return
    a buffer of {e at least} the requested length, reallocating only when
    the current one is too small.

    A workspace is single-owner mutable state: give each pool worker its
    own ({!Xpose_cpu.Fused_f64.transpose_batch} does), never share one
    across concurrently running passes. *)

module type S = sig
  type t
  type buf

  val create : unit -> t
  (** An empty workspace; buffers are allocated lazily by the accessors. *)

  val line : t -> int -> buf
  (** [line t len] is the sub-row buffer, grown to at least [len]. *)

  val head : t -> int -> buf
  (** Panel-head cache for the §4.6 fine phase (width * width). *)

  val block : t -> int -> buf
  (** Strip staging buffer for the §4.6 fine phase (block_rows * width). *)

  val tmp : t -> int -> buf
  (** Theorem-6 per-worker scratch ([Plan.scratch_elements]). *)

  val idx : t -> int -> int array
  (** One row of {!Plan.walk} indices (at least [n]). *)
end

module Make (St : Storage.S) : S with type buf = St.t

module F64 : S with type buf = Storage.Float64.t
(** The float64 instance shared by {!Kernels_f64} and the fused engine. *)
