(** The serving-path entry point: route an in-RAM float64 transpose to
    {!Xpose_cpu.Fused_f64}, the staged engine, at its default staging
    width.

    A selector only carries the {!Xpose_core.Plan.Cache} its plans come
    from, so a hot shape costs one plan-cache hit and no planning. There
    is nothing to choose per shape: the transpose's only parameter is its
    plan, and re-measured tuner picks of the staging width ran within
    noise of the default (docs/PERF.md §6). *)

open Xpose_core

type t

val create : ?cache:Plan.Cache.t -> unit -> t
(** [cache] defaults to {!Plan.Cache.default}. *)

val dispatch : ?pool:Xpose_cpu.Pool.t -> t -> m:int -> n:int ->
  Storage.Float64.t -> unit
(** Transpose the row-major [m x n] buffer in place: pool-parallel
    ({!Xpose_cpu.Fused_f64.transpose_pool}) when [pool] has more than
    one lane, the serial engine otherwise.
    @raise Invalid_argument on a bad shape or a shape/buffer
    mismatch. *)

val dispatch_batch :
  t -> Xpose_cpu.Pool.t -> m:int -> n:int -> Storage.Float64.t array -> unit
(** Transpose every matrix of the same-shape batch through
    {!Xpose_cpu.Fused_f64.transpose_batch}: matrix-parallel when the
    batch has at least one matrix per pool lane, panel-parallel per
    matrix otherwise.
    @raise Invalid_argument on a bad shape or any buffer whose size is
    not [m * n]. *)
