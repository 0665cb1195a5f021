(** Out-of-core matrices: memory-mapped files as transposition buffers.

    Because the decomposition needs only [O(max(m,n))] auxiliary memory,
    matrices larger than RAM can be transposed in place in their backing
    file — the mapped buffer is an ordinary float64 bigarray, so it works
    directly with the f64 engine ({!Xpose_core.Kernels_f64}) and every
    functor instance over [Storage.Float64]. {!map_range} maps a bounded
    slice of the file, which is what the windowed [Xpose_ooc] engine
    builds on.

    A note on unmapping: the OCaml runtime releases a mapping when the
    bigarray is garbage-collected; there is no eager [munmap] in the
    stdlib. Dropping every reference to a mapped slice makes it
    collectable, and the kernel reclaims the (clean or synced) pages
    under memory pressure either way, so a caller's {e logical} residency
    — the mappings it still holds — is the bound that matters. *)

val create : path:string -> elements:int -> unit
(** Create (or truncate) a file holding [elements] float64 zeros.
    @raise Unix.Unix_error on I/O failure. *)

val with_fd : ?write:bool -> path:string -> (Unix.file_descr -> 'a) -> 'a
(** [with_fd ~path f] opens [path] ([O_RDWR] when [write], the default;
    [O_RDONLY] otherwise), applies [f], and closes the fd (also on
    exception).
    @raise Unix.Unix_error on I/O failure. *)

val map_range :
  ?write:bool -> Unix.file_descr -> pos:int -> len:int -> Xpose_core.Storage.Float64.t
(** [map_range fd ~pos ~len] maps the [len] float64 elements starting at
    element offset [pos] of the file. When [write] (the default) the
    mapping is shared — stores reach the file — and the fd must be open
    read-write; a read-only map is private (copy-on-write). [pos] need
    not be page-aligned; the runtime aligns the underlying mapping.
    @raise Invalid_argument if [pos] or [len] is negative;
    @raise Unix.Unix_error / Sys_error on I/O failure. *)

val with_map :
  ?write:bool -> path:string -> (Xpose_core.Storage.Float64.t -> 'a) -> 'a
(** [with_map ~path f] maps the whole file as a float64 array and applies
    [f]. When [write] (the default) the fd is opened read-write and the
    file is [fsync]ed after [f] returns; with [~write:false] the fd is
    opened read-only, the mapping is copy-on-write, and the sync is
    skipped. The file length must be a multiple of 8 bytes.
    @raise Invalid_argument on a misaligned file;
    @raise Unix.Unix_error on I/O failure. *)

val transpose_file :
  ?ws:Xpose_core.Workspace.F64.t -> path:string -> m:int -> n:int -> unit -> unit
(** Transpose the row-major [m x n] float64 matrix stored in [path], in
    place in the file, with the f64 engine ({!Xpose_core.Kernels_f64},
    whose column passes move one staging of [w] columns per row-order
    sweep). RAM scratch is at most [max (r * w) (max m n)] floats and
    [max w (min m n)] ints, where [r = max m n] is the plan's row count
    and [r * w <= max r Kernels_f64.stage_elems] ([2^18]). Scratch comes
    from [ws] when given (repeated file transposes on one workspace stop
    churning the allocator); a fresh workspace is created per call
    otherwise.
    @raise Invalid_argument if the file does not hold exactly [m*n]
    elements. *)
