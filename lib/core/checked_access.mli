(** Checked-access shadow mode: instrumented twins of the unsafe access
    paths.

    The specialized float64 engines ({!Kernels_f64}, the fused engine in
    [Xpose_cpu]) read and write through [Bigarray.Array1.unsafe_get] /
    [unsafe_set] — a wrong index silently corrupts memory. This module is
    the common vocabulary of their checked twins: every access is bounds
    verified, every blit range verified, and workspace buffers are
    verified distinct from the matrix, raising {!Violation} with the
    offending operation and index instead of corrupting. The checked
    twins are selected by tests (run the whole suite once under checking)
    and by [xpose check --shadow]. *)

exception Violation of string
(** Raised by every checked accessor on a violated precondition. The
    message names the module, the operation, and the offending index or
    range. *)

val violation : ('a, unit, string, 'b) format4 -> 'a
(** [violation fmt ...] raises {!Violation} with a formatted message. *)

val bounds : who:string -> what:string -> len:int -> int -> unit
(** [bounds ~who ~what ~len i] raises {!Violation} unless
    [0 <= i < len]. *)

val set_recorder :
  (who:string -> what:string -> len:int -> int -> unit) option -> unit
(** Install (or clear) a hook observing every single-element checked
    access before it is validated. The access-summary cross-validation
    tests use it to record the exact index trace of a checked pass and
    diff it against the concretized {!Access} summary. Not for
    production paths; the hook sees accesses from every thread. *)

val range : who:string -> what:string -> len:int -> pos:int -> count:int -> unit
(** [range ~who ~what ~len ~pos ~count] raises {!Violation} unless
    [[pos, pos + count)] lies within [[0, len)] and [count >= 0]. *)

val distinct : who:string -> what:string -> 'a -> 'a -> unit
(** [distinct ~who ~what a b] raises {!Violation} when [a] and [b] are
    physically equal — the workspace-aliasing check: scratch buffers
    handed to a pass must not be the matrix being permuted. *)

module F64 : Storage.S with type t = Storage.Float64.t and type elt = float
(** {!Storage.Float64} with every [get]/[set]/[blit] access checked: the
    storage to instantiate the element-generic engines ([Algo.Make],
    [Cache_aware.Make], ...) with for a fully checked run. *)
