(** Tuned execution parameters for one transpose shape.

    A value of this type is everything the autotuner is allowed to
    choose: which engine runs the shape, the fused column-panel width,
    how a batch splits across pool lanes, and the out-of-core window
    budget. It is deliberately a plain immutable record of scalars so it
    can serve as (part of) a {!Plan.Cache} key and round-trip through
    the tuning DB without a custom hash.

    The type lives in [Xpose_core] — below every engine — so the plan
    cache, the engines, and the race analyzer can all speak it without
    depending on the tuner. *)

type engine = Fused | Ooc
(** The candidate engines: the in-RAM f64 engine
    ({!Kernels_f64}, driven by [Xpose_cpu.Fused_f64]) and the
    out-of-core windowed engine. *)

type batch_split =
  | Auto
      (** The engine's historical rule: matrix-parallel when the batch
          has at least one matrix per pool lane, panel-parallel
          otherwise. *)
  | Matrix_parallel  (** Always fan matrices across lanes. *)
  | Panel_parallel  (** Always go panel-parallel inside each matrix. *)
  | Hybrid of int
      (** [Hybrid t]: matrix-parallel when the batch holds at least [t]
          matrices, panel-parallel below that. [Auto] is [Hybrid lanes]
          with [lanes] resolved at dispatch time. *)

type t = {
  engine : engine;
  panel_width : int;
  batch_split : batch_split;
  window_bytes : int option;
      (** Out-of-core residency budget; [None] for in-RAM engines. *)
}

val default : t
(** The pre-tuner behaviour: fused engine, width-16 panels, [Auto]
    batch split, no window override. Every dispatch path falls back to
    this when the tuning DB has no entry. *)

val supported_widths : int list
(** Panel widths the tuner searches and the check layer proves:
    [[8; 16; 32; 64]]. *)

val default_panel_width : int
(** 16 — a float64 sub-row spanning a typical 128-byte line pair. *)

val engine_to_string : engine -> string
val engine_of_string : string -> engine option
val split_to_string : batch_split -> string
val split_of_string : string -> batch_split option

val to_string : t -> string
(** Compact display form, e.g. ["fused/w32/hybrid:4"]. *)

val equal : t -> t -> bool

val validate : t -> t
(** Identity on well-formed values.
    @raise Invalid_argument on a non-positive width or window. *)
