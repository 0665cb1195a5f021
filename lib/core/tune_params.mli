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

type engine = Kernels | Cache | Fused | Ooc
(** The candidate engines: the unrolled kernel sequence, the
    cache-aware sweeps, the fused-panel engine, and the out-of-core
    windowed engine. *)

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

type kernel_tier =
  | Scalar
  | Mk8
  | Mk16
(** The retired micro-kernel tier axis. The engines accept it and ignore
    it (their staged column passes have no tier to select); it stays so
    tuning DBs, CLI flags and the check grid keep their shape. *)

type t = {
  engine : engine;
  panel_width : int;
  batch_split : batch_split;
  window_bytes : int option;
      (** Out-of-core residency budget; [None] for in-RAM engines. *)
  kernel_tier : kernel_tier;
      (** Accepted and ignored by every engine; [Scalar] by default. *)
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

val supported_tiers : kernel_tier list
(** Kernel tiers the tuner searches and the check layer proves:
    [[Scalar; Mk8; Mk16]]. *)

val tier_block : kernel_tier -> int
(** Square block edge of the tier's micro-kernel tile: 1, 8 or 16. *)

val engine_to_string : engine -> string
val engine_of_string : string -> engine option
val split_to_string : batch_split -> string
val split_of_string : string -> batch_split option
val tier_to_string : kernel_tier -> string
val tier_of_string : string -> kernel_tier option

val to_string : t -> string
(** Compact display form, e.g. ["fused/w32/hybrid:4"]; a non-scalar
    kernel tier appends ["/mk8"] or ["/mk16"]. *)

val equal : t -> t -> bool

val validate : t -> t
(** Identity on well-formed values.
    @raise Invalid_argument on a non-positive width or window, or a
    kernel tier whose block edge exceeds the panel width. *)
