(** The persistent tuning DB: one winning configuration per shape,
    versioned by calibration fingerprint.

    JSON on disk (parsed back with the total {!Xpose_obs.Json_lite}),
    written atomically (temp file + [rename] in the target directory),
    and keyed in memory by [(m, n)] under a mutex so the server's
    dispatcher can consult it from any domain. An entry records the
    winner's parameters alongside the model's prediction, the measured
    time, the measured time of the {e default} configuration (the
    never-slower floor the CI gate checks), and the achieved roofline
    fraction.

    The whole DB carries the {!Xpose_obs.Calibrate.fingerprint} of the
    calibration its entries were priced and measured under; {!load}
    with a different fingerprint discards every entry, which is what
    forces re-tuning after a re-probe. *)

open Xpose_core

type entry = {
  m : int;
  n : int;
  nb : int;  (** Batch size the shape was tuned at (1 = single). *)
  params : Tune_params.t;
  predicted_ns : float;
  measured_ns : float;
  default_ns : float;
      (** Measured time of {!Tune_params.default} in the same run. *)
  roofline_frac : float;
}

type t

val create : fingerprint:string -> t
val fingerprint : t -> string

val find : t -> m:int -> n:int -> entry option
val add : t -> entry -> unit
(** Replaces any previous entry for the shape.
    @raise Invalid_argument on non-positive [m], [n] or [nb]. *)

val length : t -> int
val entries : t -> entry list
(** Sorted by shape. *)

val to_json : t -> string
val of_json : string -> (t, string) result
(** Total: hostile bytes come back as [Error], never an exception. Files
    written by older versions load: an entry naming a retired engine
    ([kernels] or [cache]) takes the default engine, and a
    [kernel_tier] field is ignored. *)

type status =
  | Fresh  (** No file existed; the DB starts empty. *)
  | Loaded  (** Entries restored; fingerprints matched. *)
  | Invalidated
      (** The file's fingerprint differs from the current calibration:
          every entry was discarded and tuning starts over. *)

val load : file:string -> fingerprint:string -> (t * status, string) result
(** Load [file] under the current calibration [fingerprint]. A missing
    file is [Fresh], a fingerprint mismatch is [Invalidated] (empty DB
    stamped with the {e new} fingerprint); only unparseable bytes or
    I/O failures are [Error]. *)

val save : t -> file:string -> unit
(** Serialize and atomically rename into place; a crashed writer leaves
    the previous file intact.
    @raise Sys_error if the directory is not writable. *)
