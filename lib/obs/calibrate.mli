(** Machine bandwidth roofs from micro-probes, persisted as JSON.

    The Theorem-6 model prices a pass in {e element touches}; the
    report layer turns touches into a share of measured time. Neither
    says how close a pass runs to what the machine allows. Following
    the locality-aware roofline approach, this module measures four
    bandwidth roofs — one per traffic shape the engines generate — and
    {!Roofline} places every traced pass against the applicable one:

    - {e stream}: unit-stride copy (the classic bandwidth roof);
    - {e gather}: column-major reads out of a row-major panel at the
      fused engine's panel width, unit-stride writes — the fused
      column walk's load shape;
    - {e scatter}: the mirror image (unit-stride reads, strided
      writes);
    - {e permute}: sequential reads, writes scattered through a
      full-buffer permutation — a row-permutation pass's worst case.

    Every probe moves [2 * 8 * elems] bytes (each element read and
    written once), the same accounting as Theorem-6 touches, so
    achieved GB/s computed from a pass's touch count is directly
    comparable against these roofs.

    Timing uses {!Clock.now_ns}: install a wall clock first (the CLI
    and bench driver do) — the [Sys.time] default measures CPU
    seconds and would distort the roofs.

    A calibration is a plain record; {!save}/{!load} persist it to a
    small JSON file that survives {!load} → {!to_json} byte-identically
    (floats print with [%.17g]), loaded once at startup by the CLI
    ([--calibration FILE]) and the bench driver. *)

type probe = {
  gbps : float;  (** measured bandwidth, bytes per nanosecond *)
  ns_per_byte : float;  (** its reciprocal: the fitted per-byte cost *)
}

type t = {
  elems : int;  (** float64 elements per probe buffer *)
  repeats : int;  (** best-of-N timing *)
  panel_width : int;  (** stride of the gather/scatter probes *)
  stream : probe;
  gather : probe;
  scatter : probe;
  permute : probe;
  ghz : float option;
      (** effective clock from the frequency probe — a loop-carried
          integer-add chain retiring ~1 add/cycle, so adds per
          nanosecond is GHz. [None] when loaded from a file written
          before the probe existed; the report layer then omits the
          cycles-per-element column rather than guess. *)
}

val default_elems : int
(** [2^21] elements (16 MiB): past any sane L2, so the roofs measure
    memory, not cache. *)

val default_repeats : int

val default_panel_width : int
(** 16 — [Xpose_cpu.Fused.default_width]'s value (kept in sync by a
    unit test; this library cannot depend on the cpu layer). *)

val run : ?elems:int -> ?repeats:int -> ?panel_width:int -> unit -> t
(** Measure all four roofs plus the clock probe, best-of-[repeats]
    each after a warm-up run ([ghz] is always [Some] on a fresh run).
    @raise Invalid_argument on degenerate sizes ([elems < 1024],
    [repeats < 1], [panel_width < 2]). *)

val to_json : t -> string
val of_json : string -> (t, string) result
(** Total: hostile bytes come back as [Error], never an exception.
    Rejects unknown versions and non-positive roofs. *)

val save : t -> file:string -> unit
(** @raise Sys_error if the file cannot be written. *)

val load : file:string -> (t, string) result
(** Read and {!of_json} the file; I/O failure is an [Error] too. *)
