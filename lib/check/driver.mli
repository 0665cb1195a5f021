(** The [xpose check] grid: run every static check, collect a report.

    Five check families, in order:
    - ["plan"] — symbolic plan verification ({!Spec}): every engine x
      shape, plus the rank-N planner on a set of permutation problems;
    - ["race"] — parallel-footprint disjointness ({!Footprint}): every
      pooled engine x shape x lane count, the batched driver, the
      out-of-core engine's window splits (row windows, column panels,
      stripes, and the pool barriers inside them), and the planner's
      parallel executor;
    - ["shadow"] (opt-in) — checked-access runs: the {!Kernels_f64} and
      [Fused_f64] [Checked] twins executed on real (small) buffers;
    - ["bounds"] (opt-in, [prove_bounds]) — parametric in-bounds
      certificates ({!Bounds}): every access of every engine pipeline
      proved for all shapes, widths, batch lanes and window budgets at
      once, no enumeration;
    - ["alias"] (opt-in, [prove_bounds]) — parametric disjointness
      certificates ({!Alias}): the chunk/window splits and every
      barrier footprint lift proved alias-free for all shapes and lane
      counts, subsuming the per-shape race grid with symbolic proofs.

    Seeded negatives ([seed_race], [seed_oob], [seed_oob_static])
    inject a known defect and expect the corresponding analyzer to
    {e detect} it: a detection is reported with status [Detected] and
    makes the report non-[ok], which is what the CI negative stage
    asserts (via a negated exit code). A seeded defect that goes
    undetected is a [Violated] entry — the analyzer itself is broken.
    For the certificate families, detection means {e refutation}: the
    prover must fail {e and} the witness search must produce a concrete
    counterexample. *)

type status =
  | Proved  (** check passed *)
  | Violated  (** unexpected failure: broken engine, model, or analyzer *)
  | Detected  (** a seeded defect was caught, as intended *)

type entry = {
  check : string;
  subject : string;
  status : status;
  detail : string;
}

type report = {
  entries : entry list;
  checked : int;
  violations : int;
  detections : int;
}

val status_name : status -> string

val default_shapes : (int * int) list
(** Coprime, non-coprime, prime, square, skinny, panel-boundary shapes,
    plus one past the exhaustive-verification threshold. *)

val default_permutes : (int array * int array) list
val default_lanes : int list

val families : string list
(** The five check-family names, in report order. *)

val family_of_name : string -> string option
(** Normalize a user-facing family name ("perm" is accepted as a
    synonym of "plan"); [None] for an unknown name. *)

val run :
  ?threshold:int ->
  ?shapes:(int * int) list ->
  ?permutes:(int array * int array) list ->
  ?lanes:int list ->
  ?seed_race:bool ->
  ?seed_oob:bool ->
  ?shadow:bool ->
  ?prove_bounds:bool ->
  ?seed_oob_static:bool ->
  ?widths:int list ->
  ?only:string list ->
  unit ->
  report
(** Run the grid. [seed_race] swaps the pool's chunk split for
    {!Footprint.off_by_one_split} and the out-of-core windowing for
    {!Xpose_ooc.Window.overlapping_split} in the race models (and, when
    the alias family runs, adds the seeded split certificates that must
    be refuted); [seed_oob] runs a checked kernel over a deliberately
    short buffer; [shadow] adds the checked-access engine runs.

    [prove_bounds] adds the parametric certificate families: the full
    {!Bounds} grid and the {!Alias} grid. [seed_oob_static] adds the
    seeded out-of-bounds summary that the bounds prover must refute —
    on its own (without [prove_bounds]) it runs {e just} that seeded
    certificate, the fast static mirror of [seed_oob]. [widths] narrows
    the pinned panel widths of the bounds grid.

    [only] restricts the report to the named families ("perm" accepted
    for "plan"; unknown names simply never match). Naming an opt-in
    family in [only] enables it: [~only:["alias"]] runs the alias
    certificates without the 90-second bounds grid, and
    [~only:["bounds"] ~seed_oob_static:true] runs just the seeded
    negative. *)

val ok : report -> bool
(** No violations and no detections: the clean-CI condition. A seeded
    run is {e expected} to be non-[ok]. *)

val verdict : report -> (unit, string) result
(** [Ok ()] iff {!ok}; otherwise a one-line failure summary (violation
    count, or seeded-detection count) suitable for an error exit. *)

val pp : Format.formatter -> report -> unit
val to_json : report -> string
