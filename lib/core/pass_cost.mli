(** Per-pass Theorem-6 pricing, shared by every instrumented pass runner.

    {!Theory.theorem6_work_and_space} prices a whole transposition; the
    observability layer needs the same accounting split by pass so a
    traced run can be joined against the model pass by pass. The counts
    here are {e exact} for the implementations in {!Algo.Make}: a shuffle
    pass reads and writes every element once ([2mn]); a rotation pass
    skips the columns whose reduced amount is zero. Summing the passes of
    the default gather C2R reproduces [Theory.theorem6_work_and_space]
    exactly (asserted in the obs test suite). *)

val shuffle : Plan.t -> int
(** Element touches of a row or column shuffle pass: [2mn]. *)

val rotate : Plan.t -> amount:(int -> int) -> int
(** Element touches of a column-rotation pass: [2m] per column whose
    rotation amount is nonzero mod [m]. O(n). *)

val permute_rows : Plan.t -> int
(** Element touches of a row-permutation pass ([2mn]: the implementation
    gathers and writes back every column in full). *)

(** {1 Panelized (cache-aware / fused) passes}

    The counts above price {e buffer accesses}, which for the naive
    per-column passes coincide with memory traffic (nothing stays
    resident between columns). The panelized engines are priced under
    the §4.6 residency model instead: a width-[W] column panel is loaded
    into cache once and stored once per {e visit}, however many fused
    operations run while it is resident. The two models agree on what
    the regression guard needs — un-fusing a pass into a second sweep
    doubles the count. *)

val panel_rotate : Plan.t -> width:int -> amount:(int -> int) -> int
(** Modeled memory element transfers of a §4.6 panelized rotation:
    [2m * w] per width-[w] panel containing at least one column whose
    reduced amount is nonzero; untouched panels are free. O(n).
    @raise Invalid_argument if [width < 1]. *)

val fused_panel : Plan.t -> width:int -> int
(** One fused panel visit ([2m * width]): the panel is read and written
    once while the rotation and the row permutation both run on it. *)

val fused_col : Plan.t -> int
(** The whole fused column phase, [2mn]: every element moves through
    cache once even though two §4.1 passes (column rotation, row
    permutation) are applied to it. Compare against
    {!rotate}[ + ]{!permute_rows} ([~4mn]) for the unfused path. *)

(** {1 Out-of-core windows}

    The windowed engine's unit of residency is a mapped window, and what
    the pricing must predict is {e file traffic through that window}:
    every resident element is read once on the way in and written once
    on the way out, regardless of how many fused operations run while it
    is staged. These feed the per-window [ooc.window] spans. *)

val ooc_row_window : Plan.t -> rows:int -> int
(** File traffic of one streaming row window of [rows] rows:
    [2 * rows * n] (each row is gathered through scratch and written
    back in place).
    @raise Invalid_argument if [rows < 0]. *)

val ooc_panel_window : Plan.t -> width:int -> int
(** File traffic of one staged column panel of [width] columns:
    [2 * m * width] (gathered into the staging once, scattered back
    once), independent of how many column passes run on the staging.
    @raise Invalid_argument if [width < 1]. *)
