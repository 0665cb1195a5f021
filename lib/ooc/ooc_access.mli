(** Symbolic access summaries of the out-of-core passes.

    Window bounds, pool sub-ranges, and panel budgets are parameters
    carrying their defining inequalities, so the certificates
    [Xpose_check.Bounds] derives from these summaries hold for every
    [--window-bytes] budget and every {!Window.split} outcome -- no
    geometry enumeration. *)

open Xpose_core

val shuffle_rows : ungather:bool -> Access.summary
(** The row passes ({!Xpose_core.Kernels_f64.Phases}[.row_shuffle_gather]
    / [row_shuffle_ungather]) as [Ooc_f64] runs them: one pool chunk
    [lo, hi) of a mapped row window [win_lo, win_hi), with
    [row0 = win_lo]. Reads go through [d'_inv] ([ungather:false], C2R)
    or [d'] ([ungather:true], R2C) at window-relative offsets. Exact. *)

val gather_panel : Access.summary
(** Stripe-window to staging-buffer panel copy ([per] = the panel
    column budget; the panel [pan_lo, pan_hi) satisfies
    [pan_hi <= min(n, pan_lo + per)]). Exact. *)

val scatter_panel : Access.summary
(** Inverse of {!gather_panel}: staging back into the stripe window. *)

val all : Access.summary list
