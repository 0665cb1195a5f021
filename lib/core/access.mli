(** Symbolic per-pass access summaries.

    Every engine pass declares its reads and writes as affine/interval
    index expressions over the plan quantities ([a], [b], [c], [a_inv],
    [b_inv], with [m = a*c] and [n = b*c]) plus pass parameters (panel
    width, sub-range, window geometry). {!Xpose_check.Bounds} turns a
    summary into shape-universal polynomial proof obligations;
    [concretize] evaluates it on a concrete environment so tests can
    diff the symbolic model against the traces of the checked-access
    shadow engines.

    [Div] is floor division ({!Intmath.ediv}) and [Mod] is the Euclidean
    remainder ({!Intmath.emod}) -- exactly the operations {!Plan}
    computes with. *)

type exp =
  | Const of int
  | Var of string
  | Add of exp * exp
  | Sub of exp * exp
  | Mul of exp * exp
  | Div of exp * exp  (** floor division, {!Intmath.ediv} *)
  | Mod of exp * exp  (** Euclidean remainder, {!Intmath.emod} *)
  | Min of exp * exp
  | Max of exp * exp
  | Ite of cond * exp * exp

and cond = Le of exp * exp | Eq of exp * exp | And of cond * cond

type kind = Read | Write

type node =
  | Acc of { region : string; kind : kind; index : exp }
  | For of { var : string; lo : exp; hi : exp; body : node list }
      (** [var] ranges over [[lo, hi)]; empty when [hi <= lo]. *)
  | Bind of { var : string; def : exp; body : node list }
  | When of cond * node list

type param = {
  name : string;
  p_lo : exp;  (** inclusive lower bound *)
  p_his : exp list;  (** inclusive upper bounds (conjunction); [] = free *)
  sample : int list;  (** candidate values for counterexample search *)
}

type basis =
  | Plan_basis
      (** roots [a, b, c >= 1], [a_inv, b_inv >= 0]; [m = a*c], [n = b*c] *)
  | Free_basis  (** roots [m, n >= 1] *)

type region = { rname : string; size : exp }

type summary = {
  pass : string;
  basis : basis;
  params : param list;  (** in dependency order; later may reference earlier *)
  regions : region list;
  body : node list;
  exact : bool;
      (** [true]: concretization equals the pass's access set;
          [false]: concretization is a proven superset. *)
}

(** {1 Evaluation} *)

type env = (string * int) list

val eval : env -> exp -> int
val eval_cond : env -> cond -> bool

val subst : string -> exp -> exp -> exp
(** [subst v r e] replaces every free [Var v] in [e] by [r]. Binders are
    not renamed: summary authors use globally distinct binder names. *)

val subst_cond : string -> exp -> cond -> cond
val to_string : exp -> string
val cond_to_string : cond -> string

type event = { e_region : string; e_kind : kind; e_index : int }

exception Too_many_accesses

val concretize : ?cap:int -> env:env -> summary -> event list
(** The deduplicated, sorted access set of a summary under [env], which
    must bind the basis variables and every parameter. Raises
    {!Too_many_accesses} past [cap] (default 2e6) raw accesses. *)

val env_of_plan : Plan.t -> env
(** [m], [n], [a], [b], [c], [a_inv], [b_inv] of a concrete plan. *)

val basis_env : basis -> env
(** The smallest legal environment of a basis (all roots at their lower
    bounds) -- a convenient starting point for search. *)

val pin : summary -> string -> int -> summary
(** [pin s name v] fixes parameter [name] to exactly [v] (bounds and
    sample collapse to [v]). Raises [Invalid_argument] on an unknown
    parameter. *)

(** {1 Authoring helpers} *)

val num : int -> exp
val var : string -> exp
val ( +: ) : exp -> exp -> exp
val ( -: ) : exp -> exp -> exp
val ( *: ) : exp -> exp -> exp
val ( /: ) : exp -> exp -> exp
val ( %: ) : exp -> exp -> exp
val le : exp -> exp -> cond
val lt : exp -> exp -> cond
val read : string -> exp -> node
val write : string -> exp -> node
val for_ : string -> exp -> exp -> node list -> node
val bind : string -> exp -> node list -> node

(** {1 The plan index equations as expressions}

    Operation-for-operation transcriptions of {!Plan}'s division-free
    index maps, in the plan basis. *)

module Ix : sig
  val m : exp
  val n : exp
  val a : exp
  val b : exp
  val c : exp
  val a_inv : exp
  val b_inv : exp
  val rotate_amount : exp -> exp
  val d' : i:exp -> exp -> exp
  val d'_inv : i:exp -> exp -> exp
  val s' : j:exp -> exp -> exp
  val s'_inv : j:exp -> exp -> exp
  val q : exp -> exp
  val q_inv : exp -> exp
end

(** {1 Summaries of the row/column kernel phases}

    One summary per [Algo.Make] phase (the paper's row/column passes),
    each quantified over its [lo]/[hi] sub-range so a single certificate
    covers every pool chunking and batch lane. The row shuffles are also
    the summaries of {!Kernels_f64}'s walk row passes. *)

module Passes : sig
  val matrix : region
  val scratch : exp -> region
  val range_params : exp -> param list

  val rotate : ?pass:string -> ?tmp_size:exp -> (exp -> exp) -> summary
  (** [rotate amount] is [Algo.Make.Phases.rotate_columns] with the
      given per-column amount map. *)

  val seeded_oob_rotate : (exp -> exp) -> summary
  (** The [--seed-oob-static] negative: one copy loop runs a row too
      far, reaching index [m*n + j]. Must fail the bounds proof. *)

  val row_shuffle : ?pass:string -> (i:exp -> exp -> exp) -> summary
  val row_shuffle_gather : summary
  val row_shuffle_ungather : summary
  val row_shuffle_scatter : summary
  val col_gather : ?pass:string -> (j:exp -> exp -> exp) -> summary
  val col_shuffle_gather : summary
  val col_shuffle_ungather : summary
  val permute_rows : ?pass:string -> (exp -> exp) -> summary

  (** {2 Stage and gather}

      One staging of [Kernels_f64.Phases.gather_cols]: global columns
      [[j0, j0 + w)] of a buffer holding columns [[col0, col0 + pitch)]
      at row pitch [pitch]. Regions: the matrix panel ([m * pitch],
      read by the stage sweep, written by the write-back), the lane's
      stage ([m * w]) and the [m]-entry index table. Staging position
      and width, pitch and col0 are parameters, so one certificate
      covers the serial engine, every pool chunk and every out-of-core
      staging. Supersets: the checked twin records no table reads, and
      a rotation quantifies its residue. *)

  val stage_rotate : summary
  (** Rotation by any per-column amount ([rotate_pre], [rotate_post]). *)

  val stage_shuffle : summary
  (** The C2R shuffle [(q(i) + j) mod m]. *)

  val stage_unshuffle : summary
  (** The R2C unshuffle [q^-1((i - j) mod m)]. *)

  type c2r_pipeline = Gather | Scatter | Decomposed
  type r2c_pipeline = Fused_inverse | Decomposed_inverse

  val rotate_pre : summary
  val rotate_post : summary
  val col_rotate : summary
  val col_unrotate : summary
  val row_permute_q : summary
  val row_permute_q_inv : summary

  val c2r : c2r_pipeline -> summary list
  val r2c : r2c_pipeline -> summary list

  val all_pipeline_passes : summary list
  (** Every distinct pass summary appearing in some pipeline. *)
end
