(* Per-pass access summaries: a tiny affine/interval IR in which every
   engine pass declares, symbolically in the plan quantities, exactly
   which flat indices of which region (matrix, scratch, panel
   workspaces, ooc windows) it reads and writes.

   The IR serves two masters with one definition:

   - {!Xpose_check.Bounds} translates a summary into polynomial proof
     obligations over the plan basis (a, b, c, a_inv, b_inv with
     m = a*c, n = b*c) and certifies -- for ALL shapes at once, no
     enumeration -- that every access lies inside its declared region.
   - [concretize] evaluates the same summary on a concrete environment,
     producing the exact index set; the QCheck suites diff that set
     against the traces recorded by the checked-access shadow engines,
     so the symbolic model can never drift from the code it describes.

   Index expressions mirror {!Plan} operation by operation ([Div] is
   floor division = [Intmath.ediv], [Mod] is Euclidean = [Intmath.emod]),
   so a summary marked [exact] concretizes to precisely the accesses the
   pass performs. *)

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

type basis = Plan_basis | Free_basis

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

(* -- evaluation ---------------------------------------------------------- *)

type env = (string * int) list

let lookup env s =
  match List.assoc_opt s env with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Access.eval: unbound variable %S" s)

let rec eval env = function
  | Const v -> v
  | Var s -> lookup env s
  | Add (x, y) -> eval env x + eval env y
  | Sub (x, y) -> eval env x - eval env y
  | Mul (x, y) -> eval env x * eval env y
  | Div (x, y) -> Intmath.ediv (eval env x) (eval env y)
  | Mod (x, y) -> Intmath.emod (eval env x) (eval env y)
  | Min (x, y) -> min (eval env x) (eval env y)
  | Max (x, y) -> max (eval env x) (eval env y)
  | Ite (c, x, y) -> if eval_cond env c then eval env x else eval env y

and eval_cond env = function
  | Le (x, y) -> eval env x <= eval env y
  | Eq (x, y) -> eval env x = eval env y
  | And (c1, c2) -> eval_cond env c1 && eval_cond env c2

(* -- substitution (capture-naive: summaries use distinct binder names) --- *)

let rec subst v r = function
  | Const _ as e -> e
  | Var s as e -> if String.equal s v then r else e
  | Add (x, y) -> Add (subst v r x, subst v r y)
  | Sub (x, y) -> Sub (subst v r x, subst v r y)
  | Mul (x, y) -> Mul (subst v r x, subst v r y)
  | Div (x, y) -> Div (subst v r x, subst v r y)
  | Mod (x, y) -> Mod (subst v r x, subst v r y)
  | Min (x, y) -> Min (subst v r x, subst v r y)
  | Max (x, y) -> Max (subst v r x, subst v r y)
  | Ite (c, x, y) -> Ite (subst_cond v r c, subst v r x, subst v r y)

and subst_cond v r = function
  | Le (x, y) -> Le (subst v r x, subst v r y)
  | Eq (x, y) -> Eq (subst v r x, subst v r y)
  | And (c1, c2) -> And (subst_cond v r c1, subst_cond v r c2)

(* -- printing ------------------------------------------------------------ *)

let rec to_string = function
  | Const v -> string_of_int v
  | Var s -> s
  | Add (x, y) -> Printf.sprintf "(%s + %s)" (to_string x) (to_string y)
  | Sub (x, y) -> Printf.sprintf "(%s - %s)" (to_string x) (to_string y)
  | Mul (x, y) -> Printf.sprintf "(%s * %s)" (to_string x) (to_string y)
  | Div (x, y) -> Printf.sprintf "(%s / %s)" (to_string x) (to_string y)
  | Mod (x, y) -> Printf.sprintf "(%s mod %s)" (to_string x) (to_string y)
  | Min (x, y) -> Printf.sprintf "min(%s, %s)" (to_string x) (to_string y)
  | Max (x, y) -> Printf.sprintf "max(%s, %s)" (to_string x) (to_string y)
  | Ite (c, x, y) ->
      Printf.sprintf "(if %s then %s else %s)" (cond_to_string c)
        (to_string x) (to_string y)

and cond_to_string = function
  | Le (x, y) -> Printf.sprintf "%s <= %s" (to_string x) (to_string y)
  | Eq (x, y) -> Printf.sprintf "%s = %s" (to_string x) (to_string y)
  | And (c1, c2) ->
      Printf.sprintf "%s && %s" (cond_to_string c1) (cond_to_string c2)

(* -- concretization ------------------------------------------------------ *)

type event = { e_region : string; e_kind : kind; e_index : int }

exception Too_many_accesses

let concretize ?(cap = 2_000_000) ~env (s : summary) : event list =
  let tbl = Hashtbl.create 1024 in
  let count = ref 0 in
  let rec go env nodes =
    List.iter
      (function
        | Acc { region; kind; index } ->
            incr count;
            if !count > cap then raise Too_many_accesses;
            Hashtbl.replace tbl
              { e_region = region; e_kind = kind; e_index = eval env index }
              ()
        | For { var; lo; hi; body } ->
            let lo = eval env lo and hi = eval env hi in
            for v = lo to hi - 1 do
              go ((var, v) :: env) body
            done
        | Bind { var; def; body } -> go ((var, eval env def) :: env) body
        | When (c, body) -> if eval_cond env c then go env body)
      nodes
  in
  go env s.body;
  List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) tbl [])

let env_of_plan (p : Plan.t) : env =
  [
    ("m", p.m);
    ("n", p.n);
    ("a", p.a);
    ("b", p.b);
    ("c", p.c);
    ("a_inv", p.a_inv);
    ("b_inv", p.b_inv);
  ]

let basis_env = function
  | Plan_basis ->
      [ ("a", 1); ("b", 1); ("c", 1); ("a_inv", 0); ("b_inv", 0) ]
  | Free_basis -> [ ("m", 1); ("n", 1) ]

(* Pin a parameter to a concrete value: the prover then reasons with
   [value <= p <= value], and the sampler only tries [value]. *)
let pin (s : summary) name value =
  let seen = ref false in
  let params =
    List.map
      (fun p ->
        if String.equal p.name name then begin
          seen := true;
          { p with p_lo = Const value; p_his = [ Const value ];
            sample = [ value ] }
        end
        else p)
      s.params
  in
  if not !seen then
    invalid_arg (Printf.sprintf "Access.pin: no parameter %S in %s" name s.pass);
  { s with params }

(* -- small authoring DSL ------------------------------------------------- *)

let num x = Const x
let var s = Var s
let ( +: ) a b = Add (a, b)
let ( -: ) a b = Sub (a, b)
let ( *: ) a b = Mul (a, b)
let ( /: ) a b = Div (a, b)
let ( %: ) a b = Mod (a, b)
let le a b = Le (a, b)
let lt a b = Le (Add (a, Const 1), b)
let read region index = Acc { region; kind = Read; index }
let write region index = Acc { region; kind = Write; index }
let for_ var lo hi body = For { var; lo; hi; body }
let bind var def body = Bind { var; def; body }

(* -- the plan index maps, operation for operation ------------------------ *)

module Ix = struct
  let m = var "m"
  let n = var "n"
  let a = var "a"
  let b = var "b"
  let c = var "c"
  let a_inv = var "a_inv"
  let b_inv = var "b_inv"

  (* Eq. 23: pre-rotation amount for column j. *)
  let rotate_amount j = j /: b

  (* Eq. 24: d'(i, j) = ((i + j/b) mod m + j*m) mod n. *)
  let d' ~i j = ((i +: (j /: b)) %: m +: (j *: m)) %: n

  (* Eq. 31 as computed by Plan.d'_inv: with
     f = j + i*(n-1) + (if i - (j mod c) + c <= m then 0 else m),
     d'_inv = (a_inv * ((f/c) mod b)) mod b + (f mod c) * b. *)
  let d'_inv ~i j =
    let f =
      Ite
        ( Le (i -: (j %: c) +: c, m),
          j +: (i *: (n -: num 1)),
          j +: (i *: (n -: num 1)) +: m )
    in
    ((a_inv *: (f /: c %: b)) %: b) +: (f %: c *: b)

  (* Eq. 27: s'(j, i) = (j + i*n - i/a) mod m. *)
  let s' ~j i = (j +: (i *: n) -: (i /: a)) %: m

  (* Row-permutation target q(i) = (i*n - i/a) mod m. *)
  let q i = ((i *: n) -: (i /: a)) %: m

  (* Its inverse as computed by Plan.q_inv. *)
  let q_inv i =
    Ite
      ( Eq (Div (c -: num 1 +: i, c), a),
        Const 0,
        Div (c -: num 1 +: i, c) )
    |> fun v -> ((v *: b_inv) %: a) +: (((c -: num 1) *: i) %: c *: a)

  (* s'_inv(j, i) = q_inv((i - j) mod m). *)
  let s'_inv ~j i = q_inv ((i -: j) %: m)
end

(* -- per-pass summaries of the row/column kernels ------------------------ *)

module Passes = struct
  open Ix

  let matrix = { rname = "matrix"; size = Mul (m, n) }
  let scratch size = { rname = "tmp"; size }

  let default_range = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ]

  (* Every kernel phase takes ~lo ~hi and touches only that sub-range of
     its outer loop; quantifying over the sub-range is what makes one
     certificate cover every pool chunking and batch lane at once. *)
  let range_params bound =
    [
      { name = "hi"; p_lo = Const 0; p_his = [ bound ]; sample = default_range };
      {
        name = "lo";
        p_lo = Const 0;
        p_his = [ Var "hi" ];
        sample = default_range;
      };
    ]

  let rotate_body ~amount ~wrap_hi =
    [
      for_ "j" (var "lo") (var "hi")
        [
          bind "k" (Mod (amount (var "j"), m))
            [
              When
                ( le (num 1) (var "k"),
                  [
                    for_ "i1" (num 0) (wrap_hi (m -: var "k"))
                      [
                        read "matrix"
                          (((var "i1" +: var "k") *: n) +: var "j");
                        write "tmp" (var "i1");
                      ];
                    for_ "i2" (m -: var "k") m
                      [
                        read "matrix"
                          (((var "i2" +: var "k" -: m) *: n) +: var "j");
                        write "tmp" (var "i2");
                      ];
                    for_ "i3" (num 0) m
                      [
                        read "tmp" (var "i3");
                        write "matrix" ((var "i3" *: n) +: var "j");
                      ];
                  ] );
            ];
        ];
    ]

  (* Algo.Make.Phases.rotate_columns with a concrete amount map. *)
  let rotate ?(pass = "rotate") ?(tmp_size = Max (m, n)) amount =
    {
      pass;
      basis = Plan_basis;
      params = range_params n;
      regions = [ matrix; scratch tmp_size ];
      body = rotate_body ~amount ~wrap_hi:(fun e -> e);
      exact = true;
    }

  (* The deliberately corrupted summary behind [--seed-oob-static]: the
     first copy loop runs one row too far, so its final read lands at
     (m - k + k) * n + j = m*n + j -- outside the matrix. Bounds must
     refuse to certify it and produce a concrete counterexample shape. *)
  let seeded_oob_rotate amount =
    {
      (rotate ~pass:"seeded.rotate_oob" amount) with
      body = rotate_body ~amount ~wrap_hi:(fun e -> e +: num 1);
      exact = false;
    }

  let row_shuffle_body col =
    [
      for_ "i" (var "lo") (var "hi")
        [
          for_ "j" (num 0) n
            [
              read "matrix" ((var "i" *: n) +: col ~i:(var "i") (var "j"));
              write "tmp" (var "j");
            ];
          for_ "j2" (num 0) n
            [
              read "tmp" (var "j2");
              write "matrix" ((var "i" *: n) +: var "j2");
            ];
        ];
    ]

  let row_shuffle ?(pass = "row_shuffle") col =
    {
      pass;
      basis = Plan_basis;
      params = range_params m;
      regions = [ matrix; scratch (Max (m, n)) ];
      body = row_shuffle_body col;
      exact = true;
    }

  (* row_shuffle_gather reads through d'_inv; ungather through d'. *)
  let row_shuffle_gather = row_shuffle ~pass:"row_shuffle_gather" d'_inv
  let row_shuffle_ungather = row_shuffle ~pass:"row_shuffle_ungather" d'

  (* row_shuffle_scatter writes tmp.(d'(i, j)) from matrix.(i*n + j). *)
  let row_shuffle_scatter =
    {
      pass = "row_shuffle_scatter";
      basis = Plan_basis;
      params = range_params m;
      regions = [ matrix; scratch (Max (m, n)) ];
      body =
        [
          for_ "i" (var "lo") (var "hi")
            [
              for_ "j" (num 0) n
                [
                  read "matrix" ((var "i" *: n) +: var "j");
                  write "tmp" (d' ~i:(var "i") (var "j"));
                ];
              for_ "j2" (num 0) n
                [
                  read "tmp" (var "j2");
                  write "matrix" ((var "i" *: n) +: var "j2");
                ];
            ];
        ];
      exact = true;
    }

  (* col_shuffle and permute_rows gather whole columns through a row map. *)
  let col_gather ?(pass = "col_shuffle") row =
    {
      pass;
      basis = Plan_basis;
      params = range_params n;
      regions = [ matrix; scratch (Max (m, n)) ];
      body =
        [
          for_ "j" (var "lo") (var "hi")
            [
              for_ "i" (num 0) m
                [
                  read "matrix" ((row ~j:(var "j") (var "i") *: n) +: var "j");
                  write "tmp" (var "i");
                ];
              for_ "i2" (num 0) m
                [
                  read "tmp" (var "i2");
                  write "matrix" ((var "i2" *: n) +: var "j");
                ];
            ];
        ];
      exact = true;
    }

  let col_shuffle_gather = col_gather ~pass:"col_shuffle_gather" s'
  let col_shuffle_ungather = col_gather ~pass:"col_shuffle_ungather" s'_inv

  let permute_rows ?(pass = "permute_rows") index =
    col_gather ~pass (fun ~j:_ i -> index i)

  (* One staging of Kernels_f64.Phases.gather_cols: global columns
     [j0, j0 + w) of a buffer holding columns [col0, col0 + pitch) at row
     pitch [pitch] (pitch = n and col0 = 0 in RAM; an out-of-core
     staging's width and first column). The staging is copied row by row
     into the m x w stage, then every row is written back from the stage
     rows the map names. Staging position and width, pitch and col0 are
     parameters, so one certificate covers every staging of every pool
     chunk and every out-of-core panel. [gathers ~i ~j read_src] lists
     the stage reads of element (i, j), [read_src] taking a source
     row. *)
  let stage_gather ~pass gathers =
    let pitch = var "pitch" and col0 = var "col0" in
    let w = var "w" and j0 = var "j0" in
    let panel i jj = (i *: pitch) +: (j0 -: col0) +: jj in
    {
      pass;
      basis = Plan_basis;
      params =
        [
          { name = "pitch"; p_lo = Const 1; p_his = []; sample = [ 1; 2; 3; 5; 8 ] };
          { name = "col0"; p_lo = Const 0; p_his = []; sample = [ 0; 1; 2; 3 ] };
          { name = "w"; p_lo = Const 1; p_his = [ pitch ]; sample = [ 1; 2; 3; 4; 8; 16 ] };
          {
            name = "j0";
            p_lo = col0;
            p_his = [ col0 +: pitch -: w ];
            sample = [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ];
          };
        ];
      regions =
        [
          { rname = "matrix"; size = m *: pitch };
          { rname = "stage"; size = m *: w };
          { rname = "idx"; size = m };
        ];
      body =
        [
          for_ "i" (num 0) m
            [
              for_ "jj" (num 0) w
                [
                  read "matrix" (panel (var "i") (var "jj"));
                  write "stage" ((var "i" *: w) +: var "jj");
                ];
            ];
          for_ "i2" (num 0) m
            [
              for_ "jj2" (num 0) w
                (gathers ~i:(var "i2") ~j:(j0 +: var "jj2") (fun src ->
                     read "stage" ((src *: w) +: var "jj2"))
                @ [ write "matrix" (panel (var "i2") (var "jj2")) ]);
            ];
        ];
      exact = false;
    }

  (* Rotations by any per-column amount (rotate_pre, rotate_post): the
     residue k is quantified, and the wrapped source is i + k - m. *)
  let stage_rotate =
    stage_gather ~pass:"stage_rotate" (fun ~i ~j:_ read_src ->
        [
          for_ "k" (num 0) m
            [
              bind "s" (i +: var "k")
                [
                  When (le (var "s") (m -: num 1), [ read_src (var "s") ]);
                  When (le m (var "s"), [ read_src (var "s" -: m) ]);
                ];
            ];
        ])

  (* The C2R shuffle s'(i, j) = (q(i) + j) mod m, q read at row i. *)
  let stage_shuffle =
    stage_gather ~pass:"stage_shuffle" (fun ~i ~j read_src ->
        [ read "idx" i; read_src ((q i +: j) %: m) ])

  (* The R2C unshuffle q^-1((i - j) mod m) = q^-1((i + (-j mod m)) mod m),
     as the engine computes it; q^-1 is read at that row. *)
  let stage_unshuffle =
    stage_gather ~pass:"stage_unshuffle" (fun ~i ~j read_src ->
        [
          bind "u"
            ((i +: (m -: (j %: m))) %: m)
            [ read "idx" (var "u"); read_src (q_inv (var "u")) ];
        ])

  (* -- engine pipelines --------------------------------------------------
     The row/column engines (Algo.Make and the unfused sweeps of
     Cache_aware) are the same pass pipeline; one summary list
     certifies them all. The pre/post rotations only run when
     gcd(m, n) > 1, but their summaries concretize to the empty set in
     the coprime case (the computed residue k is 0), so including them
     unconditionally stays exact. *)

  type c2r_pipeline = Gather | Scatter | Decomposed
  type r2c_pipeline = Fused_inverse | Decomposed_inverse

  let rotate_pre = rotate ~pass:"rotate_pre" rotate_amount
  let rotate_post =
    rotate ~pass:"rotate_post" (fun j -> num 0 -: rotate_amount j)
  let col_rotate = rotate ~pass:"col_rotate" (fun j -> j)
  let col_unrotate = rotate ~pass:"col_unrotate" (fun j -> num 0 -: j)
  let row_permute_q = permute_rows ~pass:"row_permute[q]" q
  let row_permute_q_inv = permute_rows ~pass:"row_unpermute[q_inv]" q_inv

  let c2r = function
    | Gather -> [ rotate_pre; row_shuffle_gather; col_shuffle_gather ]
    | Scatter -> [ rotate_pre; row_shuffle_scatter; col_shuffle_gather ]
    | Decomposed ->
        [ rotate_pre; row_shuffle_gather; col_rotate; row_permute_q ]

  let r2c = function
    | Fused_inverse ->
        [ col_shuffle_ungather; row_shuffle_ungather; rotate_post ]
    | Decomposed_inverse ->
        [ row_permute_q_inv; col_unrotate; row_shuffle_ungather; rotate_post ]

  let all_pipeline_passes =
    [
      rotate_pre;
      rotate_post;
      col_rotate;
      col_unrotate;
      row_shuffle_gather;
      row_shuffle_scatter;
      row_shuffle_ungather;
      col_shuffle_gather;
      col_shuffle_ungather;
      row_permute_q;
      row_permute_q_inv;
    ]
end
