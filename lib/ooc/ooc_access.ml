(* Symbolic access summaries of the out-of-core passes (Ooc_f64): the
   row-shuffle over a mapped row window and the panel gather/scatter
   between a stripe window and the staging buffer. The window geometry
   is fully parametric -- window bounds, pool sub-ranges, and panel
   budgets are parameters with their defining inequalities -- so one
   certificate covers every --window-bytes budget and every Window.split
   outcome at once. The column-phase compute on the staging buffer runs
   the fused panel primitives under a local m x w plan, which the
   (shape-universal) fused and kernel certificates already cover. *)

open Xpose_core.Access

let m = var "m"
let n = var "n"

(* The shared row passes (Kernels_f64.Phases) as Ooc_f64 runs them, on
   one pool chunk [lo, hi) of a mapped row window [win_lo, win_hi) with
   row0 = win_lo: the window buffer holds rows win_lo..win_hi of the
   matrix, indexed relative to win_lo; the row map uses the global row
   index i. *)
let shuffle_rows ~ungather =
  let d ~i j = if ungather then Ix.d' ~i j else Ix.d'_inv ~i j in
  {
    pass =
      (if ungather then "ooc.row_unshuffle" else "ooc.row_shuffle");
    basis = Plan_basis;
    params =
      [
        {
          name = "win_hi";
          p_lo = Const 1;
          p_his = [ m ];
          sample = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ];
        };
        {
          name = "win_lo";
          p_lo = Const 0;
          p_his = [ var "win_hi" -: num 1 ];
          sample = [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ];
        };
        {
          name = "hi";
          p_lo = Const 0;
          p_his = [ var "win_hi" ];
          sample = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ];
        };
        {
          name = "lo";
          p_lo = var "win_lo";
          p_his = [ var "hi" ];
          sample = [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ];
        };
      ];
    regions =
      [
        { rname = "win"; size = (var "win_hi" -: var "win_lo") *: n };
        { rname = "tmp"; size = Max (m, n) };
      ];
    body =
      [
        for_ "i" (var "lo") (var "hi")
          [
            bind "base"
              ((var "i" -: var "win_lo") *: n)
              [
                for_ "j" (num 0) n
                  [
                    read "win" (var "base" +: d ~i:(var "i") (var "j"));
                    write "tmp" (var "j");
                  ];
                for_ "j2" (num 0) n
                  [
                    read "tmp" (var "j2");
                    write "win" (var "base" +: var "j2");
                  ];
              ];
          ];
      ];
    exact = true;
  }

(* Panel staging: one stripe window [s_lo, s_hi) of rows is mapped; the
   column panel [pan_lo, pan_hi) (clipped to the per-panel budget [per]
   and to n) is copied between the stripe and the staging buffer, which
   is indexed by the global row: stag[i*w + jj] with w = pan_hi - pan_lo
   and capacity m * min(per, n). *)
let panel_params =
  [
    { name = "per"; p_lo = Const 1; p_his = []; sample = [ 1; 2; 3; 5 ] };
    {
      name = "s_hi";
      p_lo = Const 0;
      p_his = [ m ];
      sample = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ];
    };
    {
      name = "s_lo";
      p_lo = Const 0;
      p_his = [ var "s_hi" ];
      sample = [ 0; 1; 2; 3; 4; 5; 6 ];
    };
    {
      name = "pan_lo";
      p_lo = Const 0;
      p_his = [ n -: num 1 ];
      sample = [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ];
    };
    {
      name = "pan_hi";
      p_lo = var "pan_lo" +: num 1;
      p_his = [ n; var "pan_lo" +: var "per" ];
      sample = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ];
    };
  ]

let panel_regions =
  [
    { rname = "win"; size = (var "s_hi" -: var "s_lo") *: n };
    { rname = "stag"; size = m *: Min (var "per", n) };
  ]

let stripe_body ~gather =
  let width = var "pan_hi" -: var "pan_lo" in
  let win_ix = ((var "i" -: var "s_lo") *: n) +: var "pan_lo" +: var "jj"
  and stag_ix = (var "i" *: width) +: var "jj" in
  [
    for_ "i" (var "s_lo") (var "s_hi")
      [
        for_ "jj" (num 0) width
          (if gather then [ read "win" win_ix; write "stag" stag_ix ]
           else [ read "stag" stag_ix; write "win" win_ix ]);
      ];
  ]

let gather_panel =
  {
    pass = "ooc.gather_panel";
    basis = Free_basis;
    params = panel_params;
    regions = panel_regions;
    body = stripe_body ~gather:true;
    exact = true;
  }

let scatter_panel =
  {
    pass = "ooc.scatter_panel";
    basis = Free_basis;
    params = panel_params;
    regions = panel_regions;
    body = stripe_body ~gather:false;
    exact = true;
  }

let all = [ shuffle_rows ~ungather:false; shuffle_rows ~ungather:true;
            gather_panel; scatter_panel ]
