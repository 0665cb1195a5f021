open Xpose_core

module Make (S : Storage.S) = struct
  module A = Algo.Make (S)
  module Ws = Workspace.Make (S)

  type buf = S.t

  let default_width = 16
  let default_block_rows = 64

  let get_ws = function Some ws -> ws | None -> Ws.create ()

  (* -- sub-row primitives (§4.6): every transfer moves a whole sub-row -- *)

  let copy_subrow buf ~n ~lo ~w ~src ~dst =
    S.blit buf ((src * n) + lo) buf ((dst * n) + lo) w

  let save_subrow buf ~n ~lo ~w ~row tmp = S.blit buf ((row * n) + lo) tmp 0 w
  let restore_subrow tmp buf ~n ~lo ~w ~row = S.blit tmp 0 buf ((row * n) + lo) w

  (* Coarse phase of §4.6: rotate the [w] columns starting at [lo] together
     by [k], following the analytic cycles of the rotation (gcd(m, k)
     cycles; the chain starting at y visits y, y+k, y+2k, ...). *)
  let rotate_coarse buf ~m ~n ~lo ~w ~k ~line =
    if k <> 0 then begin
      let cycles = Intmath.gcd m k in
      for y = 0 to cycles - 1 do
        save_subrow buf ~n ~lo ~w ~row:y line;
        let i = ref y in
        let continue = ref true in
        while !continue do
          let src = !i + k in
          let src = if src >= m then src - m else src in
          if src = y then begin
            restore_subrow line buf ~n ~lo ~w ~row:!i;
            continue := false
          end
          else begin
            copy_subrow buf ~n ~lo ~w ~src ~dst:!i;
            i := src
          end
        done
      done
    end

  (* Fine phase of §4.6: per-column residual rotations bounded by [w],
     reading strips of [block_rows] rows through a block buffer. Rows that
     wrap past m-1 are served from a saved copy of the head rows. *)
  let rotate_fine buf ~m ~n ~lo ~w ~res ~maxres ~block_rows ~head ~block =
    if maxres > 0 then begin
      (* head.(r*w + jj) caches original row r (r < maxres), columns lo+jj *)
      for r = 0 to maxres - 1 do
        S.blit buf ((r * n) + lo) head (r * w) w
      done;
      let r = ref 0 in
      while !r < m do
        let rows = min block_rows (m - !r) in
        for t = 0 to rows - 1 do
          let i = !r + t in
          for jj = 0 to w - 1 do
            let src = i + res.(jj) in
            let v =
              if src >= m then S.get head (((src - m) * w) + jj)
              else S.get buf ((src * n) + lo + jj)
            in
            S.set block ((t * w) + jj) v
          done
        done;
        for t = 0 to rows - 1 do
          S.blit block (t * w) buf (((!r + t) * n) + lo) w
        done;
        r := !r + rows
      done
    end

  (* Anchor the coarse amount so residuals (amount j - coarse) mod m stay
     below w; increasing amounts anchor at the first column of the group,
     decreasing ones at the last. *)
  let pick_residuals ~m ~lo ~w ~amount ~(res : int array) anchor =
    let k = Intmath.emod (amount anchor) m in
    let maxres = ref 0 in
    for jj = 0 to w - 1 do
      let r = Intmath.emod (amount (lo + jj) - k) m in
      res.(jj) <- r;
      if r > !maxres then maxres := r
    done;
    (k, !maxres)

  let rotate_panel ~block_rows ws (p : Plan.t) buf ~amount ~res ~lo ~w =
    let m = p.m and n = p.n in
    let k, maxres =
      let k, mr = pick_residuals ~m ~lo ~w ~amount ~res lo in
      if mr < w then (k, mr)
      else pick_residuals ~m ~lo ~w ~amount ~res (lo + w - 1)
    in
    if maxres < w && maxres < m then begin
      rotate_coarse buf ~m ~n ~lo ~w ~k ~line:(Ws.line ws w);
      rotate_fine buf ~m ~n ~lo ~w ~res ~maxres ~block_rows
        ~head:(Ws.head ws (w * w))
        ~block:(Ws.block ws (block_rows * w))
    end
    else
      (* Arbitrary amount function: per-column rotation is still exact. *)
      A.Phases.rotate_columns p buf ~tmp:(Ws.tmp ws m) ~amount ~lo ~hi:(lo + w)

  (* §4.7: the cycles of the shared row permutation, discovered once and
     reused by every panel. Rows of each nontrivial cycle are listed in
     gather-chain order: chain.(t+1) = index chain.(t). *)
  let cycles ~whom ~m ~index =
    let index i =
      let v = index i in
      if v < 0 || v >= m then invalid_arg (whom ^ ": index out of range");
      v
    in
    let visited = Bytes.make m '\000' in
    let chains = ref [] in
    for i0 = 0 to m - 1 do
      if Bytes.get visited i0 = '\000' then begin
        Bytes.set visited i0 '\001';
        let src = index i0 in
        if src <> i0 then begin
          let chain = ref [ i0 ] in
          let i = ref src in
          while !i <> i0 do
            if Bytes.get visited !i <> '\000' then
              invalid_arg (whom ^ ": index is not a permutation");
            Bytes.set visited !i '\001';
            chain := !i :: !chain;
            i := index !i
          done;
          chains := Array.of_list (List.rev !chain) :: !chains
        end
      end
    done;
    Array.of_list !chains

  let cycle_rows cycles =
    Array.fold_left (fun acc chain -> acc + Array.length chain) 0 cycles

  let permute_panel ws buf ~n ~cycles ~lo ~w =
    let line = Ws.line ws w in
    Array.iter
      (fun chain ->
        (* new row chain.(t) takes the old contents of row chain.(t+1);
           the last takes the saved head. *)
        let len = Array.length chain in
        save_subrow buf ~n ~lo ~w ~row:chain.(0) line;
        for t = 0 to len - 2 do
          copy_subrow buf ~n ~lo ~w ~src:chain.(t + 1) ~dst:chain.(t)
        done;
        restore_subrow line buf ~n ~lo ~w ~row:chain.(len - 1))
      cycles

  (* -- column-range sweeps (the unfused building blocks) ------------------ *)

  let check_range whom ~n ~lo ~hi =
    if lo < 0 || hi > n || lo > hi then
      invalid_arg (whom ^ ": bad column range")

  (* A rotate panel that moves nothing is also priced at nothing. *)
  let rotate_panel_pred (p : Plan.t) ~amount ~lo ~w =
    let moved = ref false in
    for jj = 0 to w - 1 do
      if Intmath.emod (amount (lo + jj)) p.m <> 0 then moved := true
    done;
    if !moved then Pass_cost.fused_panel p ~width:w else 0

  let rotate_columns ?panel_width:(width = default_width)
      ?(block_rows = default_block_rows) ?ws ?(lo = 0) ?hi (p : Plan.t) buf
      ~amount =
    let m = p.m and n = p.n in
    let hi = match hi with Some h -> h | None -> n in
    check_range "Fused.rotate_columns" ~n ~lo ~hi;
    let ws = get_ws ws in
    let res = Array.make width 0 in
    let g = ref lo in
    while !g < hi do
      let lo = !g in
      let w = min width (hi - lo) in
      Xpose_obs.Tracer.panel ~name:"rotate_panel" ~lo ~width:w ~rows:m
        ~pred_touches:(rotate_panel_pred p ~amount ~lo ~w)
        (fun () -> rotate_panel ~block_rows ws p buf ~amount ~res ~lo ~w);
      g := lo + w
    done

  let permute_cols ?panel_width:(width = default_width) ?ws ?(lo = 0) ?hi (p : Plan.t) buf
      ~cycles =
    let m = p.m and n = p.n in
    let hi = match hi with Some h -> h | None -> n in
    check_range "Fused.permute_cols" ~n ~lo ~hi;
    let ws = get_ws ws in
    let rows = cycle_rows cycles in
    let g = ref lo in
    while !g < hi do
      let lo = !g in
      let w = min width (hi - lo) in
      Xpose_obs.Tracer.panel ~name:"permute_panel" ~lo ~width:w ~rows:m
        ~pred_touches:(2 * rows * w)
        (fun () -> permute_panel ws buf ~n ~cycles ~lo ~w);
      g := lo + w
    done

  let permute_rows ?panel_width:width ?ws ?lo ?hi (p : Plan.t) buf ~index =
    let cycles = cycles ~whom:"Fused.permute_rows" ~m:p.m ~index in
    permute_cols ?panel_width:width ?ws ?lo ?hi p buf ~cycles

  (* -- fused visits: all column-wise passes of one panel back to back ----- *)

  let c2r_cols ?panel_width:(width = default_width) ?(block_rows = default_block_rows)
      ?ws ?(lo = 0) ?hi (p : Plan.t) buf ~cycles =
    let m = p.m and n = p.n in
    let hi = match hi with Some h -> h | None -> n in
    check_range "Fused.c2r_cols" ~n ~lo ~hi;
    let ws = get_ws ws in
    let res = Array.make width 0 in
    let g = ref lo in
    while !g < hi do
      let lo = !g in
      let w = min width (hi - lo) in
      Xpose_obs.Tracer.panel ~name:"fused_panel" ~lo ~width:w ~rows:m
        ~pred_touches:(Pass_cost.fused_panel p ~width:w)
        (fun () ->
          rotate_panel ~block_rows ws p buf ~amount:(fun j -> j) ~res ~lo ~w;
          permute_panel ws buf ~n ~cycles ~lo ~w);
      g := lo + w
    done

  let r2c_cols ?panel_width:(width = default_width) ?(block_rows = default_block_rows)
      ?ws ?(lo = 0) ?hi (p : Plan.t) buf ~cycles =
    let m = p.m and n = p.n in
    let hi = match hi with Some h -> h | None -> n in
    check_range "Fused.r2c_cols" ~n ~lo ~hi;
    let ws = get_ws ws in
    let res = Array.make width 0 in
    let g = ref lo in
    while !g < hi do
      let lo = !g in
      let w = min width (hi - lo) in
      Xpose_obs.Tracer.panel ~name:"fused_panel" ~lo ~width:w ~rows:m
        ~pred_touches:(Pass_cost.fused_panel p ~width:w)
        (fun () ->
          permute_panel ws buf ~n ~cycles ~lo ~w;
          rotate_panel ~block_rows ws p buf ~amount:(fun j -> -j) ~res ~lo ~w);
      g := lo + w
    done

  (* -- full engines ------------------------------------------------------- *)

  let obs_pass (p : Plan.t) name ~pred f =
    Xpose_obs.Tracer.pass ~name ~rows:p.m ~cols:p.n ~pred_touches:pred
      ~scratch_elems:(Plan.scratch_elements p) f

  let check_buf whom (p : Plan.t) buf =
    if S.length buf <> p.m * p.n then
      invalid_arg (whom ^ ": buffer size does not match plan")

  let c2r ?panel_width:(width = default_width) ?(block_rows = default_block_rows) ?ws
      (p : Plan.t) buf =
    check_buf "Fused.c2r" p buf;
    let m = p.m and n = p.n in
    if m = 1 || n = 1 then ()
    else begin
      let ws = get_ws ws in
      if not (Plan.coprime p) then begin
        let amount = Plan.rotate_amount p in
        obs_pass p "rotate_pre" ~pred:(Pass_cost.panel_rotate p ~width ~amount)
          (fun () -> rotate_columns ~panel_width:width ~block_rows ~ws p buf ~amount)
      end;
      obs_pass p "row_shuffle" ~pred:(Pass_cost.shuffle p) (fun () ->
          A.Phases.row_shuffle_gather p buf
            ~tmp:(Ws.tmp ws (Plan.scratch_elements p))
            ~lo:0 ~hi:m);
      let cycles = cycles ~whom:"Fused.c2r" ~m ~index:(Plan.q p) in
      obs_pass p "fused_col" ~pred:(Pass_cost.fused_col p) (fun () ->
          c2r_cols ~panel_width:width ~block_rows ~ws p buf ~cycles)
    end

  let r2c ?panel_width:(width = default_width) ?(block_rows = default_block_rows) ?ws
      (p : Plan.t) buf =
    check_buf "Fused.r2c" p buf;
    let m = p.m and n = p.n in
    if m = 1 || n = 1 then ()
    else begin
      let ws = get_ws ws in
      let cycles = cycles ~whom:"Fused.r2c" ~m ~index:(Plan.q_inv p) in
      obs_pass p "fused_col" ~pred:(Pass_cost.fused_col p) (fun () ->
          r2c_cols ~panel_width:width ~block_rows ~ws p buf ~cycles);
      obs_pass p "row_unshuffle" ~pred:(Pass_cost.shuffle p) (fun () ->
          A.Phases.row_shuffle_ungather p buf
            ~tmp:(Ws.tmp ws (Plan.scratch_elements p))
            ~lo:0 ~hi:m);
      if not (Plan.coprime p) then begin
        let amount j = -Plan.rotate_amount p j in
        obs_pass p "rotate_post"
          ~pred:(Pass_cost.panel_rotate p ~width ~amount)
          (fun () -> rotate_columns ~panel_width:width ~block_rows ~ws p buf ~amount)
      end
    end

  let transpose ?(order = Layout.Row_major) ?panel_width:width ?block_rows ?ws ?cache ~m
      ~n buf =
    let rm, rn =
      match order with Layout.Row_major -> (m, n) | Layout.Col_major -> (n, m)
    in
    if rm > rn then
      c2r ?panel_width:width ?block_rows ?ws
        (Plan.Cache.get ?cache ~m:rm ~n:rn ())
        buf
    else
      r2c ?panel_width:width ?block_rows ?ws
        (Plan.Cache.get ?cache ~m:rn ~n:rm ())
        buf
end

(* -- access metadata -----------------------------------------------------
   Symbolic summaries of the panel primitives, shared by every [Make]
   instantiation (the generic reference engine behind Cache_aware). The panel phases are summarized in the
   free basis (roots m, n >= 1) with the panel geometry as parameters:
   w in [1, n], lo in [0, n - w], so one certificate covers every
   panel width, every sweep position, and every pool chunking of the
   column groups at once.

   The cycle-following phases (coarse rotation, row permutation) are
   summarized as the superset "every row of the panel, plus the line
   buffer": the cycle structure visits a subset of those rows, which is
   all a bounds/alias proof needs. The fine phase's head reads are kept
   precise (they are the subtle ones). The fallback path of
   [rotate_panel] runs [Algo.Make.Phases.rotate_columns] over
   [lo, lo + w), which the sub-range-quantified kernel rotate
   certificates already cover. *)

module Summary = struct
  open Xpose_core.Access

  let m = var "m"
  let n = var "n"
  let w = var "w"
  let lo = var "lo"
  let matrix = { rname = "matrix"; size = m *: n }

  let panel_params =
    [
      {
        name = "w";
        p_lo = Const 1;
        p_his = [ n ];
        sample = [ 1; 2; 3; 4; 8; 16 ];
      };
      {
        name = "lo";
        p_lo = Const 0;
        p_his = [ n -: w ];
        sample = [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ];
      };
    ]

  let panel_sweep pass =
    {
      pass;
      basis = Free_basis;
      params = panel_params;
      regions = [ matrix; { rname = "line"; size = w } ];
      body =
        [
          for_ "r" (num 0) m
            [
              for_ "jj" (num 0) w
                [
                  read "matrix" ((var "r" *: n) +: lo +: var "jj");
                  write "matrix" ((var "r" *: n) +: lo +: var "jj");
                  read "line" (var "jj");
                  write "line" (var "jj");
                ];
            ];
        ];
      exact = false;
    }

  let coarse = panel_sweep "fused.rotate_coarse"
  let permute = panel_sweep "fused.permute_panel"

  let fine =
    {
      pass = "fused.rotate_fine";
      basis = Free_basis;
      params =
        panel_params
        @ [
            {
              name = "block_rows";
              p_lo = Const 1;
              p_his = [];
              sample = [ 1; 2; 3; 64 ];
            };
            {
              name = "maxres";
              p_lo = Const 1;
              (* conjunction form of maxres <= min (w, m) - 1: parameter
                 bounds must stay fork-free for the prover's prelude *)
              p_his = [ w -: num 1; m -: num 1 ];
              sample = [ 1; 2; 3; 7 ];
            };
          ];
      regions =
        [
          matrix;
          { rname = "head"; size = w *: w };
          { rname = "block"; size = var "block_rows" *: w };
        ];
      body =
        [
          (* save the first maxres rows of the panel into head *)
          for_ "r" (num 0) (var "maxres")
            [
              for_ "jj" (num 0) w
                [
                  read "matrix" ((var "r" *: n) +: lo +: var "jj");
                  write "head" ((var "r" *: w) +: var "jj");
                ];
            ];
          (* every strip slot of the block buffer *)
          for_ "t" (num 0) (Min (var "block_rows", m))
            [
              for_ "jj" (num 0) w
                [
                  write "block" ((var "t" *: w) +: var "jj");
                  read "block" ((var "t" *: w) +: var "jj");
                ];
            ];
          (* gather reads: row i shifted by a per-column residual
             res(jj) <= maxres; past the bottom it wraps into head *)
          for_ "i" (num 0) m
            [
              for_ "jj" (num 0) w
                [
                  for_ "resj" (num 0) (var "maxres" +: num 1)
                    [
                      bind "src"
                        (var "i" +: var "resj")
                        [
                          When
                            ( le (var "src") (m -: num 1),
                              [
                                read "matrix"
                                  ((var "src" *: n) +: lo +: var "jj");
                              ] );
                          When
                            ( le m (var "src"),
                              [
                                read "head"
                                  (((var "src" -: m) *: w) +: var "jj");
                              ] );
                        ];
                    ];
                ];
            ];
          (* strip writebacks *)
          for_ "i2" (num 0) m
            [
              for_ "jj2" (num 0) w
                [ write "matrix" ((var "i2" *: n) +: lo +: var "jj2") ];
            ];
        ];
      exact = false;
    }

  let panel_passes = [ coarse; fine; permute ]

  (* The full pipelines, serial or pool-chunked: panel phases plus
     the kernel row shuffles (and the kernel rotate as panel fallback),
     all already quantified over their sub-ranges. *)
  let c2r_passes =
    [
      coarse;
      fine;
      permute;
      Passes.rotate_pre;
      Passes.col_rotate;
      Passes.row_shuffle_gather;
    ]

  let r2c_passes =
    [
      coarse;
      fine;
      permute;
      Passes.rotate_post;
      Passes.col_unrotate;
      Passes.row_shuffle_ungather;
    ]
end
