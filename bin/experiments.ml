(* Command-line driver that regenerates any table or figure of the paper.
   `experiments list` enumerates them; `experiments run fig3 --scale 2`
   runs one; `experiments all` runs everything in paper order. *)

open Cmdliner

let emit ?out outcome =
  Xpose_harness.Outcome.print outcome;
  match out with
  | None -> ()
  | Some dir ->
      let written = Xpose_harness.Outcome.write_figures ~dir outcome in
      List.iter (fun p -> Printf.printf "wrote %s\n" p) written

let run_one ~scale ?out id =
  match Xpose_harness.Experiments.find id with
  | spec ->
      emit ?out (spec.Xpose_harness.Experiments.run ~scale);
      `Ok ()
  | exception Not_found ->
      `Error
        ( false,
          Printf.sprintf "unknown experiment %S; try: %s" id
            (String.concat ", " (Xpose_harness.Experiments.ids ())) )

let out_arg =
  let doc = "Directory to write SVG figure files into." in
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"DIR" ~doc)

let scale_arg =
  let doc =
    "Scale factor for sample counts and matrix sizes (1.0 = bundled quick \
     defaults; larger values approach the paper's full setup)."
  in
  Arg.(value & opt float 1.0 & info [ "s"; "scale" ] ~docv:"SCALE" ~doc)

let id_arg =
  let doc = "Experiment id (a table or figure of the paper), e.g. fig3." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)

let list_cmd =
  let doc = "List available experiments." in
  Cmd.v (Cmd.info "list" ~doc)
    Term.(
      const (fun () ->
          List.iter
            (fun s ->
              Printf.printf "%-8s %s\n" s.Xpose_harness.Experiments.id
                s.Xpose_harness.Experiments.description)
            Xpose_harness.Experiments.all)
      $ const ())

let run_cmd =
  let doc = "Run one experiment and print its figure/table." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      ret
        (const (fun scale out id -> run_one ~scale ?out id)
        $ scale_arg $ out_arg $ id_arg))

let all_cmd =
  let doc = "Run every experiment in paper order." in
  Cmd.v (Cmd.info "all" ~doc)
    Term.(
      const (fun scale out ->
          List.iter
            (fun s -> emit ?out (s.Xpose_harness.Experiments.run ~scale))
            Xpose_harness.Experiments.all)
      $ scale_arg $ out_arg)

let main =
  let doc =
    "Reproduce the tables and figures of 'A Decomposition for In-place \
     Matrix Transposition' (PPoPP 2014)."
  in
  Cmd.group (Cmd.info "experiments" ~doc) [ list_cmd; run_cmd; all_cmd ]

let () = exit (Cmd.eval main)
