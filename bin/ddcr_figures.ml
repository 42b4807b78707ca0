(* ddcr_figures: regenerate the paper's figures as CSV files.

   Example:
     ddcr_figures --out results/      # writes fig1_quaternary_64.csv, ... *)

module Table = Rtnet_util.Table

open Cmdliner

let out_dir =
  Arg.(
    value & opt string "results"
    & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory for CSV files.")

let main dir =
  List.iter
    (fun (name, build) ->
      Printf.printf "wrote %s\n" (Table.save_csv ~dir ~name (build ())))
    Rtnet_core.Figures.all;
  0

let cmd =
  Cmd.v
    (Cmd.info "ddcr_figures" ~doc:"Regenerate the paper's figures as CSV")
    Term.(const main $ out_dir)

let () = exit (Cmd.eval' cmd)
