(* ddcr_fc: evaluate the feasibility conditions of Section 4.3 for a
   scenario, or search for a feasible protocol configuration.

   Examples:
     ddcr_fc -s videoconference -n 8
     ddcr_fc -s uniform -n 8 --load 0.5 --dimension *)

module Instance = Rtnet_workload.Instance
module Ddcr_params = Rtnet_core.Ddcr_params
module Feasibility = Rtnet_core.Feasibility
module Dimensioning = Rtnet_core.Dimensioning
module Np_edf_fc = Rtnet_edf.Np_edf_fc

open Cmdliner

let dimension =
  Arg.(
    value & flag
    & info [ "dimension" ]
        ~doc:"Search the candidate grid for a provably feasible \
              configuration instead of checking the default one.")

let main scenario size load deadline_windows indices burst theta allocation
    dimension_flag =
  match Cli_common.instance_of ~scenario ~size ~load ~deadline_windows with
  | Error e ->
    Format.eprintf "ddcr_fc: %s@." e;
    2
  | Ok inst ->
  Format.printf "%a@.@." Instance.pp inst;
  let oracle = Np_edf_fc.check inst in
  Format.printf
    "centralized NP-EDF oracle: feasible %b (margin %.3f at t = %d)@.@."
    oracle.Np_edf_fc.np_feasible oracle.Np_edf_fc.np_margin
    oracle.Np_edf_fc.critical_t;
  if dimension_flag then begin
    let verdict = Dimensioning.dimension inst in
    Format.printf "%a@.@." Dimensioning.pp_verdict verdict;
    let p =
      match verdict with
      | Dimensioning.Feasible p | Dimensioning.Infeasible (p, _) -> p
    in
    Format.printf "%a@." Feasibility.pp_report (Feasibility.check p inst)
  end
  else begin
    let p =
      Ddcr_params.with_theta
        (Ddcr_params.with_burst
           (Ddcr_params.default ~indices_per_source:indices ~allocation inst)
           burst)
        theta
    in
    Format.printf "parameters: %a@.@." Ddcr_params.pp p;
    Format.printf "%a@." Feasibility.pp_report (Feasibility.check p inst)
  end;
  0

let cmd =
  let term =
    Term.(
      const main $ Cli_common.scenario $ Cli_common.size $ Cli_common.load
      $ Cli_common.deadline_windows $ Cli_common.indices_per_source
      $ Cli_common.burst_bits $ Cli_common.theta $ Cli_common.allocation
      $ dimension)
  in
  Cmd.v
    (Cmd.info "ddcr_fc"
       ~doc:"Feasibility conditions and dimensioning for CSMA/DDCR")
    term

let () = exit (Cmd.eval' cmd)
