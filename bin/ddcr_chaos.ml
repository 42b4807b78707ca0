(* ddcr_chaos: adversarial search for safety and timeliness violations
   of the DDCR stack, on one of three subjects: a flat DDCR segment
   under a fault plan (the default), a bridged federation under
   per-segment fault plans (--topo-segments), or the admission service
   under a churn stream (--admit-params).  The flags pick the subject
   once; every subcommand then runs the same pipeline over it.

   `search` samples candidates, runs each on a supervised worker pool
   (watchdog timeout, bounded retry with backoff, graceful degradation
   on an exhausted wall budget) and classifies outcomes with the
   analysis oracles.  `shrink` minimizes a failing candidate by delta
   debugging (drop fault events or requests, then narrow crash windows
   and weaken severities).  `replay` re-executes a frozen repro
   artifact of any subject and verifies that both the verdict and the
   trace fingerprint reproduce byte-identically.  `soak` runs repeated
   searches under one wall budget, freezing each de-duplicated finding
   as a repro artifact.

   Exit codes: 0 success (for `search --expect-finding`: a violation
   was found; for `replay`: the artifact reproduced); 1 expectation
   failed (no finding / verdict or fingerprint drifted / shrink above
   --max-fraction); 2 invalid or conflicting flags, invalid config or
   artifact, or I/O error.

   Examples:
     ddcr_chaos search -s videoconference -n 4 --horizon-ms 2 --candidates 32
     ddcr_chaos search --config test/fixtures/chaos_smoke.json -o finding.json
     ddcr_chaos search --topo-segments 3 --load 0.3 --deadline-windows 8 \
       --horizon-ms 5 --seed 29 --out-dir findings
     ddcr_chaos shrink --repro finding.json -o minimized.json
     ddcr_chaos replay test/fixtures/chaos_repro_min.json
     ddcr_chaos soak -s trading -n 3 --rounds 8 --wall-budget 60 --out-dir repros *)

module Oracle = Rtnet_analysis.Oracle
module Generator = Rtnet_chaos.Generator
module Candidate = Rtnet_chaos.Candidate
module Subject = Rtnet_chaos.Subject
module Plain = Subject.Plain
module Topo = Subject.Topo
module Admit = Subject.Admit
module Search = Rtnet_chaos.Search
module Shrink = Rtnet_chaos.Shrink
module Repro = Rtnet_chaos.Repro
module Soak = Rtnet_chaos.Soak
module Flight = Rtnet_obs.Flight
module Postmortem = Rtnet_obs.Postmortem

open Cmdliner

(* -------------------- shared terms -------------------- *)

let config_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "config" ] ~docv:"FILE"
        ~doc:"Load a plain search configuration from a JSON file (fields: \
              scenario, horizon_ms, seed, candidates, budget, jobs, \
              watchdog_s, retries, backoff_s, wall_budget_s).  Cannot be \
              combined with --topo-segments or --admit-params.")

let candidates_t =
  Arg.(
    value & opt int 32
    & info [ "candidates" ] ~docv:"N" ~doc:"Candidate budget per search.")

let jobs =
  Arg.(
    value & opt int 2
    & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Concurrent worker processes.")

let watchdog =
  Arg.(
    value & opt float 30.
    & info [ "watchdog" ] ~docv:"S"
        ~doc:"Per-candidate watchdog timeout in seconds (0 disables).")

let retries =
  Arg.(
    value & opt int 1
    & info [ "retries" ] ~docv:"N"
        ~doc:"Retry budget per hung/lost candidate.")

let backoff =
  Arg.(
    value & opt float 0.1
    & info [ "backoff" ] ~docv:"S" ~doc:"Linear retry backoff unit, seconds.")

let wall_budget =
  Arg.(
    value
    & opt (some float) None
    & info [ "wall-budget" ] ~docv:"S"
        ~doc:"Total wall-clock budget; exhaustion stops launching new \
              candidates and reports partial results.")

let max_events =
  Arg.(
    value & opt int 4
    & info [ "max-events" ] ~docv:"N"
        ~doc:"Severity budget: max fault events per sampled plan.")

let max_rate =
  Arg.(
    value & opt float 0.5
    & info [ "max-rate" ] ~docv:"R"
        ~doc:"Severity budget: cap on garble/misperception rates.")

let out =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:"Write the first finding as a replay artifact.")

let out_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "out-dir" ] ~docv:"DIR" ~doc:"Write every finding/repro here.")

let quiet =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress progress lines.")

let topo_segments =
  Arg.(
    value & opt int 0
    & info [ "topo-segments" ] ~docv:"N"
        ~doc:"Topology mode: hunt accept-then-violate bugs of the federated \
              admission layer — candidates are per-segment fault plans over \
              an N-segment uniform tree (N >= 2; 0 disables).  --load and \
              --deadline-windows describe the per-segment workload; \
              --scenario/--size are ignored.")

let topo_fanout =
  Arg.(
    value & opt int 2
    & info [ "topo-fanout" ] ~docv:"N" ~doc:"Topology mode: tree fan-out.")

let topo_sources =
  Arg.(
    value & opt int 4
    & info [ "topo-sources" ] ~docv:"N"
        ~doc:"Topology mode: sources per segment.")

let admit_params =
  Arg.(
    value
    & opt (some file) None
    & info [ "admit-params" ] ~docv:"FILE"
        ~doc:"Admission mode: hunt accept-then-violate bugs of the \
              admission-control engine — candidates are churn streams \
              (flow add/remove/modify) decided by rtnet.admit under the \
              protocol parameters in $(docv), after which the admitted set \
              is simulated; a deadline miss in an accepted set is the \
              violation.  --scenario/--size are ignored.")

let admit_sources =
  Arg.(
    value & opt int 2
    & info [ "admit-sources" ] ~docv:"N"
        ~doc:"Admission mode: station count.")

let admit_pool =
  Arg.(
    value
    & opt int Admit.default_sampler.Admit.ad_pool
    & info [ "admit-pool" ] ~docv:"N"
        ~doc:"Admission mode: flow-id pool size per candidate stream.")

let admit_requests =
  Arg.(
    value
    & opt int Admit.default_sampler.Admit.ad_requests
    & info [ "admit-requests" ] ~docv:"N"
        ~doc:"Admission mode: churn-stream length per candidate.")

let admit_phy =
  Arg.(
    value
    & opt string "gigabit-ethernet"
    & info [ "admit-phy" ] ~docv:"NAME"
        ~doc:"Admission mode: broadcast medium (gigabit-ethernet, \
              classic-ethernet, atm-bus).")

let log_of quiet =
  if quiet then fun (_ : string) -> ()
  else fun m -> Printf.eprintf "ddcr_chaos: %s\n%!" m

(* -------------------- subject selection -------------------- *)

type target =
  | Target :
      (module Subject.S
         with type env = 'e
          and type cand = 'c
          and type sampler = 's)
      * ('e, 's) Search.config
      -> target

(* The one place the flags pick a subject. *)
let target config_file scenario size load deadline_windows horizon_ms seed
    candidates jobs watchdog retries backoff wall_budget max_events max_rate
    topo_segments topo_fanout topo_sources admit_params admit_sources
    admit_pool admit_requests admit_phy =
  let config env sampler =
    {
      Search.s_env = env;
      s_sampler = sampler;
      s_pool =
        {
          Search.p_seed = seed;
          p_count = candidates;
          p_jobs = jobs;
          p_watchdog_s = (if watchdog <= 0. then None else Some watchdog);
          p_retries = retries;
          p_backoff_s = backoff;
          p_wall_budget_s = wall_budget;
        };
    }
  in
  let budget =
    {
      Generator.default_budget with
      Generator.g_max_events = max_events;
      g_max_rate = max_rate;
    }
  in
  match (config_file, topo_segments > 0, admit_params) with
  | Some _, true, _ | Some _, _, Some _ ->
    Error "--config describes a plain search; drop --topo-segments/--admit-params"
  | None, true, Some _ ->
    Error "--topo-segments and --admit-params select different subjects"
  | Some file, false, None ->
    Result.map (fun c -> Target ((module Plain), c)) (Search.load_config file)
  | None, true, None ->
    if topo_segments < 2 then Error "--topo-segments must be >= 2"
    else
      Ok
        (Target
           ( (module Topo),
             config
               {
                 Topo.tc_segments = topo_segments;
                 tc_fanout = topo_fanout;
                 tc_sources = topo_sources;
                 tc_load = load;
                 tc_deadline_windows = deadline_windows;
                 tc_horizon_ms = horizon_ms;
               }
               budget ))
  | None, false, Some file -> (
    match
      Result.bind (Rtnet_util.Json.parse_file file) Rtnet_core.Ddcr_params.of_json
    with
    | Error e -> Error (Printf.sprintf "--admit-params %s: %s" file e)
    | Ok params ->
      Ok
        (Target
           ( (module Admit),
             config
               {
                 Admit.an_phy = admit_phy;
                 an_sources = admit_sources;
                 an_params = params;
                 an_horizon_ms = horizon_ms;
               }
               { Admit.ad_pool = admit_pool; ad_requests = admit_requests } )))
  | None, false, None ->
    (* Build the instance once up front, so a bad scenario is a usage
       error rather than a failure inside every candidate. *)
    Result.map
      (fun _ ->
        Target
          ( (module Plain),
            config
              {
                Plain.cf_scenario =
                  Cli_common.scenario_of ~scenario ~size ~load ~deadline_windows;
                cf_horizon_ms = horizon_ms;
                cf_params = None;
              }
              budget ))
      (Cli_common.instance_of ~scenario ~size ~load ~deadline_windows)

let target_t =
  Term.(
    const target $ config_file $ Cli_common.scenario $ Cli_common.size
    $ Cli_common.load $ Cli_common.deadline_windows $ Cli_common.horizon_ms
    $ Cli_common.seed $ candidates_t $ jobs $ watchdog $ retries $ backoff
    $ wall_budget $ max_events $ max_rate $ topo_segments $ topo_fanout
    $ topo_sources $ admit_params $ admit_sources $ admit_pool $ admit_requests
    $ admit_phy)

let with_target f = function
  | Error e ->
    Format.eprintf "ddcr_chaos: %s@." e;
    2
  | Ok target -> f target

(* -------------------- search -------------------- *)

let expect_finding =
  Arg.(
    value & flag
    & info [ "expect-finding" ]
        ~doc:"Exit 1 unless the search finds at least one violation — the \
              smoke gate's assertion that the seeded violation is still \
              found.")

let search (type e c s)
    ((module S) :
      (module Subject.S with type env = e and type cand = c and type sampler = s))
    (config : (e, s) Search.config) ~out ~out_dir ~quiet ~expect_finding =
  let res = Search.run ~log:(log_of quiet) (module S) config in
  let findings = res.Search.r_findings in
  Format.printf "%ssearch: %d/%d candidates examined, %d finding(s), %d gave \
                 up%s@."
    S.prefix res.Search.r_examined config.Search.s_pool.Search.p_count
    (List.length findings)
    (List.length res.Search.r_gave_up)
    (if res.Search.r_exhausted then " (budget exhausted, partial)" else "");
  List.iter
    (fun f ->
      Format.printf "  candidate %d [%s]: %s@." f.Search.fi_index
        (S.label f.Search.fi_candidate)
        (Oracle.describe f.Search.fi_report.Candidate.rp_verdict))
    findings;
  let write path f =
    Repro.save (module S) ~path
      (Repro.make ~env:config.Search.s_env ~cand:f.Search.fi_candidate
         ~report:f.Search.fi_report
         ~note:
           (Printf.sprintf "%ssearch seed=%d candidate=%d" S.prefix
              config.Search.s_pool.Search.p_seed f.Search.fi_index))
  in
  match
    (match (out, findings) with
    | Some path, f :: _ ->
      write path f;
      Format.printf "first finding written to %s@." path
    | Some _, [] | None, _ -> ());
    Option.iter
      (fun dir ->
        List.iter
          (fun f ->
            write
              (Filename.concat dir
                 (Printf.sprintf "%schaos_finding_%d.json" (Subject.slug S.prefix)
                    f.Search.fi_index))
              f)
          findings)
      out_dir
  with
  | exception Sys_error e ->
    Format.eprintf "ddcr_chaos: cannot write artifact: %s@." e;
    2
  | () when expect_finding && findings = [] ->
    Format.eprintf
      "ddcr_chaos: --expect-finding: no violation found in %d candidates@."
      res.Search.r_examined;
    1
  | () -> 0

let run_search target out out_dir quiet expect_finding =
  with_target
    (fun (Target (subject, config)) ->
      search subject config ~out ~out_dir ~quiet ~expect_finding)
    target

let search_cmd =
  let term =
    Term.(const run_search $ target_t $ out $ out_dir $ quiet $ expect_finding)
  in
  Cmd.v
    (Cmd.info "search"
       ~doc:"Sample adversarial candidates and hunt for oracle violations")
    term

(* -------------------- shrink -------------------- *)

let repro_in =
  Arg.(
    required
    & opt (some file) None
    & info [ "repro" ] ~docv:"FILE"
        ~doc:"Finding to minimize (a replay artifact from $(b,search)).")

let shrink_out =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:"Where to write the minimized replay artifact.")

let max_fraction =
  Arg.(
    value
    & opt (some float) None
    & info [ "max-fraction" ] ~docv:"F"
        ~doc:"Exit 1 unless the minimized plan has at most F times the \
              original event count — the smoke gate's shrink-quality \
              assertion.")

let shrink (type e c) ((module S) : (e, c) Subject.t) (repro : (e, c) Repro.t)
    ~repro_in ~shrink_out ~max_fraction ~log =
  let run cand = S.run repro.Repro.re_env cand in
  let expected = repro.Repro.re_verdict in
  let res =
    Shrink.run (module S)
      ~oracle:(fun cand -> (run cand).Candidate.rp_verdict)
      ~target:expected repro.Repro.re_cand
  in
  let original = S.size repro.Repro.re_cand in
  let shrunk = S.size res.Shrink.sh_cand in
  if not (Oracle.same_class res.Shrink.sh_verdict expected) then begin
    Format.eprintf
      "ddcr_chaos: the repro does not reproduce its own verdict (%s vs \
       expected %s) — nothing to shrink@."
      (Oracle.label res.Shrink.sh_verdict)
      (Oracle.label expected);
    1
  end
  else begin
    log
      (Printf.sprintf "shrink: %d -> %d %s(s) in %d oracle check(s)" original
         shrunk S.unit res.Shrink.sh_checks);
    (* Re-freeze with the minimized candidate's own verdict and
       fingerprint: the minimized artifact must replay byte-identically
       too. *)
    let report = run res.Shrink.sh_cand in
    let minimized =
      Repro.make ~env:repro.Repro.re_env ~cand:res.Shrink.sh_cand ~report
        ~note:
          (Printf.sprintf "shrunk from %s (%d -> %d %ss)"
             (Filename.basename repro_in) original shrunk S.unit)
    in
    match Repro.save (module S) ~path:shrink_out minimized with
    | exception Sys_error e ->
      Format.eprintf "ddcr_chaos: cannot write %s: %s@." shrink_out e;
      2
    | () -> (
      Format.printf "shrink: %d -> %d event(s) [%s], verdict %s, written to %s@."
        original shrunk
        (S.label res.Shrink.sh_cand)
        (Oracle.label report.Candidate.rp_verdict)
        shrink_out;
      match max_fraction with
      | Some f when float_of_int shrunk > f *. float_of_int original ->
        Format.eprintf
          "ddcr_chaos: --max-fraction %.2f: minimized plan still has %d of %d \
           events@."
          f shrunk original;
        1
      | _ -> 0)
  end

let run_shrink repro_in shrink_out max_fraction quiet =
  match Repro.load_any ~path:repro_in with
  | Error e ->
    Format.eprintf "ddcr_chaos: %s@." e;
    2
  | Ok (Repro.Any (kind, repro)) ->
    shrink (Subject.of_kind kind) repro ~repro_in ~shrink_out ~max_fraction
      ~log:(log_of quiet)

let shrink_cmd =
  let term =
    Term.(const run_shrink $ repro_in $ shrink_out $ max_fraction $ quiet)
  in
  Cmd.v
    (Cmd.info "shrink"
       ~doc:
         "Minimize a failing candidate by delta debugging (drop events, \
          narrow windows, weaken severities) while preserving the verdict")
    term

(* -------------------- replay -------------------- *)

let replay_file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Replay artifact to re-execute.")

let replay_postmortem_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "postmortem-out" ] ~docv:"FILE"
        ~doc:
          "Federated artifacts only: attach black-box flight recorders to \
           the replayed run and regenerate the postmortem of the frozen \
           failure at $(docv), cross-linked to this repro's note and \
           fingerprint.  Because the seeds are frozen, re-running the same \
           replay writes a byte-identical artifact.")

(* Replay a federated artifact with flight recorders attached and
   re-freeze the black box of the frozen failure. *)
let replay_with_postmortem (t : (Topo.env, Topo.cand) Repro.t) out =
  let flights = ref [] in
  let result = ref None in
  let report =
    Topo.run_observed
      ~sink_for:(fun ~index ~segment ->
        let f = Flight.create ~segment () in
        flights := (index, f) :: !flights;
        Flight.sink f)
      ~on_result:(fun r -> result := Some r)
      t.Repro.re_env t.Repro.re_cand
  in
  (match !result with
  | Some res ->
    (* The trigger is taken from the replayed result itself; if the
       oracle verdict fired on evidence outside the driver's own miss
       accounting, fall back to the artifact's frozen verdict label. *)
    let trigger =
      match Postmortem.trigger_of_result res with
      | Some trigger -> trigger
      | None -> Postmortem.Verdict (Oracle.label t.Repro.re_verdict)
    in
    let env = t.Repro.re_env in
    let pm =
      Postmortem.build ~trigger
        ~topology:(Topo.tree env).Rtnet_topology.Topo.tp_name
        ~seed:t.Repro.re_cand.Topo.td_trace_seed
        ~fault_seed:t.Repro.re_cand.Topo.td_fault_seed
        ~horizon:(env.Topo.tc_horizon_ms * 1_000_000)
        ~result:res
        ~flights:(List.map snd (List.sort compare !flights))
        ~repro:(t.Repro.re_note, t.Repro.re_fingerprint)
        ()
    in
    Postmortem.save ~path:out pm;
    Format.printf "postmortem: %s (trigger: %a)@." out Postmortem.pp_trigger
      trigger
  | None ->
    Format.eprintf
      "ddcr_chaos: replay ended in a configuration error — no driver result, \
       %s not written@."
      out);
  Repro.verify t report

let replay (type e c) (kind : (e, c) Subject.kind) (t : (e, c) Repro.t)
    postmortem_out =
  match (kind, postmortem_out) with
  | Subject.Topo, Some out -> replay_with_postmortem t out
  | _, Some _ ->
    Format.eprintf
      "ddcr_chaos: --postmortem-out applies to federated artifacts only; \
       ignoring@.";
    Repro.replay (Subject.of_kind kind) t
  | _, None -> Repro.replay (Subject.of_kind kind) t

let run_replay replay_file postmortem_out =
  match Repro.load_any ~path:replay_file with
  | Error e ->
    Format.eprintf "ddcr_chaos: %s@." e;
    2
  | Ok (Repro.Any (kind, t)) -> (
    match replay kind t postmortem_out with
    | exception Sys_error e ->
      Format.eprintf "ddcr_chaos: cannot write postmortem: %s@." e;
      2
    | r ->
      let got = r.Repro.rr_report in
      Format.printf "replay %s: verdict %s (%s), fingerprint %s@."
        (Filename.basename replay_file)
        (Oracle.label got.Candidate.rp_verdict)
        (if r.Repro.rr_verdict_ok then "matches" else "DRIFTED")
        (if r.Repro.rr_fingerprint_ok then "matches" else "DRIFTED");
      if r.Repro.rr_verdict_ok && r.Repro.rr_fingerprint_ok then 0
      else begin
        Format.eprintf
          "ddcr_chaos: %s no longer reproduces: expected %s / %s, got %s / %s@."
          replay_file
          (Oracle.describe t.Repro.re_verdict)
          t.Repro.re_fingerprint
          (Oracle.describe got.Candidate.rp_verdict)
          got.Candidate.rp_fingerprint;
        1
      end)

let replay_cmd =
  let term = Term.(const run_replay $ replay_file $ replay_postmortem_out) in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a replay artifact and verify verdict and trace \
          fingerprint reproduce byte-identically")
    term

(* -------------------- soak -------------------- *)

let rounds =
  Arg.(
    value & opt int 4
    & info [ "rounds" ] ~docv:"N" ~doc:"Maximum search rounds.")

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"))

let soak (type e c s)
    ((module S) :
      (module Subject.S with type env = e and type cand = c and type sampler = s))
    (search : (e, s) Search.config) ~rounds ~wall_budget ~out_dir ~quiet =
  Option.iter ensure_dir out_dir;
  let res =
    Soak.run ~log:(log_of quiet) (module S)
      {
        Soak.so_search = search;
        so_rounds = rounds;
        so_wall_budget_s = wall_budget;
        so_out_dir = out_dir;
      }
  in
  Format.printf
    "soak: %d round(s), %d candidate(s) examined, %d distinct finding(s), %d \
     gave up%s@."
    res.Soak.so_rounds_run res.Soak.so_examined res.Soak.so_findings
    res.Soak.so_gave_up
    (if res.Soak.so_exhausted then " (budget exhausted)" else "");
  List.iter (fun p -> Format.printf "  %s@." p) res.Soak.so_repro_paths

let run_soak target wall_budget rounds out_dir quiet =
  with_target
    (fun (Target (subject, search)) ->
      match
        soak subject search ~rounds ~wall_budget ~out_dir ~quiet
      with
      | () -> 0
      | exception Sys_error e ->
        Format.eprintf "ddcr_chaos: cannot write artifact: %s@." e;
        2)
    target

let soak_cmd =
  let term =
    Term.(const run_soak $ target_t $ wall_budget $ rounds $ out_dir $ quiet)
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Run repeated searches under one wall budget, freezing each \
          de-duplicated finding as a replay artifact")
    term

(* -------------------- group -------------------- *)

let cmd =
  Cmd.group
    (Cmd.info "ddcr_chaos"
       ~doc:
         "Adversarial fault-schedule search with delta-debugging shrinker \
          and deterministic replay artifacts")
    [ search_cmd; shrink_cmd; replay_cmd; soak_cmd ]

let () = exit (Cmd.eval' cmd)
