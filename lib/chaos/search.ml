module Json = Rtnet_util.Json
module Spec = Rtnet_campaign.Spec
module Pool = Rtnet_campaign.Pool
module Oracle = Rtnet_analysis.Oracle
module Registry = Rtnet_telemetry.Registry
module Sink = Rtnet_telemetry.Sink
module Plain = Subject.Plain

let ( let* ) = Result.bind

type pool = {
  p_seed : int;
  p_count : int;
  p_jobs : int;
  p_watchdog_s : float option;
  p_retries : int;
  p_backoff_s : float;
  p_wall_budget_s : float option;
}

let default_pool =
  {
    p_seed = 1;
    p_count = 64;
    p_jobs = 2;
    p_watchdog_s = Some 30.;
    p_retries = 1;
    p_backoff_s = 0.1;
    p_wall_budget_s = None;
  }

type ('e, 's) config = { s_env : 'e; s_sampler : 's; s_pool : pool }

(* -------------------- config codec -------------------- *)

let config_to_json c =
  let p = c.s_pool in
  Json.Obj
    ([
       ("scenario", Spec.scenario_to_json c.s_env.Plain.cf_scenario);
       ("horizon_ms", Json.Int c.s_env.Plain.cf_horizon_ms);
       ("seed", Json.Int p.p_seed);
       ("candidates", Json.Int p.p_count);
       ("budget", Generator.budget_to_json c.s_sampler);
       ("jobs", Json.Int p.p_jobs);
     ]
    @ (match p.p_watchdog_s with
      | None -> []
      | Some w -> [ ("watchdog_s", Json.Float w) ])
    @ [
        ("retries", Json.Int p.p_retries);
        ("backoff_s", Json.Float p.p_backoff_s);
      ]
    @
    match p.p_wall_budget_s with
    | None -> []
    | Some w -> [ ("wall_budget_s", Json.Float w) ])

let opt j key decode default =
  match Json.member key j with None -> Ok default | Some v -> decode v

let opt_some j key decode =
  match Json.member key j with
  | None | Some Json.Null -> Ok None
  | Some v -> Result.map Option.some (decode v)

let config_of_json j =
  let d = default_pool in
  let* scenario = Result.bind (Json.field "scenario" j) Spec.scenario_of_json in
  let* horizon_ms = Result.bind (Json.field "horizon_ms" j) Json.get_int in
  let* seed = opt j "seed" Json.get_int d.p_seed in
  let* count = opt j "candidates" Json.get_int d.p_count in
  let* budget = opt j "budget" Generator.budget_of_json Generator.default_budget in
  let* jobs = opt j "jobs" Json.get_int d.p_jobs in
  let* watchdog_s = opt_some j "watchdog_s" Json.get_float in
  let* retries = opt j "retries" Json.get_int d.p_retries in
  let* backoff_s = opt j "backoff_s" Json.get_float d.p_backoff_s in
  let* wall_budget_s = opt_some j "wall_budget_s" Json.get_float in
  if count < 1 then Error "candidates < 1"
  else if jobs < 1 then Error "jobs < 1"
  else
    Ok
      {
        s_env =
          { Plain.cf_scenario = scenario; cf_horizon_ms = horizon_ms; cf_params = None };
        s_sampler = budget;
        s_pool =
          {
            p_seed = seed;
            p_count = count;
            p_jobs = jobs;
            p_watchdog_s = watchdog_s;
            p_retries = retries;
            p_backoff_s = backoff_s;
            p_wall_budget_s = wall_budget_s;
          };
      }

let load_config path =
  let* j = Json.parse_file path in
  Result.map_error (fun e -> Printf.sprintf "%s: %s" path e) (config_of_json j)

(* -------------------- search -------------------- *)

type 'c finding = {
  fi_index : int;
  fi_candidate : 'c;
  fi_report : Candidate.report;
}

type gave_up = { gu_index : int; gu_attempts : int; gu_reason : string }

type 'c result = {
  r_examined : int;
  r_findings : 'c finding list;
  r_task_errors : (int * string) list;
  r_gave_up : gave_up list;
  r_exhausted : bool;
}

let run (type e c s) ?registry ?(sink = Sink.null) ?(log = fun (_ : string) -> ())
    (module S : Subject.S
      with type env = e
       and type cand = c
       and type sampler = s) (config : (e, s) config) : c result =
  let p = config.s_pool in
  let candidates =
    Array.init p.p_count (fun i ->
        (i, S.sample config.s_sampler config.s_env ~seed:p.p_seed i))
  in
  let count key = Option.iter (fun r -> Registry.incr r key) registry in
  let t0 = Unix.gettimeofday () in
  let stopped_early = ref false in
  let findings = ref [] in
  let task_errors = ref [] in
  let gave_up = ref [] in
  let examined = ref 0 in
  let completed key ~ok timing =
    incr examined;
    count "chaos/candidates";
    sink.Sink.worker_cell ~worker:timing.Pool.worker ~key ~t0:timing.Pool.t0
      ~t1:timing.Pool.t1 ~ok
  in
  let on_event = function
    | Pool.Completed (pos, timing, report) ->
      let ok = not (Oracle.is_failure report.Candidate.rp_verdict) in
      completed (Printf.sprintf "cand%d" pos) ~ok timing;
      if not ok then begin
        count "chaos/findings";
        findings :=
          { fi_index = pos; fi_candidate = snd candidates.(pos); fi_report = report }
          :: !findings;
        log
          (Printf.sprintf "candidate %d: %s" pos
             (Oracle.describe report.Candidate.rp_verdict))
      end
    | Pool.Task_error (pos, timing, e) ->
      completed (Printf.sprintf "cand%d" pos) ~ok:false timing;
      count "chaos/task_errors";
      task_errors := (pos, e) :: !task_errors;
      log (Printf.sprintf "candidate %d: task error: %s" pos e)
    | Pool.Gave_up { position; attempts; reason } ->
      incr examined;
      count "chaos/candidates";
      count "chaos/gave_up";
      gave_up :=
        {
          gu_index = position;
          gu_attempts = attempts;
          gu_reason = Pool.reason_text reason;
        }
        :: !gave_up;
      log
        (Printf.sprintf "candidate %d: gave up after %d attempt(s): %s"
           position attempts (Pool.reason_text reason))
  in
  let should_stop () =
    let stop =
      match p.p_wall_budget_s with
      | None -> false
      | Some b -> Unix.gettimeofday () -. t0 >= b
    in
    if stop && not !stopped_early then begin
      stopped_early := true;
      log "wall budget exhausted: draining running candidates"
    end;
    stop
  in
  ignore
    (Pool.supervise ~jobs:p.p_jobs ?watchdog_s:p.p_watchdog_s
       ~retries:p.p_retries ~backoff_s:p.p_backoff_s
       ~on_retry:(fun ~position ~attempt ~reason ->
         count "chaos/retries";
         log
           (Printf.sprintf "candidate %d: retry %d (%s)" position attempt reason))
       ~should_stop ~on_event
       (fun (_, cand) -> S.run config.s_env cand)
       candidates);
  let by f l = List.sort (fun a b -> compare (f a) (f b)) l in
  {
    r_examined = !examined;
    r_findings = by (fun f -> f.fi_index) !findings;
    r_task_errors = by fst !task_errors;
    r_gave_up = by (fun g -> g.gu_index) !gave_up;
    r_exhausted = !stopped_early || !examined < p.p_count;
  }
