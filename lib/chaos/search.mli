(** The chaos search loop, generic over the {!Subject}: sample
    candidates, execute them on a supervised worker pool, collect the
    failures.

    Candidates are indexed [0 .. p_count - 1]; candidate [i] is
    {!Subject.S.sample} of [(sampler, env, p_seed, i)], a pure
    function, so a finding is reproducible from its index alone and
    the search is deterministic up to the {e set} of results
    (execution order varies with scheduling; results are re-sorted by
    index).

    Execution robustness comes from {!Rtnet_campaign.Pool.supervise}:
    a hung candidate is killed at the watchdog timeout and retried
    with backoff a bounded number of times, a candidate whose worker
    dies likewise, and an exhausted wall-clock budget stops launching
    new candidates while draining the running ones — the search
    reports partial results ([r_exhausted = true]) and never crashes. *)

type pool = {
  p_seed : int;  (** root seed; every candidate derives from it *)
  p_count : int;  (** candidate budget *)
  p_jobs : int;  (** concurrent workers *)
  p_watchdog_s : float option;  (** per-candidate kill timeout *)
  p_retries : int;  (** retry budget per candidate *)
  p_backoff_s : float;  (** linear backoff unit between retries *)
  p_wall_budget_s : float option;  (** total wall-clock budget *)
}

val default_pool : pool
(** Seed 1, 64 candidates, 2 jobs, 30 s watchdog, 1 retry, 0.1 s
    backoff, no wall budget. *)

type ('e, 's) config = {
  s_env : 'e;  (** the environment under test *)
  s_sampler : 's;  (** the subject's sampling knobs *)
  s_pool : pool;
}

val config_to_json :
  (Subject.Plain.env, Subject.Plain.sampler) config -> Rtnet_util.Json.t
(** Canonical encoding of a plain search — the committed smoke config
    is this shape (fields: scenario, horizon_ms, seed, candidates,
    budget, jobs, watchdog_s, retries, backoff_s, wall_budget_s). *)

val config_of_json :
  Rtnet_util.Json.t ->
  ((Subject.Plain.env, Subject.Plain.sampler) config, string) result

val load_config :
  string -> ((Subject.Plain.env, Subject.Plain.sampler) config, string) result
(** [load_config path] parses a plain search config file. *)

type 'c finding = {
  fi_index : int;
  fi_candidate : 'c;
  fi_report : Candidate.report;
}

type gave_up = { gu_index : int; gu_attempts : int; gu_reason : string }

type 'c result = {
  r_examined : int;  (** candidates that produced any event *)
  r_findings : 'c finding list;  (** failing candidates, by index *)
  r_task_errors : (int * string) list;
      (** candidates whose worker-side task raised outside the
          simulator mapping (should be empty; kept for honesty) *)
  r_gave_up : gave_up list;  (** candidates that exhausted retries *)
  r_exhausted : bool;  (** the wall budget stopped the search early *)
}

val run :
  ?registry:Rtnet_telemetry.Registry.t ->
  ?sink:Rtnet_telemetry.Sink.t ->
  ?log:(string -> unit) ->
  (module Subject.S
     with type env = 'e
      and type cand = 'c
      and type sampler = 's) ->
  ('e, 's) config ->
  'c result
(** [run subject config] executes the search.  [registry] (optional)
    receives the chaos counters ([chaos/candidates], [chaos/findings],
    [chaos/retries], [chaos/gave_up], [chaos/task_errors]); [sink]
    receives one [worker_cell] probe per candidate (wall-clock
    timeline, Perfetto-exportable via {!Rtnet_telemetry.Recorder});
    [log] receives one progress line per notable event. *)
