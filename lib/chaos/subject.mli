(** What a chaos pipeline runs on.

    [rtnet.chaos] tries to falsify the paper's two properties — safety,
    and timeliness under B_DDCR — on three subjects: a flat DDCR
    segment ({!Plain}), a bridged federation ({!Topo}) and the §4.3
    admission service ({!Admit}).  Search, shrink, the replay artifact
    and soak are written once against {!S}; an instance holds only what
    really differs between subjects. *)

module type S = sig
  type env
  (** What stays fixed across a search: the system under test.  Frozen
      into every artifact. *)

  type cand
  (** One candidate: the perturbation plus the seeds that make its run
      reproducible. *)

  type sampler
  (** Search-only knobs of {!sample}; never frozen into artifacts. *)

  type atom
  (** The unit the shrinker drops. *)

  val prefix : string
  (** [""], ["topo "] or ["admit "]: prefixes the summary lines
      ("topo search: ..."), notes ("topo search seed=..."), the
      artifact version key and finding-file names (spaces become
      underscores: ["topo_chaos_repro_version"],
      ["topo_chaos_finding_<i>.json"]). *)

  val version : int
  (** The artifact version emitted. *)

  val min_version : int
  (** The oldest artifact version still decoded. *)

  val env_to_json : env -> (string * Rtnet_util.Json.t) list
  (** The environment's artifact fields, in canonical order. *)

  val env_of_json :
    version:int -> Rtnet_util.Json.t -> (env, string) result
  (** Decodes and validates the environment from the artifact object. *)

  val cand_to_json : cand -> (string * Rtnet_util.Json.t) list
  (** The candidate's artifact fields (after the environment's). *)

  val cand_of_json : env -> Rtnet_util.Json.t -> (cand, string) result
  (** Decodes the candidate and validates it against the environment. *)

  val sample : sampler -> env -> seed:int -> int -> cand
  (** [sample s env ~seed i] is candidate [i] of the search rooted at
      [seed] — a pure function, from disjoint
      {!Rtnet_util.Prng.derive} chains per index. *)

  val run : env -> cand -> Candidate.report
  (** Executes and classifies the candidate.  Protocol failures become
      verdicts ({!Candidate.simulate}); only truly unexpected
      conditions (e.g. an unknown scenario kind) escape. *)

  val atoms : cand -> atom list

  val of_atoms : cand -> atom list -> cand
  (** [of_atoms c l] is [c] with its perturbation rebuilt from the
      subsequence [l] of [atoms c]. *)

  val refine : (cand -> bool) -> cand -> cand
  (** [refine check c] weakens [c] past atom removal, keeping each
      mutation only while [check] holds. *)

  val label : cand -> string
  (** Short rendering for summary lines. *)

  val size : cand -> int
  (** Atom count, in {!unit}s. *)

  val unit : string
  (** ["event"] or ["request"]. *)

  val summary : env -> cand -> string
  (** Artifact description for [ddcr_lint --check-repro]. *)
end

val slug : string -> string
(** [slug prefix] replaces spaces by underscores (["topo "] →
    ["topo_"]), for keys and file names. *)

(** A flat DDCR segment under a fault plan: the scenario instance's
    workload trace, run through {!Rtnet_mac.Harness} with the
    instantiated plan, classified by {!Rtnet_analysis.Oracle.classify}.
    The fingerprint digests the run outcome's canonical JSON.

    Artifact: ["chaos_repro_version"] 2 (1 still decodes, without a
    params override); sampled by {!Generator.sample}; shrunk by fault
    event, then crash windows narrowed and severities weakened. *)
module Plain : sig
  type env = {
    cf_scenario : Rtnet_campaign.Spec.scenario;
    cf_horizon_ms : int;
    cf_params : Rtnet_core.Ddcr_params.t option;
        (** protocol-parameter override; [None] means
            [Ddcr_params.default] of the scenario instance.
            Model-checker counterexamples seeded by a pathological
            configuration pin it here so the repro replays against
            those exact parameters. *)
  }

  type cand = {
    cd_plan : Rtnet_channel.Fault_plan.spec;
    cd_trace_seed : int;  (** arrival-trace stream *)
    cd_fault_seed : int;  (** fault-plan sampler stream *)
  }

  include
    S
      with type env := env
       and type cand := cand
       and type sampler = Generator.budget
       and type atom = Rtnet_channel.Fault_plan.spec
end

(** A bridged federation under per-segment fault plans: the uniform
    {!Rtnet_topology.Topo.tree} the env describes, with the plans
    attached, admitted slack-weighted and run through the federated
    driver, classified end-to-end with
    {!Rtnet_analysis.Oracle.classify_topo} — [Bridge_overflow],
    [Handoff_loss] and [Chain_deadline_miss] are the
    accept-then-violate verdicts.  The fingerprint digests the
    driver's completion-schedule fingerprint with the verdict
    rendering.

    Artifact: ["topo_chaos_repro_version"] 1; sampled by
    {!Generator.sample_topo}; shrunk by (segment, fault event) pair,
    then per-segment window narrowing and severity weakening. *)
module Topo : sig
  type env = {
    tc_segments : int;  (** tree size, [>= 2] (a 1-segment tree is flat) *)
    tc_fanout : int;
    tc_sources : int;  (** sources per segment *)
    tc_load : float;  (** per-segment uniform offered load *)
    tc_deadline_windows : float;
    tc_horizon_ms : int;
  }

  type cand = {
    td_plans : (string * Rtnet_channel.Fault_plan.spec) list;
        (** per-segment fault plans *)
    td_trace_seed : int;
    td_fault_seed : int;
  }

  include
    S
      with type env := env
       and type cand := cand
       and type sampler = Generator.budget
       and type atom = string * Rtnet_channel.Fault_plan.spec

  val tree : env -> Rtnet_topology.Topo.t
  (** The (fault-free) tree the env describes. *)

  val run_observed :
    ?sink_for:(index:int -> segment:string -> Rtnet_telemetry.Sink.t) ->
    ?on_result:(Rtnet_topology.Driver.result -> unit) ->
    env ->
    cand ->
    Candidate.report
  (** {!run} with per-segment probes ([sink_for]) and a hook on the raw
      driver result ([on_result], called when the run completes
      without a configuration error) — [ddcr_chaos replay
      --postmortem-out] uses both to regenerate the postmortem of the
      frozen failure. *)
end

(** The admission service under churn: the request stream is decided
    by a fresh {!Rtnet_admit.Engine}, then the finally-admitted set is
    simulated over the horizon.  A deadline miss in a set the engine
    accepted is the accept-then-violate bug,
    {!Rtnet_analysis.Oracle.Admission_violation} naming the first
    missing flow; an empty final set passes trivially.  The
    fingerprint digests the decision log lines {e and} the outcome, so
    replay asserts the decisions themselves.

    Artifact: ["admit_chaos_repro_version"] 1; sampled by
    {!Generator.sample_churn}; shrunk by request (no refinement). *)
module Admit : sig
  type env = {
    an_phy : string;  (** medium, by {!Rtnet_admit.Request.phy_of_name} *)
    an_sources : int;
    an_params : Rtnet_core.Ddcr_params.t;
        (** the parameters under test — broken-params fixtures plant
            the accept-then-violate bug here *)
    an_horizon_ms : int;  (** simulated span for the violation check *)
  }

  type cand = {
    ar_requests : Rtnet_admit.Request.t list;  (** the churn stream *)
    ar_trace_seed : int;  (** arrival-trace stream for the final set *)
  }

  type sampler = {
    ad_pool : int;  (** flow-id pool size per stream *)
    ad_requests : int;  (** stream length *)
  }

  include
    S
      with type env := env
       and type cand := cand
       and type sampler := sampler
       and type atom = Rtnet_admit.Request.t

  val default_sampler : sampler
  (** 8 flow ids, 64 requests per stream — the [ddcr_chaos
      --admit-pool]/[--admit-requests] defaults. *)
end

type ('e, 'c) t = (module S with type env = 'e and type cand = 'c)

(** Which subject an artifact belongs to — the witness that lets a
    caller recover the concrete types ([ddcr_chaos replay
    --postmortem-out] needs {!Topo.run_observed}). *)
type (_, _) kind =
  | Plain : (Plain.env, Plain.cand) kind
  | Topo : (Topo.env, Topo.cand) kind
  | Admit : (Admit.env, Admit.cand) kind

val of_kind : ('e, 'c) kind -> ('e, 'c) t
