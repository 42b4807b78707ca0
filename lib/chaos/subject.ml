module Json = Rtnet_util.Json
module Prng = Rtnet_util.Prng
module Spec = Rtnet_campaign.Spec
module Instance = Rtnet_workload.Instance
module Message = Rtnet_workload.Message
module Fault_plan = Rtnet_channel.Fault_plan
module Ddcr = Rtnet_core.Ddcr
module Ddcr_params = Rtnet_core.Ddcr_params
module Ddcr_trace = Rtnet_core.Ddcr_trace
module Decompose = Rtnet_core.Decompose
module Oracle = Rtnet_analysis.Oracle
module Run = Rtnet_stats.Run
module Tree = Rtnet_topology.Topo
module Elaborate = Rtnet_topology.Admit
module Driver = Rtnet_topology.Driver
module Request = Rtnet_admit.Request
module Engine = Rtnet_admit.Engine
module Journal = Rtnet_admit.Journal

let ( let* ) = Result.bind

module type S = sig
  type env
  type cand
  type sampler
  type atom

  val prefix : string
  val version : int
  val min_version : int
  val env_to_json : env -> (string * Json.t) list
  val env_of_json : version:int -> Json.t -> (env, string) result
  val cand_to_json : cand -> (string * Json.t) list
  val cand_of_json : env -> Json.t -> (cand, string) result
  val sample : sampler -> env -> seed:int -> int -> cand
  val run : env -> cand -> Candidate.report
  val atoms : cand -> atom list
  val of_atoms : cand -> atom list -> cand
  val refine : (cand -> bool) -> cand -> cand
  val label : cand -> string
  val size : cand -> int
  val unit : string
  val summary : env -> cand -> string
end

let slug prefix = String.map (fun c -> if c = ' ' then '_' else c) prefix

let field key decode j = Result.bind (Json.field key j) decode

(* Domain separation mirrors the campaign's Seeding module: the trace
   and fault seeds of candidate [i] come from disjoint derive chains
   of the root seed, and the generator's sample streams use their own
   tags — no coordinate ever shares a stream prefix with another. *)
let trace_seed ~seed i = Prng.derive (Prng.derive seed 1) i
let fault_seed ~seed i = Prng.derive (Prng.derive seed 2) i

let seeds_to_json ~trace ~fault =
  [ ("trace_seed", Json.Int trace); ("fault_seed", Json.Int fault) ]

let seeds_of_json j =
  let* trace = field "trace_seed" Json.get_int j in
  let* fault = field "fault_seed" Json.get_int j in
  Ok (trace, fault)

(* -------------------- plan refinement -------------------- *)

(* Replace crash window number [i] (in sp_crashes order) with [w]. *)
let with_crash sp i w =
  {
    sp with
    Fault_plan.sp_crashes =
      List.mapi (fun j w0 -> if j = i then w else w0) sp.Fault_plan.sp_crashes;
  }

let narrow_windows check sp =
  let sp = ref sp in
  List.iteri
    (fun i _ ->
      let continue = ref true in
      while !continue do
        let w = List.nth !sp.Fault_plan.sp_crashes i in
        match Fault_plan.split_crash w with
        | None -> continue := false
        | Some (left, right) ->
          if check (with_crash !sp i left) then sp := with_crash !sp i left
          else if check (with_crash !sp i right) then
            sp := with_crash !sp i right
          else continue := false
      done)
    !sp.Fault_plan.sp_crashes;
  !sp

let weaken_severities check sp =
  let sp = ref sp in
  let continue = ref true in
  (* Halve at most 6 times: below ~1.5% of the original rates further
     weakening cannot change which slots get hit on a short horizon. *)
  let budget = ref 6 in
  while !continue && !budget > 0 do
    let weaker = Fault_plan.scale_severity !sp 0.5 in
    if weaker <> !sp && check weaker then begin
      sp := weaker;
      decr budget
    end
    else continue := false
  done;
  !sp

(* Narrow every crash window, then weaken the severities, keeping each
   mutation only while [check] still reproduces the verdict. *)
let refine_plan check sp =
  let check sp = (not (Fault_plan.is_empty sp)) && check sp in
  weaken_severities check (narrow_windows check sp)

(* -------------------- plain DDCR segment -------------------- *)

module Plain = struct
  type env = {
    cf_scenario : Spec.scenario;
    cf_horizon_ms : int;
    cf_params : Ddcr_params.t option;
  }

  type cand = {
    cd_plan : Fault_plan.spec;
    cd_trace_seed : int;
    cd_fault_seed : int;
  }

  type sampler = Generator.budget
  type atom = Fault_plan.spec

  let prefix = ""

  (* v1: (scenario, horizon, plan, seeds, verdict, fingerprint, note).
     v2 adds the optional "params" protocol-parameter override (model
     checker counterexamples pin the exact — possibly pathological —
     configuration they were found under) and the scheduled fault-plan
     atoms inside "plan".  v1 artifacts are still decoded (params =
     None, no scheduled atoms); v2 is always emitted. *)
  let version = 2
  let min_version = 1

  let env_to_json e =
    [
      ("scenario", Spec.scenario_to_json e.cf_scenario);
      ("horizon_ms", Json.Int e.cf_horizon_ms);
    ]
    @
    match e.cf_params with
    | None -> []
    | Some p -> [ ("params", Ddcr_params.to_json p) ]

  let env_of_json ~version j =
    let* scenario = field "scenario" Spec.scenario_of_json j in
    let* horizon_ms = field "horizon_ms" Json.get_int j in
    let* params =
      match Json.member "params" j with
      | None | Some Json.Null -> Ok None
      | Some pj when version >= 2 ->
        Result.map Option.some
          (Result.map_error (fun e -> "params: " ^ e) (Ddcr_params.of_json pj))
      | Some _ -> Error "params override requires chaos repro version >= 2"
    in
    if horizon_ms < 1 then Error "horizon_ms < 1"
    else Ok { cf_scenario = scenario; cf_horizon_ms = horizon_ms; cf_params = params }

  let cand_to_json c =
    ("plan", Fault_plan.spec_to_json c.cd_plan)
    :: seeds_to_json ~trace:c.cd_trace_seed ~fault:c.cd_fault_seed

  let cand_of_json e j =
    let* plan = field "plan" Fault_plan.spec_of_json j in
    let* () =
      Result.map_error
        (fun e -> "plan: " ^ e)
        (Fault_plan.validate ~horizon:(e.cf_horizon_ms * 1_000_000) plan)
    in
    let* trace, fault = seeds_of_json j in
    Ok { cd_plan = plan; cd_trace_seed = trace; cd_fault_seed = fault }

  let sample budget e ~seed i =
    let horizon = e.cf_horizon_ms * 1_000_000 in
    let sources = (Spec.instance e.cf_scenario).Instance.num_sources in
    {
      cd_plan = Generator.sample ~budget ~seed ~index:i ~horizon ~sources;
      cd_trace_seed = trace_seed ~seed i;
      cd_fault_seed = fault_seed ~seed i;
    }

  let run e c =
    let inst = Spec.instance e.cf_scenario in
    let horizon = e.cf_horizon_ms * 1_000_000 in
    let trace = Instance.trace inst ~seed:c.cd_trace_seed ~horizon in
    let params =
      match e.cf_params with
      | Some p -> p
      | None -> Ddcr_params.default inst
    in
    let record, finish = Ddcr_trace.collector () in
    Candidate.simulate
      (fun () ->
        let plan = Fault_plan.create ~horizon ~seed:c.cd_fault_seed c.cd_plan in
        Ddcr.run_trace ~check_lockstep:true ~on_event:record ~plan params inst
          trace ~horizon)
      (fun outcome ->
        let events = finish () in
        {
          Candidate.rp_verdict = Oracle.classify ~workload:trace ~outcome events;
          rp_fingerprint = Candidate.fingerprint_outcome outcome;
        })

  let atoms c = Fault_plan.atoms c.cd_plan
  let of_atoms c atoms = { c with cd_plan = Fault_plan.merge atoms }

  let refine check c =
    { c with cd_plan = refine_plan (fun sp -> check { c with cd_plan = sp }) c.cd_plan }

  let label c = Fault_plan.label c.cd_plan
  let size c = Fault_plan.event_count c.cd_plan
  let unit = "event"

  let summary e c =
    Printf.sprintf "plan [%s]%s" (label c)
      (if e.cf_params = None then "" else ", params override")
end

(* -------------------- bridged federation -------------------- *)

module Topo = struct
  type env = {
    tc_segments : int;
    tc_fanout : int;
    tc_sources : int;
    tc_load : float;
    tc_deadline_windows : float;
    tc_horizon_ms : int;
  }

  type cand = {
    td_plans : (string * Fault_plan.spec) list;
    td_trace_seed : int;
    td_fault_seed : int;
  }

  type sampler = Generator.budget
  type atom = string * Fault_plan.spec

  let prefix = "topo "
  let version = 1
  let min_version = 1

  let tree e =
    Tree.tree ~name:"chaos" ~segments:e.tc_segments ~fanout:e.tc_fanout
      ~sources:e.tc_sources ~load:e.tc_load
      ~deadline_windows:e.tc_deadline_windows ()

  let env_to_json e =
    [
      ( "topology",
        Json.Obj
          [
            ("segments", Json.Int e.tc_segments);
            ("fanout", Json.Int e.tc_fanout);
            ("sources", Json.Int e.tc_sources);
            ("load", Json.Float e.tc_load);
            ("deadline_windows", Json.Float e.tc_deadline_windows);
            ("horizon_ms", Json.Int e.tc_horizon_ms);
          ] );
    ]

  let env_of_json ~version:_ j =
    let* j = Json.field "topology" j in
    let* segments = field "segments" Json.get_int j in
    let* fanout = field "fanout" Json.get_int j in
    let* sources = field "sources" Json.get_int j in
    let* load = field "load" Json.get_float j in
    let* deadline_windows = field "deadline_windows" Json.get_float j in
    let* horizon_ms = field "horizon_ms" Json.get_int j in
    if segments < 2 then Error "segments < 2"
    else if fanout < 1 then Error "fanout < 1"
    else if sources < 1 then Error "sources < 1"
    else if horizon_ms < 1 then Error "horizon_ms < 1"
    else
      Ok
        {
          tc_segments = segments;
          tc_fanout = fanout;
          tc_sources = sources;
          tc_load = load;
          tc_deadline_windows = deadline_windows;
          tc_horizon_ms = horizon_ms;
        }

  let cand_to_json c =
    ( "plans",
      Json.Obj (List.map (fun (n, sp) -> (n, Fault_plan.spec_to_json sp)) c.td_plans)
    )
    :: seeds_to_json ~trace:c.td_trace_seed ~fault:c.td_fault_seed

  let cand_of_json e j =
    let horizon = e.tc_horizon_ms * 1_000_000 in
    let* plans =
      match Json.member "plans" j with
      | Some (Json.Obj kvs) ->
        let rec decode acc = function
          | [] -> Ok (List.rev acc)
          | (name, pj) :: tl ->
            let* sp =
              Result.map_error
                (fun e -> Printf.sprintf "plans: %s: %s" name e)
                (let* sp = Fault_plan.spec_of_json pj in
                 let* () = Fault_plan.validate ~horizon sp in
                 Ok sp)
            in
            decode ((name, sp) :: acc) tl
        in
        decode [] kvs
      | Some _ -> Error "plans: expected an object"
      | None -> Error "missing plans"
    in
    (* The plan set must attach to the tree the env describes — a
       renamed segment would otherwise fail only at replay time. *)
    let* () =
      match Tree.with_faults (tree e) plans with
      | Ok _ -> Ok ()
      | Error e -> Error ("plans: " ^ e)
    in
    let* trace, fault = seeds_of_json j in
    Ok { td_plans = plans; td_trace_seed = trace; td_fault_seed = fault }

  let sample budget e ~seed i =
    {
      td_plans =
        Generator.sample_topo ~budget ~seed ~index:i
          ~horizon:(e.tc_horizon_ms * 1_000_000) (tree e);
      td_trace_seed = trace_seed ~seed i;
      td_fault_seed = fault_seed ~seed i;
    }

  let run_observed ?sink_for ?on_result e c =
    let crash msg = Candidate.failed (Oracle.Run_crash msg) in
    match Tree.with_faults (tree e) c.td_plans with
    | Error err -> crash ("topology fault plan: " ^ err)
    | Ok t -> (
      match Elaborate.elaborate ~policy:Decompose.Slack_weighted t with
      | Error err -> crash ("admission: " ^ err)
      | Ok elaborated ->
        Candidate.simulate
          (fun () ->
            Driver.run_seeded ~check_lockstep:true ?sink_for elaborated
              ~seed:c.td_trace_seed ~fault_seed:c.td_fault_seed
              ~horizon:(e.tc_horizon_ms * 1_000_000))
          (function
            | Error msg -> crash ("driver: " ^ msg)
            | Ok res ->
              Option.iter (fun f -> f res) on_result;
              let verdict = Oracle.classify_topo res in
              (* The driver's fingerprint pins the completion schedules;
                 the verdict rendering pins the end-to-end
                 classification — both must survive replay
                 byte-identically. *)
              {
                Candidate.rp_verdict = verdict;
                rp_fingerprint =
                  Digest.to_hex
                    (Digest.string
                       ("topo:" ^ res.Driver.r_fingerprint ^ ":"
                       ^ Json.to_string (Oracle.to_json verdict)));
              }))

  let run e c = run_observed e c

  let atoms c =
    List.concat_map
      (fun (seg, sp) -> List.map (fun a -> (seg, a)) (Fault_plan.atoms sp))
      c.td_plans

  (* Rebuilding keeps the original segment order, so the minimized plan
     set composes onto the topology deterministically; segments whose
     atoms were all dropped disappear. *)
  let of_atoms c pairs =
    {
      c with
      td_plans =
        List.filter_map
          (fun (seg, _) ->
            match
              List.filter_map (fun (s, a) -> if s = seg then Some a else None) pairs
            with
            | [] -> None
            | atoms -> Some (seg, Fault_plan.merge atoms))
          c.td_plans;
    }

  let with_segment c seg sp =
    {
      c with
      td_plans = List.map (fun (s, sp0) -> (s, if s = seg then sp else sp0)) c.td_plans;
    }

  (* Per-segment window narrowing and severity weakening, each mutation
     re-checked against the whole plan set. *)
  let refine check c =
    List.fold_left
      (fun c (seg, sp) ->
        with_segment c seg
          (refine_plan (fun sp -> check (with_segment c seg sp)) sp))
      c c.td_plans

  let label c =
    String.concat "; "
      (List.map (fun (n, sp) -> n ^ ":" ^ Fault_plan.label sp) c.td_plans)

  let size c =
    List.fold_left (fun a (_, sp) -> a + Fault_plan.event_count sp) 0 c.td_plans

  let unit = "event"
  let summary _ c = Printf.sprintf "%d segment plan(s)" (List.length c.td_plans)
end

(* -------------------- admission service -------------------- *)

module Admit = struct
  type env = {
    an_phy : string;
    an_sources : int;
    an_params : Ddcr_params.t;
    an_horizon_ms : int;
  }

  type cand = { ar_requests : Request.t list; ar_trace_seed : int }
  type sampler = { ad_pool : int; ad_requests : int }
  type atom = Request.t

  let prefix = "admit "
  let version = 1
  let min_version = 1

  let env_to_json e =
    [
      ( "admit",
        Json.Obj
          [
            ("phy", Json.String e.an_phy);
            ("sources", Json.Int e.an_sources);
            ("params", Ddcr_params.to_json e.an_params);
            ("horizon_ms", Json.Int e.an_horizon_ms);
          ] );
    ]

  let env_of_json ~version:_ j =
    let* j = Json.field "admit" j in
    let* phy = field "phy" Json.get_string j in
    let* sources = field "sources" Json.get_int j in
    let* params = field "params" Ddcr_params.of_json j in
    let* horizon_ms = field "horizon_ms" Json.get_int j in
    let* () =
      if sources < 1 then Error "sources < 1"
      else if horizon_ms < 1 then Error "horizon_ms < 1"
      else Ok ()
    in
    (* The environment must reconstruct: unknown phy names and
       parameters invalid for the source count fail here, not at
       replay time. *)
    let* phy_v = Request.phy_of_name phy in
    match Engine.create ~phy:phy_v ~num_sources:sources ~params with
    | Error e -> Error ("admit: " ^ e)
    | Ok _ ->
      Ok
        {
          an_phy = phy;
          an_sources = sources;
          an_params = params;
          an_horizon_ms = horizon_ms;
        }

  let cand_to_json c =
    [
      ("requests", Json.List (List.map Request.to_json c.ar_requests));
      ("trace_seed", Json.Int c.ar_trace_seed);
    ]

  let cand_of_json _ j =
    let* reqs = field "requests" Json.get_list j in
    let* requests =
      let rec go i acc = function
        | [] -> Ok (List.rev acc)
        | r :: tl -> (
          match Request.of_json r with
          | Ok req -> go (i + 1) (req :: acc) tl
          | Error e -> Error (Printf.sprintf "requests: %d: %s" i e))
      in
      go 0 [] reqs
    in
    let* trace = field "trace_seed" Json.get_int j in
    Ok { ar_requests = requests; ar_trace_seed = trace }

  let default_sampler = { ad_pool = 8; ad_requests = 64 }

  let sample s e ~seed i =
    {
      ar_requests =
        Generator.sample_churn ~seed ~index:i ~sources:e.an_sources
          ~pool:s.ad_pool ~requests:s.ad_requests;
      ar_trace_seed = trace_seed ~seed i;
    }

  (* The first class the run actually failed: completions that finished
     late, then outright drops, then messages still queued though their
     deadline fell inside the horizon — the same accounting order
     [Run.metrics] uses for [deadline_misses]. *)
  let first_missed_flow (outcome : Run.outcome) =
    let late =
      List.find_map
        (fun c ->
          if Run.missed c then Some c.Run.c_msg.Message.cls.Message.cls_name
          else None)
        outcome.Run.completions
    in
    let due m = Message.abs_deadline m <= outcome.Run.horizon in
    let first_due msgs =
      List.find_map
        (fun m -> if due m then Some m.Message.cls.Message.cls_name else None)
        msgs
    in
    match late with
    | Some f -> Some f
    | None -> (
      match first_due outcome.Run.dropped with
      | Some f -> Some f
      | None -> first_due outcome.Run.unfinished)

  let run e c =
    let crash msg = Candidate.failed (Oracle.Run_crash msg) in
    match
      let* phy = Request.phy_of_name e.an_phy in
      Engine.create ~phy ~num_sources:e.an_sources ~params:e.an_params
    with
    | Error err -> crash ("admission setup: " ^ err)
    | Ok eng -> (
      (* Decide the whole churn stream first; the decision lines are
         part of the fingerprint, so replay asserts the decisions
         themselves, not just the simulation outcome. *)
      let lines =
        List.mapi
          (fun seq req ->
            let decision = Engine.decide eng req in
            Journal.record_line
              { Journal.jr_seq = seq; jr_request = req; jr_decision = decision })
          c.ar_requests
      in
      let decisions = String.concat "\n" lines in
      let fingerprint_with suffix =
        Digest.to_hex (Digest.string ("admit:" ^ decisions ^ ":" ^ suffix))
      in
      if Engine.size eng = 0 then
        (* Nothing admitted, nothing to violate. *)
        { Candidate.rp_verdict = Oracle.Pass; rp_fingerprint = fingerprint_with "empty" }
      else
        match Engine.instance eng with
        | Error err -> crash ("admitted set not instantiable: " ^ err)
        | Ok inst ->
          let horizon = e.an_horizon_ms * 1_000_000 in
          let trace = Instance.trace inst ~seed:c.ar_trace_seed ~horizon in
          Candidate.simulate
            (fun () ->
              Ddcr.run_trace ~check_lockstep:true e.an_params inst trace ~horizon)
            (fun outcome ->
              let m = Run.metrics outcome in
              {
                Candidate.rp_verdict =
                  (if m.Run.deadline_misses = 0 then Oracle.Pass
                   else
                     Oracle.Admission_violation
                       {
                         flow = Option.value ~default:"?" (first_missed_flow outcome);
                         misses = m.Run.deadline_misses;
                       });
                rp_fingerprint =
                  fingerprint_with (Candidate.fingerprint_outcome outcome);
              }))

  let atoms c = c.ar_requests
  let of_atoms c requests = { c with ar_requests = requests }
  let refine _ c = c
  let size c = List.length c.ar_requests
  let label c = Printf.sprintf "%d request(s)" (size c)
  let unit = "request"
  let summary _ c = label c
end

(* -------------------- packing -------------------- *)

type ('e, 'c) t = (module S with type env = 'e and type cand = 'c)

type (_, _) kind =
  | Plain : (Plain.env, Plain.cand) kind
  | Topo : (Topo.env, Topo.cand) kind
  | Admit : (Admit.env, Admit.cand) kind

let of_kind : type e c. (e, c) kind -> (e, c) t = function
  | Plain -> (module Plain)
  | Topo -> (module Topo)
  | Admit -> (module Admit)
