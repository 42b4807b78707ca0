(* rtnet.model: the explicit-state model checker.

   The load-bearing properties: the model's transition, which steps the
   simulator's own replica system ([Ddcr.Replicas]), agrees with the
   simulator on random walks through fault actions (same completions,
   queues and fault epochs); the simulator's grouped replica stepping
   agrees with the per-replica oracle on random instances and fault
   plans; exploration is deterministic and proves a small clean
   instance clean; the committed broken-parameters fixture yields a
   deadline-miss counterexample whose exported artifact replays
   through the real simulator to the same Oracle verdict and
   fingerprint; and trails fold into scheduled fault-plan atoms
   exactly. *)

module Ddcr = Rtnet_core.Ddcr
module Ddcr_params = Rtnet_core.Ddcr_params
module Message = Rtnet_workload.Message
module Instance = Rtnet_workload.Instance
module Fault_plan = Rtnet_channel.Fault_plan
module Prng = Rtnet_util.Prng
module Json = Rtnet_util.Json
module Spec = Rtnet_campaign.Spec
module Oracle = Rtnet_analysis.Oracle
module Candidate = Rtnet_chaos.Candidate
module Plain = Rtnet_chaos.Subject.Plain
module Repro = Rtnet_chaos.Repro
module Transition = Rtnet_model.Transition
module Explore = Rtnet_model.Explore
module Witness = Rtnet_model.Witness

(* ------------- differential: grouped run_trace vs per-replica oracle ------------- *)

module Scenarios = Rtnet_workload.Scenarios
module Ddcr_trace = Rtnet_core.Ddcr_trace

let random_instance rng =
  match Prng.int rng 3 with
  | 0 ->
    Scenarios.uniform
      ~sources:(2 + Prng.int rng 11)
      ~classes_per_source:(1 + Prng.int rng 2)
      ~load:(0.2 +. Prng.float rng 0.7)
      ~deadline_windows:(1. +. Prng.float rng 3.)
  | 1 -> Scenarios.atm_fabric ~ports:(2 + Prng.int rng 4)
  | _ -> Scenarios.trading ~gateways:(2 + Prng.int rng 3)

(* Misperception, optional wire noise, and either independent crash
   windows on a random subset of stations or one window taking every
   station down at once (the cold-restart path). *)
let random_plan rng ~z ~horizon =
  let window () =
    let from_ = Prng.int rng (horizon / 2) in
    (from_, from_ + 1 + Prng.int rng (horizon / 4))
  in
  let crashes =
    if Prng.bool rng then
      let from_, until = window () in
      List.init z (fun source -> Fault_plan.crash ~source ~from_ ~until)
    else
      List.filter_map
        (fun source ->
          if Prng.int rng 3 = 0 then
            let from_, until = window () in
            Some (Fault_plan.crash ~source ~from_ ~until)
          else None)
        (List.init z Fun.id)
  in
  let noise = if Prng.bool rng then Fault_plan.iid 0.05 else Fault_plan.none in
  List.fold_left Fault_plan.compose
    (Fault_plan.compose noise
       (Fault_plan.misperceive (0.001 +. Prng.float rng 0.05)))
    crashes

(* The same run twice — grouped stepping alone, then with the
   [check_lockstep] oracle stepping every replica the ungrouped way and
   asserting agreement each slot — must give the identical outcome and
   event stream. *)
let run_grouped_vs_oracle ~seed ~faulty ~burst =
  let rng = Prng.create seed in
  let inst = random_instance rng in
  let params =
    let p = Ddcr_params.default inst in
    if burst then Ddcr_params.with_burst p 16_384 else p
  in
  let horizon = 3_000_000 in
  let trace = Instance.trace inst ~seed ~horizon in
  let spec =
    if faulty then
      Some (random_plan rng ~z:inst.Instance.num_sources ~horizon)
    else None
  in
  let run ~check_lockstep =
    let plan =
      Option.map (Fault_plan.create ~horizon ~seed:(seed + 1)) spec
    in
    let record, finish = Ddcr_trace.collector () in
    let o =
      Ddcr.run_trace ~check_lockstep ~on_event:record ?plan params inst trace
        ~horizon
    in
    (o, finish ())
  in
  let grouped, grouped_events = run ~check_lockstep:false in
  let oracle, oracle_events = run ~check_lockstep:true in
  grouped = oracle && grouped_events = oracle_events

let prop_grouped_vs_oracle =
  QCheck.Test.make ~name:"grouped run_trace agrees with per-replica oracle"
    ~count:40
    QCheck.(triple (int_range 0 10_000) bool bool)
    (fun (seed, faulty, burst) -> run_grouped_vs_oracle ~seed ~faulty ~burst)

(* -------------------- exploration -------------------- *)

let uniform2 =
  { Spec.sc_kind = "uniform"; sc_size = 2; sc_load = 0.3;
    sc_deadline_windows = 2.0; sc_fanout = 1 }

let horizon = 1_000_000

let sys_of ?params scenario =
  let inst = Spec.instance scenario in
  let trace = Instance.trace inst ~seed:1 ~horizon in
  let params =
    match params with Some p -> p | None -> Ddcr_params.default inst
  in
  Transition.make ~params ~inst ~trace ~horizon

let explore ?(depth = 12) ?(budget = 1) ?(max_violations = 1) sys =
  Explore.run
    ~config:
      {
        Explore.c_depth = depth;
        c_budget = budget;
        c_max_states = 200_000;
        c_max_violations = max_violations;
      }
    sys ~budget

let test_clean_instance_proves_clean () =
  let out = explore (sys_of uniform2) in
  Alcotest.(check bool) "no violation" true (out.Explore.o_findings = []);
  Alcotest.(check bool) "not truncated" false out.Explore.o_truncated;
  Alcotest.(check bool) "explored beyond the fault-free path" true
    (out.Explore.o_explored > 12)

let test_exploration_deterministic () =
  let a = explore (sys_of uniform2) and b = explore (sys_of uniform2) in
  Alcotest.(check int) "explored count is reproducible"
    a.Explore.o_explored b.Explore.o_explored;
  Alcotest.(check int) "transition count is reproducible"
    a.Explore.o_transitions b.Explore.o_transitions

let test_budget_zero_is_linear () =
  (* Without faults there is exactly one schedule, so BFS degenerates
     to the single fault-free path: states = transitions + 1 root,
     one successor each. *)
  let out = explore ~budget:0 (sys_of uniform2) in
  Alcotest.(check int) "one successor per state"
    out.Explore.o_explored
    (out.Explore.o_transitions + 1)

let test_model_rejects_bursting () =
  let inst = Spec.instance uniform2 in
  let p = Ddcr_params.with_burst (Ddcr_params.default inst) 65536 in
  Alcotest.check_raises "bursting is outside the model"
    (Invalid_argument
       "Transition.make: packet bursting is outside the model (burst_bits \
        must be 0)")
    (fun () ->
      ignore (Transition.make ~params:p ~inst ~trace:[] ~horizon))

(* -------------------- the committed broken-ξ fixture -------------------- *)

let fixture name = Filename.concat "fixtures" name

let broken_params () =
  match Json.parse_file (fixture "model_params_broken.json") with
  | Error e -> Alcotest.fail e
  | Ok j -> (
    match Ddcr_params.of_json j with
    | Error e -> Alcotest.fail e
    | Ok p -> p)

let find_broken () =
  (* The fixture's tiny class width breaks the ξ class mapping: time
     indices land far beyond the F = 64 leaves, so fresh messages are
     shut out of time trees until reft creeps within c·F of their
     deadline — by which time the frame can only finish late.  The
     violation is reachable without any fault action. *)
  let out =
    explore ~depth:80 ~budget:0 (sys_of ~params:(broken_params ()) uniform2)
  in
  match out.Explore.o_findings with
  | [ f ] -> f
  | l -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length l))

let test_broken_params_found_fault_free () =
  let f = find_broken () in
  match f.Explore.f_violation with
  | Transition.Deadline_miss { uid; source; finish; deadline; _ } ->
    Alcotest.(check int) "first shut-out frame" 0 uid;
    Alcotest.(check int) "of source 0" 0 source;
    Alcotest.(check bool) "finished late" true (finish > deadline);
    Alcotest.(check bool) "trail is fault-free" true
      (List.for_all (fun (_, a) -> a = Transition.No_fault) f.Explore.f_trail)
  | v -> Alcotest.fail (Transition.describe_violation v)

let test_witness_round_trip () =
  let f = find_broken () in
  let src =
    {
      Witness.w_scenario = uniform2;
      w_horizon_ms = 1;
      w_params = Some (broken_params ());
      w_trace_seed = 1;
    }
  in
  let repro, report = Witness.export src f in
  (* The real simulator reproduces the model's verdict... *)
  (match report.Candidate.rp_verdict with
  | Oracle.Deadline_miss { first_uid; _ } ->
    Alcotest.(check int) "simulator misses the same first frame" 0 first_uid
  | v -> Alcotest.fail ("unexpected verdict: " ^ Oracle.describe v));
  Alcotest.(check bool) "note names the model invariant" true
    (Astring_contains.contains repro.Repro.re_note "model counterexample");
  (* ...and the frozen artifact replays to identical verdict and
     fingerprint, surviving a JSON round trip. *)
  let r = Repro.replay (module Plain) repro in
  Alcotest.(check bool) "replayed verdict matches" true r.Repro.rr_verdict_ok;
  Alcotest.(check bool) "replayed fingerprint matches" true
    r.Repro.rr_fingerprint_ok;
  match Repro.of_json (module Plain) (Repro.to_json (module Plain) repro) with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
    Alcotest.(check string) "codec round trip is the identity"
      (Json.to_string (Repro.to_json (module Plain) repro))
      (Json.to_string (Repro.to_json (module Plain) decoded))

let test_committed_artifact_replays () =
  (* The committed artifact (regenerated by the model-smoke dune rule,
     byte-diffed on drift) re-executes to its frozen expectations. *)
  match Repro.load (module Plain) ~path:(fixture "model_repro_min.json") with
  | Error e -> Alcotest.fail e
  | Ok repro ->
    Alcotest.(check bool) "carries a params override" true
      (repro.Repro.re_env.Plain.cf_params <> None);
    let r = Repro.replay (module Plain) repro in
    Alcotest.(check bool) "verdict matches" true r.Repro.rr_verdict_ok;
    Alcotest.(check bool) "fingerprint matches" true r.Repro.rr_fingerprint_ok

(* -------------------- trail folding -------------------- *)

let test_plan_of_trail () =
  let spec =
    Witness.plan_of_trail
      [
        (0, Transition.No_fault);
        (512, Transition.Garble);
        (1024, Transition.Misperceive 1);
        (1536, Transition.Crash 0);
        (2048, Transition.Revive 0);
        (2560, Transition.Crash 1);
        (3072, Transition.No_fault);
      ]
  in
  Alcotest.(check (list int)) "scheduled garbles" [ 512 ]
    spec.Fault_plan.sp_garbles_at;
  Alcotest.(check (list (pair int int))) "scheduled misperceptions"
    [ (1, 1024) ] spec.Fault_plan.sp_misperceive_at;
  let windows =
    List.map
      (fun c ->
        (c.Fault_plan.cw_source, c.Fault_plan.cw_from, c.Fault_plan.cw_until))
      spec.Fault_plan.sp_crashes
  in
  Alcotest.(check bool) "closed crash window" true
    (List.mem (0, 1536, 2048) windows);
  (* The unclosed crash is closed just past the last explored slot. *)
  Alcotest.(check bool) "open crash window closed at trail end" true
    (List.mem (1, 2560, 3073) windows);
  Alcotest.(check int) "nothing else" 2 (List.length windows)

(* -------------- differential: model step vs the simulator -------------- *)

module Edf_queue = Rtnet_edf.Edf_queue

let queued_uids nd =
  Array.to_list nd.Transition.queues
  |> List.concat_map (fun q ->
         List.map (fun m -> m.Message.uid) (Edf_queue.to_sorted_list q))

(* A random walk through the model: at each slot no fault with
   probability 3/4 (so faults spread along the trail), else one enabled
   action drawn uniformly from [Explore.actions_for], until [slots]
   slots are taken, the horizon is reached or no action steps cleanly.
   Returns the final node, the trail (root first) and the uids the walk
   completed, in completion order: what a step delivered or found
   queued and left unqueued. *)
let random_walk rng sys ~budget ~slots =
  let rec go nd rtrail rdone k =
    let stop () = (nd, List.rev rtrail, List.rev rdone) in
    if k = 0 || nd.Transition.time >= sys.Transition.horizon then stop ()
    else
      let steps =
        List.filter_map
          (fun a ->
            match Transition.step sys nd a with
            | Transition.Stepped nd' -> Some (a, nd')
            | Transition.Disabled | Transition.Violating _ -> None)
          (Explore.actions_for sys nd)
      in
      match steps with
      | [] -> stop ()
      | _ ->
        let a, nd' =
          match List.assoc_opt Transition.No_fault steps with
          | Some nd' when Prng.int rng 4 > 0 -> (Transition.No_fault, nd')
          | _ -> List.nth steps (Prng.int rng (List.length steps))
        in
        let delivered =
          List.init (nd'.Transition.arr - nd.Transition.arr) (fun i ->
              sys.Transition.arrivals.(nd.Transition.arr + i).Message.uid)
        in
        let left = queued_uids nd' in
        let finished =
          List.filter
            (fun u -> not (List.mem u left))
            (queued_uids nd @ delivered)
        in
        go nd'
          ((nd.Transition.time, a) :: rtrail)
          (List.rev_append finished rdone)
          (k - 1)
  in
  go { (Transition.init sys) with Transition.budget } [] [] slots

(* The trail, folded into scheduled fault-plan atoms, drives the real
   simulator up to the walk's final slot boundary: it must leave the
   same stations synced, complete the same frames in the same order,
   leave the same frames of each source queued or undelivered, and
   record the same fault epochs as the model's final node.  (Queued and
   undelivered frames are compared as one set per source: the simulator
   delivers the arrivals that fall inside a carried frame at the frame's
   end, the model at the next slot.) *)
let run_model_vs_simulator ~seed =
  let rng = Prng.create seed in
  let inst =
    if Prng.bool rng then Scenarios.atm_fabric ~ports:(2 + Prng.int rng 2)
    else
      Scenarios.uniform
        ~sources:(2 + Prng.int rng 2)
        ~classes_per_source:(1 + Prng.int rng 2)
        ~load:(0.2 +. Prng.float rng 0.7)
        ~deadline_windows:(1. +. Prng.float rng 3.)
  in
  let horizon = 1_000_000 in
  let trace = Instance.trace inst ~seed ~horizon in
  let params = Ddcr_params.default inst in
  let sys = Transition.make ~params ~inst ~trace ~horizon in
  let nd, trail, completed =
    random_walk rng sys ~budget:(Prng.int rng 3) ~slots:(1 + Prng.int rng 60)
  in
  let until = nd.Transition.time in
  let plan =
    Fault_plan.create ~horizon:until ~seed:0 (Witness.plan_of_trail trail)
  in
  (* Which stations the simulator left synced, from its fault events. *)
  let synced = Array.make inst.Instance.num_sources true in
  let on_event = function
    | Ddcr_trace.Crash { source; _ } | Ddcr_trace.Desync { source; _ } ->
      synced.(source) <- false
    | Ddcr_trace.Resync { source; _ } -> synced.(source) <- true
    | _ -> ()
  in
  let o = Ddcr.run_trace ~on_event ~plan params inst trace ~horizon:until in
  let label what = Printf.sprintf "%s (seed %d, t=%d)" what seed until in
  Alcotest.(check (array bool)) (label "synced stations")
    (Array.init inst.Instance.num_sources (Transition.synced nd))
    synced;
  Alcotest.(check (list int)) (label "completed uids") completed
    (List.map
       (fun c -> c.Rtnet_stats.Run.c_msg.Message.uid)
       o.Rtnet_stats.Run.completions);
  let by_source msgs s =
    List.filter (fun m -> m.Message.cls.Message.cls_source = s) msgs
    |> List.map (fun m -> m.Message.uid)
    |> List.sort compare
  in
  (* The model's trace runs past [until]; the simulator's stops there. *)
  let pending =
    Array.to_list sys.Transition.arrivals
    |> List.filteri (fun i m -> i >= nd.Transition.arr && m.Message.arrival < until)
  in
  Array.iteri
    (fun s q ->
      Alcotest.(check (list int))
        (label (Printf.sprintf "unfinished uids of source %d" s))
        (by_source (Edf_queue.to_sorted_list q @ pending) s)
        (by_source o.Rtnet_stats.Run.unfinished s))
    nd.Transition.queues;
  Alcotest.(check (list (pair int int))) (label "fault epochs")
    (Rtnet_mac.Harness.epoch_list nd.Transition.epochs)
    (match o.Rtnet_stats.Run.faults with
    | Some f -> f.Rtnet_stats.Run.f_epochs
    | None -> []);
  true

let prop_model_vs_simulator =
  QCheck.Test.make ~name:"model step agrees with the simulator" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed -> run_model_vs_simulator ~seed)

let suite =
  [
    ( "model",
      [
        QCheck_alcotest.to_alcotest prop_model_vs_simulator;
        Alcotest.test_case "clean instance proves clean" `Quick
          test_clean_instance_proves_clean;
        Alcotest.test_case "exploration is deterministic" `Quick
          test_exploration_deterministic;
        Alcotest.test_case "budget 0 degenerates to one path" `Quick
          test_budget_zero_is_linear;
        Alcotest.test_case "bursting rejected" `Quick
          test_model_rejects_bursting;
        Alcotest.test_case "broken ξ fixture violates fault-free" `Quick
          test_broken_params_found_fault_free;
        Alcotest.test_case "witness exports and replays" `Quick
          test_witness_round_trip;
        Alcotest.test_case "committed artifact replays" `Quick
          test_committed_artifact_replays;
        Alcotest.test_case "trail folds into scheduled atoms" `Quick
          test_plan_of_trail;
        QCheck_alcotest.to_alcotest prop_grouped_vs_oracle;
      ] );
  ]
