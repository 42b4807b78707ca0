module Ddcr = Rtnet_core.Ddcr
module Ddcr_params = Rtnet_core.Ddcr_params
module Feasibility = Rtnet_core.Feasibility
module Scenarios = Rtnet_workload.Scenarios
module Instance = Rtnet_workload.Instance
module Message = Rtnet_workload.Message
module Arrival = Rtnet_workload.Arrival
module Channel = Rtnet_channel.Channel
module Phy = Rtnet_channel.Phy
module Run = Rtnet_stats.Run

let ms = 1_000_000

(* --- Automaton unit tests (hand-driven channel feedback) --- *)

let tiny_params =
  {
    Ddcr_params.time_m = 2;
    time_leaves = 8;
    class_width = 1000;
    alpha = 0;
    theta = 0;
    static_m = 2;
    static_leaves = 4;
    static_indices = [| [| 0 |]; [| 3 |] |];
    burst_bits = 0;
  }

let mk_msg ?(uid = 0) ~arrival ~deadline () =
  {
    Message.uid;
    cls =
      {
        Message.cls_id = 0;
        cls_name = "m";
        cls_source = 0;
        cls_bits = 1000;
        cls_deadline = deadline;
        cls_burst = 1;
        cls_window = 100_000;
      };
    arrival;
  }

let clash ?survivor contenders =
  Channel.Clash { contenders; survivor }

let test_automaton_free_phase () =
  let a = Ddcr.Automaton.create tiny_params ~source:0 in
  Alcotest.(check string) "starts free" "free" (Ddcr.Automaton.phase_name a);
  Alcotest.(check bool) "silent without msg" true
    (Ddcr.Automaton.decide a ~msg_star:None = None);
  let m = mk_msg ~arrival:0 ~deadline:5000 () in
  (match Ddcr.Automaton.decide a ~msg_star:(Some m) with
  | Some att ->
    Alcotest.(check int) "attempts own frame" 0 att.Channel.att_source;
    Alcotest.(check int) "tag is uid" 0 att.Channel.att_tag
  | None -> Alcotest.fail "expected attempt in free phase");
  (* Tx and Idle keep it free; a clash starts CSMA/DDCR. *)
  Ddcr.Automaton.observe a ~resolution:Channel.Idle ~next_free:512;
  Alcotest.(check string) "still free" "free" (Ddcr.Automaton.phase_name a);
  Ddcr.Automaton.observe a ~resolution:(clash [ (0, 0); (1, 1) ]) ~next_free:1024;
  Alcotest.(check string) "clash enters TTs" "tts" (Ddcr.Automaton.phase_name a)

let test_automaton_tts_walk () =
  let a = Ddcr.Automaton.create tiny_params ~source:0 in
  Ddcr.Automaton.observe a ~resolution:(clash [ (0, 0); (1, 1) ]) ~next_free:1000;
  (* reft = 1000; a message with DM in [1000, 9000) maps to the root
     interval. *)
  let m = mk_msg ~arrival:0 ~deadline:3000 () (* DM = 3000 -> idx 2 *) in
  (match Ddcr.Automaton.decide a ~msg_star:(Some m) with
  | Some _ -> ()
  | None -> Alcotest.fail "expected participation at root");
  (* Root clash: splits into [0,4) then [4,8). *)
  Ddcr.Automaton.observe a ~resolution:(clash [ (0, 0); (1, 1) ]) ~next_free:1512;
  Alcotest.(check bool) "fingerprint shows two intervals" true
    (Astring_contains.contains (Ddcr.Automaton.fingerprint a) "[0+4)[4+4)");
  (* A message with idx 6 must stay silent while [0,4) is probed. *)
  let far = mk_msg ~uid:1 ~arrival:0 ~deadline:7100 () (* idx 6 *) in
  Alcotest.(check bool) "outside top interval: silent" true
    (Ddcr.Automaton.decide a ~msg_star:(Some far) = None);
  (* Empty left subtree, then a transmission closes the right one. *)
  Ddcr.Automaton.observe a ~resolution:Channel.Idle ~next_free:2024;
  Alcotest.(check bool) "f* advanced past left subtree" true
    (Astring_contains.contains (Ddcr.Automaton.fingerprint a) "f*=3");
  Ddcr.Automaton.observe a
    ~resolution:(Channel.Tx { src = 1; tag = 9; on_wire = 1160 })
    ~next_free:3184;
  Alcotest.(check string) "TTs over -> attempt" "attempt"
    (Ddcr.Automaton.phase_name a);
  Alcotest.(check bool) "reft reset by in-tree tx" true
    (Astring_contains.contains (Ddcr.Automaton.fingerprint a) "reft=3184")

let test_automaton_sts_path () =
  let a = Ddcr.Automaton.create tiny_params ~source:1 in
  Ddcr.Automaton.observe a ~resolution:(clash [ (0, 0); (1, 1) ]) ~next_free:1000;
  (* Collide all the way down to time leaf 0. *)
  List.iter
    (fun nf ->
      Ddcr.Automaton.observe a ~resolution:(clash [ (0, 0); (1, 1) ]) ~next_free:nf)
    [ 1512; 2024; 2536 ];
  (* [0,1) leaf clash -> static search *)
  Ddcr.Automaton.observe a ~resolution:(clash [ (0, 0); (1, 1) ]) ~next_free:3048;
  Alcotest.(check string) "in STs" "sts" (Ddcr.Automaton.phase_name a);
  (* Source 1 owns static index 1: at the root static interval [0,4) it
     participates if its message is in class <= 0. *)
  let urgent = mk_msg ~uid:2 ~arrival:0 ~deadline:900 () (* idx <= 0 via f*+1 *) in
  (match Ddcr.Automaton.decide a ~msg_star:(Some urgent) with
  | Some _ -> ()
  | None -> Alcotest.fail "expected STs participation");
  (* Static root clash splits into [0,2) and [2,4). *)
  Ddcr.Automaton.observe a ~resolution:(clash [ (0, 0); (1, 2) ]) ~next_free:3560;
  (* Peer alone in [0,2): transmits, interval popped, STs continues. *)
  Ddcr.Automaton.observe a
    ~resolution:(Channel.Tx { src = 0; tag = 0; on_wire = 1160 })
    ~next_free:4720;
  Alcotest.(check string) "still sts" "sts" (Ddcr.Automaton.phase_name a);
  (* Our transmission closes [2,4): STs completes, back to TTs with the
     colliding time leaf popped and reft reset. *)
  Ddcr.Automaton.observe a
    ~resolution:(Channel.Tx { src = 1; tag = 2; on_wire = 1160 })
    ~next_free:5880;
  Alcotest.(check string) "back in tts" "tts" (Ddcr.Automaton.phase_name a);
  Alcotest.(check bool) "time leaf popped, f*=0" true
    (Astring_contains.contains (Ddcr.Automaton.fingerprint a) "f*=0");
  Alcotest.(check bool) "reft updated at STs completion" true
    (Astring_contains.contains (Ddcr.Automaton.fingerprint a) "reft=5880")

let test_automaton_static_leaf_collision_rejected () =
  let a = Ddcr.Automaton.create tiny_params ~source:0 in
  Ddcr.Automaton.observe a ~resolution:(clash [ (0, 0); (1, 1) ]) ~next_free:1000;
  List.iter
    (fun nf ->
      Ddcr.Automaton.observe a ~resolution:(clash [ (0, 0); (1, 1) ]) ~next_free:nf)
    [ 1512; 2024; 2536; 3048 ];
  (* Descend the static tree to a leaf under repeated clashes: [0,4)
     then [0,2) then leaf [0,1) — a clash there is impossible. *)
  Ddcr.Automaton.observe a ~resolution:(clash [ (0, 0); (1, 1) ]) ~next_free:3560;
  Ddcr.Automaton.observe a ~resolution:(clash [ (0, 0); (1, 1) ]) ~next_free:4072;
  Alcotest.check_raises "static leaf collision"
    (Ddcr.Protocol_violation
       "collision on a static tree leaf: static indices are not disjoint")
    (fun () ->
      Ddcr.Automaton.observe a ~resolution:(clash [ (0, 0); (1, 1) ])
        ~next_free:4584)

(* --- End-to-end runs --- *)

let test_scenarios_safe_and_feasible () =
  List.iter
    (fun (name, inst) ->
      let params = Ddcr_params.default inst in
      let o = Ddcr.run ~check_lockstep:true ~seed:11 params inst ~horizon:(20 * ms) in
      let m = Run.metrics o in
      if (Feasibility.check params inst).Feasibility.feasible then
        Alcotest.(check int) (name ^ ": no misses when FC holds") 0
          m.Run.deadline_misses)
    Scenarios.all

let test_conservation () =
  let inst = Scenarios.trading ~gateways:3 in
  let horizon = 10 * ms in
  let trace = Instance.trace inst ~seed:5 ~horizon in
  let params = Ddcr_params.default inst in
  let o = Ddcr.run_trace params inst trace ~horizon in
  Alcotest.(check int) "completions + unfinished = arrivals"
    (List.length trace)
    (List.length o.Run.completions + List.length o.Run.unfinished);
  Alcotest.(check int) "ddcr never drops" 0 (List.length o.Run.dropped)

let test_bound_domination_under_adversary () =
  (* The core validation: for FC-feasible instances, every observed
     per-class worst latency is below the implementation bound, even
     under the greedy peak-load adversary. *)
  let check_inst name inst seed =
    let params = Ddcr_params.default inst in
    let report = Feasibility.check params inst in
    Alcotest.(check bool) (name ^ " feasible") true report.Feasibility.feasible;
    let adv = Instance.with_law inst Arrival.Greedy_burst in
    let o = Ddcr.run ~seed params adv ~horizon:(30 * ms) in
    Alcotest.(check int) (name ^ " no misses") 0
      (Run.metrics o).Run.deadline_misses;
    List.iter
      (fun (cls_id, worst) ->
        let c =
          List.find
            (fun c -> c.Message.cls_id = cls_id)
            (Instance.classes adv)
        in
        let bound = Feasibility.latency_bound_impl params adv c in
        Alcotest.(check bool)
          (Printf.sprintf "%s class %d: %d <= %.0f" name cls_id worst bound)
          true
          (float_of_int worst <= bound))
      (Run.per_class_worst_latency o)
  in
  check_inst "videoconference" (Scenarios.videoconference ~stations:5) 3;
  check_inst "atc" (Scenarios.air_traffic_control ~radars:4) 4;
  check_inst "uniform-0.2"
    (Scenarios.uniform ~sources:6 ~classes_per_source:1 ~load:0.2
       ~deadline_windows:3.0)
    5

let test_infeasible_instance_misses_under_adversary () =
  (* Conversely the trading instance violates its FCs and the greedy
     adversary does produce deadline misses. *)
  let inst = Scenarios.trading ~gateways:4 in
  let params = Ddcr_params.default inst in
  Alcotest.(check bool) "FC fails" false
    (Feasibility.check params inst).Feasibility.feasible;
  let adv = Instance.with_law inst Arrival.Greedy_burst in
  let o = Ddcr.run ~seed:7 params adv ~horizon:(30 * ms) in
  Alcotest.(check bool) "misses occur" true
    ((Run.metrics o).Run.deadline_misses > 0)

let test_lockstep_across_seeds () =
  let inst = Scenarios.trading ~gateways:4 in
  let params = Ddcr_params.default inst in
  List.iter
    (fun seed -> ignore (Ddcr.run ~check_lockstep:true ~seed params inst ~horizon:(5 * ms)))
    [ 1; 2; 3; 42 ]

let test_deterministic_replay () =
  let inst = Scenarios.videoconference ~stations:4 in
  let params = Ddcr_params.default inst in
  let o1 = Ddcr.run ~seed:13 params inst ~horizon:(10 * ms) in
  let o2 = Ddcr.run ~seed:13 params inst ~horizon:(10 * ms) in
  let key o =
    List.map (fun c -> (c.Run.c_msg.Message.uid, c.Run.c_start)) o.Run.completions
  in
  Alcotest.(check (list (pair int int))) "identical" (key o1) (key o2)

let test_arbitration_medium () =
  let inst = Scenarios.atm_fabric ~ports:4 in
  let params = Ddcr_params.default inst in
  let o = Ddcr.run ~check_lockstep:true ~seed:2 params inst ~horizon:(2 * ms) in
  let m = Run.metrics o in
  Alcotest.(check bool) "delivers" true (m.Run.delivered > 100);
  Alcotest.(check int) "no misses" 0 m.Run.deadline_misses

let test_compressed_time_speeds_up_far_deadlines () =
  (* Two sources, one far-deadline message each, and a deliberately
     short scheduling horizon cF << d: with θ = 0 the channel cycles
     until the deadlines draw near; compressed time pulls them in. *)
  let phy = Phy.classic_ethernet in
  let mk_cls id src =
    {
      Message.cls_id = id;
      cls_name = "far" ^ string_of_int id;
      cls_source = src;
      cls_bits = 1000;
      cls_deadline = 1_000_000;
      cls_burst = 1;
      cls_window = 2_000_000;
    }
  in
  let inst =
    Instance.create_exn ~name:"far" ~phy ~num_sources:2
      [
        (mk_cls 0 0, Arrival.Periodic { offset = 0 });
        (mk_cls 1 1, Arrival.Periodic { offset = 0 });
      ]
  in
  let base =
    {
      Ddcr_params.time_m = 2;
      time_leaves = 8;
      class_width = 1000;
      alpha = 0;
      theta = 0;
      static_m = 2;
      static_leaves = 4;
      static_indices = [| [| 0 |]; [| 1 |] |];
      burst_bits = 0;
    }
  in
  let finish_of params =
    let o = Ddcr.run ~seed:1 params inst ~horizon:2_000_000 in
    match o.Run.completions with
    | c :: _ -> c.Run.c_finish
    | [] -> Alcotest.fail "nothing delivered"
  in
  let lazy_finish = finish_of base in
  let compressed_finish = finish_of (Ddcr_params.with_theta base 8000) in
  Alcotest.(check bool)
    (Printf.sprintf "compressed %d << lazy %d" compressed_finish lazy_finish)
    true
    (compressed_finish * 2 < lazy_finish)

let test_packet_bursting_rescues_small_frames () =
  (* Section 5: on Gigabit Ethernet, frames near the 4096-bit slot cost
     a full contention slot each; bursting amortizes the acquisition.
     The overloaded 6-gateway trading instance misses deadlines without
     bursting and stops missing with the 802.3z burst limit. *)
  let inst = Scenarios.trading ~gateways:6 in
  let horizon = 30 * ms in
  let trace = Instance.trace inst ~seed:3 ~horizon in
  let base = Ddcr_params.default inst in
  let plain = Run.metrics (Ddcr.run_trace base inst trace ~horizon) in
  let burst =
    Run.metrics
      (Ddcr.run_trace (Ddcr_params.with_burst base 65_536) inst trace ~horizon)
  in
  Alcotest.(check bool) "plain overloaded" true (plain.Run.deadline_misses > 0);
  Alcotest.(check int) "bursting rescues" 0 burst.Run.deadline_misses;
  Alcotest.(check bool) "fewer inversions too" true
    (burst.Run.inversions < plain.Run.inversions)

let test_bursting_preserves_safety_and_conservation () =
  let inst = Scenarios.trading ~gateways:4 in
  let horizon = 10 * ms in
  let trace = Instance.trace inst ~seed:5 ~horizon in
  let p = Ddcr_params.with_burst (Ddcr_params.default inst) 32_768 in
  (* run_trace verifies channel safety internally and raises on
     violation; lockstep is also checked. *)
  let o = Ddcr.run_trace ~check_lockstep:true p inst trace ~horizon in
  Alcotest.(check int) "conservation"
    (List.length trace)
    (List.length o.Run.completions + List.length o.Run.unfinished)

let test_runs_under_every_branching () =
  (* The automaton is branching-degree agnostic: all invariants hold
     under binary, ternary and octal trees. *)
  let inst = Scenarios.trading ~gateways:3 in
  let horizon = 8 * ms in
  let trace = Instance.trace inst ~seed:7 ~horizon in
  List.iter
    (fun m ->
      let params = Ddcr_params.default ~branching:m inst in
      let o = Ddcr.run_trace ~check_lockstep:true params inst trace ~horizon in
      Alcotest.(check int)
        (Printf.sprintf "conservation m=%d" m)
        (List.length trace)
        (List.length o.Run.completions + List.length o.Run.unfinished))
    [ 2; 3; 8 ]

let test_allocation_matters_on_skewed_load () =
  (* E17's behavioural claim: on a skewed workload, localising the
     heavy source's static indices (contiguous blocks) beats spreading
     them round-robin across the tree. *)
  let inst = Scenarios.skewed ~sources:8 ~heavy_fraction:0.7 in
  let horizon = 25 * ms in
  let trace = Instance.trace inst ~seed:4 ~horizon in
  let run alloc =
    Run.metrics
      (Ddcr.run_trace (Ddcr_params.default ~allocation:alloc inst) inst trace
         ~horizon)
  in
  let rr = run Ddcr_params.Round_robin in
  let contig = run Ddcr_params.Contiguous in
  Alcotest.(check bool)
    (Printf.sprintf "contiguous (%d) <= round robin (%d) misses"
       contig.Run.deadline_misses rr.Run.deadline_misses)
    true
    (contig.Run.deadline_misses <= rr.Run.deadline_misses);
  Alcotest.(check bool) "contiguous faster on average" true
    (contig.Run.mean_latency < rr.Run.mean_latency)

let test_edf_service_order_within_source () =
  (* A source's own messages complete in EDF order (LA ranks Q). *)
  let inst = Scenarios.trading ~gateways:2 in
  let params = Ddcr_params.default inst in
  let o = Ddcr.run ~seed:9 params inst ~horizon:(10 * ms) in
  let by_source = Hashtbl.create 4 in
  List.iter
    (fun c ->
      let src = c.Run.c_msg.Message.cls.Message.cls_source in
      let prev = try Hashtbl.find by_source src with Not_found -> [] in
      Hashtbl.replace by_source src (c :: prev))
    o.Run.completions;
  Hashtbl.iter
    (fun _src cs ->
      let cs = List.rev cs in
      let rec ok = function
        | a :: (b :: _ as rest) ->
          (* b must not have been pending with a strictly smaller DM
             when a started. *)
          (b.Run.c_msg.Message.arrival > a.Run.c_start
          || Message.compare_edf a.Run.c_msg b.Run.c_msg < 0)
          && ok rest
        | [ _ ] | [] -> true
      in
      Alcotest.(check bool) "per-source EDF order" true (ok cs))
    by_source

let resolved_slots (o : Run.outcome) =
  match o.Run.channel with
  | Some c ->
    c.Channel.idle_slots + c.Channel.collision_slots + c.Channel.tx_count
    + c.Channel.garbled_count
  | None -> 0

(* Replica work is counted, not timed: without a plan one group state is
   stepped per slot, whatever z; under a plan every stepped group is
   digested exactly once, and misperception splits groups only
   transiently. *)
let test_replica_work_per_slot () =
  let inst =
    Scenarios.uniform ~sources:48 ~classes_per_source:1 ~load:0.5
      ~deadline_windows:2.0
  in
  let params = Ddcr_params.default inst in
  let horizon = 5 * ms in
  let trace = Instance.trace inst ~seed:3 ~horizon in
  let counted ?plan () =
    let slots = ref 0 in
    let sink =
      Rtnet_telemetry.Sink.create
        ~slot:(fun ~now:_ ~next_free:_ ~resolution:_ -> incr slots)
        ()
    in
    let before = Ddcr.work () in
    let o = Ddcr.run_trace ?plan ~sink params inst trace ~horizon in
    let after = Ddcr.work () in
    ( o,
      !slots,
      after.Ddcr.observes - before.Ddcr.observes,
      after.Ddcr.fingerprints - before.Ddcr.fingerprints )
  in
  let o, slots, observes, fingerprints = counted () in
  Alcotest.(check int) "every slot resolved on the wire" (resolved_slots o)
    slots;
  Alcotest.(check int) "one observe per slot without a plan" slots observes;
  Alcotest.(check int) "no digests without a plan" 0 fingerprints;
  let plan =
    Rtnet_channel.Fault_plan.create ~horizon ~seed:5
      (Rtnet_channel.Fault_plan.compose
         (Rtnet_channel.Fault_plan.misperceive 0.01)
         (Rtnet_channel.Fault_plan.crash ~source:7 ~from_:ms ~until:(2 * ms)))
  in
  let o, slots, observes, fingerprints = counted ~plan () in
  Alcotest.(check bool) "misperception happened" true
    (match o.Run.faults with
    | Some f ->
      List.exists (fun sf -> sf.Run.sf_misperceived > 0) f.Run.f_per_source
    | None -> false);
  Alcotest.(check int) "one digest per stepped group" observes fingerprints;
  Alcotest.(check bool)
    (Printf.sprintf "groups split (%d group steps over %d slots)" observes
       slots)
    true (observes > slots);
  Alcotest.(check bool) "splits are transient" true (observes < 2 * slots)

(* A one-against-one divergence is a plurality tie, broken toward the
   lowest station id: when station 1 alone misreads a frame station 0
   sent outside free CSMA, station 1 is the one desynchronized. *)
let test_divergence_tie_goes_to_lowest_id () =
  let inst =
    Scenarios.uniform ~sources:2 ~classes_per_source:1 ~load:0.9
      ~deadline_windows:2.0
  in
  let params = Ddcr_params.default inst in
  let horizon = 5 * ms in
  let trace = Instance.trace inst ~seed:1 ~horizon in
  let events ?plan () =
    let record, finish = Rtnet_core.Ddcr_trace.collector () in
    ignore (Ddcr.run_trace ~check_lockstep:true ?plan ~on_event:record params
              inst trace ~horizon);
    finish ()
  in
  let misread =
    List.find_map
      (function
        | Rtnet_core.Ddcr_trace.Frame_sent
            { time; source = 0; via = Time_tree | Static_tree | Open_attempt; _ }
          ->
          Some time
        | _ -> None)
      (events ())
  in
  match misread with
  | None -> Alcotest.fail "no tree-search frame from station 0"
  | Some t ->
    let plan =
      Rtnet_channel.Fault_plan.create ~horizon ~seed:1
        (Rtnet_channel.Fault_plan.misperceive_at [ (1, t) ])
    in
    let desyncs =
      List.filter_map
        (function
          | Rtnet_core.Ddcr_trace.Desync { source; _ } -> Some source
          | _ -> None)
        (events ~plan ())
    in
    Alcotest.(check (list int)) "station 1 desynchronized" [ 1 ] desyncs

(* The ROADMAP target for grouped stepping: the marginal allocation per
   resolved slot must not grow with z.  Taking the difference between
   two horizons cancels the O(z) set-up. *)
let test_allocation_flat_in_z () =
  let marginal z =
    let inst =
      Scenarios.uniform ~sources:z ~classes_per_source:1 ~load:0.3
        ~deadline_windows:2.0
    in
    let params = Ddcr_params.default inst in
    let measure horizon =
      let trace = Instance.trace inst ~seed:1 ~horizon in
      let w0 = Gc.minor_words () in
      let o = Ddcr.run_trace params inst trace ~horizon in
      (Gc.minor_words () -. w0, resolved_slots o)
    in
    let w1, s1 = measure (10 * ms) and w2, s2 = measure (30 * ms) in
    (w2 -. w1) /. float_of_int (s2 - s1)
  in
  let narrow = marginal 16 and wide = marginal 1024 in
  Alcotest.(check bool)
    (Printf.sprintf "z=1024 %.0f words/slot <= 2 x z=16 %.0f" wide narrow)
    true
    (wide <= 2. *. narrow)

let suite =
  [
    ( "ddcr",
      [
        Alcotest.test_case "automaton free phase" `Quick test_automaton_free_phase;
        Alcotest.test_case "automaton tts walk" `Quick test_automaton_tts_walk;
        Alcotest.test_case "automaton sts path" `Quick test_automaton_sts_path;
        Alcotest.test_case "automaton static leaf rejected" `Quick
          test_automaton_static_leaf_collision_rejected;
        Alcotest.test_case "scenarios safe" `Slow test_scenarios_safe_and_feasible;
        Alcotest.test_case "conservation" `Quick test_conservation;
        Alcotest.test_case "bound domination" `Slow
          test_bound_domination_under_adversary;
        Alcotest.test_case "infeasible misses" `Slow
          test_infeasible_instance_misses_under_adversary;
        Alcotest.test_case "lockstep" `Slow test_lockstep_across_seeds;
        Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
        Alcotest.test_case "arbitration medium" `Quick test_arbitration_medium;
        Alcotest.test_case "compressed time" `Quick
          test_compressed_time_speeds_up_far_deadlines;
        Alcotest.test_case "packet bursting rescues" `Slow
          test_packet_bursting_rescues_small_frames;
        Alcotest.test_case "bursting safe" `Quick
          test_bursting_preserves_safety_and_conservation;
        Alcotest.test_case "every branching degree" `Quick
          test_runs_under_every_branching;
        Alcotest.test_case "allocation on skewed load" `Slow
          test_allocation_matters_on_skewed_load;
        Alcotest.test_case "per-source EDF order" `Quick
          test_edf_service_order_within_source;
        Alcotest.test_case "replica work per slot" `Quick
          test_replica_work_per_slot;
        Alcotest.test_case "allocation flat in z" `Quick
          test_allocation_flat_in_z;
        Alcotest.test_case "divergence tie goes to lowest id" `Quick
          test_divergence_tie_goes_to_lowest_id;
      ] );
  ]
