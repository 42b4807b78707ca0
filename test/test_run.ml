module Message = Rtnet_workload.Message
module Run = Rtnet_stats.Run
module Run_json = Rtnet_stats.Run_json
module Channel = Rtnet_channel.Channel

let cls id deadline =
  {
    Message.cls_id = id;
    cls_name = "c" ^ string_of_int id;
    cls_source = 0;
    cls_bits = 1000;
    cls_deadline = deadline;
    cls_burst = 1;
    cls_window = 10_000;
  }

let msg uid arrival deadline = { Message.uid; cls = cls uid deadline; arrival }

let completion uid arrival deadline start finish =
  { Run.c_msg = msg uid arrival deadline; c_start = start; c_finish = finish }

let outcome ?(unfinished = []) ?(dropped = []) ?(horizon = 100_000) completions =
  {
    Run.protocol = "test";
    completions;
    unfinished;
    dropped;
    horizon;
    channel = None;
    faults = None;
  }

let test_latency_lateness () =
  let c = completion 0 100 1000 (* DM 1100 *) 200 900 in
  Alcotest.(check int) "latency" 800 (Run.latency c);
  Alcotest.(check int) "lateness" (-200) (Run.lateness c);
  Alcotest.(check bool) "on time" false (Run.missed c);
  let late = completion 1 0 500 600 1200 in
  Alcotest.(check bool) "late" true (Run.missed late)

let test_metrics_accounting () =
  let o =
    outcome
      ~unfinished:[ msg 10 0 500 (* due before horizon: a miss *) ]
      ~dropped:[ msg 11 0 500 ]
      [ completion 0 0 10_000 0 1000; completion 1 0 500 600 1200 (* late *) ]
  in
  let m = Run.metrics o in
  Alcotest.(check int) "delivered" 2 m.Run.delivered;
  Alcotest.(check int) "misses = late + dropped + due-unfinished" 3
    m.Run.deadline_misses;
  Alcotest.(check int) "worst latency" 1200 m.Run.worst_latency;
  Alcotest.(check (float 1e-9)) "miss ratio" 0.75 m.Run.miss_ratio

let test_unfinished_beyond_horizon_not_missed () =
  let o =
    outcome ~horizon:1000
      ~unfinished:[ msg 5 900 5000 (* DM 5900 > horizon *) ]
      [ completion 0 0 10_000 0 500 ]
  in
  Alcotest.(check int) "no miss" 0 (Run.metrics o).Run.deadline_misses

let test_inversions () =
  (* b (DM 500) was pending when a (DM 9000) started: one inversion. *)
  let a = completion 0 0 9_000 100 300 in
  let b = completion 1 50 500 300 400 in
  Alcotest.(check int) "one inversion" 1 (Run.inversions [ a; b ]);
  (* EDF-consistent order: none. *)
  let c = completion 2 0 400 0 100 in
  Alcotest.(check int) "none when EDF" 0 (Run.inversions [ c; a ]);
  (* b arrived after a started: not an inversion. *)
  let late_b = completion 3 200 500 300 400 in
  Alcotest.(check int) "arrival after start" 0 (Run.inversions [ a; late_b ])

let test_per_class_worst () =
  let o =
    outcome
      [
        completion 0 0 10_000 0 500;
        completion 1 0 10_000 0 900;
        completion 2 0 10_000 0 100;
      ]
  in
  (* all three share cls ids 0,1,2 distinct -> three entries *)
  Alcotest.(check int) "three classes" 3
    (List.length (Run.per_class_worst_latency o))

let test_empty_outcome () =
  let m = Run.metrics (outcome []) in
  Alcotest.(check int) "nothing delivered" 0 m.Run.delivered;
  Alcotest.(check (float 1e-9)) "ratio 0" 0. m.Run.miss_ratio

let channel_stats =
  {
    Channel.idle_slots = 3;
    collision_slots = 2;
    tx_count = 9;
    garbled_count = 4;
    busy_bits = 11_000;
    total_bits = 40_000;
  }

let test_garbled_surfaced () =
  (* The channel's noise counter must flow into the metrics record so
     fault campaigns can gate on it. *)
  let o =
    { (outcome [ completion 0 0 10_000 0 1000 ]) with
      channel = Some channel_stats }
  in
  Alcotest.(check int) "garbled from channel" 4 (Run.metrics o).Run.garbled;
  Alcotest.(check int) "zero without channel" 0
    (Run.metrics (outcome [])).Run.garbled

let test_metrics_json_roundtrip () =
  let o =
    { (outcome
         ~unfinished:[ msg 10 0 500 ]
         ~dropped:[ msg 11 0 500 ]
         [ completion 0 0 10_000 0 1000; completion 1 0 500 600 1200 ])
      with channel = Some channel_stats }
  in
  let m = Run.metrics o in
  (match Run_json.metrics_of_json (Run_json.metrics_to_json m) with
  | Error e -> Alcotest.fail e
  | Ok m' ->
    Alcotest.(check bool) "metrics round-trip exactly" true (m = m'));
  match Run_json.channel_stats_of_json (Run_json.channel_stats_to_json channel_stats)
  with
  | Error e -> Alcotest.fail e
  | Ok st -> Alcotest.(check bool) "channel stats round-trip" true
               (st = channel_stats)

let test_outcome_json_shape () =
  let module Json = Rtnet_util.Json in
  let o =
    { (outcome ~unfinished:[ msg 10 0 500 ] [ completion 0 0 10_000 0 1000 ])
      with channel = Some channel_stats }
  in
  let j = Run_json.outcome_to_json o in
  let get k = match Json.member k j with Some v -> v | None ->
    Alcotest.fail ("missing " ^ k)
  in
  Alcotest.(check string) "protocol" "test"
    (Result.get_ok (Json.get_string (get "protocol")));
  Alcotest.(check int) "one completion" 1
    (List.length (Result.get_ok (Json.get_list (get "completions"))));
  Alcotest.(check int) "one unfinished" 1
    (List.length (Result.get_ok (Json.get_list (get "unfinished"))));
  Alcotest.(check bool) "metrics embedded" true (Json.member "metrics" j <> None)

(* -------------- inversions: fast count vs the quadratic reference -------------- *)

(* The definition of Run.inversions as a pair scan in list order: the
   reference the fast count must agree with. *)
let reference_inversions cs =
  let arr = Array.of_list cs in
  let n = Array.length arr in
  let count = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = arr.(i) and b = arr.(j) in
      if
        b.Run.c_msg.Message.arrival <= a.Run.c_start
        && Message.abs_deadline a.Run.c_msg > Message.abs_deadline b.Run.c_msg
      then incr count
    done
  done;
  !count

(* On real outcomes, which must have some inversions to be a test. *)
let check_against_reference label cs =
  let expected = reference_inversions cs in
  Alcotest.(check bool) (label ^ " has inversions") true (expected > 0);
  Alcotest.(check int) label expected (Run.inversions cs)

(* Small ranges make equal arrivals, arrival = start and equal
   deadlines frequent; starts and finishes are unrelated to list order. *)
let gen_completions =
  QCheck.Gen.(
    map
      (List.mapi (fun uid (arrival, deadline, start, finish) ->
           completion uid arrival deadline start finish))
      (list_size (int_range 0 200)
         (quad (int_range 0 15) (int_range 0 6) (int_range 0 15)
            (int_range 0 15))))

let print_completions cs =
  String.concat "; "
    (List.map
       (fun c ->
         Printf.sprintf "(T=%d DM=%d s=%d f=%d)" c.Run.c_msg.Message.arrival
           (Message.abs_deadline c.Run.c_msg) c.Run.c_start c.Run.c_finish)
       cs)

let prop_inversions_match_reference =
  QCheck.Test.make ~name:"inversions agree with the pair scan" ~count:1000
    (QCheck.make ~print:print_completions gen_completions)
    (fun cs -> Run.inversions cs = reference_inversions cs)

let prop_merged_inversions_match_reference =
  QCheck.Test.make ~name:"inversions of a merge agree with the pair scan"
    ~count:300
    (QCheck.make
       ~print:(fun css -> String.concat " | " (List.map print_completions css))
       QCheck.Gen.(int_range 2 3 >>= fun k -> list_repeat k gen_completions))
    (fun css ->
      let merged =
        Run.merge ~protocol:"m" ~horizon:100 (List.map (fun cs -> outcome cs) css)
      in
      Run.inversions merged.Run.completions
      = reference_inversions merged.Run.completions)

let test_inversions_dense_trace () =
  let module Scenarios = Rtnet_workload.Scenarios in
  let module Instance = Rtnet_workload.Instance in
  let module Arrival = Rtnet_workload.Arrival in
  let module Ddcr = Rtnet_core.Ddcr in
  let inst =
    Instance.with_law
      (Scenarios.uniform ~sources:16 ~classes_per_source:1 ~load:0.7
         ~deadline_windows:4.)
      (Arrival.Sporadic { mean_slack = 0.1 })
  in
  let horizon = 50_000_000 in
  let trace = Instance.trace inst ~seed:1 ~horizon in
  let o =
    Ddcr.run_trace (Rtnet_core.Ddcr_params.default inst) inst trace ~horizon
  in
  check_against_reference "dense run_trace" o.Run.completions

let test_inversions_topology_merge () =
  let module Topo = Rtnet_topology.Topo in
  let module Admit = Rtnet_topology.Admit in
  let module Driver = Rtnet_topology.Driver in
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  let e = ok (Admit.elaborate (ok (Topo.load_file "fixtures/topo_good.json"))) in
  let res = ok (Driver.run_seeded e ~seed:1 ~horizon:50_000_000) in
  let cs = res.Driver.r_outcome.Run.completions in
  check_against_reference "merged topology outcome" cs

(* Closed forms at n = 2e5, where the pair scan would make 2e10
   comparisons.  All arrivals 0 and deadlines falling along the list: every
   pair is an inversion.  Blocks of [b] equal deadlines, falling from
   block to block, each block arriving exactly when the previous one
   starts: only adjacent blocks invert, and only through the equality
   [arrival = start]. *)
let test_inversions_closed_forms () =
  let n = 200_000 in
  Alcotest.(check int) "decreasing deadlines: n(n-1)/2"
    (n * (n - 1) / 2)
    (Run.inversions (List.init n (fun i -> completion i 0 (n - i) 0 1)));
  let b = 1_000 in
  let blocks = n / b in
  let block_member i =
    let t = i / b in
    let arrival = 10 * max 0 (t - 1) in
    completion i arrival (1_000_000 - t - arrival) (10 * t) (10 * t)
  in
  Alcotest.(check int) "blocks: (blocks-1) b^2"
    ((blocks - 1) * b * b)
    (Run.inversions (List.init n block_member))

let suite =
  [
    ( "run",
      [
        Alcotest.test_case "latency/lateness" `Quick test_latency_lateness;
        Alcotest.test_case "metrics accounting" `Quick test_metrics_accounting;
        Alcotest.test_case "horizon exemption" `Quick
          test_unfinished_beyond_horizon_not_missed;
        Alcotest.test_case "inversions" `Quick test_inversions;
        Alcotest.test_case "per-class worst" `Quick test_per_class_worst;
        Alcotest.test_case "empty outcome" `Quick test_empty_outcome;
        Alcotest.test_case "garbled surfaced" `Quick test_garbled_surfaced;
        Alcotest.test_case "metrics json round-trip" `Quick
          test_metrics_json_roundtrip;
        Alcotest.test_case "outcome json shape" `Quick test_outcome_json_shape;
        QCheck_alcotest.to_alcotest prop_inversions_match_reference;
        QCheck_alcotest.to_alcotest prop_merged_inversions_match_reference;
        Alcotest.test_case "inversions on a dense trace" `Quick
          test_inversions_dense_trace;
        Alcotest.test_case "inversions on a topology merge" `Slow
          test_inversions_topology_merge;
        Alcotest.test_case "inversions closed forms at scale" `Quick
          test_inversions_closed_forms;
      ] );
  ]
