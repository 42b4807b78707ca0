module Harness = Rtnet_mac.Harness
module Channel = Rtnet_channel.Channel
module Phy = Rtnet_channel.Phy
module Fault_plan = Rtnet_channel.Fault_plan
module Message = Rtnet_workload.Message
module Run = Rtnet_stats.Run

let phy = Phy.classic_ethernet

let cls src =
  {
    Message.cls_id = src;
    cls_name = "c" ^ string_of_int src;
    cls_source = src;
    cls_bits = 1000;
    cls_deadline = 50_000;
    cls_burst = 1;
    cls_window = 50_000;
  }

let msg uid src arrival = { Message.uid; cls = cls src; arrival }

(* The simplest protocol: everyone with a message attempts every slot. *)
let aloha_decide services ~now:_ =
  List.filter_map
    (fun src ->
      Option.map
        (fun m ->
          {
            Channel.att_source = src;
            att_tag = m.Message.uid;
            att_bits = m.Message.cls.Message.cls_bits;
            att_key = (0, src);
          })
        (services.Harness.peek src))
    [ 0; 1 ]

let passthrough_after _services ~now:_ ~resolution:_ ~next_free = next_free

let test_single_source_drains () =
  let trace = [ msg 0 0 0; msg 1 0 0; msg 2 0 5_000 ] in
  let o =
    Harness.run ~protocol:"test-aloha" ~phy ~num_sources:2 ~horizon:50_000
      ~decide:aloha_decide ~after:passthrough_after trace
  in
  Alcotest.(check string) "label" "test-aloha" o.Run.protocol;
  Alcotest.(check int) "all delivered" 3 (List.length o.Run.completions);
  Alcotest.(check int) "nothing pending" 0 (List.length o.Run.unfinished);
  (* Frames are back-to-back: 1-persistent sender, 1160-bit frames. *)
  match o.Run.completions with
  | [ a; b; _ ] ->
    Alcotest.(check int) "first at 0" 0 a.Run.c_start;
    Alcotest.(check int) "second immediately after" 1160 b.Run.c_start
  | _ -> Alcotest.fail "expected three completions"

let test_two_sources_livelock_without_backoff () =
  (* Both sources always attempt: every slot collides, nothing is ever
     delivered — and the harness reports it all as unfinished. *)
  let trace = [ msg 0 0 0; msg 1 1 0 ] in
  let o =
    Harness.run ~protocol:"test-aloha" ~phy ~num_sources:2 ~horizon:20_000
      ~decide:aloha_decide ~after:passthrough_after trace
  in
  Alcotest.(check int) "nothing delivered" 0 (List.length o.Run.completions);
  Alcotest.(check int) "both unfinished" 2 (List.length o.Run.unfinished);
  match o.Run.channel with
  | Some st ->
    Alcotest.(check bool) "collisions all the way" true
      (st.Channel.collision_slots > 30)
  | None -> Alcotest.fail "expected stats"

let test_mismatch_detected () =
  (* A protocol that attempts a tag that is not the queue head. *)
  let bad_decide services ~now:_ =
    match services.Harness.peek 0 with
    | Some m ->
      [
        {
          Channel.att_source = 0;
          att_tag = m.Message.uid + 999;
          att_bits = 1000;
          att_key = (0, 0);
        };
      ]
    | None -> []
  in
  Alcotest.(check bool) "raises Mismatch" true
    (try
       ignore
         (Harness.run ~protocol:"bad" ~phy ~num_sources:1 ~horizon:10_000
            ~decide:bad_decide ~after:passthrough_after [ msg 0 0 0 ]);
       false
     with Harness.Mismatch _ -> true)

let test_mismatch_diagnostic_format () =
  (* The structured diagnostic carries slot, source and tag, and both
     the formatter and the installed Printexc printer render them. *)
  let m =
    {
      Harness.mm_slot = 4_640;
      mm_source = 2;
      mm_tag = 17;
      mm_reason = "queue head is uid 3";
    }
  in
  Alcotest.(check string) "message format"
    "slot at t=4640: source 2, tag 17: queue head is uid 3"
    (Harness.mismatch_message m);
  Alcotest.(check string) "printexc printer installed"
    ("Rtnet_mac.Harness.Mismatch: " ^ Harness.mismatch_message m)
    (Printexc.to_string (Harness.Mismatch m));
  (* And the harness raises with the offending coordinates filled in. *)
  let bad_decide services ~now:_ =
    match services.Harness.peek 0 with
    | Some m ->
      [
        {
          Channel.att_source = 0;
          att_tag = m.Message.uid + 999;
          att_bits = 1000;
          att_key = (0, 0);
        };
      ]
    | None -> []
  in
  match
    Harness.run ~protocol:"bad" ~phy ~num_sources:1 ~horizon:10_000
      ~decide:bad_decide ~after:passthrough_after [ msg 5 0 0 ]
  with
  | (_ : Rtnet_stats.Run.outcome) -> Alcotest.fail "expected Mismatch"
  | exception Harness.Mismatch m ->
    Alcotest.(check int) "source carried" 0 m.Harness.mm_source;
    Alcotest.(check int) "tag carried" (5 + 999) m.Harness.mm_tag

let test_drop_accounting () =
  (* A protocol that drops every message it sees instead of sending. *)
  let drop_decide services ~now:_ =
    (match services.Harness.pop 0 with
    | Some m -> services.Harness.drop m
    | None -> ());
    []
  in
  let trace = [ msg 0 0 0; msg 1 0 100 ] in
  let o =
    Harness.run ~protocol:"dropper" ~phy ~num_sources:1 ~horizon:10_000
      ~decide:drop_decide ~after:passthrough_after trace
  in
  Alcotest.(check int) "both dropped" 2 (List.length o.Run.dropped);
  Alcotest.(check int) "none delivered" 0 (List.length o.Run.completions);
  Alcotest.(check int) "all count as misses" 2
    (Run.metrics o).Run.deadline_misses

let test_arrivals_beyond_horizon_excluded () =
  let trace = [ msg 0 0 0; msg 1 0 999_999 ] in
  let o =
    Harness.run ~protocol:"test-aloha" ~phy ~num_sources:2 ~horizon:10_000
      ~decide:aloha_decide ~after:passthrough_after trace
  in
  Alcotest.(check int) "late arrival not reported" 1
    (List.length o.Run.completions + List.length o.Run.unfinished)

let test_after_may_extend_acquisition () =
  (* A bursting protocol: after each Tx it appends the next frame. *)
  let burst_after services ~now:_ ~resolution ~next_free =
    match resolution with
    | Channel.Tx { src; _ } -> (
      match services.Harness.pop src with
      | Some m ->
        let on_wire, free =
          Channel.burst services.Harness.channel ~src ~tag:m.Message.uid
            ~bits:m.Message.cls.Message.cls_bits
        in
        services.Harness.complete m ~start:(free - on_wire) ~finish:free;
        free
      | None -> next_free)
    | Channel.Idle | Channel.Garbled _ | Channel.Clash _ -> next_free
  in
  let trace = [ msg 0 0 0; msg 1 0 0 ] in
  let o =
    Harness.run ~protocol:"burster" ~phy ~num_sources:2 ~horizon:50_000
      ~decide:aloha_decide ~after:burst_after trace
  in
  Alcotest.(check int) "both delivered" 2 (List.length o.Run.completions);
  match o.Run.completions with
  | [ a; b ] ->
    Alcotest.(check int) "burst frame contiguous" a.Run.c_finish b.Run.c_start
  | _ -> Alcotest.fail "expected two completions"

let test_on_complete_sees_every_completion () =
  (* The federation ingest hook: called once per completion, in
     completion order, with the same (msg, start, finish) the outcome
     records. *)
  let seen = ref [] in
  let on_complete ~msg ~start ~finish =
    seen := (msg.Message.uid, start, finish) :: !seen
  in
  let trace = [ msg 0 0 0; msg 1 0 0; msg 2 0 5_000 ] in
  let o =
    Harness.run ~protocol:"test-aloha" ~on_complete ~phy ~num_sources:2
      ~horizon:50_000 ~decide:aloha_decide ~after:passthrough_after trace
  in
  Alcotest.(check (list (triple int int int)))
    "hook mirrors the outcome"
    (List.map
       (fun c -> (c.Run.c_msg.Message.uid, c.Run.c_start, c.Run.c_finish))
       o.Run.completions)
    (List.rev !seen)

let test_inject_merges_into_arrival_stream () =
  (* The federation inject hook: a message handed to the harness
     mid-run is EDF-queued at its arrival time and afterwards
     indistinguishable from a trace arrival. *)
  let injected = ref false in
  let inject ~now =
    if (not !injected) && now >= 10_000 then begin
      injected := true;
      [ msg 7 0 12_000 ]
    end
    else []
  in
  let trace = [ msg 0 0 0 ] in
  let o =
    Harness.run ~protocol:"test-aloha" ~inject ~phy ~num_sources:2
      ~horizon:50_000 ~decide:aloha_decide ~after:passthrough_after trace
  in
  Alcotest.(check int) "trace + injected delivered" 2
    (List.length o.Run.completions);
  match
    List.find_opt (fun c -> c.Run.c_msg.Message.uid = 7) o.Run.completions
  with
  | Some c ->
    Alcotest.(check bool) "served no earlier than its arrival" true
      (c.Run.c_start >= 12_000)
  | None -> Alcotest.fail "injected message not completed"

let test_inject_pending_counts_unfinished () =
  (* An injected message the protocol never manages to serve must be
     accounted exactly like a stranded trace arrival.  Two always-
     attempting aloha sources livelock, so both messages stay pending. *)
  let injected = ref false in
  let inject ~now:_ =
    if !injected then []
    else begin
      injected := true;
      [ msg 9 1 0 ]
    end
  in
  let o =
    Harness.run ~protocol:"test-aloha" ~inject ~phy ~num_sources:2
      ~horizon:20_000 ~decide:aloha_decide ~after:passthrough_after
      [ msg 0 0 0 ]
  in
  Alcotest.(check int) "nothing delivered" 0 (List.length o.Run.completions);
  Alcotest.(check int) "trace + injected pending" 2
    (List.length o.Run.unfinished)

let test_inject_while_all_crashed_accounted () =
  (* A federation hand-off arriving while every station of the segment
     is crashed must be queued and served after revival (or reported
     pending) — never silently lost.  Both stations are down during
     [0, 15000); the injected message arrives at 5000. *)
  let plan =
    Fault_plan.create ~seed:3
      (Fault_plan.merge
         [
           Fault_plan.crash ~source:0 ~from_:0 ~until:15_000;
           Fault_plan.crash ~source:1 ~from_:0 ~until:15_000;
         ])
  in
  let injected = ref false in
  let inject ~now =
    if (not !injected) && now >= 2_000 then begin
      injected := true;
      [ msg 7 0 5_000 ]
    end
    else []
  in
  let o =
    Harness.run ~protocol:"test-aloha" ~plan ~inject ~phy ~num_sources:2
      ~horizon:80_000 ~decide:aloha_decide ~after:passthrough_after []
  in
  (match
     List.find_opt (fun c -> c.Run.c_msg.Message.uid = 7) o.Run.completions
   with
  | Some c ->
    Alcotest.(check bool) "served only after the outage" true
      (c.Run.c_start >= 15_000)
  | None ->
    Alcotest.(check bool) "undelivered hand-off reported pending" true
      (List.exists (fun m -> m.Message.uid = 7) o.Run.unfinished));
  match o.Run.faults with
  | Some f ->
    Alcotest.(check int) "both outages on the record" 2
      (List.length
         (List.filter (fun sf -> sf.Run.sf_crashed_slots > 0) f.Run.f_per_source))
  | None -> Alcotest.fail "fault accounting missing under a plan"

let test_inject_unknown_source_rejected () =
  (* A malformed hand-off — a message whose class names a station the
     segment does not have — must be a structured failure, not an
     out-of-bounds write. *)
  let inject ~now = if now = 0 then [ msg 9 5 0 ] else [] in
  match
    Harness.run ~protocol:"test-aloha" ~inject ~phy ~num_sources:2
      ~horizon:10_000 ~decide:aloha_decide ~after:passthrough_after []
  with
  | exception Failure e ->
    Alcotest.(check bool) "diagnostic names the unknown source" true
      (Astring_contains.contains e "unknown source 5")
  | _ -> Alcotest.fail "expected a structured failure"

let test_backlog_tracks_nonempty_queues () =
  (* A recording stub: the lowest backlogged source transmits, and
     bursts one more frame after each carried one.  At every [decide]
     and after every burst, the exposed backlog must be exactly the
     sources with a non-empty queue, ascending. *)
  let sources = 4 in
  let checks = ref 0 and widest = ref 0 in
  let check services what =
    let expected =
      List.filter
        (fun s -> services.Harness.peek s <> None)
        (List.init sources Fun.id)
    in
    let got = ref [] in
    services.Harness.iter_backlog (fun s -> got := s :: !got);
    let got = List.rev !got in
    Alcotest.(check (list int)) what expected got;
    incr checks;
    widest := max !widest (List.length got)
  in
  let decide services ~now =
    check services (Printf.sprintf "backlog at decide, t=%d" now);
    let first = ref None in
    services.Harness.iter_backlog (fun s ->
        if !first = None then first := Some s);
    match !first with
    | Some src ->
      Option.to_list
        (Option.map
           (fun m ->
             {
               Channel.att_source = src;
               att_tag = m.Message.uid;
               att_bits = m.Message.cls.Message.cls_bits;
               att_key = (0, src);
             })
           (services.Harness.peek src))
    | None -> []
  in
  let after services ~now ~resolution ~next_free =
    let next_free =
      match resolution with
      | Channel.Tx { src; _ } -> (
        match services.Harness.pop src with
        | Some m ->
          let on_wire, free =
            Channel.burst services.Harness.channel ~src ~tag:m.Message.uid
              ~bits:m.Message.cls.Message.cls_bits
          in
          services.Harness.complete m ~start:(free - on_wire) ~finish:free;
          free
        | None -> next_free)
      | Channel.Idle | Channel.Garbled _ | Channel.Clash _ -> next_free
    in
    check services (Printf.sprintf "backlog after the burst, t=%d" now);
    next_free
  in
  let trace =
    [ msg 0 3 0; msg 1 1 0; msg 2 1 0; msg 3 2 0; msg 4 0 4_000;
      msg 5 3 4_000; msg 6 3 9_000 ]
  in
  let inject ~now =
    if now = 0 then [ msg 10 2 2_000; msg 11 0 2_000 ]
    else if now >= 6_000 && now < 7_200 then [ msg (20 + now) 1 now ]
    else []
  in
  let o =
    Harness.run ~protocol:"backlog-stub" ~inject ~phy ~num_sources:sources
      ~horizon:60_000 ~decide ~after trace
  in
  Alcotest.(check bool) "checked every slot" true (!checks > 20);
  Alcotest.(check bool) "several sources backlogged at once" true
    (!widest >= 3);
  Alcotest.(check int) "everything served" 0 (List.length o.Run.unfinished)

let suite =
  [
    ( "mac_harness",
      [
        Alcotest.test_case "single source drains" `Quick test_single_source_drains;
        Alcotest.test_case "livelock reported" `Quick
          test_two_sources_livelock_without_backoff;
        Alcotest.test_case "mismatch detected" `Quick test_mismatch_detected;
        Alcotest.test_case "mismatch diagnostic format" `Quick
          test_mismatch_diagnostic_format;
        Alcotest.test_case "drop accounting" `Quick test_drop_accounting;
        Alcotest.test_case "horizon exclusion" `Quick
          test_arrivals_beyond_horizon_excluded;
        Alcotest.test_case "burst extension" `Quick
          test_after_may_extend_acquisition;
        Alcotest.test_case "on_complete hook" `Quick
          test_on_complete_sees_every_completion;
        Alcotest.test_case "inject hook" `Quick
          test_inject_merges_into_arrival_stream;
        Alcotest.test_case "inject pending unfinished" `Quick
          test_inject_pending_counts_unfinished;
        Alcotest.test_case "inject while all crashed" `Quick
          test_inject_while_all_crashed_accounted;
        Alcotest.test_case "inject unknown source" `Quick
          test_inject_unknown_source_rejected;
        Alcotest.test_case "backlog tracks non-empty queues" `Quick
          test_backlog_tracks_nonempty_queues;
      ] );
  ]
