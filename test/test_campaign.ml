(* rtnet.campaign: spec codec, grid seeding, worker pool, checkpoint
   resume, report determinism and the regression gate.

   The load-bearing property throughout is determinism: a campaign's
   report (minus wall-clock timing fields) must be a pure function of
   its spec — independent of worker count and of interrupt/resume
   splits. *)

module Json = Rtnet_util.Json
module Spec = Rtnet_campaign.Spec
module Seeding = Rtnet_campaign.Seeding
module Grid = Rtnet_campaign.Grid
module Pool = Rtnet_campaign.Pool
module Checkpoint = Rtnet_campaign.Checkpoint
module Report = Rtnet_campaign.Report
module Runner = Rtnet_campaign.Runner

let tiny =
  {
    Spec.name = "tiny";
    base_seed = 3;
    replicates = 2;
    horizon_ms = 1;
    protocols = [ Spec.Ddcr; Spec.Tdma ];
    scenarios =
      [
        { Spec.sc_kind = "trading"; sc_size = 3; sc_load = 0.3;
          sc_deadline_windows = 2.0; sc_fanout = 1 };
      ];
    variants = [ Spec.default_variant ];
  }

module Fault_plan = Rtnet_channel.Fault_plan

let planned p = { Spec.default_variant with Spec.v_fault_plan = Some p }

(* A fault-plan campaign small enough for determinism tests: one
   protocol, one scenario, clean + wire-noise + crash variants. *)
let faulty =
  let ms = 1_000_000 in
  {
    tiny with
    Spec.name = "faulty";
    protocols = [ Spec.Ddcr ];
    variants =
      [
        Spec.default_variant;
        planned (Fault_plan.iid 0.1);
        planned (Fault_plan.crash ~source:1 ~from_:(ms / 4) ~until:(ms / 2));
      ];
  }

let overloaded =
  {
    tiny with
    Spec.name = "hot";
    protocols = [ Spec.Ddcr ];
    scenarios =
      [
        { Spec.sc_kind = "uniform"; sc_size = 8; sc_load = 5.0;
          sc_deadline_windows = 2.0; sc_fanout = 1 };
      ];
  }

let with_tmp_dir f =
  let dir = Filename.temp_file "rtnet_campaign" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> Sys.remove (Filename.concat dir name))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let run_exn ?(jobs = 1) ?journal ?(resume = false) ?max_cells spec ~out =
  let options =
    {
      (Runner.default_options ~out) with
      Runner.jobs;
      journal;
      resume;
      max_cells;
    }
  in
  match Runner.run options spec with
  | Ok outcome -> outcome
  | Error e -> Alcotest.fail (Format.asprintf "%a" Runner.pp_error e)

let complete_exn ?jobs ?journal ?resume ?max_cells spec ~out =
  match run_exn ?jobs ?journal ?resume ?max_cells spec ~out with
  | Runner.Complete report -> report
  | Runner.Interrupted _ -> Alcotest.fail "unexpected interruption"

(* -------------------- spec -------------------- *)

let test_spec_roundtrip () =
  List.iter
    (fun (name, spec) ->
      match Spec.of_json (Spec.to_json spec) with
      | Error e -> Alcotest.fail (name ^ ": " ^ e)
      | Ok spec' ->
        Alcotest.(check bool) (name ^ " round-trips") true (spec = spec');
        Alcotest.(check string)
          (name ^ " hash stable")
          (Spec.hash spec) (Spec.hash spec'))
    Spec.builtins

let test_spec_validate () =
  let expect_error what spec =
    match Spec.validate spec with
    | Error _ -> ()
    | Ok () -> Alcotest.fail ("validate accepted " ^ what)
  in
  Alcotest.(check bool) "builtins validate" true
    (List.for_all
       (fun (_, s) -> Spec.validate s = Ok ())
       Spec.builtins);
  expect_error "empty protocols" { tiny with Spec.protocols = [] };
  expect_error "zero replicates" { tiny with Spec.replicates = 0 };
  expect_error "duplicate protocol"
    { tiny with Spec.protocols = [ Spec.Ddcr; Spec.Ddcr ] };
  expect_error "bad fault rate"
    { tiny with
      Spec.variants = [ { Spec.default_variant with v_fault_rate = 1.5 } ] };
  expect_error "unknown kind"
    { tiny with
      Spec.scenarios =
        [ { Spec.sc_kind = "nope"; sc_size = 2; sc_load = 0.3;
            sc_deadline_windows = 2.0; sc_fanout = 1 } ] }

let test_spec_load_file () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "spec.json" in
      Json.to_file path (Spec.to_json tiny);
      (match Spec.load_file path with
      | Ok s -> Alcotest.(check bool) "file round-trip" true (s = tiny)
      | Error e -> Alcotest.fail e);
      (* Optional fields default. *)
      let oc = open_out path in
      output_string oc
        {|{"name":"mini","protocols":["tdma"],
           "scenarios":[{"kind":"trading","size":3}]}|};
      close_out oc;
      match Spec.load_file path with
      | Error e -> Alcotest.fail e
      | Ok s ->
        Alcotest.(check int) "default replicates" 1 s.Spec.replicates;
        Alcotest.(check bool) "default variant" true
          (s.Spec.variants = [ Spec.default_variant ]))

let test_fault_plan_spec_validate () =
  let expect_error what spec =
    match Spec.validate spec with
    | Error _ -> ()
    | Ok () -> Alcotest.fail ("validate accepted " ^ what)
  in
  Alcotest.(check bool) "faulty validates" true (Spec.validate faulty = Ok ());
  expect_error "fault rate and fault plan together"
    {
      faulty with
      Spec.variants =
        [
          {
            Spec.default_variant with
            v_fault_rate = 0.1;
            v_fault_plan = Some (Fault_plan.iid 0.1);
          };
        ];
    };
  expect_error "local faults under a protocol without replicated state"
    { faulty with Spec.protocols = [ Spec.Ddcr; Spec.Tdma ] };
  expect_error "invalid plan parameters"
    { faulty with Spec.variants = [ planned (Fault_plan.iid 1.5) ] };
  expect_error "crash window beyond the horizon"
    {
      faulty with
      Spec.variants =
        [
          planned
            (Fault_plan.crash ~source:1 ~from_:0 ~until:(10 * 1_000_000));
        ];
    };
  (* Wire-only plans are protocol-agnostic: Beb is allowed alongside. *)
  Alcotest.(check bool) "wire faults allow beb" true
    (Spec.validate
       {
         faulty with
         Spec.protocols = [ Spec.Ddcr; Spec.Beb ];
         variants = [ planned (Fault_plan.iid 0.1) ];
       }
    = Ok ());
  (* Variant labels name the plan, so cell keys stay unique. *)
  let labels = List.map Spec.variant_label faulty.Spec.variants in
  Alcotest.(check int) "labels unique" (List.length labels)
    (List.length (List.sort_uniq compare labels))

(* -------------------- grid & seeding -------------------- *)

let test_grid_cells () =
  let cells = Grid.cells tiny in
  Alcotest.(check int) "cell count" (Spec.cell_count tiny)
    (Array.length cells);
  Array.iteri
    (fun i c -> Alcotest.(check int) "dense indices" i c.Grid.index)
    cells;
  let keys = Array.to_list (Array.map Grid.key cells) in
  Alcotest.(check int) "keys unique"
    (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_trace_seed_protocol_blind () =
  (* Protocols compare on identical traces: the trace seed must not
     depend on the protocol coordinate, while the protocol seed must. *)
  let cells = Array.to_list (Grid.cells tiny) in
  let ddcr = List.filter (fun c -> c.Grid.protocol = Spec.Ddcr) cells in
  let tdma = List.filter (fun c -> c.Grid.protocol = Spec.Tdma) cells in
  List.iter2
    (fun a b ->
      Alcotest.(check int) "same trace seed" a.Grid.trace_seed
        b.Grid.trace_seed;
      Alcotest.(check bool) "distinct protocol seed" true
        (a.Grid.protocol_seed <> b.Grid.protocol_seed))
    ddcr tdma;
  (* Replicates draw distinct traces. *)
  match ddcr with
  | r0 :: r1 :: _ ->
    Alcotest.(check bool) "replicates differ" true
      (r0.Grid.trace_seed <> r1.Grid.trace_seed)
  | _ -> Alcotest.fail "expected two ddcr replicates"

let test_seeding_domains_separated () =
  let t = Seeding.trace_seed ~base:5 ~scenario:0 ~variant:0 ~replicate:0 in
  let p =
    Seeding.protocol_seed ~base:5 ~scenario:0 ~variant:0 ~replicate:0
      ~protocol:0
  in
  let f = Seeding.fault_seed ~base:5 ~scenario:0 ~variant:0 ~replicate:0 in
  Alcotest.(check bool) "trace and protocol domains disjoint" true (t <> p);
  Alcotest.(check bool) "fault domain disjoint" true (f <> t && f <> p)

let test_fault_seed_protocol_blind () =
  (* Every protocol must face the same fault sample path, so the fault
     seed — like the trace seed — ignores the protocol coordinate. *)
  let spec =
    {
      faulty with
      Spec.name = "wire";
      protocols = [ Spec.Ddcr; Spec.Beb ];
      variants = [ planned (Fault_plan.iid 0.1) ];
    }
  in
  let cells = Array.to_list (Grid.cells spec) in
  let ddcr = List.filter (fun c -> c.Grid.protocol = Spec.Ddcr) cells in
  let beb = List.filter (fun c -> c.Grid.protocol = Spec.Beb) cells in
  List.iter2
    (fun a b ->
      Alcotest.(check int) "same fault seed" a.Grid.fault_seed
        b.Grid.fault_seed)
    ddcr beb;
  match ddcr with
  | r0 :: r1 :: _ ->
    Alcotest.(check bool) "replicates draw distinct fault paths" true
      (r0.Grid.fault_seed <> r1.Grid.fault_seed)
  | _ -> Alcotest.fail "expected two ddcr replicates"

(* -------------------- pool -------------------- *)

let collect_events ~jobs ?max_results f tasks =
  let events = ref [] in
  let n =
    Pool.map ~jobs ?max_results ~on_event:(fun e -> events := e :: !events) f
      tasks
  in
  (n, List.rev !events)

let test_pool_matches_serial () =
  let tasks = Array.init 23 (fun i -> i) in
  let f x = x * x in
  let normalize evs =
    List.sort compare
      (List.map
         (function
           | Pool.Result (i, _, v) -> (i, v)
           | Pool.Failed (i, _, msg) -> Alcotest.fail (Printf.sprintf "task %d: %s" i msg))
         evs)
  in
  let n1, e1 = collect_events ~jobs:1 f tasks in
  let n3, e3 = collect_events ~jobs:3 f tasks in
  Alcotest.(check int) "serial count" 23 n1;
  Alcotest.(check int) "parallel count" 23 n3;
  Alcotest.(check bool) "same result set" true (normalize e1 = normalize e3);
  Alcotest.(check bool) "results correct" true
    (List.for_all (fun (i, v) -> v = i * i) (normalize e1))

let test_pool_task_exception_reported () =
  let tasks = Array.init 5 (fun i -> i) in
  let f x = if x = 2 then failwith "boom" else x in
  let n, events = collect_events ~jobs:2 f tasks in
  Alcotest.(check int) "every task produced an event" 5 n;
  let failed =
    List.filter_map
      (function
        | Pool.Failed (i, _, msg) -> Some (i, msg)
        | Pool.Result _ -> None)
      events
  in
  match failed with
  | [ (2, msg) ] ->
    Alcotest.(check bool) "exception text carried" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "expected exactly task 2 to fail"

let test_pool_max_results_stops_early () =
  let tasks = Array.init 50 (fun i -> i) in
  let n, events = collect_events ~jobs:1 ~max_results:7 Fun.id tasks in
  Alcotest.(check int) "stopped at cap" 7 n;
  (* jobs=1 makes the surviving prefix deterministic: tasks 0..6. *)
  Alcotest.(check (list int)) "deterministic prefix"
    [ 0; 1; 2; 3; 4; 5; 6 ]
    (List.map
       (function Pool.Result (i, _, _) -> i | Pool.Failed _ -> -1)
       events)

let test_pool_empty_and_bad_jobs () =
  let n, events = collect_events ~jobs:4 Fun.id [||] in
  Alcotest.(check int) "empty task array" 0 n;
  Alcotest.(check int) "no events" 0 (List.length events);
  Alcotest.check_raises "jobs < 1" (Invalid_argument "Pool.map: jobs < 1")
    (fun () -> ignore (Pool.map ~jobs:0 ~on_event:ignore Fun.id [| 1 |]))

let test_pool_worker_crash_retried () =
  (* A worker killed mid-task must not sink the run: its undelivered
     tasks are reported via [on_retry] and re-run on a spare worker.
     The flag file makes the crash happen only on the first attempt. *)
  let flag = Filename.temp_file "rtnet_pool_crash" ".flag" in
  Sys.remove flag;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists flag then Sys.remove flag)
    (fun () ->
      let tasks = Array.init 8 (fun i -> i) in
      let f x =
        if x = 3 && not (Sys.file_exists flag) then begin
          let oc = open_out flag in
          close_out oc;
          Unix.kill (Unix.getpid ()) Sys.sigkill
        end;
        x * x
      in
      let retried = ref [] in
      let events = ref [] in
      let n =
        Pool.map ~jobs:2
          ~on_retry:(fun missing -> retried := missing :: !retried)
          ~on_event:(fun e -> events := e :: !events)
          f tasks
      in
      Alcotest.(check int) "every task delivered" 8 n;
      let results =
        List.sort compare
          (List.filter_map
             (function
               | Pool.Result (i, _, v) -> Some (i, v)
               | Pool.Failed (i, _, msg) ->
                 Alcotest.fail (Printf.sprintf "task %d failed: %s" i msg))
             !events)
      in
      Alcotest.(check bool) "results complete and correct" true
        (results = List.init 8 (fun i -> (i, i * i)));
      (* jobs=2 round-robin: the killed worker held positions 1,3,5,7
         and died at 3, so exactly 3,5,7 go to the spare worker. *)
      match !retried with
      | [ missing ] ->
        Alcotest.(check (list int)) "undelivered positions retried"
          [ 3; 5; 7 ] missing
      | rounds ->
        Alcotest.fail
          (Printf.sprintf "expected one retry round, saw %d"
             (List.length rounds)))

let test_pool_worker_crash_twice_aborts () =
  (* No flag file: the poisoned task kills its worker on the retry too,
     and only then does the coordinator give up. *)
  let tasks = [| 0; 1; 2 |] in
  let f x =
    if x = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill;
    x
  in
  let retried = ref 0 in
  match
    Pool.map ~jobs:1 ~on_retry:(fun _ -> incr retried) ~on_event:ignore f tasks
  with
  | (_ : int) -> Alcotest.fail "expected Failure after the second crash"
  | exception Failure msg ->
    Alcotest.(check int) "retried exactly once" 1 !retried;
    Alcotest.(check bool) "diagnostic names the repeated death" true
      (Astring_contains.contains msg "worker died twice")

(* -------------------- supervised pool -------------------- *)

let collect_sevents ?watchdog_s ?retries ?backoff_s ?on_retry ?should_stop
    ~jobs f tasks =
  let events = ref [] in
  let n =
    Pool.supervise ~jobs ?watchdog_s ?retries ?backoff_s ?on_retry ?should_stop
      ~on_event:(fun e -> events := e :: !events)
      f tasks
  in
  (n, List.rev !events)

let test_supervise_hung_task_gives_up () =
  (* A deliberately hung task must be killed at the watchdog timeout,
     retried with backoff, and — once the retry budget is spent —
     reported as a structured [Gave_up] while every other task still
     completes: the search must degrade, never abort. *)
  let tasks = Array.init 4 (fun i -> i) in
  let f x =
    if x = 1 then Unix.sleepf 60.;
    x * 10
  in
  let retries_seen = ref [] in
  let n, events =
    collect_sevents ~jobs:2 ~watchdog_s:0.2 ~retries:1 ~backoff_s:0.01
      ~on_retry:(fun ~position ~attempt ~reason ->
        retries_seen := (position, attempt, reason) :: !retries_seen)
      f tasks
  in
  Alcotest.(check int) "every task produced exactly one event" 4 n;
  let completed =
    List.sort compare
      (List.filter_map
         (function Pool.Completed (i, _, v) -> Some (i, v) | _ -> None)
         events)
  in
  Alcotest.(check bool) "unhung tasks all completed" true
    (completed = [ (0, 0); (2, 20); (3, 30) ]);
  (match
     List.filter_map
       (function
         | Pool.Gave_up { position; attempts; reason } ->
           Some (position, attempts, reason)
         | _ -> None)
       events
   with
  | [ (1, 2, Pool.Timed_out _) ] -> ()
  | [ (p, a, r) ] ->
    Alcotest.fail
      (Printf.sprintf "wrong give-up: position %d attempts %d (%s)" p a
         (Pool.reason_text r))
  | gs ->
    Alcotest.fail (Printf.sprintf "expected one give-up, saw %d"
                     (List.length gs)));
  match !retries_seen with
  | [ (1, 1, reason) ] ->
    Alcotest.(check bool) "retry reason names the watchdog" true
      (Astring_contains.contains reason "watchdog")
  | rs ->
    Alcotest.fail
      (Printf.sprintf "expected one retry of position 1, saw %d"
         (List.length rs))

let test_supervise_task_error_not_retried () =
  (* An exception from the task function is deterministic: retrying
     would just raise again, so it is reported immediately. *)
  let tasks = Array.init 3 (fun i -> i) in
  let f x = if x = 1 then failwith "boom" else x in
  let retried = ref 0 in
  let n, events =
    collect_sevents ~jobs:2 ~retries:2
      ~on_retry:(fun ~position:_ ~attempt:_ ~reason:_ -> incr retried)
      f tasks
  in
  Alcotest.(check int) "all events" 3 n;
  Alcotest.(check int) "no retry wasted on a deterministic error" 0 !retried;
  match
    List.filter_map
      (function Pool.Task_error (i, _, m) -> Some (i, m) | _ -> None)
      events
  with
  | [ (1, msg) ] ->
    Alcotest.(check bool) "exception text carried" true
      (Astring_contains.contains msg "boom")
  | _ -> Alcotest.fail "expected exactly task 1 to error"

let test_supervise_lost_worker_retried () =
  (* A worker killed mid-task is indistinguishable from a crash; the
     retry must succeed when the fault was transient (flag file). *)
  let flag = Filename.temp_file "rtnet_supervise_crash" ".flag" in
  Sys.remove flag;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists flag then Sys.remove flag)
    (fun () ->
      let tasks = Array.init 3 (fun i -> i) in
      let f x =
        if x = 2 && not (Sys.file_exists flag) then begin
          let oc = open_out flag in
          close_out oc;
          Unix.kill (Unix.getpid ()) Sys.sigkill
        end;
        x + 100
      in
      let retried = ref [] in
      let n, events =
        collect_sevents ~jobs:2 ~retries:1 ~backoff_s:0.01
          ~on_retry:(fun ~position ~attempt:_ ~reason:_ ->
            retried := position :: !retried)
          f tasks
      in
      Alcotest.(check int) "all events" 3 n;
      Alcotest.(check (list int)) "position 2 retried once" [ 2 ] !retried;
      let completed =
        List.sort compare
          (List.filter_map
             (function Pool.Completed (i, _, v) -> Some (i, v) | _ -> None)
             events)
      in
      Alcotest.(check bool) "retry delivered the result" true
        (completed = [ (0, 100); (1, 101); (2, 102) ]))

let test_supervise_should_stop_drains () =
  (* Once [should_stop] fires, no new task launches; the caller gets
     the events already earned — partial results, no exception. *)
  let tasks = Array.init 16 (fun i -> i) in
  let emitted = ref 0 in
  let n =
    Pool.supervise ~jobs:2
      ~should_stop:(fun () -> !emitted >= 3)
      ~on_event:(fun _ -> incr emitted)
      (fun x -> x)
      tasks
  in
  Alcotest.(check bool) "stopped well short of the full task set" true
    (n < 16 && n >= 3)

(* -------------------- runner determinism -------------------- *)

let stripped_bytes report =
  Json.to_string (Report.strip_timings (Report.to_json report))

let test_parallel_serial_identical () =
  with_tmp_dir (fun dir ->
      let r1 = complete_exn tiny ~jobs:1 ~out:(Filename.concat dir "j1.json") in
      let r4 = complete_exn tiny ~jobs:4 ~out:(Filename.concat dir "j4.json") in
      Alcotest.(check string) "fingerprints agree" (Report.fingerprint r1)
        (Report.fingerprint r4);
      Alcotest.(check string) "timing-stripped bytes identical"
        (stripped_bytes r1) (stripped_bytes r4);
      (* And the on-disk reports reload to the same fingerprint. *)
      match Report.load ~path:(Filename.concat dir "j4.json") with
      | Error e -> Alcotest.fail e
      | Ok r ->
        Alcotest.(check string) "disk round-trip" (Report.fingerprint r1)
          (Report.fingerprint r))

let test_interrupt_and_resume () =
  with_tmp_dir (fun dir ->
      let out = Filename.concat dir "bench.json" in
      let fresh =
        complete_exn tiny ~jobs:1 ~out:(Filename.concat dir "fresh.json")
      in
      (match run_exn tiny ~jobs:1 ~max_cells:2 ~out with
      | Runner.Interrupted { completed; total } ->
        Alcotest.(check int) "partial progress" 2 completed;
        Alcotest.(check int) "total known" (Spec.cell_count tiny) total
      | Runner.Complete _ -> Alcotest.fail "expected interruption");
      Alcotest.(check bool) "journal kept" true
        (Sys.file_exists (Checkpoint.journal_path ~out));
      Alcotest.(check bool) "no report yet" false (Sys.file_exists out);
      let resumed = complete_exn tiny ~jobs:1 ~resume:true ~out in
      Alcotest.(check string) "resume reproduces the fresh run"
        (Report.fingerprint fresh) (Report.fingerprint resumed);
      Alcotest.(check bool) "journal removed on completion" false
        (Sys.file_exists (Checkpoint.journal_path ~out)))

let test_checkpoint_rejects_other_spec () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "x.ckpt" in
      let oc = Checkpoint.open_for_append ~path ~spec:tiny in
      Checkpoint.append oc ~index:0 ~key:"k" Json.Null;
      close_out oc;
      (match Checkpoint.load ~path ~spec:tiny () with
      | Ok [ (0, Json.Null) ] -> ()
      | Ok _ -> Alcotest.fail "journal content lost"
      | Error e -> Alcotest.fail e);
      match Checkpoint.load ~path ~spec:{ tiny with Spec.base_seed = 99 } () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "journal accepted under a different spec")

let test_checkpoint_tolerates_torn_tail () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "torn.ckpt" in
      let oc = Checkpoint.open_for_append ~path ~spec:tiny in
      Checkpoint.append oc ~index:0 ~key:"a" (Json.Int 1);
      close_out oc;
      (* Simulate a kill mid-append: half a JSON line at the tail. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc {|{"cell":1,"key":"b","res|};
      close_out oc;
      let warnings = ref [] in
      (match
         Checkpoint.load ~on_warning:(fun w -> warnings := w :: !warnings)
           ~path ~spec:tiny ()
       with
      | Ok [ (0, Json.Int 1) ] -> ()
      | Ok _ -> Alcotest.fail "torn tail mishandled"
      | Error e -> Alcotest.fail e);
      (* The skip is announced, and the diagnostic says the cell will
         re-run rather than silently vanish. *)
      match !warnings with
      | [ w ] ->
        Alcotest.(check bool) "warning names the torn line" true
          (Astring_contains.contains w "torn");
        Alcotest.(check bool) "warning promises a re-run" true
          (Astring_contains.contains w "re-run")
      | ws ->
        Alcotest.fail
          (Printf.sprintf "expected one warning, saw %d" (List.length ws)))

let test_checkpoint_tolerates_torn_header () =
  (* A crash during the very first write can leave only a partial
     header line: resuming from that journal must behave like a fresh
     start (no completed cells), not abort the campaign. *)
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "header.ckpt" in
      let oc = open_out path in
      output_string oc {|{"campaign_journal":1,"fing|};
      close_out oc;
      let warnings = ref [] in
      match
        Checkpoint.load ~on_warning:(fun w -> warnings := w :: !warnings)
          ~path ~spec:tiny ()
      with
      | Ok [] ->
        Alcotest.(check int) "torn header announced" 1 (List.length !warnings)
      | Ok _ -> Alcotest.fail "entries conjured from a torn header"
      | Error e -> Alcotest.fail e)

let test_checkpoint_failed_marker_replay () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "f.ckpt" in
      let oc = Checkpoint.open_for_append ~path ~spec:tiny in
      Checkpoint.append oc ~index:0 ~key:"a" (Json.Int 1);
      Checkpoint.append_failed oc ~index:0 ~key:"a" ~reason:"worker died";
      Checkpoint.append oc ~index:1 ~key:"b" (Json.Int 2);
      close_out oc;
      (* The failed marker voids cell 0's earlier result. *)
      (match Checkpoint.load ~path ~spec:tiny () with
      | Ok [ (1, Json.Int 2) ] -> ()
      | Ok entries ->
        Alcotest.fail
          (Printf.sprintf "failed marker not replayed: %d entries survive"
             (List.length entries))
      | Error e -> Alcotest.fail e);
      (* A later result — the in-run retry succeeding — supersedes it. *)
      let oc = Checkpoint.open_for_append ~path ~spec:tiny in
      Checkpoint.append oc ~index:0 ~key:"a" (Json.Int 3);
      close_out oc;
      match Checkpoint.load ~path ~spec:tiny () with
      | Ok entries ->
        Alcotest.(check bool) "retry result recorded" true
          (List.sort compare entries = [ (0, Json.Int 3); (1, Json.Int 2) ])
      | Error e -> Alcotest.fail e)

let test_fault_campaign_deterministic () =
  (* A campaign whose variants carry fault plans must stay a pure
     function of its spec: same report bytes (minus timing) at any
     worker count, and across an interrupt/resume split. *)
  with_tmp_dir (fun dir ->
      let r1 =
        complete_exn faulty ~jobs:1 ~out:(Filename.concat dir "j1.json")
      in
      let r4 =
        complete_exn faulty ~jobs:4 ~out:(Filename.concat dir "j4.json")
      in
      Alcotest.(check string) "fingerprints agree" (Report.fingerprint r1)
        (Report.fingerprint r4);
      Alcotest.(check string) "timing-stripped bytes identical"
        (stripped_bytes r1) (stripped_bytes r4);
      let out = Filename.concat dir "resumed.json" in
      (match run_exn faulty ~jobs:2 ~max_cells:3 ~out with
      | Runner.Interrupted { completed; total } ->
        Alcotest.(check int) "partial progress" 3 completed;
        Alcotest.(check int) "total known" (Spec.cell_count faulty) total
      | Runner.Complete _ -> Alcotest.fail "expected interruption");
      let resumed = complete_exn faulty ~jobs:2 ~resume:true ~out in
      Alcotest.(check string) "resume reproduces the fresh run"
        (Report.fingerprint r1) (Report.fingerprint resumed))

let test_lint_gate_rejects_overload () =
  with_tmp_dir (fun dir ->
      let options =
        Runner.default_options ~out:(Filename.concat dir "hot.json")
      in
      match Runner.run { options with Runner.jobs = 1 } overloaded with
      | Error (Runner.Lint_rejected diags) ->
        Alcotest.(check bool) "diagnostics carried" true (diags <> [])
      | Error e ->
        Alcotest.fail (Format.asprintf "wrong error: %a" Runner.pp_error e)
      | Ok _ -> Alcotest.fail "overloaded campaign accepted")

(* -------------------- regression gate -------------------- *)

let inject_regression report =
  match report.Report.cells with
  | first :: rest ->
    let m = first.Report.ce_result.Grid.r_metrics in
    let worse =
      { m with Rtnet_stats.Run.miss_ratio = m.Rtnet_stats.Run.miss_ratio +. 0.4 }
    in
    {
      report with
      Report.cells =
        { first with
          Report.ce_result =
            { first.Report.ce_result with Grid.r_metrics = worse } }
        :: rest;
    }
  | [] -> Alcotest.fail "empty report"

let test_compare_gate () =
  with_tmp_dir (fun dir ->
      let r = complete_exn tiny ~jobs:1 ~out:(Filename.concat dir "b.json") in
      let tol = Report.default_tolerance in
      (match Report.compare_reports ~tolerance:tol ~baseline:r ~current:r with
      | Ok [] -> ()
      | Ok _ -> Alcotest.fail "self-comparison regressed"
      | Error e -> Alcotest.fail e);
      let bad = inject_regression r in
      (match Report.compare_reports ~tolerance:tol ~baseline:r ~current:bad with
      | Ok [ reg ] ->
        Alcotest.(check string) "metric named" "miss_ratio"
          reg.Report.reg_metric
      | Ok regs ->
        Alcotest.fail
          (Printf.sprintf "expected 1 regression, found %d" (List.length regs))
      | Error e -> Alcotest.fail e);
      (* An improvement is not a regression. *)
      (match Report.compare_reports ~tolerance:tol ~baseline:bad ~current:r with
      | Ok [] -> ()
      | Ok _ -> Alcotest.fail "improvement flagged"
      | Error e -> Alcotest.fail e);
      (* A loose tolerance forgives the same delta. *)
      let loose = { tol with Report.tol_miss_ratio = 0.5 } in
      match Report.compare_reports ~tolerance:loose ~baseline:r ~current:bad with
      | Ok [] -> ()
      | Ok _ -> Alcotest.fail "tolerance ignored"
      | Error e -> Alcotest.fail e)

let test_compare_rejects_mismatched_specs () =
  with_tmp_dir (fun dir ->
      let a = complete_exn tiny ~jobs:1 ~out:(Filename.concat dir "a.json") in
      let other = { tiny with Spec.base_seed = 99 } in
      let b = complete_exn other ~jobs:1 ~out:(Filename.concat dir "b.json") in
      match
        Report.compare_reports ~tolerance:Report.default_tolerance ~baseline:a
          ~current:b
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "cross-spec comparison accepted")

(* -------------------- report codec -------------------- *)

let fixture name = Filename.concat "fixtures" name

(* Reports written before the wall-clock "perf" section was dropped
   must keep gating: the key loads, is ignored, and leaves the
   fingerprint of the same report without it. *)
let test_report_legacy_perf_ignored () =
  with_tmp_dir (fun dir ->
      let path = fixture "BENCH_smoke_golden.json" in
      let legacy = Filename.concat dir "legacy.json" in
      (match Json.parse_file path with
      | Ok (Json.Obj fields) ->
        let perf =
          Json.Obj
            [
              ("slots", Json.Int 20_000_000);
              ("alloc_words", Json.Float 147933.);
              ("phases", Json.List []);
            ]
        in
        Json.to_file legacy
          (Json.Obj
             (List.concat_map
                (fun (k, v) ->
                  if k = "wall_clock_s" then [ (k, v); ("perf", perf) ]
                  else [ (k, v) ])
                fields))
      | _ -> Alcotest.fail "golden is not an object");
      match (Report.load ~path, Report.load ~path:legacy) with
      | Ok plain, Ok with_perf ->
        Alcotest.(check string) "fingerprint unchanged"
          (Report.fingerprint plain) (Report.fingerprint with_perf);
        Alcotest.(check bool) "perf key not re-emitted" true
          (Json.member "perf" (Report.to_json with_perf) = None)
      | Error e, _ | _, Error e -> Alcotest.fail e)

(* Every proper prefix of a committed report is an [Error] from
   [Report.load], never an exception. *)
let test_report_decoding_total () =
  with_tmp_dir (fun dir ->
      let cut = Filename.concat dir "cut.json" in
      List.iter
        (fun name ->
          let text =
            String.trim
              (In_channel.with_open_bin (fixture name) In_channel.input_all)
          in
          for k = 0 to String.length text - 1 do
            Out_channel.with_open_bin cut (fun oc ->
                Out_channel.output_string oc (String.sub text 0 k));
            match Report.load ~path:cut with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%s cut at %d: accepted" name k
            | exception e ->
              Alcotest.failf "%s cut at %d: raised %s" name k
                (Printexc.to_string e)
          done)
        [
          "BENCH_smoke_golden.json";
          "BENCH_topology_sweep.json";
          "BENCH_topology_fault_sweep.json";
        ])

let suite =
  [
    ( "campaign",
      [
        Alcotest.test_case "spec json round-trip" `Quick test_spec_roundtrip;
        Alcotest.test_case "spec validation" `Quick test_spec_validate;
        Alcotest.test_case "fault-plan spec validation" `Quick
          test_fault_plan_spec_validate;
        Alcotest.test_case "spec file loading" `Quick test_spec_load_file;
        Alcotest.test_case "grid cells" `Quick test_grid_cells;
        Alcotest.test_case "trace seed protocol-blind" `Quick
          test_trace_seed_protocol_blind;
        Alcotest.test_case "seeding domains" `Quick
          test_seeding_domains_separated;
        Alcotest.test_case "fault seed protocol-blind" `Quick
          test_fault_seed_protocol_blind;
        Alcotest.test_case "pool parallel = serial" `Quick
          test_pool_matches_serial;
        Alcotest.test_case "pool task exception" `Quick
          test_pool_task_exception_reported;
        Alcotest.test_case "pool early stop" `Quick
          test_pool_max_results_stops_early;
        Alcotest.test_case "pool edge cases" `Quick test_pool_empty_and_bad_jobs;
        Alcotest.test_case "pool worker crash retried" `Quick
          test_pool_worker_crash_retried;
        Alcotest.test_case "pool worker crash twice aborts" `Quick
          test_pool_worker_crash_twice_aborts;
        Alcotest.test_case "-j1 = -j4" `Quick test_parallel_serial_identical;
        Alcotest.test_case "interrupt and resume" `Quick
          test_interrupt_and_resume;
        Alcotest.test_case "checkpoint spec guard" `Quick
          test_checkpoint_rejects_other_spec;
        Alcotest.test_case "checkpoint torn tail" `Quick
          test_checkpoint_tolerates_torn_tail;
        Alcotest.test_case "checkpoint torn header" `Quick
          test_checkpoint_tolerates_torn_header;
        Alcotest.test_case "supervise hung task gives up" `Quick
          test_supervise_hung_task_gives_up;
        Alcotest.test_case "supervise task error not retried" `Quick
          test_supervise_task_error_not_retried;
        Alcotest.test_case "supervise lost worker retried" `Quick
          test_supervise_lost_worker_retried;
        Alcotest.test_case "supervise should_stop drains" `Quick
          test_supervise_should_stop_drains;
        Alcotest.test_case "checkpoint failed-marker replay" `Quick
          test_checkpoint_failed_marker_replay;
        Alcotest.test_case "fault campaign deterministic" `Quick
          test_fault_campaign_deterministic;
        Alcotest.test_case "lint gate" `Quick test_lint_gate_rejects_overload;
        Alcotest.test_case "regression gate" `Quick test_compare_gate;
        Alcotest.test_case "cross-spec compare" `Quick
          test_compare_rejects_mismatched_specs;
        Alcotest.test_case "legacy perf section ignored" `Quick
          test_report_legacy_perf_ignored;
        Alcotest.test_case "report decoding total on cuts" `Quick
          test_report_decoding_total;
      ] );
  ]
