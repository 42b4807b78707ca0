(* rtnet.chaos: fault-schedule generator, adversarial search over the
   supervised pool, delta-debugging shrinker and replay artifacts.

   The load-bearing properties: sampling is a pure function of
   (seed, index); the committed smoke configuration keeps finding its
   seeded violations; shrinking preserves the verdict class while
   shedding fault events; a frozen repro replays to the same verdict
   and trace fingerprint; and a hung candidate costs its watchdog
   timeout, not the search. *)

module Json = Rtnet_util.Json
module Fault_plan = Rtnet_channel.Fault_plan
module Topo = Rtnet_topology.Topo
module Spec = Rtnet_campaign.Spec
module Oracle = Rtnet_analysis.Oracle
module Generator = Rtnet_chaos.Generator
module Candidate = Rtnet_chaos.Candidate
module Subject = Rtnet_chaos.Subject
module Plain = Subject.Plain
module Search = Rtnet_chaos.Search
module Shrink = Rtnet_chaos.Shrink
module Repro = Rtnet_chaos.Repro
module Soak = Rtnet_chaos.Soak

let with_tmp_dir f =
  let dir = Filename.temp_file "rtnet_chaos" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* The same configuration as test/fixtures/chaos_smoke.json: a uniform
   workload near the feasibility edge, where the fault-free run passes
   (the lint gate asserts that) but injected faults push messages over
   their deadlines or strand a crashed source. *)
let smoke_scenario =
  { Spec.sc_kind = "uniform"; sc_size = 4; sc_load = 0.55;
    sc_deadline_windows = 1.5; sc_fanout = 1 }

let smoke_candidate =
  { Plain.cf_scenario = smoke_scenario; cf_horizon_ms = 2; cf_params = None }

let smoke_config =
  {
    Search.s_env = smoke_candidate;
    s_sampler =
      { Generator.default_budget with Generator.g_max_events = 4;
        g_max_rate = 0.6 };
    s_pool = { Search.default_pool with Search.p_seed = 7; p_count = 12; p_jobs = 2 };
  }

let with_pool config f = { config with Search.s_pool = f config.Search.s_pool }

let horizon = 2 * 1_000_000

(* -------------------- generator -------------------- *)

let plan_bytes p = Json.to_string (Fault_plan.spec_to_json p)

let sample ?(budget = Generator.default_budget) ?(seed = 7) index =
  Generator.sample ~budget ~seed ~index ~horizon ~sources:4

let test_generator_deterministic () =
  for i = 0 to 7 do
    Alcotest.(check string)
      (Printf.sprintf "candidate %d is a pure function of (seed, index)" i)
      (plan_bytes (sample i))
      (plan_bytes (sample i))
  done;
  let distinct =
    List.sort_uniq compare (List.init 8 (fun i -> plan_bytes (sample i)))
  in
  Alcotest.(check bool) "indices explore different plans" true
    (List.length distinct >= 6);
  Alcotest.(check bool) "seeds explore different plans" true
    (plan_bytes (sample ~seed:7 0) <> plan_bytes (sample ~seed:8 0))

let test_generator_respects_budget () =
  let budget =
    { Generator.default_budget with Generator.g_max_events = 3;
      g_max_rate = 0.4 }
  in
  for i = 0 to 31 do
    let p = sample ~budget i in
    let n = Fault_plan.event_count p in
    Alcotest.(check bool)
      (Printf.sprintf "candidate %d within event budget" i)
      true
      (n >= 1 && n <= 3);
    (match Fault_plan.validate ~horizon p with
    | Ok () -> ()
    | Error e ->
      Alcotest.fail (Printf.sprintf "candidate %d invalid: %s" i e));
    match p.Fault_plan.sp_garble with
    | Some (Fault_plan.Iid { rate }) ->
      Alcotest.(check bool) "iid rate capped" true (rate <= 0.4)
    | Some (Fault_plan.Gilbert_elliott { rate_good; rate_bad; _ }) ->
      Alcotest.(check bool) "ge rates capped" true
        (rate_good <= 0.4 && rate_bad <= 0.4)
    | None -> ()
  done

let test_generator_family_gates () =
  (* Disabling fault families restricts what sampling may emit. *)
  let crash_only =
    { Generator.default_budget with Generator.g_garble = false;
      g_misperceive = false }
  in
  for i = 0 to 15 do
    let p = sample ~budget:crash_only i in
    Alcotest.(check bool)
      (Printf.sprintf "candidate %d is crash-only" i)
      true
      (p.Fault_plan.sp_garble = None
      && p.Fault_plan.sp_misperception = 0.
      && p.Fault_plan.sp_crashes <> [])
  done;
  Alcotest.check_raises "all families disabled"
    (Invalid_argument "Generator.sample: every fault family disabled")
    (fun () ->
      ignore
        (sample
           ~budget:
             { Generator.default_budget with Generator.g_garble = false;
               g_misperceive = false; g_crash = false }
           0));
  Alcotest.check_raises "zero event budget"
    (Invalid_argument "Generator.sample: max_events < 1")
    (fun () ->
      ignore
        (sample
           ~budget:{ Generator.default_budget with Generator.g_max_events = 0 }
           0))

(* -------------------- search -------------------- *)

let run_smoke_search () = Search.run (module Plain) smoke_config

let test_search_finds_seeded_violations () =
  let res = run_smoke_search () in
  Alcotest.(check int) "every candidate examined" 12 res.Search.r_examined;
  Alcotest.(check bool) "not flagged as exhausted" false
    res.Search.r_exhausted;
  Alcotest.(check (list int)) "nothing gave up" []
    (List.map (fun g -> g.Search.gu_index) res.Search.r_gave_up);
  Alcotest.(check bool) "finds violations" true
    (List.length res.Search.r_findings > 0);
  Alcotest.(check bool) "but not everything fails" true
    (List.length res.Search.r_findings < res.Search.r_examined);
  (* Findings arrive sorted and verdict-bearing. *)
  let idx = List.map (fun f -> f.Search.fi_index) res.Search.r_findings in
  Alcotest.(check (list int)) "sorted by candidate index"
    (List.sort compare idx) idx;
  List.iter
    (fun f ->
      Alcotest.(check bool) "finding verdicts are failures" true
        (Oracle.is_failure f.Search.fi_report.Candidate.rp_verdict))
    res.Search.r_findings

(* The plain subject, except that candidate 0 sleeps far past any
   sensible watchdog inside the worker. *)
module Hung = struct
  include Plain

  let hung = sample smoke_config.Search.s_sampler smoke_candidate ~seed:7 0

  let run env cand =
    if cand = hung then Unix.sleepf 60.;
    run env cand
end

let test_search_watchdog_hung_candidate () =
  (* Candidate 0 must be killed, retried once, then surface as a
     structured give-up — while the other candidates complete
     normally. *)
  let config =
    with_pool smoke_config (fun p ->
        {
          p with
          Search.p_count = 3;
          p_watchdog_s = Some 0.2;
          p_retries = 1;
          p_backoff_s = 0.01;
        })
  in
  let res = Search.run (module Hung) config in
  Alcotest.(check int) "all candidates accounted for" 3 res.Search.r_examined;
  (match res.Search.r_gave_up with
  | [ g ] ->
    Alcotest.(check int) "hung candidate gave up" 0 g.Search.gu_index;
    Alcotest.(check int) "after watchdog kill + one retry" 2
      g.Search.gu_attempts;
    Alcotest.(check bool) "reason names the watchdog" true
      (Astring_contains.contains g.Search.gu_reason "watchdog")
  | gs ->
    Alcotest.fail
      (Printf.sprintf "expected exactly the hung candidate to give up, saw %d"
         (List.length gs)));
  Alcotest.(check bool) "candidates 1 and 2 still examined" true
    (not (List.exists (fun f -> f.Search.fi_index = 0) res.Search.r_findings))

let test_search_wall_budget_partial () =
  (* An already-exhausted budget yields partial (here: empty) results
     and the exhausted flag — never an exception. *)
  let res =
    Search.run (module Plain)
      (with_pool smoke_config (fun p -> { p with Search.p_wall_budget_s = Some 0. }))
  in
  Alcotest.(check bool) "flagged exhausted" true res.Search.r_exhausted;
  Alcotest.(check bool) "partial results" true
    (res.Search.r_examined < smoke_config.Search.s_pool.Search.p_count)

let test_search_config_roundtrip () =
  match Search.config_of_json (Search.config_to_json smoke_config) with
  | Ok c -> Alcotest.(check bool) "round-trips" true (c = smoke_config)
  | Error e -> Alcotest.fail e

(* -------------------- shrink -------------------- *)

let four_event_finding () =
  let res = run_smoke_search () in
  match
    List.filter
      (fun f -> Fault_plan.event_count f.Search.fi_candidate.Plain.cd_plan = 4)
      res.Search.r_findings
  with
  | f :: _ -> f
  | [] -> Alcotest.fail "smoke search lost its 4-event finding"

let oracle_for cd plan =
  (Plain.run smoke_candidate { cd with Plain.cd_plan = plan }).Candidate.rp_verdict

let test_shrink_reduces_and_preserves () =
  let f = four_event_finding () in
  let cd = f.Search.fi_candidate in
  let target = f.Search.fi_report.Candidate.rp_verdict in
  let res =
    Shrink.run (module Plain)
      ~oracle:(fun c -> oracle_for c c.Plain.cd_plan)
      ~target cd
  in
  let plan = res.Shrink.sh_cand.Plain.cd_plan in
  let n = Fault_plan.event_count plan in
  Alcotest.(check bool) "at most 25% of the original events" true (n <= 1);
  Alcotest.(check bool) "verdict class preserved" true
    (Oracle.same_class res.Shrink.sh_verdict target);
  Alcotest.(check bool) "minimized plan still fails on re-check" true
    (Oracle.same_class (oracle_for cd plan) target);
  Alcotest.(check bool) "oracle consulted" true (res.Shrink.sh_checks > 0)

let fixture name = Filename.concat "fixtures" name

let load_ok subject path =
  match Repro.load subject ~path with Ok r -> r | Error e -> Alcotest.fail e

let test_shrink_keeps_unreproducible_input () =
  (* If the candidate does not reproduce the target verdict, shrinking
     has nothing to stand on: the input comes back unchanged — for
     every subject. *)
  let plan = Fault_plan.iid 0.05 in
  let res =
    Shrink.run (module Plain)
      ~oracle:(fun _ -> Oracle.Pass)
      ~target:(Oracle.Failed_resync { source = 0 })
      { Plain.cd_plan = plan; cd_trace_seed = 1; cd_fault_seed = 2 }
  in
  Alcotest.(check string) "plan unchanged"
    (plan_bytes plan)
    (plan_bytes res.Shrink.sh_cand.Plain.cd_plan);
  let unchanged (type e c) ((module S) as subject : (e, c) Subject.t) name =
    let t = load_ok subject (fixture name) in
    let res =
      Shrink.run subject
        ~oracle:(fun _ -> Oracle.Pass)
        ~target:t.Repro.re_verdict t.Repro.re_cand
    in
    let bytes c = Json.to_string (Json.Obj (S.cand_to_json c)) in
    Alcotest.(check string) (name ^ " unchanged") (bytes t.Repro.re_cand)
      (bytes res.Shrink.sh_cand)
  in
  unchanged (module Plain) "chaos_repro_min.json";
  unchanged (module Subject.Topo) "topo_chaos_repro_min.json";
  unchanged (module Subject.Admit) "admit_chaos_repro_min.json"

(* -------------------- repro -------------------- *)

let test_repro_roundtrip_and_replay () =
  let f = four_event_finding () in
  let repro =
    Repro.make ~env:smoke_candidate ~cand:f.Search.fi_candidate
      ~report:f.Search.fi_report ~note:"test"
  in
  (match Repro.of_json (module Plain) (Repro.to_json (module Plain) repro) with
  | Ok r ->
    Alcotest.(check string) "artifact bytes round-trip"
      (Json.to_string (Repro.to_json (module Plain) repro))
      (Json.to_string (Repro.to_json (module Plain) r))
  | Error e -> Alcotest.fail e);
  let r = Repro.replay (module Plain) repro in
  Alcotest.(check bool) "verdict reproduces" true r.Repro.rr_verdict_ok;
  Alcotest.(check bool) "fingerprint reproduces" true r.Repro.rr_fingerprint_ok;
  (* Tampering with the fault seed must be caught by replay. *)
  let tampered =
    { repro with Repro.re_cand = { repro.Repro.re_cand with Plain.cd_fault_seed = 42 } }
  in
  let r = Repro.replay (module Plain) tampered in
  Alcotest.(check bool) "tampered seed detected" false
    (r.Repro.rr_verdict_ok && r.Repro.rr_fingerprint_ok)

let pass_report = { Candidate.rp_verdict = Oracle.Pass; rp_fingerprint = "00" }

let test_repro_rejects_bad_artifacts () =
  let good =
    Repro.to_json (module Plain)
      (Repro.make ~env:smoke_candidate
         ~cand:
           { Plain.cd_plan = Fault_plan.iid 0.1; cd_trace_seed = 1;
             cd_fault_seed = 2 }
         ~report:pass_report ~note:"")
  in
  let patch key v =
    match good with
    | Json.Obj fields ->
      Json.Obj (List.map (fun (k, x) -> (k, if k = key then v else x)) fields)
    | _ -> Alcotest.fail "artifact is not an object"
  in
  (match Repro.of_json (module Plain) (patch "chaos_repro_version" (Json.Int 99)) with
  | Error e ->
    Alcotest.(check bool) "version mismatch diagnosed" true
      (Astring_contains.contains e "version")
  | Ok _ -> Alcotest.fail "accepted an unknown schema version");
  match
    Repro.of_json (module Plain)
      (patch "plan"
         (Fault_plan.spec_to_json
            (Fault_plan.crash ~source:0 ~from_:0 ~until:(50 * 1_000_000))))
  with
  | Error e ->
    Alcotest.(check bool) "plan re-validated against the horizon" true
      (Astring_contains.contains e "plan")
  | Ok _ -> Alcotest.fail "accepted a plan reaching past the horizon"

(* Schema v2 added the optional protocol-parameter override; a v1
   artifact (no "params" key) must keep decoding, and a file claiming
   v1 while carrying the v2-only key must be rejected, not silently
   reinterpreted. *)
let test_repro_v1_back_compat () =
  let v2 =
    Repro.to_json (module Plain)
      (Repro.make
         ~env:
           { smoke_candidate with
             Plain.cf_params =
               Some (Rtnet_core.Ddcr_params.default
                       (Spec.instance smoke_scenario)) }
         ~cand:
           { Plain.cd_plan = Fault_plan.iid 0.1; cd_trace_seed = 1;
             cd_fault_seed = 2 }
         ~report:pass_report ~note:"")
  in
  let fields = match v2 with Json.Obj f -> f | _ -> Alcotest.fail "not an object" in
  let v1 =
    Json.Obj
      (List.filter_map
         (fun (k, x) ->
           if k = "params" then None
           else if k = "chaos_repro_version" then Some (k, Json.Int 1)
           else Some (k, x))
         fields)
  in
  (match Repro.of_json (module Plain) v1 with
  | Ok r ->
    Alcotest.(check bool) "v1 decodes without a params override" true
      (r.Repro.re_env.Plain.cf_params = None)
  | Error e -> Alcotest.fail ("v1 artifact rejected: " ^ e));
  let v1_with_params =
    Json.Obj
      (List.map
         (fun (k, x) ->
           (k, if k = "chaos_repro_version" then Json.Int 1 else x))
         fields)
  in
  match Repro.of_json (module Plain) v1_with_params with
  | Error e ->
    Alcotest.(check bool) "v1 + params is diagnosed" true
      (Astring_contains.contains e "version")
  | Ok _ -> Alcotest.fail "accepted a v1 artifact with a v2-only key"

let test_candidate_run_deterministic () =
  let f = four_event_finding () in
  let fp () =
    (Plain.run smoke_candidate f.Search.fi_candidate).Candidate.rp_fingerprint
  in
  Alcotest.(check string) "same candidate, same fingerprint" (fp ()) (fp ())

(* -------------------- soak -------------------- *)

let test_soak_collects_deduped_repros () =
  with_tmp_dir (fun dir ->
      let config =
        {
          Soak.so_search = with_pool smoke_config (fun p -> { p with Search.p_count = 6 });
          so_rounds = 2;
          so_wall_budget_s = None;
          so_out_dir = Some dir;
        }
      in
      let res = Soak.run (module Plain) config in
      Alcotest.(check int) "both rounds ran" 2 res.Soak.so_rounds_run;
      Alcotest.(check int) "every candidate examined" 12 res.Soak.so_examined;
      Alcotest.(check bool) "found something" true (res.Soak.so_findings > 0);
      Alcotest.(check int) "one artifact per distinct finding"
        res.Soak.so_findings
        (List.length res.Soak.so_repro_paths);
      (* Every written artifact is itself a valid, loadable repro. *)
      List.iter
        (fun path ->
          match Repro.load (module Plain) ~path with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e)
        res.Soak.so_repro_paths)

(* -------------------- federated (topology) chaos -------------------- *)

module Fed = Subject.Topo

let topo_fixture = fixture "topo_chaos_repro_min.json"

let topo_config =
  { Fed.tc_segments = 3; tc_fanout = 2; tc_sources = 4; tc_load = 0.3;
    tc_deadline_windows = 8.0; tc_horizon_ms = 5 }

let plans_bytes plans =
  String.concat ";" (List.map (fun (n, sp) -> n ^ "=" ^ plan_bytes sp) plans)

let test_sample_topo_deterministic_and_targeted () =
  let topo = Fed.tree topo_config in
  let horizon = topo_config.Fed.tc_horizon_ms * 1_000_000 in
  let sample i =
    Generator.sample_topo ~budget:Generator.default_budget ~seed:5 ~index:i
      ~horizon topo
  in
  Alcotest.(check string) "pure function of (seed, index)"
    (plans_bytes (sample 3))
    (plans_bytes (sample 3));
  Alcotest.(check bool) "different indices draw different plans" true
    (plans_bytes (sample 3) <> plans_bytes (sample 4)
    || plans_bytes (sample 5) <> plans_bytes (sample 6));
  for i = 0 to 15 do
    let plans = sample i in
    List.iter
      (fun (seg, sp) ->
        Alcotest.(check bool) "plan targets a known segment" true
          (Topo.find_segment topo seg <> None);
        match Fault_plan.validate ~horizon sp with
        | Ok () -> ()
        | Error e -> Alcotest.fail e)
      plans;
    (* The tentpole guarantee: a non-empty federated plan always
       exercises bridge failover — at least one crash window parks an
       incoming bridge station. *)
    if plans <> [] then
      Alcotest.(check bool)
        (Printf.sprintf "sample %d crashes a bridge station" i)
        true
        (List.exists
           (fun (seg, sp) ->
             List.exists
               (fun cw ->
                 List.exists
                   (fun b ->
                     b.Topo.br_to = seg
                     && b.Topo.br_station = cw.Fault_plan.cw_source)
                   topo.Topo.tp_bridges)
               sp.Fault_plan.sp_crashes)
           plans)
  done

let load_topo_fixture () = load_ok (module Fed) topo_fixture

let test_run_topo_deterministic_and_classified () =
  let repro = load_topo_fixture () in
  let config = repro.Repro.re_env and td = repro.Repro.re_cand in
  let r1 = Fed.run config td in
  let r2 = Fed.run config td in
  Alcotest.(check string) "same candidate, same fingerprint"
    r1.Candidate.rp_fingerprint r2.Candidate.rp_fingerprint;
  Alcotest.(check bool) "verdict matches the frozen one" true
    (Oracle.same_class r1.Candidate.rp_verdict repro.Repro.re_verdict);
  match r1.Candidate.rp_verdict with
  | Oracle.Handoff_loss { bridge; chains } ->
    Alcotest.(check string) "shed at the crashed bridge" "br2" bridge;
    Alcotest.(check bool) "chains counted" true (chains > 0)
  | v -> Alcotest.fail ("expected a hand-off loss, got " ^ Oracle.label v)

let test_topo_repro_replay_and_load_any () =
  let repro = load_topo_fixture () in
  let r = Repro.replay (module Fed) repro in
  Alcotest.(check bool) "verdict reproduces" true r.Repro.rr_verdict_ok;
  Alcotest.(check bool) "fingerprint reproduces" true r.Repro.rr_fingerprint_ok;
  (* Tampering with the frozen fault plan must be caught: without the
     bridge crash the run passes, which matches neither the expected
     verdict nor the expected fingerprint. *)
  let tampered =
    { repro with Repro.re_cand = { repro.Repro.re_cand with Fed.td_plans = [] } }
  in
  let r = Repro.replay (module Fed) tampered in
  Alcotest.(check bool) "tampered plan detected" false
    (r.Repro.rr_verdict_ok && r.Repro.rr_fingerprint_ok);
  (* load_any dispatches on the version key, for both kinds. *)
  (match Repro.load_any ~path:topo_fixture with
  | Ok (Repro.Any (Subject.Topo, _)) -> ()
  | Ok (Repro.Any _) -> Alcotest.fail "topo artifact loaded as another kind"
  | Error e -> Alcotest.fail e);
  let f = four_event_finding () in
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "plain.json" in
      Repro.save (module Plain) ~path
        (Repro.make ~env:smoke_candidate ~cand:f.Search.fi_candidate
           ~report:f.Search.fi_report ~note:"");
      match Repro.load_any ~path with
      | Ok (Repro.Any (Subject.Plain, _)) -> ()
      | Ok (Repro.Any _) -> Alcotest.fail "plain artifact loaded as another kind"
      | Error e -> Alcotest.fail e)

let test_shrink_topo_preserves_class () =
  let repro = load_topo_fixture () in
  let oracle c = (Fed.run repro.Repro.re_env c).Candidate.rp_verdict in
  let plans = repro.Repro.re_cand.Fed.td_plans in
  let res =
    Shrink.run (module Fed) ~oracle ~target:repro.Repro.re_verdict
      repro.Repro.re_cand
  in
  Alcotest.(check bool) "verdict class preserved" true
    (Oracle.same_class res.Shrink.sh_verdict repro.Repro.re_verdict);
  Alcotest.(check bool) "oracle consulted" true (res.Shrink.sh_checks > 0);
  let events plans =
    List.fold_left (fun a (_, sp) -> a + Fault_plan.event_count sp) 0 plans
  in
  Alcotest.(check bool) "never grows" true
    (events res.Shrink.sh_cand.Fed.td_plans <= events plans);
  (* An unreproducible input comes back unchanged, as with plain
     shrinking. *)
  let res =
    Shrink.run (module Fed)
      ~oracle:(fun _ -> Oracle.Pass)
      ~target:repro.Repro.re_verdict repro.Repro.re_cand
  in
  Alcotest.(check string) "plans unchanged"
    (plans_bytes plans)
    (plans_bytes res.Shrink.sh_cand.Fed.td_plans)

let test_topo_repro_rejects_bad_artifacts () =
  let good = Repro.to_json (module Fed) (load_topo_fixture ()) in
  let patch key v =
    match good with
    | Json.Obj fields ->
      Json.Obj (List.map (fun (k, x) -> (k, if k = key then v else x)) fields)
    | _ -> Alcotest.fail "artifact is not an object"
  in
  (match
     Repro.of_json (module Fed) (patch "topo_chaos_repro_version" (Json.Int 99))
   with
  | Error e ->
    Alcotest.(check bool) "version mismatch diagnosed" true
      (Astring_contains.contains e "version")
  | Ok _ -> Alcotest.fail "accepted an unknown schema version");
  (match
     Repro.of_json (module Fed)
       (patch "plans"
          (Json.Obj
             [ ("ghost", Fault_plan.spec_to_json (Fault_plan.iid 0.1)) ]))
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a plan naming an unknown segment");
  match
    Repro.of_json (module Fed)
      (patch "plans"
         (Json.Obj
            [
              ( "seg0",
                Fault_plan.spec_to_json
                  (Fault_plan.crash ~source:4 ~from_:0 ~until:(50 * 1_000_000))
              );
            ]))
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a plan reaching past the horizon"

(* -------------------- every subject -------------------- *)

module Adm = Subject.Admit

let admit_env () =
  {
    Adm.an_phy = "gigabit-ethernet";
    an_sources = 2;
    an_params =
      (match
         Result.bind
           (Json.parse_file (fixture "model_params_broken.json"))
           Rtnet_core.Ddcr_params.of_json
       with
      | Ok p -> p
      | Error e -> failwith e);
    an_horizon_ms = 10;
  }

let topo_search =
  {
    Search.s_env = topo_config;
    s_sampler = Generator.default_budget;
    s_pool = { Search.default_pool with Search.p_seed = 29; p_count = 4 };
  }

let admit_search () =
  {
    Search.s_env = admit_env ();
    s_sampler = Adm.default_sampler;
    s_pool = { Search.default_pool with Search.p_seed = 7; p_count = 4 };
  }

(* Two runs of one search examine every candidate and agree on the
   findings. *)
let search_twice (type e c s) name
    (subject :
      (module Subject.S with type env = e and type cand = c and type sampler = s))
    (config : (e, s) Search.config) =
  let run () =
    let r = Search.run subject config in
    ( r.Search.r_examined,
      List.map
        (fun f ->
          ( f.Search.fi_index,
            Oracle.label f.Search.fi_report.Candidate.rp_verdict,
            f.Search.fi_report.Candidate.rp_fingerprint ))
        r.Search.r_findings )
  in
  let n1, tags1 = run () in
  let n2, tags2 = run () in
  Alcotest.(check int) (name ^ ": all candidates examined")
    config.Search.s_pool.Search.p_count n1;
  Alcotest.(check bool) (name ^ ": two runs, same findings") true
    (n1 = n2 && tags1 = tags2)

let test_search_deterministic () =
  search_twice "plain" (module Plain) smoke_config;
  search_twice "admit" (module Adm) (admit_search ())

let test_search_topo_deterministic () =
  search_twice "topo" (module Fed)
    (with_pool topo_search (fun p -> { p with Search.p_jobs = 2 }))

(* run -> make -> to_json -> of_json -> to_json is byte-identical for
   sampled candidates of every subject, and load_any recovers the
   subject from the written file. *)
let test_codec_roundtrip_every_subject () =
  let roundtrip (type e c s) name
      (subject :
        (module Subject.S with type env = e and type cand = c and type sampler = s))
      (config : (e, s) Search.config) =
    let (module S) = subject in
    let env = config.Search.s_env in
    with_tmp_dir (fun dir ->
        for i = 0 to 1 do
          let cand = S.sample config.Search.s_sampler env ~seed:3 i in
          let t = Repro.make ~env ~cand ~report:(S.run env cand) ~note:name in
          let bytes t = Json.to_string (Repro.to_json (module S) t) in
          (match Repro.of_json (module S) (Repro.to_json (module S) t) with
          | Ok decoded ->
            Alcotest.(check string) (name ^ ": bytes round-trip") (bytes t)
              (bytes decoded)
          | Error e -> Alcotest.fail (name ^ ": " ^ e));
          let path = Filename.concat dir (Printf.sprintf "%d.json" i) in
          Repro.save (module S) ~path t;
          match Repro.load_any ~path with
          | Ok (Repro.Any (kind, _)) ->
            let (module K) = Subject.of_kind kind in
            Alcotest.(check string) (name ^ ": load_any picks the subject")
              S.prefix K.prefix
          | Error e -> Alcotest.fail (name ^ ": " ^ e)
        done)
  in
  roundtrip "plain" (module Plain) smoke_config;
  roundtrip "topo" (module Fed) topo_search;
  roundtrip "admit" (module Adm) (admit_search ())

(* Soak on the topology and admission subjects: each written artifact
   loads back as its own subject, under the subject's file-name and
   note prefixes. *)
let test_soak_every_subject () =
  let soak (type e c s) name
      (subject :
        (module Subject.S with type env = e and type cand = c and type sampler = s))
      (config : (e, s) Search.config) =
    let (module S) = subject in
    with_tmp_dir (fun dir ->
        let res =
          Soak.run (module S)
            {
              Soak.so_search = config;
              so_rounds = 2;
              so_wall_budget_s = None;
              so_out_dir = Some dir;
            }
        in
        Alcotest.(check bool) (name ^ ": found something") true
          (res.Soak.so_findings > 0);
        Alcotest.(check int) (name ^ ": one artifact per distinct finding")
          res.Soak.so_findings
          (List.length res.Soak.so_repro_paths);
        List.iter
          (fun path ->
            Alcotest.(check bool) (name ^ ": file prefix") true
              (String.starts_with
                 ~prefix:(Subject.slug S.prefix ^ "chaos_repro_")
                 (Filename.basename path));
            match Repro.load_any ~path with
            | Ok (Repro.Any (kind, t)) ->
              let (module K) = Subject.of_kind kind in
              Alcotest.(check string) (name ^ ": load_any picks the subject")
                S.prefix K.prefix;
              Alcotest.(check bool) (name ^ ": note prefix") true
                (String.starts_with ~prefix:(S.prefix ^ "soak round=")
                   t.Repro.re_note)
            | Error e -> Alcotest.fail (name ^ ": " ^ e))
          res.Soak.so_repro_paths)
  in
  soak "topo" (module Fed) topo_search;
  soak "admit" (module Adm) (admit_search ())

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Decoding is total: every strict prefix of a committed artifact (and
   of the smoke search config) and a set of single-field mutations are
   rejected with [Error] — never an exception. *)
let test_decoding_total () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "mutant.json" in
      let rejected what decode contents =
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc contents);
        match decode path with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail (what ^ ": accepted")
        | exception e ->
          Alcotest.fail (what ^ ": raised " ^ Printexc.to_string e)
      in
      let load_any path = Result.map ignore (Repro.load_any ~path) in
      let load_config path = Result.map ignore (Search.load_config path) in
      let truncations name decode =
        let text = String.trim (read_file (fixture name)) in
        for k = 0 to String.length text - 1 do
          rejected
            (Printf.sprintf "%s cut at %d" name k)
            decode (String.sub text 0 k)
        done
      in
      List.iter
        (fun name -> truncations name load_any)
        [
          "chaos_repro_min.json";
          "topo_chaos_repro_min.json";
          "admit_chaos_repro_min.json";
          "model_repro_min.json";
          "chaos_smoke.json";
        ];
      truncations "chaos_smoke.json" load_config;
      let mutate name f =
        match Json.parse_file (fixture name) with
        | Ok (Json.Obj fields) ->
          List.iter
            (fun (what, fields) ->
              rejected (name ^ ": " ^ what) load_any
                (Json.to_string (Json.Obj fields)))
            (f fields)
        | _ -> Alcotest.fail (name ^ ": not an object")
      in
      let set key v fields =
        List.map (fun (k, x) -> (k, if k = key then v else x)) fields
      in
      let wrong_type = function
        | Json.String _ -> Json.Int 1
        | _ -> Json.String "x"
      in
      let wrong_types fields =
        List.map (fun (k, v) -> ("wrong type " ^ k, set k (wrong_type v) fields)) fields
      in
      let versions key lo hi fields =
        [
          ("version below range", set key (Json.Int (lo - 1)) fields);
          ("version above range", set key (Json.Int (hi + 1)) fields);
        ]
      in
      let nested key inner v fields =
        match List.assoc key fields with
        | Json.Obj sub -> set key (Json.Obj (set inner v sub)) fields
        | _ -> Alcotest.fail (key ^ ": not an object")
      in
      List.iter
        (fun name ->
          mutate name (fun fields ->
              wrong_types fields @ versions "chaos_repro_version" 1 2 fields))
        [ "chaos_repro_min.json"; "model_repro_min.json" ];
      mutate "topo_chaos_repro_min.json" (fun fields ->
          wrong_types fields
          @ versions "topo_chaos_repro_version" 1 1 fields
          @ [
              ( "unknown segment",
                set "plans"
                  (Json.Obj [ ("ghost", Fault_plan.spec_to_json (Fault_plan.iid 0.1)) ])
                  fields );
            ]);
      mutate "admit_chaos_repro_min.json" (fun fields ->
          wrong_types fields
          @ versions "admit_chaos_repro_version" 1 1 fields
          @ [ ("unknown phy", nested "admit" "phy" (Json.String "nosuch") fields) ]))

let suite =
  [
    ( "chaos",
      [
        Alcotest.test_case "generator deterministic" `Quick
          test_generator_deterministic;
        Alcotest.test_case "generator respects budget" `Quick
          test_generator_respects_budget;
        Alcotest.test_case "generator family gates" `Quick
          test_generator_family_gates;
        Alcotest.test_case "search finds seeded violations" `Quick
          test_search_finds_seeded_violations;
        Alcotest.test_case "search deterministic" `Quick
          test_search_deterministic;
        Alcotest.test_case "search watchdog on hung candidate" `Quick
          test_search_watchdog_hung_candidate;
        Alcotest.test_case "search wall budget partial" `Quick
          test_search_wall_budget_partial;
        Alcotest.test_case "search config round-trip" `Quick
          test_search_config_roundtrip;
        Alcotest.test_case "shrink reduces and preserves" `Quick
          test_shrink_reduces_and_preserves;
        Alcotest.test_case "shrink keeps unreproducible input" `Quick
          test_shrink_keeps_unreproducible_input;
        Alcotest.test_case "repro round-trip and replay" `Quick
          test_repro_roundtrip_and_replay;
        Alcotest.test_case "repro rejects bad artifacts" `Quick
          test_repro_rejects_bad_artifacts;
        Alcotest.test_case "repro v1 back-compat" `Quick
          test_repro_v1_back_compat;
        Alcotest.test_case "candidate run deterministic" `Quick
          test_candidate_run_deterministic;
        Alcotest.test_case "soak collects deduped repros" `Quick
          test_soak_collects_deduped_repros;
        Alcotest.test_case "sample_topo deterministic and targeted" `Quick
          test_sample_topo_deterministic_and_targeted;
        Alcotest.test_case "run_topo deterministic and classified" `Slow
          test_run_topo_deterministic_and_classified;
        Alcotest.test_case "topo repro replay and load_any" `Slow
          test_topo_repro_replay_and_load_any;
        Alcotest.test_case "shrink_topo preserves class" `Slow
          test_shrink_topo_preserves_class;
        Alcotest.test_case "topo repro rejects bad artifacts" `Quick
          test_topo_repro_rejects_bad_artifacts;
        Alcotest.test_case "search_topo deterministic" `Slow
          test_search_topo_deterministic;
        Alcotest.test_case "codec round-trip, every subject" `Slow
          test_codec_roundtrip_every_subject;
        Alcotest.test_case "decoding total on cuts and mutations" `Quick
          test_decoding_total;
        Alcotest.test_case "soak writes every subject's artifacts" `Slow
          test_soak_every_subject;
      ] );
  ]
