(* The benchmark entry point:

     main.exe --workload W --seed N --seconds S --trace 0|1

   runs replicates of workload W (seeds derived from N) until S seconds
   have passed, checks every output, and prints one JSON result line
   last: end-to-end metrics untraced (--trace 0), per-layer metrics
   traced (--trace 1).  Exits 1 if any output is wrong. *)

open Perfbench

let max_wall_s = 150.

(* Replicate [f] until [seconds] have passed and [enough] holds, with
   at least [min_reps] replicates; never past [max_wall_s].  Each
   replicate starts from a collected heap, so it does not pay for the
   previous one's garbage, and is paired with the host slowdown
   measured around it (see Calib).  Replicate 0 is the warm-up: its
   outputs are checked and its counts reported, but timings come from
   the later replicates only (see [timed]). *)
let repeat ~seconds ~min_reps ~enough f =
  let t0 = Clock.now_ns () in
  let rec go i before acc =
    let elapsed = Clock.seconds_since t0 in
    if
      elapsed >= max_wall_s
      || (i >= min_reps && elapsed >= seconds && enough (List.map snd acc))
    then List.rev acc
    else begin
      Gc.full_major ();
      let r = f i in
      let after = Calib.kernel () in
      go (i + 1) after ((Calib.factor ~before ~after, r) :: acc)
    end
  in
  go 0 (Calib.kernel ()) []

let timed reps = List.tl reps
let median_of f xs = Quantile.median (Array.of_list (List.map f xs))
let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let fi = float_of_int
let ns_to_us ns = fi ns *. 1e-3

let peak_heap_mb () =
  fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let digest_check ~workload ~seed digest =
  if seed <> Expected.default_seed then []
  else
    match List.assoc_opt workload Expected.digests with
    | Some d when d = digest -> []
    | Some d ->
      [ Printf.sprintf "%s: digest %s, expected %s" workload digest d ]
    | None -> [ Printf.sprintf "%s: digest %s, none recorded" workload digest ]

type outcome = {
  attempted : int;
  failed : int;
  violations : string list;
  values : (string * float) list;
  digest0 : string;
}

let run_sim spec ~seed ~seconds ~trace =
  let module S = Sim in
  let bounds = S.bounds spec in
  let reps =
    repeat ~seconds ~min_reps:4 ~enough:(fun _ -> true) (fun i ->
        S.replicate spec ~bounds ~seed:(Rtnet_util.Prng.derive seed i) ~trace)
  in
  let r0 = snd (List.hd reps) and reps_k = timed reps in
  let reps_t = List.map snd reps_k in
  let common =
    [
      ("setup_s", median_of (fun (k, r) -> r.S.setup_s /. k) reps_k);
      ( "work_per_s",
        median_of (fun (k, r) -> fi r.S.slot_count /. r.S.run_s *. k) reps_k );
      ("result_s", median_of (fun (k, r) -> r.S.result_s /. k) reps_k);
      ("peak_heap_mb", peak_heap_mb ());
    ]
  in
  let layer =
    if not trace then []
    else
      let tr r = Option.get r.S.traced in
      let t0 = tr r0 in
      let sb = r0.S.scoreboard in
      let slots = fi r0.S.slot_count in
      let slot_ns = Array.concat (List.map (fun r -> (tr r).S.slot_ns) reps_t) in
      let kind k = fi t0.S.slots_by_kind.(k) in
      let kind_s k = median_of (fun r -> (tr r).S.slot_s_by_kind.(k)) reps_t in
      let module Run = Rtnet_stats.Run in
      [
        ("host.slowdown", median_of fst reps_k);
        ("workload.trace_s", median_of (fun r -> r.S.gen_s) reps_t);
        ("workload.messages", fi r0.S.messages);
        ("sim.events", fi (Clock.Buf.length t0.S.rec_.S.event_ts));
        ("mac.slots_idle", kind 0);
        ("mac.slots_tx", kind 1);
        ("mac.slots_collision", kind 2);
        ("mac.slots_garbled", kind 3);
        ("mac.tx_ratio", kind 1 /. slots);
        ("mac.enqueues", fi t0.S.rec_.S.enqueues);
        ("mac.completions", fi t0.S.rec_.S.completions);
        ("mac.slot_ns_p50", fi (Quantile.percentile 0.5 slot_ns));
        ("mac.slot_ns_p99", fi (Quantile.tail 0.99 slot_ns));
        ("mac.slot_s_idle", kind_s 0);
        ("mac.slot_s_tx", kind_s 1);
        ("mac.slot_s_collision", kind_s 2);
        ("ddcr.run_s", median_of (fun r -> r.S.run_s) reps_t);
        ("ddcr.alloc_words_per_slot", r0.S.alloc_words /. slots);
        ("ddcr.searches_time", fi t0.S.rec_.S.searches_time);
        ("ddcr.searches_static", fi t0.S.rec_.S.searches_static);
        ("ddcr.jumps", fi t0.S.rec_.S.jumps);
        ( "ref.ddcr_over_tdma",
          median_of (fun r -> r.S.run_s /. (tr r).S.tdma_s) reps_t );
        ("faults.desync_slots", fi sb.Run.desync_slots);
        ("faults.recoveries", fi sb.Run.recoveries);
        ("faults.misperceived", fi sb.Run.misperceived);
        ("faults.epoch_share", r0.S.epoch_share);
        ("stats.metrics_s", median_of (fun r -> r.S.metrics_s) reps_t);
        ("stats.completions", fi sb.Run.delivered);
        ("gc.minor_collections", median_of (fun r -> fi r.S.minor_gcs) reps_t);
        ("gc.major_collections", median_of (fun r -> fi r.S.major_gcs) reps_t);
        ( "trace.overhead_ratio",
          median_of (fun r -> (tr r).S.traced_run_s /. r.S.run_s) reps_t );
      ]
  in
  {
    attempted = sum (fun (_, r) -> r.S.verdict.S.attempted) reps;
    failed = sum (fun (_, r) -> r.S.verdict.S.failed) reps;
    violations = List.concat_map (fun (_, r) -> r.S.verdict.S.violations) reps;
    values = (if trace then layer else common);
    digest0 = r0.S.digest;
  }

let work_dir = ".perfbench_run"

let with_work_dir f =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  let cleanup () =
    Array.iter
      (fun f -> Sys.remove (Filename.concat work_dir f))
      (Sys.readdir work_dir);
    Sys.rmdir work_dir
  in
  Fun.protect ~finally:cleanup (fun () -> f (Admit.paths ~dir:work_dir))

let run_admit ~seed ~seconds ~trace =
  let module A = Admit in
  let decisions acc = sum (fun r -> r.A.attempted) acc in
  let reps =
    with_work_dir (fun paths ->
        repeat ~seconds ~min_reps:3
          ~enough:(fun acc ->
            (not trace)
            || decisions (timed (List.rev acc)) >= Quantile.min_samples 0.999)
          (fun i ->
            A.replicate ~paths ~seed:(Rtnet_util.Prng.derive seed i)
              ~requests:A.default_requests ~trace))
  in
  let r0 = snd (List.hd reps) and reps_k = timed reps in
  let reps_t = List.map snd reps_k in
  let pooled f = Array.concat (List.map f reps_t) in
  let wait = pooled (fun r -> r.A.untraced.A.wait_ns) in
  let common =
    [
      ("setup_s", median_of (fun (k, r) -> r.A.setup_s /. k) reps_k);
      ( "work_per_s",
        median_of
          (fun (k, r) -> fi r.A.attempted /. r.A.untraced.A.drain_s *. k)
          reps_k );
      ( "result_s",
        median_of (fun (k, r) -> fi r.A.untraced.A.wait_p50_ns /. k) reps_k
        *. 1e-9 );
      ("peak_heap_mb", peak_heap_mb ());
    ]
  in
  let layer =
    if not trace then []
    else
      let tr r = fst (Option.get r.A.traced) in
      let dr r = snd (Option.get r.A.traced) in
      let mean xs =
        if Array.length xs = 0 then 0.
        else Array.fold_left ( +. ) 0. xs /. fi (Array.length xs)
      in
      let us f = Array.map ns_to_us (pooled f) in
      let sm = r0.A.untraced.A.summary in
      let module Service = Rtnet_admit.Service in
      let decide = pooled (fun r -> (dr r).A.decide_ns) in
      [
        ("host.slowdown", median_of fst reps_k);
        ("workload.trace_s", median_of (fun r -> r.A.gen_s) reps_t);
        ("workload.messages", fi r0.A.attempted);
        ("admit.parse_s", median_of (fun r -> r.A.parse_s) reps_t);
        ( "admit.parse_mb_per_s",
          median_of
            (fun r -> fi r.A.trace_bytes /. r.A.parse_s /. 1e6)
            reps_t );
        ("admit.trace_bytes", fi r0.A.trace_bytes);
        ("admit.decisions", fi (Array.length wait));
        ("admit.decide_us_p50", ns_to_us (Quantile.percentile 0.5 decide));
        ("admit.decide_us_p99", ns_to_us (Quantile.tail 0.99 decide));
        ("admit.wait_us_p99", ns_to_us (Quantile.tail 0.99 wait));
        ("admit.wait_us_p999", ns_to_us (Quantile.tail 0.999 wait));
        ("admit.resident_mean", (dr r0).A.resident_mean);
        ("admit.resident_max", fi (dr r0).A.resident_max);
        ( "admit.accept_ratio",
          fi sm.Service.sm_accepted /. fi sm.Service.sm_processed );
        ("admit.rejected_infeasible", fi (A.rejected "infeasible" sm));
        ("admit.s1_hit_ratio", (dr r0).A.s1_hit_ratio);
        ("admit.selfchecks", fi sm.Service.sm_selfchecks);
        ( "admit.selfcheck_ms_mean",
          mean (us (fun r -> (dr r).A.selfcheck_ns)) *. 1e-3 );
        ( "admit.journal_append_us_p50",
          ns_to_us (Quantile.percentile 0.5 (pooled (fun r -> (tr r).A.append_ns))) );
        ("admit.journal_bytes", fi r0.A.untraced.A.journal_bytes);
        ("admit.snapshots", fi (Array.length (tr r0).A.snapshot_ns));
        ( "admit.snapshot_ms_mean",
          mean (us (fun r -> (tr r).A.snapshot_ns)) *. 1e-3 );
        ( "gc.minor_collections",
          median_of (fun r -> fi r.A.untraced.A.minor_gcs) reps_t );
        ( "gc.major_collections",
          median_of (fun r -> fi r.A.untraced.A.major_gcs) reps_t );
        ( "trace.overhead_ratio",
          median_of
            (fun r -> (tr r).A.drain_s /. r.A.untraced.A.drain_s)
            reps_t );
      ]
  in
  {
    attempted = sum (fun (_, r) -> r.A.attempted) reps;
    failed = sum (fun (_, r) -> r.A.failed) reps;
    violations = List.concat_map (fun (_, r) -> r.A.violations) reps;
    values = (if trace then layer else common);
    digest0 = r0.A.untraced.A.log_digest;
  }

let workloads =
  List.map (fun spec -> (spec.Sim.name, run_sim spec)) Sim.specs
  @ [ (Admit.name, run_admit) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

let () =
  let workload = ref "" and seed = ref Expected.default_seed in
  let seconds = ref 10. and trace = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest ->
      (match int_of_string_opt n with Some n -> seed := n | None -> usage ());
      parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
      | Some s when s > 0. -> seconds := s
      | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None -> usage ()
  in
  match run ~seed:!seed ~seconds:!seconds ~trace:!trace with
  | exception e ->
    Printf.eprintf "perfbench: %s raised %s\n" !workload (Printexc.to_string e);
    print_endline
      (Report.to_line ~correct:false ~attempted:1 ~failed:1 []);
    exit 1
  | o ->
    let violations =
      o.violations @ digest_check ~workload:!workload ~seed:!seed o.digest0
    in
    List.iter (fun v -> Printf.eprintf "perfbench: FAIL %s\n" v) violations;
    let correct = violations = [] && o.failed = 0 in
    print_endline
      (Report.to_line ~correct ~attempted:o.attempted ~failed:o.failed
         (Catalogue.render ~trace:!trace o.values));
    if not correct then exit 1
