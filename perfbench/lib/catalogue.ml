(* Every metric the benchmark prints, with its unit.  BENCHMARK.json
   declares the same names (a test keeps the two in step); each run
   prints all end-to-end metrics untraced and all per-layer metrics
   traced, whatever the workload — a layer a workload never enters
   reports 0. *)

let end_to_end =
  [
    ("setup_s", "s", "lower");
    ("work_per_s", "1/s", "higher");
    ("result_s", "s", "lower");
    ("peak_heap_mb", "MB", "lower");
  ]

let per_layer =
  [
    ("host.slowdown", "ratio");
    ("workload.trace_s", "s");
    ("workload.messages", "count");
    ("sim.events", "count");
    ("mac.slots_idle", "count");
    ("mac.slots_tx", "count");
    ("mac.slots_collision", "count");
    ("mac.slots_garbled", "count");
    ("mac.tx_ratio", "ratio");
    ("mac.enqueues", "count");
    ("mac.completions", "count");
    ("mac.slot_ns_p50", "ns");
    ("mac.slot_ns_p99", "ns");
    ("mac.slot_s_idle", "s");
    ("mac.slot_s_tx", "s");
    ("mac.slot_s_collision", "s");
    ("ddcr.run_s", "s");
    ("ddcr.alloc_words_per_slot", "words");
    ("ddcr.searches_time", "count");
    ("ddcr.searches_static", "count");
    ("ddcr.jumps", "count");
    ("ref.ddcr_over_tdma", "ratio");
    ("faults.desync_slots", "count");
    ("faults.recoveries", "count");
    ("faults.misperceived", "count");
    ("faults.epoch_share", "ratio");
    ("stats.metrics_s", "s");
    ("stats.completions", "count");
    ("admit.parse_s", "s");
    ("admit.parse_mb_per_s", "MB/s");
    ("admit.trace_bytes", "bytes");
    ("admit.decisions", "count");
    ("admit.decide_us_p50", "us");
    ("admit.decide_us_p99", "us");
    ("admit.wait_us_p99", "us");
    ("admit.wait_us_p999", "us");
    ("admit.resident_mean", "count");
    ("admit.resident_max", "count");
    ("admit.accept_ratio", "ratio");
    ("admit.rejected_infeasible", "count");
    ("admit.s1_hit_ratio", "ratio");
    ("admit.selfchecks", "count");
    ("admit.selfcheck_ms_mean", "ms");
    ("admit.journal_append_us_p50", "us");
    ("admit.journal_bytes", "bytes");
    ("admit.snapshots", "count");
    ("admit.snapshot_ms_mean", "ms");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("trace.overhead_ratio", "ratio");
  ]

(* Render [values] (name -> value) in catalogue order.  An end-to-end
   metric must be measured; a per-layer metric the workload does not
   exercise is 0. *)
let render ~trace values =
  List.iter
    (fun (name, _) ->
      if
        not
          (List.mem_assoc name per_layer
          || List.exists (fun (n, _, _) -> n = name) end_to_end)
      then invalid_arg ("Catalogue.render: unknown metric " ^ name))
    values;
  if trace then
    List.map
      (fun (name, unit_) ->
        Report.metric name unit_
          (Option.value ~default:0. (List.assoc_opt name values)))
      per_layer
  else
    List.map
      (fun (name, unit_, _) ->
        match List.assoc_opt name values with
        | Some v -> Report.metric name unit_ v
        | None -> invalid_arg ("Catalogue.render: unmeasured " ^ name))
      end_to_end
