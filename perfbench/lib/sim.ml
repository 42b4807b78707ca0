(* The simulator workloads: one seeded arrival trace per replicate,
   simulated by Ddcr.run_trace and scored by Run.metrics, exactly as a
   user of the library drives them. *)

module Ddcr = Rtnet_core.Ddcr
module Ddcr_params = Rtnet_core.Ddcr_params
module Feasibility = Rtnet_core.Feasibility
module Instance = Rtnet_workload.Instance
module Scenarios = Rtnet_workload.Scenarios
module Arrival = Rtnet_workload.Arrival
module Message = Rtnet_workload.Message
module Channel = Rtnet_channel.Channel
module Fault_plan = Rtnet_channel.Fault_plan
module Run = Rtnet_stats.Run
module Sink = Rtnet_telemetry.Sink
module Tdma = Rtnet_baselines.Tdma
module Prng = Rtnet_util.Prng
module Buf = Clock.Buf

let ms = 1_000_000

type spec = {
  name : string;
  sources : int;
  load : float;  (** peak offered load of Scenarios.uniform *)
  deadline_windows : float;
  horizon_ms : int;
  faulted : bool;  (** run under a misperception + crash-window plan *)
  bound_check : bool;
      (** every message that arrived at least its class's cr_bound_impl
          before the horizon finished within that bound *)
}

(* Horizons are per replicate: a run grows by independent replicates,
   never by a longer horizon.  The dense horizon stays at 200 ms so the
   O(n²) Run.inversions scan dominates time-to-scoreboard, as it does
   for users.  The wide horizon (100 ms) is about twice the classes'
   B_DDCR (about 45 ms), so the messages of the first half must finish
   within their bound by the horizon and the bound check can fail. *)
let dense =
  {
    name = "sim_dense";
    sources = 16;
    load = 0.7;
    deadline_windows = 4.;
    horizon_ms = 200;
    faulted = false;
    bound_check = false;
  }

let wide =
  {
    name = "sim_wide";
    sources = 1024;
    load = 0.3;
    deadline_windows = 2.;
    horizon_ms = 100;
    faulted = false;
    bound_check = true;
  }

let faulted =
  {
    name = "sim_faulted";
    sources = 64;
    load = 0.3;
    deadline_windows = 4.;
    horizon_ms = 10;
    faulted = true;
    bound_check = false;
  }

let specs = [ dense; wide; faulted ]

(* Per-source, per-slot probability that a listening station decodes
   the slot differently from the wire. *)
let misperception = 1e-4

(* Scenarios.uniform's Greedy_burst ignores the seed; Sporadic draws
   its slack from it. *)
let instance spec =
  Instance.with_law
    (Scenarios.uniform ~sources:spec.sources ~classes_per_source:1
       ~load:spec.load ~deadline_windows:spec.deadline_windows)
    (Arrival.Sporadic { mean_slack = 0.1 })

type setup = {
  inst : Instance.t;
  params : Ddcr_params.t;
  trace : Message.t list;
  horizon : int;
  plan : Fault_plan.spec option;
  plan_seed : int;
  trace_s : float;  (** host seconds in Instance.trace *)
}

(* One station crashes for a tenth of the horizon, somewhere in its
   second quarter, on top of i.i.d. misperception. *)
let plan_spec spec ~seed ~horizon =
  if not spec.faulted then None
  else
    let rng = Prng.create seed in
    let source = Prng.int rng spec.sources in
    let from_ = (horizon / 4) + Prng.int rng (horizon / 4) in
    Some
      (Fault_plan.compose
         (Fault_plan.misperceive misperception)
         (Fault_plan.crash ~source ~from_ ~until:(from_ + (horizon / 10))))

let setup spec ~seed =
  let horizon = spec.horizon_ms * ms in
  let inst = instance spec in
  let params = Ddcr_params.default inst in
  let t0 = Clock.now_ns () in
  let trace = Instance.trace inst ~seed:(Prng.derive seed 0) ~horizon in
  let trace_s = Clock.seconds_since t0 in
  let plan_seed = Prng.derive seed 1 in
  {
    inst;
    params;
    trace;
    horizon;
    plan = plan_spec spec ~seed:plan_seed ~horizon;
    plan_seed;
    trace_s;
  }

let simulate ?(sink = Sink.null) s =
  let plan =
    Option.map
      (fun sp -> Fault_plan.create ~horizon:s.horizon ~seed:s.plan_seed sp)
      s.plan
  in
  Ddcr.run_trace ~sink ?plan s.params s.inst s.trace ~horizon:s.horizon

let slots (o : Run.outcome) =
  match o.Run.channel with
  | None -> 0
  | Some c ->
    c.Channel.idle_slots + c.Channel.collision_slots + c.Channel.tx_count
    + c.Channel.garbled_count

(* The digest a seed must reproduce: every completion as (uid, source,
   start, finish), in completion order. *)
let digest (o : Run.outcome) =
  let b = Buffer.create 65536 in
  List.iter
    (fun c ->
      Printf.bprintf b "%d %d %d %d\n" c.Run.c_msg.Message.uid
        c.Run.c_msg.Message.cls.Message.cls_source c.Run.c_start c.Run.c_finish)
    o.Run.completions;
  Digest.to_hex (Digest.string (Buffer.contents b))

type verdict = {
  attempted : int;
      (** messages the run must account for: completed, dropped, or
          due by the horizon — by deadline, or by B_DDCR when bounds
          are checked *)
  failed : int;
      (** late, dropped, or not completed when due, outside every
          fault epoch *)
  violations : string list;  (** broken correctness claims *)
}

(* A miss is excused only when a fault epoch overlaps the window from
   the earlier of frame start and deadline up to the finish — the rule
   Trace_check applies (TRC-DEGRADED). *)
let excused epochs ~lo ~finish =
  List.exists (fun (s, e) -> s < finish && lo < e) epochs

(* Every message of the trace is judged, so one the simulator loses
   (neither completed, dropped nor left queued) fails too. *)
let verdict spec ~bounds s (o : Run.outcome) (m : Run.metrics) =
  let by_deadline msg = Message.abs_deadline msg <= s.horizon in
  (* B_DDCR lies below the deadline: a message whose bound has passed
     by the horizon must have finished even if its deadline has not. *)
  let by_bound msg =
    match
      Option.bind bounds (List.assoc_opt msg.Message.cls.Message.cls_id)
    with
    | Some b -> float_of_int msg.Message.arrival +. b <= float_of_int s.horizon
    | None -> false
  in
  let epochs =
    match o.Run.faults with Some f -> f.Run.f_epochs | None -> []
  in
  let completed = Hashtbl.create 4096 and dropped = Hashtbl.create 16 in
  List.iter
    (fun c -> Hashtbl.replace completed c.Run.c_msg.Message.uid c)
    o.Run.completions;
  List.iter (fun msg -> Hashtbl.replace dropped msg.Message.uid ()) o.Run.dropped;
  let attempted = ref 0 and misses = ref 0 and overdue = ref 0 in
  List.iter
    (fun msg ->
      match Hashtbl.find_opt completed msg.Message.uid with
      | Some c ->
        incr attempted;
        if
          Run.missed c
          && not
               (excused epochs
                  ~lo:(min c.Run.c_start (Message.abs_deadline msg))
                  ~finish:c.Run.c_finish)
        then incr misses
      | None ->
        let is_dropped = Hashtbl.mem dropped msg.Message.uid in
        if is_dropped || by_deadline msg || by_bound msg then begin
          incr attempted;
          if not (excused epochs ~lo:msg.Message.arrival ~finish:s.horizon)
          then
            if is_dropped || by_deadline msg then incr misses
            else incr overdue
        end)
    s.trace;
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun v -> violations := v :: !violations) fmt
  in
  if o.Run.faults = None && !misses <> m.Run.deadline_misses then
    violate "%s: scoreboard counts %d misses, the trace %d" spec.name
      m.Run.deadline_misses !misses;
  if !overdue > 0 then
    violate "%s: %d messages not completed past B_DDCR at the horizon"
      spec.name !overdue;
  (match bounds with
  | None -> ()
  | Some bounds ->
    List.iter
      (fun (cls, worst) ->
        match List.assoc_opt cls bounds with
        | Some bound when float_of_int worst <= bound -> ()
        | Some bound ->
          violate "%s: class %d worst latency %d > B_DDCR %.0f" spec.name cls
            worst bound
        | None -> violate "%s: class %d has no bound" spec.name cls)
      (Run.per_class_worst_latency o));
  {
    attempted = !attempted;
    failed = !misses + !overdue;
    violations = List.rev !violations;
  }

(* Per-class implementation bound from the Section 4.3 analysis,
   computed once per run (it is O(n²) in the class count). *)
let bounds spec =
  if not spec.bound_check then None
  else
    let inst = instance spec in
    let report = Feasibility.check (Ddcr_params.default inst) inst in
    Some
      (List.map
         (fun r ->
           (r.Feasibility.cr_cls.Message.cls_id, r.Feasibility.cr_bound_impl))
         report.Feasibility.per_class)

(* ---------------- traced pass (per layer) ---------------- *)

(* Keeps every probe's host timestamp in memory; nothing is written
   until the run ends. *)
type recorder = {
  slot_ts : Buf.t;
  slot_kind : Buf.t;  (** 0 idle, 1 tx, 2 collision, 3 garbled *)
  event_ts : Buf.t;
  search_ts : Buf.t;
  mutable enqueues : int;
  mutable completions : int;
  mutable searches_time : int;
  mutable searches_static : int;
  mutable jumps : int;
}

let recorder () =
  {
    slot_ts = Buf.create ();
    slot_kind = Buf.create ();
    event_ts = Buf.create ();
    search_ts = Buf.create ();
    enqueues = 0;
    completions = 0;
    searches_time = 0;
    searches_static = 0;
    jumps = 0;
  }

let kind_of = function
  | Channel.Idle -> 0
  | Channel.Tx _ -> 1
  | Channel.Clash _ -> 2
  | Channel.Garbled _ -> 3

let sink r =
  Sink.create
    ~slot:(fun ~now:_ ~next_free:_ ~resolution ->
      Buf.push r.slot_ts (Clock.now_ns ());
      Buf.push r.slot_kind (kind_of resolution))
    ~enqueue:(fun ~now:_ ~msg:_ -> r.enqueues <- r.enqueues + 1)
    ~complete:(fun ~msg:_ ~start:_ ~finish:_ ->
      r.completions <- r.completions + 1)
    ~search:(fun ~tree ~start:_ ~finish:_ ~sent:_ ->
      Buf.push r.search_ts (Clock.now_ns ());
      match tree with
      | Sink.Time_tree -> r.searches_time <- r.searches_time + 1
      | Sink.Static_tree -> r.searches_static <- r.searches_static + 1)
    ~jump:(fun ~now:_ ~reft_from:_ ~reft_to:_ -> r.jumps <- r.jumps + 1)
    ~engine_event:(fun ~time:_ -> Buf.push r.event_ts (Clock.now_ns ()))
    ()

type traced = {
  rec_ : recorder;
  traced_run_s : float;
  tdma_s : float;  (** TDMA on the same trace, for the reference ratio *)
  slot_ns : int array;
      (** host nanoseconds between consecutive slot probes: the cost of
          one slot (decide, contend, observe every replica, engine
          bookkeeping) *)
  slot_s_by_kind : float array;  (** host seconds per slot kind *)
  slots_by_kind : int array;
}

let trace_pass s ~digest:expected ~slot_count =
  let r = recorder () in
  let t0 = Clock.now_ns () in
  let o = simulate ~sink:(sink r) s in
  let traced_run_s = Clock.seconds_since t0 in
  if digest o <> expected then failwith "traced run diverged from untraced run";
  if Buf.length r.slot_ts <> slot_count then
    failwith "slot probe count disagrees with the channel statistics";
  let t1 = Clock.now_ns () in
  ignore (Tdma.run_trace s.inst s.trace ~horizon:s.horizon);
  let tdma_s = Clock.seconds_since t1 in
  let n = Buf.length r.slot_ts in
  let slot_ns =
    Array.init n (fun i ->
        Buf.get r.slot_ts i - if i = 0 then t0 else Buf.get r.slot_ts (i - 1))
  in
  let ns_by_kind = Array.make 4 0 and slots_by_kind = Array.make 4 0 in
  Array.iteri
    (fun i d ->
      let k = Buf.get r.slot_kind i in
      ns_by_kind.(k) <- ns_by_kind.(k) + d;
      slots_by_kind.(k) <- slots_by_kind.(k) + 1)
    slot_ns;
  {
    rec_ = r;
    traced_run_s;
    tdma_s;
    slot_ns;
    slot_s_by_kind = Array.map (fun ns -> float_of_int ns *. 1e-9) ns_by_kind;
    slots_by_kind;
  }

(* ---------------- one replicate ---------------- *)

type sample = {
  setup_s : float;  (** instance + params + trace (+ plan) *)
  gen_s : float;  (** the trace generation part of setup *)
  run_s : float;  (** Ddcr.run_trace *)
  result_s : float;  (** run_trace start to Run.metrics return *)
  metrics_s : float;  (** Run.metrics *)
  slot_count : int;
  alloc_words : float;  (** allocated during run_trace *)
  minor_gcs : int;
  major_gcs : int;
  messages : int;
  scoreboard : Run.metrics;
  epoch_share : float;  (** fraction of the horizon inside fault epochs *)
  verdict : verdict;
  digest : string;
  traced : traced option;
}

let replicate spec ~bounds ~seed ~trace =
  let t0 = Clock.now_ns () in
  let s = setup spec ~seed in
  let setup_s = Clock.seconds_since t0 in
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t1 = Clock.now_ns () in
  let o = simulate s in
  let t2 = Clock.now_ns () in
  let w1 = Gc.minor_words () in
  let m = Run.metrics o in
  let t3 = Clock.now_ns () in
  let g1 = Gc.quick_stat () in
  let secs a b = float_of_int (b - a) *. 1e-9 in
  let digest = digest o and slot_count = slots o in
  let epoch_share =
    match o.Run.faults with
    | None -> 0.
    | Some f ->
      float_of_int
        (List.fold_left (fun acc (a, b) -> acc + (b - a)) 0 f.Run.f_epochs)
      /. float_of_int s.horizon
  in
  {
    setup_s;
    gen_s = s.trace_s;
    run_s = secs t1 t2;
    result_s = secs t1 t3;
    metrics_s = secs t2 t3;
    slot_count;
    alloc_words = w1 -. w0;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    messages = List.length s.trace;
    scoreboard = m;
    epoch_share;
    verdict = verdict spec ~bounds s o m;
    digest;
    traced = (if trace then Some (trace_pass s ~digest ~slot_count) else None);
  }
