(* The admission workload: a closed loop with one caller.  Each
   replicate generates a seeded churn trace, writes it, loads it back
   with Request.load_trace and drains it through Service.run with the
   default config, a write-ahead journal and snapshots — what
   [ddcr_admit run --journal] does. *)

module Request = Rtnet_admit.Request
module Engine = Rtnet_admit.Engine
module Journal = Rtnet_admit.Journal
module Service = Rtnet_admit.Service
module Buf = Clock.Buf

let name = "admit_churn"

(* Requests per replicate: the resident set ramps up within the first
   few hundred, so the rest of the trace runs at 10²–10³ flows. *)
let default_requests = 5000

let ok_exn what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

type paths = { trace_file : string; journal_file : string }

let paths ~dir =
  {
    trace_file = Filename.concat dir "churn.json";
    journal_file = Filename.concat dir "churn.wal";
  }

let file_size path = (Unix.stat path).Unix.st_size

type setup = {
  trace : Request.trace;
  hash : string;
  gen_s : float;  (** generate + write the trace file *)
  parse_s : float;  (** Request.load_trace *)
  setup_s : float;  (** load_trace + Engine.create + Journal.create *)
  trace_bytes : int;
  engine : Engine.t;
  writer : Journal.writer;
}

let open_engine (tr : Request.trace) =
  ok_exn "Engine.create"
    (Engine.create ~phy:tr.Request.tr_phy ~num_sources:tr.Request.tr_sources
       ~params:tr.Request.tr_params)

let setup ~paths ~seed ~requests =
  let t0 = Clock.now_ns () in
  Request.save_trace ~path:paths.trace_file (Churn.trace ~seed ~requests);
  let gen_s = Clock.seconds_since t0 in
  let t1 = Clock.now_ns () in
  let trace = ok_exn "load_trace" (Request.load_trace ~path:paths.trace_file) in
  let parse_s = Clock.seconds_since t1 in
  let engine = open_engine trace in
  let hash = Request.trace_hash trace in
  let writer =
    ok_exn "Journal.create"
      (Journal.create ~path:paths.journal_file ~trace_hash:hash)
  in
  let setup_s = Clock.seconds_since t1 in
  {
    trace;
    hash;
    gen_s;
    parse_s;
    setup_s;
    trace_bytes = file_size paths.trace_file;
    engine;
    writer;
  }

type drain = {
  summary : Service.summary;
  drain_s : float;  (** time inside Service.run *)
  wait_ns : int array;
      (** per decision: from the previous journal append's return (or
          the drain's start) to the return of its own; emptied by
          [replicate] unless traced *)
  wait_p50_ns : int;
  append_ns : int array;  (** traced only: Journal.append *)
  snapshot_ns : int array;  (** traced only: the snapshot callback *)
  journal_bytes : int;
  log_digest : string;  (** digest of the journal: the decision log *)
  final_check : (unit, string) result;
  minor_gcs : int;
  major_gcs : int;
}

let drain ~paths ~traced s engine writer =
  let wait = Buf.create () and append = Buf.create () in
  let snap = Buf.create () in
  let prev = ref 0 in
  let journal r =
    if traced then begin
      let a = Clock.now_ns () in
      Journal.append writer r;
      let b = Clock.now_ns () in
      Buf.push append (b - a);
      Buf.push wait (b - !prev);
      prev := b
    end
    else begin
      Journal.append writer r;
      let b = Clock.now_ns () in
      Buf.push wait (b - !prev);
      prev := b
    end
  in
  let save ~seq state =
    ok_exn "save_snapshot"
      (Journal.save_snapshot ~path:paths.journal_file ~trace_hash:s.hash ~seq
         state)
  in
  let snapshot ~seq state =
    if traced then begin
      let a = Clock.now_ns () in
      save ~seq state;
      Buf.push snap (Clock.now_ns () - a)
    end
    else save ~seq state
  in
  let g0 = Gc.quick_stat () in
  let t0 = Clock.now_ns () in
  prev := t0;
  let summary =
    Service.run ~journal ~snapshot Service.default engine ~start:0
      s.trace.Request.tr_requests
  in
  let drain_s = Clock.seconds_since t0 in
  let g1 = Gc.quick_stat () in
  Journal.close writer;
  let wait_ns = Buf.to_array wait in
  {
    summary;
    drain_s;
    wait_ns;
    wait_p50_ns = Quantile.percentile 0.5 wait_ns;
    append_ns = Buf.to_array append;
    snapshot_ns = Buf.to_array snap;
    journal_bytes = file_size paths.journal_file;
    log_digest = Digest.to_hex (Digest.file paths.journal_file);
    final_check = Engine.selfcheck engine;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* Engine.decide and Engine.selfcheck timed directly over the same
   request stream, at the service's default self-check cadence. *)
type direct = {
  decide_ns : int array;
  selfcheck_ns : int array;
  resident_mean : float;
  resident_max : int;
  s1_hit_ratio : float;
}

let direct (tr : Request.trace) =
  let engine = open_engine tr in
  let every = Service.default.Service.sv_selfcheck_every in
  let decide = Buf.create () and check = Buf.create () in
  let sum = ref 0 and peak = ref 0 in
  List.iteri
    (fun i r ->
      let a = Clock.now_ns () in
      ignore (Engine.decide engine r);
      Buf.push decide (Clock.now_ns () - a);
      let n = Engine.size engine in
      sum := !sum + n;
      peak := max !peak n;
      if every > 0 && (i + 1) mod every = 0 then begin
        let a = Clock.now_ns () in
        let res = Engine.selfcheck engine in
        Buf.push check (Clock.now_ns () - a);
        ok_exn "selfcheck" res
      end)
    tr.Request.tr_requests;
  let st = Engine.stats engine in
  let lookups = st.Engine.st_s1_hits + st.Engine.st_s1_misses in
  {
    decide_ns = Buf.to_array decide;
    selfcheck_ns = Buf.to_array check;
    resident_mean =
      float_of_int !sum /. float_of_int (max 1 (Buf.length decide));
    resident_max = !peak;
    s1_hit_ratio =
      (if lookups = 0 then 0.
       else float_of_int st.Engine.st_s1_hits /. float_of_int lookups);
  }

(* What a replicate leaves behind: numbers only, so nothing of one
   replicate's trace or engine stays live into the next. *)
type sample = {
  setup_s : float;
  gen_s : float;
  parse_s : float;
  trace_bytes : int;
  untraced : drain;
  traced : (drain * direct) option;
  attempted : int;
  failed : int;  (** raised, shed Overloaded, or a self-check mismatch *)
  violations : string list;
}

let rejected code (sm : Service.summary) =
  Option.value ~default:0 (List.assoc_opt code sm.Service.sm_rejected)

let replicate ~paths ~seed ~requests ~trace =
  let s = setup ~paths ~seed ~requests in
  let d = drain ~paths ~traced:false s s.engine s.writer in
  let traced =
    if not trace then None
    else
      let engine = open_engine s.trace in
      let writer =
        ok_exn "Journal.create"
          (Journal.create ~path:paths.journal_file ~trace_hash:s.hash)
      in
      let t = drain ~paths ~traced:true s engine writer in
      if t.log_digest <> d.log_digest then
        failwith "traced drain diverged from untraced drain";
      Some (t, direct s.trace)
  in
  (* Per-decision samples are kept only for the traced run's tails, so
     untraced runs hold O(1) per replicate and the heap peak does not
     grow with the number of replicates that fit in the run. *)
  let d = if trace then d else { d with wait_ns = [||] } in
  let sm = d.summary in
  let violations =
    (match sm.Service.sm_mismatch with
    | None -> []
    | Some m -> [ "self-check mismatch: " ^ m ])
    @
    match d.final_check with
    | Ok () -> []
    | Error e -> [ "final self-check: " ^ e ]
  in
  {
    setup_s = s.setup_s;
    gen_s = s.gen_s;
    parse_s = s.parse_s;
    trace_bytes = s.trace_bytes;
    untraced = d;
    traced;
    attempted = List.length s.trace.Request.tr_requests;
    failed =
      rejected "overloaded" sm
      + if sm.Service.sm_mismatch = None then 0 else 1;
    violations;
  }
