module Message = Rtnet_workload.Message
module Channel = Rtnet_channel.Channel
module Fault_plan = Rtnet_channel.Fault_plan
module Edf_queue = Rtnet_edf.Edf_queue
module Run = Rtnet_stats.Run
module Engine = Rtnet_sim.Engine
module Sink = Rtnet_telemetry.Sink

type services = {
  channel : Channel.t;
  peek : int -> Message.t option;
  pop : int -> Message.t option;
  complete : Message.t -> start:int -> finish:int -> unit;
  drop : Message.t -> unit;
  deliver_until : int -> unit;
  iter_backlog : (int -> unit) -> unit;
  alive : int -> bool;
  observed : int -> Channel.resolution;
  mark_desync : int -> unit;
  mark_resync : int -> unit;
}

type mismatch = {
  mm_slot : int;
  mm_source : int;
  mm_tag : int;
  mm_reason : string;
}

exception Mismatch of mismatch

let mismatch_message m =
  Printf.sprintf "slot at t=%d: source %d, tag %d: %s" m.mm_slot m.mm_source
    m.mm_tag m.mm_reason

let () =
  Printexc.register_printer (function
    | Mismatch m -> Some ("Rtnet_mac.Harness.Mismatch: " ^ mismatch_message m)
    | _ -> None)

(* Post-run invariant check (the [?analyze] flag): the completion list
   the harness assembled must reconcile exactly with the channel's
   transmission log — same multiset of (source, uid, start, finish) —
   and no two completions may overlap on the wire.  [Channel.check_safety]
   already re-examines the channel's own log; this pass catches
   bookkeeping divergence between the protocol layer and the medium. *)
let reconcile completions channel =
  let of_completion c =
    ( c.Run.c_msg.Message.cls.Message.cls_source,
      c.Run.c_msg.Message.uid,
      c.Run.c_start,
      c.Run.c_finish )
  in
  let ours = List.sort compare (List.map of_completion completions) in
  let theirs = List.sort compare (Channel.carried channel) in
  let problems = ref [] in
  if List.length ours <> List.length theirs then
    problems :=
      Printf.sprintf "%d completions recorded but the channel carried %d"
        (List.length ours) (List.length theirs)
      :: !problems
  else
    List.iter2
      (fun ((s1, u1, t1, f1) as a) b ->
        if a <> b then
          let s2, u2, t2, f2 = b in
          problems :=
            Printf.sprintf
              "completion (src %d uid %d [%d, %d)) disagrees with the channel \
               log entry (src %d uid %d [%d, %d))"
              s1 u1 t1 f1 s2 u2 t2 f2
            :: !problems)
      ours theirs;
  let by_start =
    List.sort (fun a b -> compare a.Run.c_start b.Run.c_start) completions
  in
  let rec overlaps = function
    | a :: (b :: _ as rest) ->
      if b.Run.c_start < a.Run.c_finish then
        problems :=
          Printf.sprintf "completions uid %d and uid %d overlap on the wire"
            a.Run.c_msg.Message.uid b.Run.c_msg.Message.uid
          :: !problems;
      overlaps rest
    | [ _ ] | [] -> ()
  in
  overlaps by_start;
  List.rev !problems

(* A listener's local decoding of the wire under misperception: a
   carried frame decodes as CRC-garbage, a destructive collision as
   silence (the fragment is below its carrier-sense threshold).  Both
   mapped observations are feedback values the protocols already
   tolerate, so misperception degrades consistency — never the local
   automaton's own invariants.  Arbitrated-survivor slots and the
   listener's own transmissions are immune (the survivor's preamble
   re-synchronizes receivers; a sender knows what it sent). *)
let misperceived_view (resolution : Channel.resolution) =
  match resolution with
  | Channel.Tx { on_wire; _ } -> Channel.Garbled { on_wire }
  | Channel.Clash { survivor = None; _ } -> Channel.Idle
  | Channel.Idle | Channel.Garbled _ | Channel.Clash { survivor = Some _; _ }
    ->
    resolution

type epochs = { closed : (int * int) list; current : (int * int) option }

let no_epochs = { closed = []; current = None }

(* Adjacent/overlapping faulty slots coalesce because the next slot
   starts exactly at this one's [next_free]. *)
let note_epoch ep ~start ~finish =
  match ep.current with
  | Some (s, e) when start <= e -> { ep with current = Some (s, max e finish) }
  | Some span -> { closed = span :: ep.closed; current = Some (start, finish) }
  | None -> { ep with current = Some (start, finish) }

let epoch_list ep =
  List.rev (match ep.current with Some span -> span :: ep.closed | None -> ep.closed)

let arrival_order a b =
  compare
    (a.Message.arrival, a.Message.uid)
    (b.Message.arrival, b.Message.uid)

let run ~protocol ?fault ?plan ?(analyze = true) ?(sink = Sink.null)
    ?on_complete ?inject ~phy ~num_sources ~horizon ~decide ~after trace =
  let telemetry = sink.Sink.enabled in
  let channel = Channel.create ?fault ?plan phy in
  let queues = Array.make num_sources Edf_queue.empty in
  (* The sources with a non-empty queue, ascending, in
     [backlog.(0 .. !backlogged - 1)].  A queue turning non-empty or
     empty shifts the tail in place: no allocation, and at most one
     insertion and one removal per message. *)
  let backlog = Array.make num_sources 0 in
  let backlogged = ref 0 in
  let backlog_index s =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if backlog.(mid) < s then go (mid + 1) hi else go lo mid
    in
    go 0 !backlogged
  in
  let backlog_add s =
    let i = backlog_index s in
    Array.blit backlog i backlog (i + 1) (!backlogged - i);
    backlog.(i) <- s;
    incr backlogged
  in
  let backlog_remove s =
    let i = backlog_index s in
    Array.blit backlog (i + 1) backlog i (!backlogged - i - 1);
    decr backlogged
  in
  let completions = ref [] in
  let dropped = ref [] in
  let arrivals = ref (List.sort arrival_order trace) in
  (* Arrivals at or after the horizon stay undelivered, whoever asks:
     a burst may reach past the horizon, but the run ends there. *)
  let deliver now =
    let now = min now (horizon - 1) in
    let rec go = function
      | m :: rest when m.Message.arrival <= now ->
        let s = m.Message.cls.Message.cls_source in
        if s < 0 || s >= num_sources then
          failwith
            (Printf.sprintf
               "harness: arrival for unknown source %d (instance has %d \
                sources)"
               s num_sources);
        if Edf_queue.is_empty queues.(s) then backlog_add s;
        queues.(s) <- Edf_queue.insert queues.(s) m;
        if telemetry then sink.Sink.enqueue ~now ~msg:m;
        go rest
      | rest -> arrivals := rest
    in
    go !arrivals
  in
  (* Per-source fault bookkeeping (only populated under a plan). *)
  let alive_now = Array.make num_sources true in
  let wire = ref Channel.Idle in
  let observed_now = Array.make num_sources Channel.Idle in
  (* [attempted_at.(s) = now]: [s] contended in the slot starting at
     [now] (slot starts strictly increase, so no reset is needed). *)
  let attempted_at = Array.make num_sources (-1) in
  let crashed_slots = Array.make num_sources 0 in
  let missed = Array.make num_sources 0 in
  let misperceived = Array.make num_sources 0 in
  let desync_slots = Array.make num_sources 0 in
  let resyncs = Array.make num_sources 0 in
  let slot_faulty = ref false in
  let epochs = ref no_epochs in
  let services =
    {
      channel;
      peek = (fun src -> Edf_queue.peek queues.(src));
      pop =
        (fun src ->
          match Edf_queue.pop queues.(src) with
          | Some (m, q) ->
            queues.(src) <- q;
            if Edf_queue.is_empty q then backlog_remove src;
            Some m
          | None -> None);
      complete =
        (fun m ~start ~finish ->
          if telemetry then sink.Sink.complete ~msg:m ~start ~finish;
          (match on_complete with
          | None -> ()
          | Some f -> f ~msg:m ~start ~finish);
          completions :=
            { Run.c_msg = m; c_start = start; c_finish = finish }
            :: !completions);
      drop =
        (fun m ->
          if telemetry then sink.Sink.drop ~msg:m;
          dropped := m :: !dropped);
      deliver_until = (fun time -> deliver time);
      iter_backlog =
        (fun f ->
          for i = 0 to !backlogged - 1 do
            f backlog.(i)
          done);
      alive = (fun src -> alive_now.(src));
      observed =
        (match plan with
        | None -> fun _ -> !wire
        | Some _ -> fun src -> observed_now.(src));
      mark_desync =
        (fun src ->
          desync_slots.(src) <- desync_slots.(src) + 1;
          slot_faulty := true);
      mark_resync = (fun src -> resyncs.(src) <- resyncs.(src) + 1);
    }
  in
  let take ~now src tag =
    match services.pop src with
    | Some m when m.Message.uid = tag -> m
    | Some m ->
      raise
        (Mismatch
           {
             mm_slot = now;
             mm_source = src;
             mm_tag = tag;
             mm_reason =
               Printf.sprintf
                 "transmitted tag disagrees with the EDF head (uid %d)"
                 m.Message.uid;
           })
    | None ->
      raise
        (Mismatch
           {
             mm_slot = now;
             mm_source = src;
             mm_tag = tag;
             mm_reason = "transmitted from an empty queue";
           })
  in
  let engine =
    if telemetry then
      Engine.create ~on_step:(fun ~time -> sink.Sink.engine_event ~time) ()
    else Engine.create ()
  in
  let rec slot eng =
    let now = Engine.now eng in
    (* Bridge ingress (multi-hop topologies): the injector may hand the
       harness new messages at any slot boundary; they join the arrival
       stream and become visible to the EDF queues exactly like trace
       arrivals (at the first boundary at or after their arrival time). *)
    (match inject with
    | None -> ()
    | Some f -> (
      match f ~now with
      | [] -> ()
      | injected ->
        arrivals :=
          List.merge arrival_order
            (List.sort arrival_order injected)
            !arrivals));
    deliver now;
    slot_faulty := false;
    (match plan with
    | None -> ()
    | Some p ->
      for s = 0 to num_sources - 1 do
        let a = Fault_plan.alive p ~source:s ~now in
        alive_now.(s) <- a;
        if not a then begin
          crashed_slots.(s) <- crashed_slots.(s) + 1;
          slot_faulty := true
        end
      done);
    let attempts = decide services ~now in
    (* A crashed source transmits nothing, whatever the protocol's
       decision callback returned. *)
    let attempts =
      match plan with
      | None -> attempts
      | Some _ ->
        List.filter (fun a -> alive_now.(a.Channel.att_source)) attempts
    in
    let resolution, next_free = Channel.contend channel ~now attempts in
    if telemetry then sink.Sink.slot ~now ~next_free ~resolution;
    wire := resolution;
    (match plan with
    | None -> () (* every source observes the wire *)
    | Some p ->
      List.iter (fun a -> attempted_at.(a.Channel.att_source) <- now) attempts;
      (match resolution with
      | Channel.Garbled _ ->
        (* Wire-level noise destroyed a frame: the slot is degraded
           even though everyone observed it consistently. *)
        slot_faulty := true
      | _ -> ());
      for s = 0 to num_sources - 1 do
        if not alive_now.(s) then begin
          observed_now.(s) <- Channel.Idle;
          match resolution with
          | Channel.Idle -> ()
          | _ -> missed.(s) <- missed.(s) + 1
        end
        else begin
          let listener = attempted_at.(s) <> now in
          let flips = Fault_plan.misperceives p ~source:s ~now in
          let obs =
            if listener && flips then misperceived_view resolution
            else resolution
          in
          observed_now.(s) <- obs;
          if obs <> resolution then begin
            misperceived.(s) <- misperceived.(s) + 1;
            slot_faulty := true
          end
        end
      done);
    (match resolution with
    | Channel.Idle | Channel.Garbled _ | Channel.Clash { survivor = None; _ } ->
      ()
    | Channel.Tx { src; tag; on_wire } ->
      let m = take ~now src tag in
      services.complete m ~start:now ~finish:(now + on_wire)
    | Channel.Clash { survivor = Some (src, tag, on_wire); _ } ->
      let m = take ~now src tag in
      let start = now + Channel.slot_bits channel in
      services.complete m ~start ~finish:(start + on_wire));
    let next_free = after services ~now ~resolution ~next_free in
    if !slot_faulty then epochs := note_epoch !epochs ~start:now ~finish:next_free;
    if next_free < horizon then Engine.schedule_at eng ~time:next_free slot
  in
  Engine.schedule_at engine ~time:0 slot;
  Engine.run engine;
  (match Channel.check_safety channel with
  | Ok () -> ()
  | Error reason -> failwith ("MAC safety violated: " ^ reason));
  if analyze then begin
    match reconcile !completions channel with
    | [] -> ()
    | problems ->
      failwith ("harness analyze: " ^ String.concat "; " problems)
  end;
  let unfinished =
    Array.fold_right
      (fun q acc -> Edf_queue.to_sorted_list q @ acc)
      queues
      (List.filter (fun m -> m.Message.arrival < horizon) !arrivals)
  in
  let faults =
    match plan with
    | None -> None
    | Some _ ->
      let epochs = epoch_list !epochs in
      if telemetry then
        List.iter (fun (start, finish) -> sink.Sink.epoch ~start ~finish) epochs;
      Some
        {
          Run.f_per_source =
            List.init num_sources (fun s ->
                {
                  Run.sf_source = s;
                  sf_crashed_slots = crashed_slots.(s);
                  sf_missed = missed.(s);
                  sf_misperceived = misperceived.(s);
                  sf_desync_slots = desync_slots.(s);
                  sf_resyncs = resyncs.(s);
                });
          f_epochs = epochs;
        }
  in
  {
    Run.protocol;
    completions = List.rev !completions;
    unfinished;
    dropped = List.rev !dropped;
    horizon;
    channel = Some (Channel.stats channel);
    faults;
  }
