module Message = Rtnet_workload.Message
module Instance = Rtnet_workload.Instance
module Channel = Rtnet_channel.Channel
module Phy = Rtnet_channel.Phy
module Edf_queue = Rtnet_edf.Edf_queue
module Harness = Rtnet_mac.Harness
module Ddcr = Rtnet_core.Ddcr
module Replicas = Rtnet_core.Ddcr.Replicas
module Step = Rtnet_core.Ddcr.Step
module Ddcr_params = Rtnet_core.Ddcr_params

(* The model's transition relation: one contention slot of the whole
   system as a pure function of (node, fault action).  The replica
   system is the simulator's own ([Ddcr.Replicas], stepped on a copy),
   channel resolution is [Channel.resolve], the epoch ledger is the
   harness's and the excuse rule [Trace_check.inside_epoch].  What the
   simulator samples randomly (garbles, misperceptions, crash windows)
   is the explorer's branching choice, at most ONE fault action per
   slot.  A node therefore corresponds exactly to one reachable
   configuration of Ddcr.run_trace under some scheduled fault plan,
   which is what lets Witness replay any trail byte-identically. *)

type sys = {
  params : Ddcr_params.t;
  inst : Instance.t;
  arrivals : Message.t array; (* the full trace, sorted by (arrival, uid) *)
  horizon : int; (* bit-times; the replay horizon, not the depth bound *)
}

type node = {
  time : int; (* start of the next contention slot, bit-times *)
  arr : int; (* arrivals.(i) for i < arr have been delivered *)
  queues : Edf_queue.t array;
  replicas : Replicas.t; (* never mutated: [step] steps a copy *)
  budget : int; (* remaining fault actions *)
  epochs : Harness.epochs;
}

type action =
  | No_fault
  | Garble (* destroy this slot's lone frame on the wire *)
  | Misperceive of int (* this live synced listener mis-decodes the slot *)
  | Crash of int (* source goes down from this slot *)
  | Revive of int (* source rejoins (listen-only) from this slot *)

type violation =
  | Protocol_error of { time : int; reason : string }
  | Wf_error of { time : int; source : int; reason : string }
  | Lockstep_broken of {
      time : int;
      reference : int;
      source : int;
      ref_fp : string;
      fp : string;
    }
  | Missed_resync of { time : int; source : int }
  | Deadline_miss of {
      time : int;
      source : int;
      uid : int;
      finish : int;
      deadline : int;
    }
  | Model_error of { time : int; reason : string }

type step_result =
  | Stepped of node
  | Disabled
  | Violating of violation

let action_label = function
  | No_fault -> "-"
  | Garble -> "garble"
  | Misperceive s -> Printf.sprintf "misperceive(%d)" s
  | Crash s -> Printf.sprintf "crash(%d)" s
  | Revive s -> Printf.sprintf "revive(%d)" s

let describe_violation = function
  | Protocol_error { time; reason } ->
    Printf.sprintf "protocol violation at t=%d: %s" time reason
  | Wf_error { time; source; reason } ->
    Printf.sprintf "ill-formed replica state of source %d at t=%d: %s" source
      time reason
  | Lockstep_broken { time; reference; source; ref_fp; fp } ->
    Printf.sprintf
      "lockstep broken at t=%d: source %d [%s] disagrees with reference %d \
       [%s] after recovery"
      time source fp reference ref_fp
  | Missed_resync { time; source } ->
    Printf.sprintf
      "missed resync at t=%d: source %d still desynchronized at a tree-epoch \
       boundary"
      time source
  | Deadline_miss { time; source; uid; finish; deadline } ->
    Printf.sprintf
      "unexcused deadline miss at t=%d: uid %d of source %d finished at %d, \
       deadline %d, no overlapping fault epoch"
      time uid source finish deadline
  | Model_error { time; reason } ->
    Printf.sprintf "model error at t=%d: %s" time reason

let make ~params ~inst ~trace ~horizon =
  (match Ddcr_params.validate params ~num_sources:inst.Instance.num_sources with
  | Ok () -> ()
  | Error e -> invalid_arg ("Transition.make: " ^ e));
  if params.Ddcr_params.burst_bits <> 0 then
    invalid_arg
      "Transition.make: packet bursting is outside the model (burst_bits must \
       be 0)";
  let arrivals =
    List.sort
      (fun a b ->
        compare (a.Message.arrival, a.Message.uid) (b.Message.arrival, b.Message.uid))
      trace
    |> Array.of_list
  in
  { params; inst; arrivals; horizon }

let init sys =
  let z = sys.inst.Instance.num_sources in
  {
    time = 0;
    arr = 0;
    queues = Array.make z Edf_queue.empty;
    replicas = Replicas.create z;
    budget = 0 (* set by the explorer *);
    epochs = Harness.no_epochs;
  }

(* A model crash lasts until an explicit Revive. *)
let crashed nd s = not (Replicas.was_alive nd.replicas s)
let synced nd s = Replicas.synced nd.replicas s

(* The invariants of a reached node, first failure only: every live
   synced replica well-formed (slot accounting), all of them in
   lockstep with the reference after recovery, none left listen-only
   once the reference is at a tree-epoch boundary, and the completed
   frame (if any) on time or excused by an overlapping fault epoch
   (TRC-DEADLINE / TRC-DEGRADED semantics of Trace_check). *)
let check_invariants sys nd ~alive ~now ~completion =
  let z = sys.inst.Instance.num_sources in
  let reps = nd.replicas in
  let violation = ref None in
  let set v = if !violation = None then violation := Some v in
  for s = 0 to z - 1 do
    if Replicas.synced reps s then
      match Step.wf sys.params ~source:s (Replicas.state reps s) with
      | Ok () -> ()
      | Error reason -> set (Wf_error { time = nd.time; source = s; reason })
  done;
  (match Replicas.reference reps ~alive with
  | -1 -> ()
  | r ->
    let ref_fp = Step.fingerprint (Replicas.state reps r) in
    for s = 0 to z - 1 do
      if Replicas.synced reps s then begin
        let fp = Step.fingerprint (Replicas.state reps s) in
        if fp <> ref_fp then
          set
            (Lockstep_broken
               { time = nd.time; reference = r; source = s; ref_fp; fp })
      end
    done;
    if Step.at_boundary (Replicas.state reps r) then
      for s = 0 to z - 1 do
        if alive s && not (Replicas.synced reps s) then
          set (Missed_resync { time = nd.time; source = s })
      done);
  (match completion with
  | None -> ()
  | Some (m, start, finish) ->
    (* Checking at completion time is equivalent to checking against
       the final epoch list: a later epoch starts at or after this
       slot's end >= finish, and the open epoch only grows while it
       covers the current slot. *)
    let dm = Message.abs_deadline m in
    if
      finish > dm
      && not
           (Rtnet_analysis.Trace_check.inside_epoch
              ~epochs:(Harness.epoch_list nd.epochs) ~t0:start ~dm ~finish)
    then
      set
        (Deadline_miss
           {
             time = now;
             source = m.Message.cls.Message.cls_source;
             uid = m.Message.uid;
             finish;
             deadline = dm;
           }));
  match !violation with Some v -> Violating v | None -> Stepped nd

(* One slot: applies [action], then what the harness slot body does
   (deliver, decide, resolve, per-source observation, completion) and
   Ddcr.run_trace's replica update under a plan (liveness,
   split-and-step, divergence, recovery), then the harness epoch note —
   and checks the invariants. *)
let step sys nd action =
  let z = sys.inst.Instance.num_sources in
  let now = nd.time in
  (* Fault action: liveness changes apply from this slot's start (the
     harness refreshes per-source liveness before [decide]). *)
  let enabled, budget =
    match action with
    | No_fault -> (true, nd.budget)
    | Garble | Misperceive _ -> (nd.budget > 0, nd.budget - 1)
    | Crash s -> (nd.budget > 0 && not (crashed nd s), nd.budget - 1)
    | Revive s -> (crashed nd s, nd.budget)
  in
  if not enabled then Disabled
  else begin
    let alive s =
      match action with
      | Crash c when c = s -> false
      | Revive r when r = s -> true
      | _ -> not (crashed nd s)
    in
    (* Deliver arrivals with T <= now. *)
    let queues = Array.copy nd.queues in
    let arr = ref nd.arr in
    while
      !arr < Array.length sys.arrivals
      && sys.arrivals.(!arr).Message.arrival <= now
    do
      let m = sys.arrivals.(!arr) in
      let s = m.Message.cls.Message.cls_source in
      queues.(s) <- Edf_queue.insert queues.(s) m;
      incr arr
    done;
    let attempts =
      Replicas.decide sys.params nd.replicas ~alive
        ~peek:(fun s -> Edf_queue.peek queues.(s))
        ~iter_backlog:(fun f ->
          for s = 0 to z - 1 do
            if not (Edf_queue.is_empty queues.(s)) then f s
          done)
    in
    let resolution, next_free =
      Channel.resolve sys.inst.Instance.phy ~now
        ~garbled:(fun () -> action = Garble)
        attempts
    in
    (* A Garble needs a lone frame to destroy; a Misperceive needs a
       live synced listener whose view of this slot differs. *)
    let enabled =
      match (action, resolution) with
      | Garble, Channel.Garbled _ -> true
      | Garble, _ -> false
      | Misperceive s, _ ->
        alive s && synced nd s
        && (not (List.exists (fun a -> a.Channel.att_source = s) attempts))
        && Harness.misperceived_view resolution <> resolution
      | (No_fault | Crash _ | Revive _), _ -> true
    in
    if not enabled then Disabled
    else begin
      let observed s =
        match action with
        | Misperceive m when m = s -> Harness.misperceived_view resolution
        | _ -> resolution
      in
      let faulty =
        ref
          (Seq.exists (fun s -> not (alive s)) (Seq.init z Fun.id)
          || match action with Garble | Misperceive _ -> true | _ -> false)
      in
      (* Completion of the carried frame, if any. *)
      let completion =
        match resolution with
        | Channel.Idle | Channel.Garbled _ | Channel.Clash { survivor = None; _ }
          ->
          Ok None
        | Channel.Tx { src; tag; on_wire }
        | Channel.Clash { survivor = Some (src, tag, on_wire); _ } -> (
          let start =
            match resolution with
            | Channel.Clash _ -> now + sys.inst.Instance.phy.Phy.slot_bits
            | _ -> now
          in
          match Edf_queue.pop queues.(src) with
          | Some (m, q) when m.Message.uid = tag ->
            queues.(src) <- q;
            Ok (Some (m, start, start + on_wire))
          | Some (m, _) ->
            Error
              (Printf.sprintf
                 "carried tag %d of source %d disagrees with the EDF head (uid \
                  %d)"
                 tag src m.Message.uid)
          | None ->
            Error (Printf.sprintf "source %d transmitted from an empty queue" src))
      in
      match completion with
      | Error reason -> Violating (Model_error { time = now; reason })
      | Ok completion -> (
        let replicas = Replicas.copy nd.replicas in
        match
          Replicas.liveness replicas ~alive ~crash:ignore ~rejoin:ignore;
          Replicas.split_and_step sys.params replicas ~observed ~resolution
            ~next_free;
          Replicas.detect_divergence replicas ~alive ~desync:ignore
            ~mark_desync:(fun _ -> faulty := true);
          Replicas.recover replicas ~alive ~next_free ~resync:(fun _ ~from:_ ->
              ())
        with
        | exception Ddcr.Protocol_violation reason ->
          Violating (Protocol_error { time = now; reason })
        | () ->
          let epochs =
            if !faulty then Harness.note_epoch nd.epochs ~start:now ~finish:next_free
            else nd.epochs
          in
          check_invariants sys
            { time = next_free; arr = !arr; queues; replicas; budget; epochs }
            ~alive ~now ~completion)
    end
  end

(* Canonical state key for dedup: every field that influences any
   future transition or invariant, serialized into one string.  Two
   nodes with equal keys have identical futures, so the explorer keeps
   only the first trail that reaches each key.  A listen-only station
   has no replica worth keying: it is replaced wholesale on resync. *)
let key nd =
  let b = Buffer.create 256 in
  Buffer.add_string b (string_of_int nd.time);
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int nd.arr);
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int nd.budget);
  for s = 0 to Array.length nd.queues - 1 do
    Buffer.add_char b '|';
    Buffer.add_string b (string_of_int s);
    Buffer.add_char b (if crashed nd s then 'x' else 'a');
    if synced nd s then begin
      let st = Replicas.state nd.replicas s in
      Buffer.add_char b 's';
      Buffer.add_string b (Step.fingerprint st);
      Buffer.add_char b '#';
      Buffer.add_string b (string_of_int st.Step.rank);
      Buffer.add_char b (if st.Step.last_out then 'o' else '-')
    end
  done;
  Array.iter
    (fun q ->
      Buffer.add_char b '|';
      List.iter
        (fun m ->
          Buffer.add_string b (string_of_int m.Message.uid);
          Buffer.add_char b ',')
        (Edf_queue.to_sorted_list q))
    nd.queues;
  Buffer.add_char b '|';
  List.iter
    (fun (s, e) -> Buffer.add_string b (Printf.sprintf "[%d,%d)" s e))
    (Harness.epoch_list nd.epochs);
  Buffer.contents b
