module Message = Rtnet_workload.Message
module Instance = Rtnet_workload.Instance
module Channel = Rtnet_channel.Channel
module Phy = Rtnet_channel.Phy
module Fault_plan = Rtnet_channel.Fault_plan
module Sink = Rtnet_telemetry.Sink

exception Protocol_violation of string

(* The pure per-replica transition function.  Every field is immutable:
   [observe] maps (state, feedback) to a fresh state, so the replica
   system ([Replicas], one state per replica group) can be copied
   cheaply for the [rtnet.model] explicit-state explorer and the
   lockstep oracle of [run_trace] can step the same code per replica.
   The records are small (a handful of words; stack tails are shared
   structurally), keeping the per-slot allocation cost to at most two
   short-lived blocks — the same property the zero-alloc slot-loop work
   relies on. *)
module Step = struct
  type tts = {
    t_stack : (int * int) list; (* unsearched time-tree intervals *)
    f_star : int; (* highest searched time leaf, -1 at entry *)
    sent : bool; (* "out": something transmitted this TTs *)
  }

  type sts = {
    s_stack : (int * int) list; (* unsearched static intervals *)
    time_leaf : int; (* the colliding deadline class *)
  }

  type phase = Free | Attempt | Tts of tts | Sts of sts * tts

  type state = {
    phase : phase;
    reft : int;
    rank : int; (* next unused own static index in current STs *)
    last_out : bool; (* [out] flag of the last completed TTs *)
  }

  let init = { phase = Free; reft = 0; rank = 0; last_out = false }

  (* f(reft, I.msg) = max(⌊(DM − (α + reft))/c⌋, f* + 1). *)
  let time_index p st tts msg =
    let natural =
      Rtnet_util.Int_math.fdiv
        (Message.abs_deadline msg - p.Ddcr_params.alpha - st.reft)
        p.Ddcr_params.class_width
    in
    max natural (tts.f_star + 1)

  let attempt_of ~source msg =
    {
      Channel.att_source = source;
      att_tag = msg.Message.uid;
      att_bits = msg.Message.cls.Message.cls_bits;
      att_key = (Message.abs_deadline msg, source);
    }

  (* [decide] with the private rank passed apart from the shared state,
     so a replica group can decide for each member without building a
     per-member record. *)
  let decide_ranked p ~source ~rank st ~msg_star =
    match (st.phase, msg_star) with
    | (Free | Attempt), Some m -> Some (attempt_of ~source m)
    | (Free | Attempt), None -> None
    | Tts tts, Some m -> (
      match tts.t_stack with
      | (lo, w) :: _ ->
        let idx = time_index p st tts m in
        if idx <= p.Ddcr_params.time_leaves - 1 && idx >= lo && idx < lo + w
        then Some (attempt_of ~source m)
        else None
      | [] -> raise (Protocol_violation "decide: empty time-tree stack"))
    | Tts _, None -> None
    | Sts (sts, tts), Some m -> (
      match sts.s_stack with
      | (lo, w) :: _ ->
        let own = p.Ddcr_params.static_indices.(source) in
        if
          rank < Array.length own
          && own.(rank) >= lo
          && own.(rank) < lo + w
          && time_index p st tts m <= sts.time_leaf
        then Some (attempt_of ~source m)
        else None
      | [] -> raise (Protocol_violation "decide: empty static-tree stack"))
    | Sts _, None -> None

  let decide p ~source st ~msg_star =
    decide_ranked p ~source ~rank:st.rank st ~msg_star

  let enter_tts p ~reft st =
    {
      st with
      reft;
      phase =
        Tts
          {
            t_stack = [ (0, p.Ddcr_params.time_leaves) ];
            f_star = -1;
            sent = false;
          };
    }

  let finish_tts_if_done p st tts =
    match tts.t_stack with
    | _ :: _ -> { st with phase = Tts tts }
    | [] ->
      {
        st with
        reft = (if tts.sent then st.reft else st.reft + p.Ddcr_params.theta);
        last_out = tts.sent;
        phase = Attempt;
      }

  let split m (lo, w) =
    let child = w / m in
    List.init m (fun i -> (lo + (i * child), child))

  let pop_time_interval p st tts (lo, w) rest =
    finish_tts_if_done p st { tts with t_stack = rest; f_star = lo + w - 1 }

  let finish_sts_if_done p st sts tts ~next_free =
    match sts.s_stack with
    | _ :: _ -> { st with phase = Sts (sts, tts) }
    | [] -> (
      (* STs completion: reft := local physical time; the colliding
         time leaf is now fully searched. *)
      let st = { st with reft = next_free } in
      match tts.t_stack with
      | leaf :: rest -> pop_time_interval p st tts leaf rest
      | [] -> raise (Protocol_violation "sts completion: no time leaf"))

  let observe p ~source st ~resolution ~next_free =
    match st.phase with
    | Free -> (
      match resolution with
      (* A garbled frame (channel noise) carries nothing and changes no
         protocol state, in any phase: the sender simply retries its
         current step at the next slot. *)
      | Channel.Idle | Channel.Tx _ | Channel.Garbled _ -> st
      | Channel.Clash _ -> enter_tts p ~reft:next_free st)
    | Attempt -> (
      match resolution with
      | Channel.Idle -> { st with phase = Free }
      | Channel.Garbled _ -> st
      | Channel.Tx _ -> enter_tts p ~reft:st.reft st
      | Channel.Clash _ ->
        (* Resetting reft below the value accumulated by compressed
           time would undo the compression; the max keeps it monotone
           while matching "reft := local physical time" whenever the
           mode is off (reft <= physical time then). *)
        enter_tts p ~reft:(max st.reft next_free) st)
    | Tts tts -> (
      match tts.t_stack with
      | [] -> raise (Protocol_violation "observe: empty time-tree stack")
      | ((lo, w) as top) :: rest -> (
        match resolution with
        | Channel.Idle -> pop_time_interval p st tts top rest
        | Channel.Garbled _ -> st
        | Channel.Tx _ ->
          pop_time_interval p { st with reft = next_free }
            { tts with sent = true } top rest
        | Channel.Clash { survivor; _ } -> (
          match survivor with
          | Some _ ->
            (* Arbitrated medium: the collision slot carried the
               smallest-keyed frame, so re-probe the same interval —
               the remaining contenders re-arbitrate and drain one per
               slot, in absolute-deadline order (CAN-style).  Splitting
               would only add empty probes of emptied leaves. *)
            { st with reft = next_free; phase = Tts { tts with sent = true } }
          | None ->
            if w > 1 then
              {
                st with
                phase =
                  Tts
                    {
                      tts with
                      t_stack = split p.Ddcr_params.time_m top @ rest;
                    };
              }
            else
              {
                st with
                rank = 0;
                phase =
                  Sts
                    ( {
                        s_stack = [ (0, p.Ddcr_params.static_leaves) ];
                        time_leaf = lo;
                      },
                      tts );
              })))
    | Sts (sts, tts) -> (
      match sts.s_stack with
      | [] -> raise (Protocol_violation "observe: empty static-tree stack")
      | ((_, w) as top) :: rest -> (
        match resolution with
        | Channel.Idle ->
          finish_sts_if_done p st { sts with s_stack = rest } tts ~next_free
        | Channel.Garbled _ -> st
        | Channel.Tx { src; _ } ->
          let st = if src = source then { st with rank = st.rank + 1 } else st in
          finish_sts_if_done p st { sts with s_stack = rest }
            { tts with sent = true } ~next_free
        | Channel.Clash { survivor; _ } -> (
          match survivor with
          | Some (src, _, _) ->
            (* Arbitrated medium: carried frame, re-probe in place. *)
            let st =
              if src = source then { st with rank = st.rank + 1 } else st
            in
            { st with phase = Sts (sts, { tts with sent = true }) }
          | None ->
            if w > 1 then
              {
                st with
                phase =
                  Sts
                    ( {
                        sts with
                        s_stack = split p.Ddcr_params.static_m top @ rest;
                      },
                      tts );
              }
            else
              raise
                (Protocol_violation
                   "collision on a static tree leaf: static indices are not \
                    disjoint"))))

  let pp_stack fmt stack =
    List.iter (fun (lo, w) -> Format.fprintf fmt "[%d+%d)" lo w) stack

  let fingerprint st =
    match st.phase with
    | Free -> Printf.sprintf "free reft=%d" st.reft
    | Attempt -> Printf.sprintf "attempt reft=%d" st.reft
    | Tts tts ->
      Format.asprintf "tts reft=%d f*=%d sent=%b %a" st.reft tts.f_star
        tts.sent pp_stack tts.t_stack
    | Sts (sts, tts) ->
      Format.asprintf "sts reft=%d leaf=%d f*=%d sent=%b %a / %a" st.reft
        sts.time_leaf tts.f_star tts.sent pp_stack sts.s_stack pp_stack
        tts.t_stack

  let phase_name st =
    match st.phase with
    | Free -> "free"
    | Attempt -> "attempt"
    | Tts _ -> "tts"
    | Sts _ -> "sts"

  let at_boundary st =
    match st.phase with Free | Attempt -> true | Tts _ | Sts _ -> false

  let sts_leaf st =
    match st.phase with
    | Sts (sts, _) -> Some sts.time_leaf
    | Free | Attempt | Tts _ -> None

  (* Structural well-formedness — the slot-accounting obligations the
     model checker asserts on every reached state.  The proofs maintain
     these implicitly; the checker makes them machine-checked. *)
  let check_stack ~what ~leaves stack =
    let rec go expect = function
      | [] -> Ok ()
      | (lo, w) :: rest ->
        if w < 1 then Error (Printf.sprintf "%s: empty interval at %d" what lo)
        else if lo < expect then
          Error
            (Printf.sprintf "%s: interval [%d+%d) overlaps or reorders" what
               lo w)
        else if lo + w > leaves then
          Error
            (Printf.sprintf "%s: interval [%d+%d) exceeds %d leaves" what lo w
               leaves)
        else go (lo + w) rest
    in
    go 0 stack

  let wf p ~source st =
    let ( let* ) = Result.bind in
    let* () = if st.reft < 0 then Error "negative reft" else Ok () in
    let* () =
      let nu = Array.length p.Ddcr_params.static_indices.(source) in
      if st.rank < 0 || st.rank > nu then
        Error (Printf.sprintf "rank %d outside [0, %d]" st.rank nu)
      else Ok ()
    in
    match st.phase with
    | Free | Attempt -> Ok ()
    | Tts tts ->
      let* () =
        check_stack ~what:"time stack" ~leaves:p.Ddcr_params.time_leaves
          tts.t_stack
      in
      (match tts.t_stack with
      | (lo, _) :: _ when tts.f_star <> lo - 1 ->
        Error
          (Printf.sprintf "f* = %d but the top interval starts at %d"
             tts.f_star lo)
      | [] -> Error "empty time stack in phase tts"
      | _ -> Ok ())
    | Sts (sts, tts) ->
      let* () =
        check_stack ~what:"static stack" ~leaves:p.Ddcr_params.static_leaves
          sts.s_stack
      in
      let* () =
        check_stack ~what:"time stack" ~leaves:p.Ddcr_params.time_leaves
          tts.t_stack
      in
      if sts.s_stack = [] then Error "empty static stack in phase sts"
      else if
        sts.time_leaf < 0 || sts.time_leaf >= p.Ddcr_params.time_leaves
      then Error (Printf.sprintf "sts leaf %d out of range" sts.time_leaf)
      else Ok ()
end

type work = { observes : int; fingerprints : int }

(* Per domain: topology segments may run on parallel domains. *)
type counters = { mutable n_observes : int; mutable n_fingerprints : int }

let counters =
  Domain.DLS.new_key (fun () -> { n_observes = 0; n_fingerprints = 0 })

let work () =
  let c = Domain.DLS.get counters in
  { observes = c.n_observes; fingerprints = c.n_fingerprints }

(* Replica groups (DESIGN.md §17).  Under consistent observation
   (Section 2.1) every live, synced replica holds the same shared
   state, so the replicas are stored factored: one [Step.state] per
   group of identical replicas, stepped once per slot, and each
   source's group id and private static rank in plain [int] arrays.  A
   group state's own [rank] stays 0: it is stepped as a non-member
   ([~source:(-1)]) and the rank bump and the TTs -> STs rank reset are
   applied to [rank] instead — exact, because the rank is the only
   source-dependent field [Step.observe] reads or writes.  Without a
   fault plan there is exactly one group, forever. *)
module Groups = struct
  type t = {
    gid : int array;
        (* per source; -1: crashed or desynchronized (listen-only), with
           no replica worth keeping — it is replaced on resync *)
    rank : int array;  (* per source: the private static rank *)
    st : Step.state array;  (* per group *)
    size : int array;  (* per group: member count *)
    mutable live : int list;  (* group ids in use *)
    mutable spare : int list;
    mutable ranked : int list;
        (* every source whose rank may be non-zero (duplicates allowed) *)
    mutable stale0 : Step.state;
        (* replica 0 while source 0 is in no group: the reference of
           last resort for classifying a slot no synced station saw *)
    work : counters;
  }

  (* At most z non-empty groups, plus one observation split of each
     (empty groups are swept before every split). *)
  let create z =
    let size = Array.make (2 * z) 0 in
    size.(0) <- z;
    {
      gid = Array.make z 0;
      rank = Array.make z 0;
      st = Array.make (2 * z) Step.init;
      size;
      live = [ 0 ];
      spare = List.init ((2 * z) - 1) (fun g -> g + 1);
      ranked = [];
      stale0 = Step.init;
      work = Domain.DLS.get counters;
    }

  let synced t s = t.gid.(s) >= 0

  (* The replica of synced source [s], its rank aside. *)
  let state t s = t.st.(t.gid.(s))

  (* Replica 0, synced or not. *)
  let replica0 t = if synced t 0 then state t 0 else t.stale0

  let add t st =
    match t.spare with
    | g :: rest ->
      t.spare <- rest;
      t.st.(g) <- st;
      t.live <- g :: t.live;
      g
    | [] -> assert false

  let enter t s g =
    t.gid.(s) <- g;
    t.size.(g) <- t.size.(g) + 1

  let leave t s =
    let g = t.gid.(s) in
    if s = 0 then t.stale0 <- t.st.(g);
    t.size.(g) <- t.size.(g) - 1;
    t.gid.(s) <- -1

  let move t s g =
    leave t s;
    enter t s g

  let sweep t =
    t.live <-
      List.filter
        (fun g ->
          t.size.(g) > 0
          || begin
               t.spare <- g :: t.spare;
               false
             end)
        t.live

  let step p t g ~resolution ~next_free =
    t.work.n_observes <- t.work.n_observes + 1;
    let pre = t.st.(g) in
    let post = Step.observe p ~source:(-1) pre ~resolution ~next_free in
    t.st.(g) <- post;
    match (pre.Step.phase, post.Step.phase, resolution) with
    | ( Step.Sts _,
        _,
        (Channel.Tx { src; _ } | Channel.Clash { survivor = Some (src, _, _); _ })
      )
      when t.gid.(src) = g ->
      if t.rank.(src) = 0 then t.ranked <- src :: t.ranked;
      t.rank.(src) <- t.rank.(src) + 1
    | Step.Tts _, Step.Sts _, _ ->
      t.ranked <-
        List.filter
          (fun s ->
            t.gid.(s) <> g
            || begin
                 t.rank.(s) <- 0;
                 false
               end)
          t.ranked
    | _ -> ()

  (* Merge groups whose states are equal (equal digests leave only
     [last_out] to differ). *)
  let rec merge_equal t = function
    | [] -> ()
    | g0 :: rest ->
      List.iter
        (fun g ->
          if t.size.(g) > 0 && t.st.(g) = t.st.(g0) then
            Array.iteri (fun s h -> if h = g then move t s g0) t.gid)
        rest;
      merge_equal t rest
end

(* The plurality digest among stations [0 .. z - 1] ([digest s] is
   [None] for a station that takes no part), ties broken toward the
   lowest station id. *)
let plurality ~z digest =
  let tally = Hashtbl.create 4 in
  for s = 0 to z - 1 do
    match digest s with
    | None -> ()
    | Some d -> (
      match Hashtbl.find_opt tally d with
      | Some (n, low) -> Hashtbl.replace tally d (n + 1, low)
      | None -> Hashtbl.replace tally d (1, s))
  done;
  Hashtbl.fold
    (fun d (n, low) acc ->
      match acc with
      | Some (_, bn, blow) when n < bn || (n = bn && low > blow) -> acc
      | _ -> Some (d, n, low))
    tally None
  |> Option.map (fun (d, _, _) -> d)

(* The replicated system of z stations, one slot at a time: the replica
   groups plus each station's liveness at the previous slot.  The
   simulator ([run_trace]) and the model checker ([rtnet.model]) both
   step it with these functions — the checker on a [copy] per explored
   successor. *)
module Replicas = struct
  type t = { g : Groups.t; prev_alive : bool array }

  let create z = { g = Groups.create z; prev_alive = Array.make z true }

  let copy t =
    let g = t.g in
    {
      g =
        {
          g with
          Groups.gid = Array.copy g.Groups.gid;
          rank = Array.copy g.Groups.rank;
          st = Array.copy g.Groups.st;
          size = Array.copy g.Groups.size;
        };
      prev_alive = Array.copy t.prev_alive;
    }

  let sources t = Array.length t.prev_alive
  let synced t s = Groups.synced t.g s
  let state t s = { (Groups.state t.g s) with Step.rank = t.g.Groups.rank.(s) }
  let was_alive t s = t.prev_alive.(s)

  (* The reference replica: the lowest-id live, synced station ([-1]
     if none).  It stands for "the shared state" in trace events,
     divergence detection and recovery.  Without a fault plan it is
     station 0. *)
  let reference t ~alive =
    let rec go s =
      if s >= sources t then -1
      else if Groups.synced t.g s && alive s then s
      else go (s + 1)
    in
    go 0

  (* Only backlogged sources have a [msg*]; an empty queue decides
     silence in every phase. *)
  let decide p t ~alive ~peek ~iter_backlog =
    let g = t.g in
    let attempts = ref [] in
    iter_backlog (fun s ->
        if Groups.synced g s && alive s then
          match
            Step.decide_ranked p ~source:s ~rank:g.Groups.rank.(s)
              (Groups.state g s) ~msg_star:(peek s)
          with
          | Some a -> attempts := a :: !attempts
          | None -> ());
    List.rev !attempts

  (* A station entering a crash window loses its replica (stale on
     rejoin); one leaving it rejoins listen-only. *)
  let liveness t ~alive ~crash ~rejoin =
    for s = 0 to sources t - 1 do
      let alive = alive s in
      if t.prev_alive.(s) && not alive then begin
        if Groups.synced t.g s then Groups.leave t.g s;
        crash s
      end
      else if alive && not t.prev_alive.(s) then rejoin s;
      t.prev_alive.(s) <- alive
    done

  let rec step_groups p g ~resolution ~next_free = function
    | [] -> ()
    | gr :: rest ->
      Groups.step p g gr ~resolution ~next_free;
      step_groups p g ~resolution ~next_free rest

  let observe p t ~resolution ~next_free =
    step_groups p t.g ~resolution ~next_free t.g.Groups.live

  (* Each live synced replica advances on its OWN observation: a member
     that observed something else than the wire moves into its group's
     twin, which steps on that observation.  A slot has at most two
     observations (the wire and its misperceived view), so one twin per
     group suffices. *)
  let split_and_step p t ~observed ~resolution ~next_free =
    let g = t.g in
    Groups.sweep g;
    let twins = ref [] in
    for s = 0 to sources t - 1 do
      if Groups.synced g s then begin
        let obs = observed s in
        if obs != resolution && obs <> resolution then begin
          let gr = g.Groups.gid.(s) in
          let twin =
            match List.assq_opt gr !twins with
            | Some (twin, _) -> twin
            | None ->
              let twin = Groups.add g g.Groups.st.(gr) in
              twins := (gr, (twin, obs)) :: !twins;
              twin
          in
          Groups.move g s twin
        end
      end
    done;
    Groups.sweep g;
    List.iter
      (fun gr ->
        let resolution =
          match List.find_opt (fun (_, (twin, _)) -> twin = gr) !twins with
          | Some (_, (_, obs)) -> obs
          | None -> resolution
        in
        Groups.step p g gr ~resolution ~next_free)
      g.Groups.live

  (* Divergence detection: one digest per group; the members of every
     group off the plurality by member count (ties broken toward the
     lowest station id) go listen-only.  Under consistent observation
     there is one group and this is a no-op. *)
  let detect_divergence t ~alive ~desync ~mark_desync =
    let g = t.g in
    let z = sources t in
    (match g.Groups.live with
    | [] | [ _ ] -> () (* one group cannot diverge: no digest needed *)
    | live ->
      let digests =
        List.map
          (fun gr ->
            let work = g.Groups.work in
            work.n_fingerprints <- work.n_fingerprints + 1;
            (gr, Step.fingerprint g.Groups.st.(gr)))
          live
      in
      (match digests with
      | (_, d0) :: rest when List.exists (fun (_, d) -> d <> d0) rest ->
        let digest s =
          if Groups.synced g s then Some (List.assq g.Groups.gid.(s) digests)
          else None
        in
        let winner = plurality ~z digest in
        for s = 0 to z - 1 do
          if Groups.synced g s && digest s <> winner then begin
            Groups.leave g s;
            desync s
          end
        done
      | _ -> ());
      Groups.merge_equal g g.Groups.live);
    (* Degradation accounting: every live station sitting out this
       slot desynchronized extends the fault epoch. *)
    for s = 0 to z - 1 do
      if (not (Groups.synced g s)) && alive s then mark_desync s
    done

  (* Recovery.  A listen-only station re-acquires the shared state at
     the next tree-epoch boundary: the reference replica must be in
     free/attempt (no tree-search state to copy mid-flight).  If no
     live synced station remains, the lowest-id live one cold-starts
     the shared state and becomes the reference. *)
  let recover t ~alive ~next_free ~resync =
    let g = t.g in
    let join s gr ~from =
      Groups.enter g s gr;
      g.Groups.rank.(s) <- 0;
      resync s ~from
    in
    (if reference t ~alive < 0 then
       let rec first_alive s =
         if s >= sources t then -1
         else if alive s then s
         else first_alive (s + 1)
       in
       match first_alive 0 with
       | -1 -> ()
       | s ->
         join s (Groups.add g { Step.init with Step.reft = next_free }) ~from:(-1));
    match reference t ~alive with
    | -1 -> ()
    | r ->
      if Step.at_boundary (Groups.state g r) then
        for s = 0 to sources t - 1 do
          if (not (Groups.synced g s)) && alive s then
            join s g.Groups.gid.(r) ~from:r
        done
end

let via_of_phase : Step.phase -> Ddcr_trace.via = function
  | Step.Free -> Ddcr_trace.Free_csma
  | Step.Attempt -> Ddcr_trace.Open_attempt
  | Step.Tts _ -> Ddcr_trace.Time_tree
  | Step.Sts _ -> Ddcr_trace.Static_tree

let violation fmt = Printf.ksprintf (fun m -> raise (Protocol_violation m)) fmt

let run_trace ?(check_lockstep = false) ?on_event ?fault ?plan ?analyze
    ?(sink = Sink.null) ?on_complete ?inject params inst trace
    ~horizon =
  (match Ddcr_params.validate params ~num_sources:inst.Instance.num_sources with
  | Ok () -> ()
  | Error e -> invalid_arg ("Ddcr.run_trace: " ^ e));
  let z = inst.Instance.num_sources in
  let plan_active = plan <> None in
  (* Liveness only changes at crash-window edges (the harness refreshes
     it there too); between them [Replicas.liveness] is a no-op. *)
  let liveness_due = ref 0 in
  let reps = Replicas.create z in
  let groups = reps.Replicas.g in
  let rank = groups.Groups.rank in
  let tracing = on_event <> None in
  let emit = match on_event with Some f -> f | None -> fun _ -> () in
  let telemetry = sink.Sink.enabled in
  (* Open tree-search spans (start bit-time, -1 when closed), for the
     telemetry [search] probe. *)
  let tts_start = ref (-1) in
  let sts_start = ref (-1) in
  let sts_sent = ref false in
  (* [check_lockstep]: the per-replica oracle.  Each source keeps its
     own [Step.state], stepped the ungrouped way on its own observation;
     every slot asserts that the grouped decisions, replica states,
     divergence verdicts and recoveries agree with it. *)
  let oracle = if check_lockstep then Array.make z Step.init else [||] in
  let check_replicas ~now what =
    for s = 0 to z - 1 do
      if Groups.synced groups s then begin
        let st = Groups.state groups s in
        if oracle.(s) <> { st with Step.rank = rank.(s) } then
          violation
            "lockstep broken at t=%d (%s): source %d holds %s (rank %d), its \
             group %s (rank %d)"
            now what s
            (Step.fingerprint oracle.(s))
            oracle.(s).Step.rank (Step.fingerprint st) rank.(s)
      end
    done
  in
  let decide services ~now =
    let open Rtnet_mac.Harness in
    let attempts =
      Replicas.decide params reps ~alive:services.alive ~peek:services.peek
        ~iter_backlog:services.iter_backlog
    in
    if check_lockstep then begin
      let expected =
        List.filter_map
          (fun s ->
            if Groups.synced groups s && services.alive s then
              Step.decide params ~source:s oracle.(s)
                ~msg_star:(services.peek s)
            else None)
          (List.init z Fun.id)
      in
      if expected <> attempts then
        violation "lockstep broken at t=%d: grouped decisions differ" now
    end;
    attempts
  in
  (* Packet bursting (Section 5): the acquiring source may append
     further EDF-ranked frames while they fit in the budget. *)
  let do_burst services src start0 =
    let open Rtnet_mac.Harness in
    let rec go start budget =
      (* Section 5: the burst carries "the first k messages (EDF
         ranked) waiting in Q" — the live queue, so arrivals during the
         acquisition participate in the ranking. *)
      services.deliver_until start;
      match services.peek src with
      | Some m
        when budget > 0
             && Phy.tx_bits inst.Instance.phy m.Message.cls.Message.cls_bits
                <= budget -> (
        match services.pop src with
        | Some m ->
          let on_wire, _ =
            Channel.burst services.channel ~src ~tag:m.Message.uid
              ~bits:m.Message.cls.Message.cls_bits
          in
          services.complete m ~start ~finish:(start + on_wire);
          emit
            (Ddcr_trace.Frame_sent
               {
                 time = start;
                 finish = start + on_wire;
                 source = src;
                 uid = m.Message.uid;
                 via = Ddcr_trace.Bursting;
               });
          go (start + on_wire) (budget - on_wire)
        | None -> start)
      | Some _ | None -> start
    in
    go start0 params.Ddcr_params.burst_bits
  in
  (* The per-replica oracle's divergence verdict, checked against the
     grouped one. *)
  let detect_divergence services ~now ~next_free =
    let open Rtnet_mac.Harness in
    let expected =
      if check_lockstep then begin
        let digests =
          Array.init z (fun s ->
              if Groups.synced groups s then
                Some (Step.fingerprint oracle.(s))
              else None)
        in
        let winner = plurality ~z (Array.get digests) in
        Array.map (fun d -> d <> None && d = winner) digests
      end
      else [||]
    in
    Replicas.detect_divergence reps ~alive:services.alive
      ~desync:(fun s -> emit (Ddcr_trace.Desync { time = next_free; source = s }))
      ~mark_desync:services.mark_desync;
    if check_lockstep then
      for s = 0 to z - 1 do
        if Groups.synced groups s <> expected.(s) then
          violation
            "lockstep broken at t=%d: source %d %s the plurality, the \
             per-replica verdict disagrees"
            now s
            (if Groups.synced groups s then "kept" else "left")
      done
  in
  let recover services ~next_free =
    let open Rtnet_mac.Harness in
    Replicas.recover reps ~alive:services.alive ~next_free ~resync:(fun s ~from ->
        services.mark_resync s;
        emit (Ddcr_trace.Resync { time = next_free; source = s });
        if check_lockstep then
          oracle.(s) <-
            (if from < 0 then { Step.init with Step.reft = next_free }
             else { (oracle.(from)) with Step.rank = 0 }))
  in
  let after services ~now ~resolution ~next_free =
    let alive = services.Rtnet_mac.Harness.alive in
    let pre =
      match Replicas.reference reps ~alive with
      | -1 -> Groups.replica0 groups
      | r -> Groups.state groups r
    in
    let pre_name = Step.phase_name pre in
    let slot = Channel.slot_bits services.Rtnet_mac.Harness.channel in
    if telemetry then begin
      match (pre.Step.phase, resolution) with
      | Step.Sts _, (Channel.Tx _ | Channel.Clash { survivor = Some _; _ }) ->
        sts_sent := true
      | _ -> ()
    end;
    (* Slot events, classified by the phase the slot was spent in. *)
    (if tracing then
       match resolution with
       | Channel.Idle ->
         emit (Ddcr_trace.Idle_slot { time = now; phase = pre_name })
       | Channel.Garbled { on_wire } ->
         emit (Ddcr_trace.Garbled_slot { time = now; on_wire })
       | Channel.Tx { src; tag; on_wire } ->
         emit
           (Ddcr_trace.Frame_sent
              {
                time = now;
                finish = now + on_wire;
                source = src;
                uid = tag;
                via = via_of_phase pre.Step.phase;
              })
       | Channel.Clash { survivor; contenders } -> (
         emit
           (Ddcr_trace.Collision_slot
              {
                time = now;
                phase = pre_name;
                contenders = List.length contenders;
              });
         match survivor with
         | Some (src, tag, on_wire) ->
           emit
             (Ddcr_trace.Frame_sent
                {
                  time = now + slot;
                  finish = now + slot + on_wire;
                  source = src;
                  uid = tag;
                  via = via_of_phase pre.Step.phase;
                })
         | None -> ()));
    let next_free =
      match resolution with
      | Channel.Tx { src; on_wire; _ } -> do_burst services src (now + on_wire)
      | Channel.Clash { survivor = Some (src, _, on_wire); _ } ->
        do_burst services src (now + slot + on_wire)
      | Channel.Idle | Channel.Garbled _ | Channel.Clash { survivor = None; _ }
        ->
        next_free
    in
    if plan_active then begin
      (match plan with
      | Some p when now >= !liveness_due ->
        liveness_due := Fault_plan.next_edge p ~now;
        Replicas.liveness reps ~alive
          ~crash:(fun s -> emit (Ddcr_trace.Crash { time = now; source = s }))
          ~rejoin:(fun s -> emit (Ddcr_trace.Rejoin { time = now; source = s }))
      | Some _ | None -> ());
      Replicas.split_and_step params reps
        ~observed:services.Rtnet_mac.Harness.observed ~resolution ~next_free
    end
    else Replicas.observe params reps ~resolution ~next_free;
    if check_lockstep then begin
      (* Desynced stations are listen-only: their stale replica is not
         advanced (it is replaced wholesale on resync). *)
      for s = 0 to z - 1 do
        if Groups.synced groups s then
          oracle.(s) <-
            Step.observe params ~source:s oracle.(s)
              ~resolution:(services.Rtnet_mac.Harness.observed s) ~next_free
      done;
      check_replicas ~now "observe"
    end;
    if plan_active then detect_divergence services ~now ~next_free;
    let post = Replicas.reference reps ~alive in
    (if (tracing || telemetry) && post >= 0 then
       (* Phase-transition events, derived from the reference replica. *)
       let st = Groups.state groups post in
       let close_tts () =
         let sent = st.Step.last_out in
         emit (Ddcr_trace.Tts_end { time = next_free; sent });
         if telemetry then begin
           if !tts_start >= 0 then
             sink.Sink.search ~tree:Sink.Time_tree ~start:!tts_start
               ~finish:next_free ~sent;
           tts_start := -1;
           (* An unproductive TTs compresses time: reft jumped ahead
              by θ without consuming slots (Section 4.3). *)
           let theta = params.Ddcr_params.theta in
           if (not sent) && theta > 0 then
             sink.Sink.jump ~now:next_free ~reft_from:(st.Step.reft - theta)
               ~reft_to:st.Step.reft
         end
       in
       let close_sts () =
         emit (Ddcr_trace.Sts_end { time = next_free });
         if telemetry then begin
           if !sts_start >= 0 then
             sink.Sink.search ~tree:Sink.Static_tree ~start:!sts_start
               ~finish:next_free ~sent:!sts_sent;
           sts_start := -1;
           sts_sent := false
         end
       in
       match (pre.Step.phase, st.Step.phase) with
       | (Step.Free | Step.Attempt), Step.Tts _ ->
         emit (Ddcr_trace.Tts_begin { time = next_free; reft = st.Step.reft });
         if telemetry then tts_start := next_free
       | Step.Tts _, Step.Sts (sts, _) ->
         emit
           (Ddcr_trace.Sts_begin
              { time = next_free; time_leaf = sts.Step.time_leaf });
         if telemetry then begin
           sts_start := next_free;
           sts_sent := false
         end
       | Step.Sts _, Step.Tts _ -> close_sts ()
       | Step.Sts _, Step.Attempt ->
         close_sts ();
         close_tts ()
       | Step.Tts _, Step.Attempt -> close_tts ()
       | _, _ -> ());
    if plan_active then recover services ~next_free;
    if check_lockstep then check_replicas ~now "recovery";
    next_free
  in
  Rtnet_mac.Harness.run ~protocol:"csma-ddcr" ?fault ?plan ?analyze ~sink
    ?on_complete ?inject ~phy:inst.Instance.phy ~num_sources:z ~horizon
    ~decide ~after trace

let run ?check_lockstep ?on_event ?fault ?plan ?analyze ?sink ?on_complete
    ?inject ?(seed = 1) params inst ~horizon =
  run_trace ?check_lockstep ?on_event ?fault ?plan ?analyze ?sink ?on_complete
    ?inject params inst
    (Instance.trace inst ~seed ~horizon)
    ~horizon
