type attempt = {
  att_source : int;
  att_tag : int;
  att_bits : int;
  att_key : int * int;
}

type resolution =
  | Idle
  | Tx of { src : int; tag : int; on_wire : int }
  | Garbled of { on_wire : int }
  | Clash of {
      contenders : (int * int) list;
      survivor : (int * int * int) option;
    }

type stats = {
  idle_slots : int;
  collision_slots : int;
  tx_count : int;
  garbled_count : int;
  busy_bits : int;
  total_bits : int;
}

type fault = { fault_rate : float; fault_seed : int }

type t = {
  phy : Phy.t;
  mutable free_at : int;
  mutable holder : int option; (* source of the frame just carried *)
  noise : Rtnet_util.Prng.t option; (* fault-injection draws *)
  fault_rate : float;
  plan : Fault_plan.t option; (* richer fault model; excludes [noise] *)
  mutable st : stats;
  mutable log : (int * int * int * int) list; (* reversed *)
}

let create ?fault ?plan phy =
  (match (fault, plan) with
  | Some _, Some _ ->
    invalid_arg "Channel.create: fault and plan are mutually exclusive"
  | _ -> ());
  let noise, fault_rate =
    match fault with
    | None -> (None, 0.)
    | Some { fault_rate; fault_seed } ->
      if fault_rate < 0. || fault_rate > 1. then
        invalid_arg "Channel.create: fault_rate out of [0, 1]";
      (Some (Rtnet_util.Prng.create fault_seed), fault_rate)
  in
  {
    phy;
    plan;
    free_at = 0;
    holder = None;
    noise;
    fault_rate;
    st =
      {
        idle_slots = 0;
        collision_slots = 0;
        tx_count = 0;
        garbled_count = 0;
        busy_bits = 0;
        total_bits = 0;
      };
    log = [];
  }

let phy ch = ch.phy

let slot_bits ch = ch.phy.Phy.slot_bits

let distinct_sources attempts =
  let sorted =
    List.sort compare (List.map (fun a -> a.att_source) attempts)
  in
  let rec no_dup = function
    | a :: (b :: _ as rest) -> a <> b && no_dup rest
    | [ _ ] | [] -> true
  in
  no_dup sorted

let record_tx ch ~src ~tag ~start ~on_wire =
  ch.log <- (src, tag, start, start + on_wire) :: ch.log

(* The slot's outcome as a pure function of the medium and the
   attempts.  [garbled] is forced only for a lone frame, so a caller
   drawing it from a PRNG consumes exactly one draw per lone frame. *)
let resolve phy ~now ~garbled attempts =
  let slot = phy.Phy.slot_bits in
  match attempts with
  | [] -> (Idle, now + slot)
  | [ a ] ->
    (* A garbled frame occupies the wire for its full length but
       carries nothing: every station sees a CRC-invalid frame. *)
    let on_wire = Phy.tx_bits phy a.att_bits in
    if garbled () then (Garbled { on_wire }, now + on_wire)
    else (Tx { src = a.att_source; tag = a.att_tag; on_wire }, now + on_wire)
  | contenders -> (
    let ids = List.map (fun a -> (a.att_source, a.att_tag)) contenders in
    match phy.Phy.semantics with
    | Phy.Destructive -> (Clash { contenders = ids; survivor = None }, now + slot)
    | Phy.Arbitration ->
      (* Wired-OR arbitration: the smallest (deadline, static-index) key
         survives the collision window and transmits immediately. *)
      let a =
        List.fold_left
          (fun b a ->
            if compare (a.att_key, a.att_source) (b.att_key, b.att_source) < 0
            then a
            else b)
          (List.hd contenders) (List.tl contenders)
      in
      let on_wire = Phy.tx_bits phy a.att_bits in
      ( Clash
          { contenders = ids; survivor = Some (a.att_source, a.att_tag, on_wire) },
        now + slot + on_wire ))

let contend ch ~now attempts =
  if now < ch.free_at then invalid_arg "Channel.contend: channel busy";
  if not (distinct_sources attempts) then
    invalid_arg "Channel.contend: duplicate source in slot";
  (* The burst-noise state chain advances once per contention slot,
     whatever the slot carries. *)
  (match ch.plan with None -> () | Some p -> Fault_plan.tick p);
  let garbled () =
    match ch.plan with
    | Some p -> Fault_plan.wire_garbles p ~now
    | None -> (
      match ch.noise with
      | None -> false
      | Some rng -> Rtnet_util.Prng.float rng 1.0 < ch.fault_rate)
  in
  let resolution, free_at = resolve ch.phy ~now ~garbled attempts in
  let slot = ch.phy.Phy.slot_bits in
  let st = ch.st in
  ch.st <-
    (match resolution with
    | Idle ->
      { st with idle_slots = st.idle_slots + 1; total_bits = st.total_bits + slot }
    | Garbled { on_wire } ->
      {
        st with
        garbled_count = st.garbled_count + 1;
        total_bits = st.total_bits + on_wire;
      }
    | Tx { src; tag; on_wire } ->
      record_tx ch ~src ~tag ~start:now ~on_wire;
      {
        st with
        tx_count = st.tx_count + 1;
        busy_bits = st.busy_bits + on_wire;
        total_bits = st.total_bits + on_wire;
      }
    | Clash { survivor = None; _ } ->
      {
        st with
        collision_slots = st.collision_slots + 1;
        total_bits = st.total_bits + slot;
      }
    | Clash { survivor = Some (src, tag, on_wire); _ } ->
      record_tx ch ~src ~tag ~start:(now + slot) ~on_wire;
      {
        st with
        tx_count = st.tx_count + 1;
        busy_bits = st.busy_bits + on_wire;
        collision_slots = st.collision_slots + 1;
        total_bits = st.total_bits + slot + on_wire;
      });
  ch.free_at <- free_at;
  ch.holder <-
    (match resolution with
    | Tx { src; _ } | Clash { survivor = Some (src, _, _); _ } -> Some src
    | Idle | Garbled _ | Clash { survivor = None; _ } -> None);
  (resolution, free_at)

let burst ch ~src ~tag ~bits =
  (match ch.holder with
  | Some holder when holder = src -> ()
  | Some _ | None -> invalid_arg "Channel.burst: source does not hold the channel");
  let start = ch.free_at in
  let on_wire = Phy.tx_bits ch.phy bits in
  record_tx ch ~src ~tag ~start ~on_wire;
  ch.st <-
    {
      ch.st with
      tx_count = ch.st.tx_count + 1;
      busy_bits = ch.st.busy_bits + on_wire;
      total_bits = ch.st.total_bits + on_wire;
    };
  ch.free_at <- start + on_wire;
  (on_wire, ch.free_at)

let stats ch = ch.st

let utilization ch =
  if ch.st.total_bits = 0 then 0.
  else float_of_int ch.st.busy_bits /. float_of_int ch.st.total_bits

let carried ch = List.rev ch.log

let check_safety ch =
  let txs =
    List.sort (fun (_, _, s1, _) (_, _, s2, _) -> compare s1 s2) ch.log
  in
  let rec go = function
    | (src1, tag1, _, f1) :: ((src2, tag2, s2, _) :: _ as rest) ->
      if s2 < f1 then
        Error
          (Printf.sprintf
             "transmissions overlap: src %d tag %d (ends %d) vs src %d tag \
              %d (starts %d)"
             src1 tag1 f1 src2 tag2 s2)
      else go rest
    | [ _ ] | [] -> Ok ()
  in
  go txs
