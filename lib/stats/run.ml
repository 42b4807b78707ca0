module Message = Rtnet_workload.Message
module Channel = Rtnet_channel.Channel

type completion = { c_msg : Message.t; c_start : int; c_finish : int }

let latency c = c.c_finish - c.c_msg.Message.arrival

let lateness c = c.c_finish - Message.abs_deadline c.c_msg

let missed c = lateness c > 0

type source_faults = {
  sf_source : int;
  sf_crashed_slots : int;
  sf_missed : int;
  sf_misperceived : int;
  sf_desync_slots : int;
  sf_resyncs : int;
}

type fault_stats = {
  f_per_source : source_faults list;
  f_epochs : (int * int) list;
}

type outcome = {
  protocol : string;
  completions : completion list;
  unfinished : Message.t list;
  dropped : Message.t list;
  horizon : int;
  channel : Channel.stats option;
  faults : fault_stats option;
}

type metrics = {
  delivered : int;
  deadline_misses : int;
  miss_ratio : float;
  worst_latency : int;
  mean_latency : float;
  worst_lateness : int;
  inversions : int;
  garbled : int;
  utilization : float;
  desync_slots : int;
  recoveries : int;
  misperceived : int;
  missed_offline : int;
}

(* Fenwick tree over dense deadline ranks 1..n, stored in [bit.(1..n)]. *)
let rec fenwick_add bit i delta =
  if i < Array.length bit then begin
    bit.(i) <- bit.(i) + delta;
    fenwick_add bit (i + (i land -i)) delta
  end

let rec fenwick_prefix bit i acc =
  if i = 0 then acc else fenwick_prefix bit (i - (i land -i)) (acc + bit.(i))

(* Merge the runs [perm.(lo..mid-1)] and [perm.(mid..hi-1)], each sorted
   by [key], through [buf.(lo..hi-1)]. *)
let merge_by key perm buf lo mid hi =
  let i = ref lo and j = ref mid in
  for k = lo to hi - 1 do
    if !j >= hi || (!i < mid && key.(perm.(!i)) <= key.(perm.(!j))) then begin
      buf.(k) <- perm.(!i);
      incr i
    end
    else begin
      buf.(k) <- perm.(!j);
      incr j
    end
  done;
  Array.blit buf lo perm lo (hi - lo)

(* Divide and conquer over list positions, bottom-up.  With runs of
   width [w], every pair (i, j), i in a left run and j in the next
   (right) run, is counted once: sweep the left run by start, admit
   the right run's members in arrival order while [arrival_j <=
   start_i], and count the admitted ones with a lower deadline rank in
   the Fenwick tree.  Both runs are then merged in both orders, so the
   next width finds its runs sorted.  The tree is all-zero between
   sweeps, so the merges borrow it as their buffer and clear it. *)
let inversions cs =
  let n = List.length cs in
  let start = Array.make n 0
  and arrival = Array.make n 0
  and rank = Array.make n 0 in
  List.iteri
    (fun i c ->
      start.(i) <- c.c_start;
      arrival.(i) <- c.c_msg.Message.arrival;
      rank.(i) <- Message.abs_deadline c.c_msg)
    cs;
  let by_start = Array.init n Fun.id in
  Array.sort (fun a b -> Int.compare rank.(a) rank.(b)) by_start;
  let r = ref 0 and prev = ref 0 in
  Array.iteri
    (fun k i ->
      let deadline = rank.(i) in
      if k = 0 || deadline <> !prev then incr r;
      prev := deadline;
      rank.(i) <- !r)
    by_start;
  for k = 0 to n - 1 do
    by_start.(k) <- k
  done;
  let by_arrival = Array.copy by_start in
  let bit = Array.make (n + 1) 0 in
  let count = ref 0 in
  let w = ref 1 in
  while !w < n do
    let lo = ref 0 in
    while !lo + !w < n do
      let mid = !lo + !w in
      let hi = min n (mid + !w) in
      let q = ref mid in
      for k = !lo to mid - 1 do
        let i = by_start.(k) in
        while !q < hi && arrival.(by_arrival.(!q)) <= start.(i) do
          fenwick_add bit rank.(by_arrival.(!q)) 1;
          incr q
        done;
        count := fenwick_prefix bit (rank.(i) - 1) !count
      done;
      for k = mid to !q - 1 do
        fenwick_add bit rank.(by_arrival.(k)) (-1)
      done;
      merge_by start by_start bit !lo mid hi;
      merge_by arrival by_arrival bit !lo mid hi;
      Array.fill bit !lo (hi - !lo) 0;
      lo := hi
    done;
    w := 2 * !w
  done;
  !count

let metrics o =
  let delivered = List.length o.completions in
  let late = List.length (List.filter missed o.completions) in
  let due_unfinished =
    List.length
      (List.filter (fun m -> Message.abs_deadline m <= o.horizon) o.unfinished)
  in
  let drops = List.length o.dropped in
  let misses = late + drops + due_unfinished in
  let accountable = delivered + drops + due_unfinished in
  let latencies = List.map latency o.completions in
  let worst_latency = List.fold_left max 0 latencies in
  let mean_latency =
    if delivered = 0 then 0.
    else float_of_int (List.fold_left ( + ) 0 latencies) /. float_of_int delivered
  in
  let worst_lateness =
    match o.completions with
    | [] -> 0
    | c :: cs -> List.fold_left (fun acc c -> max acc (lateness c)) (lateness c) cs
  in
  let fault_sum field =
    match o.faults with
    | None -> 0
    | Some fs -> List.fold_left (fun acc sf -> acc + field sf) 0 fs.f_per_source
  in
  {
    delivered;
    deadline_misses = misses;
    miss_ratio =
      (if accountable = 0 then 0. else float_of_int misses /. float_of_int accountable);
    worst_latency;
    mean_latency;
    worst_lateness;
    inversions = inversions o.completions;
    garbled =
      (match o.channel with
      | None -> 0
      | Some st -> st.Channel.garbled_count);
    utilization =
      (match o.channel with
      | None -> 0.
      | Some st ->
        if st.Channel.total_bits = 0 then 0.
        else float_of_int st.Channel.busy_bits /. float_of_int st.Channel.total_bits);
    desync_slots = fault_sum (fun sf -> sf.sf_desync_slots);
    recoveries = fault_sum (fun sf -> sf.sf_resyncs);
    misperceived = fault_sum (fun sf -> sf.sf_misperceived);
    missed_offline = fault_sum (fun sf -> sf.sf_missed);
  }

let merge_channel_stats a b =
  {
    Channel.idle_slots = a.Channel.idle_slots + b.Channel.idle_slots;
    collision_slots = a.Channel.collision_slots + b.Channel.collision_slots;
    tx_count = a.Channel.tx_count + b.Channel.tx_count;
    garbled_count = a.Channel.garbled_count + b.Channel.garbled_count;
    busy_bits = a.Channel.busy_bits + b.Channel.busy_bits;
    total_bits = a.Channel.total_bits + b.Channel.total_bits;
  }

let merge_epochs lists =
  let all = List.sort compare (List.concat lists) in
  let rec go acc = function
    | [] -> List.rev acc
    | (s, e) :: rest -> (
      match acc with
      | (s0, e0) :: acc' when s <= e0 -> go ((s0, max e0 e) :: acc') rest
      | acc -> go ((s, e) :: acc) rest)
  in
  go [] all

let merge ~protocol ~horizon outcomes =
  let completions =
    List.sort
      (fun a b ->
        compare
          (a.c_finish, a.c_start, a.c_msg.Message.uid)
          (b.c_finish, b.c_start, b.c_msg.Message.uid))
      (List.concat_map (fun o -> o.completions) outcomes)
  in
  let channel =
    List.fold_left
      (fun acc o ->
        match (acc, o.channel) with
        | None, s -> s
        | Some s, None -> Some s
        | Some s, Some s' -> Some (merge_channel_stats s s'))
      None outcomes
  in
  let faults =
    if List.for_all (fun o -> o.faults = None) outcomes then None
    else
      let stats =
        List.filter_map (fun o -> o.faults) outcomes
      in
      Some
        {
          f_per_source = List.concat_map (fun fs -> fs.f_per_source) stats;
          f_epochs = merge_epochs (List.map (fun fs -> fs.f_epochs) stats);
        }
  in
  {
    protocol;
    completions;
    unfinished = List.concat_map (fun o -> o.unfinished) outcomes;
    dropped = List.concat_map (fun o -> o.dropped) outcomes;
    horizon;
    channel;
    faults;
  }

let per_class_worst_latency o =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let id = c.c_msg.Message.cls.Message.cls_id in
      let l = latency c in
      match Hashtbl.find_opt tbl id with
      | Some best when best >= l -> ()
      | Some _ | None -> Hashtbl.replace tbl id l)
    o.completions;
  List.sort compare (Hashtbl.fold (fun id l acc -> (id, l) :: acc) tbl [])

let pp_metrics fmt m =
  Format.fprintf fmt
    "delivered=%d misses=%d (%.2f%%) worst-lat=%d mean-lat=%.0f \
     worst-late=%d inv=%d garbled=%d util=%.3f"
    m.delivered m.deadline_misses (100. *. m.miss_ratio) m.worst_latency
    m.mean_latency m.worst_lateness m.inversions m.garbled m.utilization;
  if
    m.desync_slots > 0 || m.recoveries > 0 || m.misperceived > 0
    || m.missed_offline > 0
  then
    Format.fprintf fmt " desync=%d resync=%d mispercv=%d missed-off=%d"
      m.desync_slots m.recoveries m.misperceived m.missed_offline
