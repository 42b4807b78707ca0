module T = Transition

(* Breadth-first explicit-state exploration, exhaustive up to a slot
   depth and a fault budget.  Dedup is by Transition.key, so a state
   reached along two different fault schedules is expanded once; the
   trail kept is the first (shortest, BFS order) one.  Soundness
   caveat (documented in DESIGN.md §12): "clean" means no invariant
   violation is reachable within [c_depth] slots, [c_budget] fault
   actions and the explorer's one-fault-per-slot restriction — not a
   proof over unbounded executions. *)

type config = {
  c_depth : int; (* max slots along any path *)
  c_budget : int; (* fault-action budget per path *)
  c_max_states : int; (* safety valve on distinct states *)
  c_max_violations : int; (* stop after this many distinct violations *)
}

let default_config =
  { c_depth = 24; c_budget = 2; c_max_states = 200_000; c_max_violations = 1 }

type trail = (int * T.action) list
(* (slot start time, action applied in that slot), root first *)

type finding = { f_violation : T.violation; f_trail : trail }

type outcome = {
  o_explored : int; (* distinct states expanded *)
  o_transitions : int; (* step calls that produced a successor *)
  o_depth_reached : int;
  o_truncated : bool; (* c_max_states exhausted: NOT exhaustive *)
  o_findings : finding list;
}

let actions_for sys nd =
  let z = sys.T.inst.Rtnet_workload.Instance.num_sources in
  let acc = ref [ T.No_fault ] in
  if nd.T.budget > 0 then begin
    acc := T.Garble :: !acc;
    for s = z - 1 downto 0 do
      if (not (T.crashed nd s)) && T.synced nd s then
        acc := T.Misperceive s :: !acc
    done;
    for s = z - 1 downto 0 do
      if not (T.crashed nd s) then acc := T.Crash s :: !acc
    done
  end;
  for s = z - 1 downto 0 do
    if T.crashed nd s then acc := T.Revive s :: !acc
  done;
  !acc

let run ?(config = default_config) sys ~budget =
  let visited : (string, unit) Hashtbl.t = Hashtbl.create 4096 in
  let frontier = Queue.create () in
  let root = { (T.init sys) with T.budget } in
  Hashtbl.replace visited (T.key root) ();
  Queue.add (root, [], 0) frontier;
  let explored = ref 0 in
  let transitions = ref 0 in
  let depth_reached = ref 0 in
  let truncated = ref false in
  let findings = ref [] in
  let seen_violations : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  (try
     while not (Queue.is_empty frontier) do
       let nd, rtrail, depth = Queue.pop frontier in
       incr explored;
       if depth > !depth_reached then depth_reached := depth;
       if
         depth < config.c_depth
         && nd.T.time < sys.T.horizon
       then
         List.iter
           (fun action ->
             match T.step sys nd action with
             | T.Disabled -> ()
             | T.Stepped nd' ->
               incr transitions;
               let k = T.key nd' in
               if not (Hashtbl.mem visited k) then begin
                 if Hashtbl.length visited >= config.c_max_states then
                   truncated := true
                 else begin
                   Hashtbl.replace visited k ();
                   Queue.add
                     (nd', (nd.T.time, action) :: rtrail, depth + 1)
                     frontier
                 end
               end
             | T.Violating v ->
               incr transitions;
               let label = T.describe_violation v in
               if not (Hashtbl.mem seen_violations label) then begin
                 Hashtbl.replace seen_violations label ();
                 findings :=
                   {
                     f_violation = v;
                     f_trail = List.rev ((nd.T.time, action) :: rtrail);
                   }
                   :: !findings;
                 if List.length !findings >= config.c_max_violations then
                   raise Exit
               end)
           (actions_for sys nd)
     done
   with Exit -> ());
  {
    o_explored = !explored;
    o_transitions = !transitions;
    o_depth_reached = !depth_reached;
    o_truncated = !truncated;
    o_findings = List.rev !findings;
  }
