(** Delta-debugging shrinker for failing candidates, generic over the
    {!Subject}.

    Minimizes a candidate while preserving the oracle verdict
    {e class} ({!Rtnet_analysis.Oracle.same_class}), in two steps:

    + {b drop atoms} — classic ddmin (Zeller's delta debugging) over
      the subject's {!Subject.S.atoms}: fault events of a plan,
      (segment, fault event) pairs of a federation — so a
      whole-federation storm shrinks down to the one segment that
      carries the verdict — or the requests of a churn stream
      (order-preserving removal, so the result is a subsequence);
    + {b refine} — the subject's {!Subject.S.refine}: crash windows
      narrowed to whichever half
      ({!Rtnet_channel.Fault_plan.split_crash}) still reproduces the
      verdict, then garble/misperception rates halved
      ({!Rtnet_channel.Fault_plan.scale_severity}) while it survives
      (per segment for a federation; nothing for a churn stream).

    The oracle is re-checked after every candidate mutation; a
    mutation that changes the verdict class is discarded.  The result
    is 1-minimal with respect to atom removal: dropping any single
    remaining atom loses the verdict. *)

type 'c result = {
  sh_cand : 'c;  (** the minimized candidate *)
  sh_verdict : Rtnet_analysis.Oracle.verdict;
      (** the minimized candidate's verdict (same class as the target) *)
  sh_checks : int;  (** oracle invocations spent *)
}

val run :
  ('e, 'c) Subject.t ->
  oracle:('c -> Rtnet_analysis.Oracle.verdict) ->
  target:Rtnet_analysis.Oracle.verdict ->
  'c ->
  'c result
(** [run subject ~oracle ~target cand] minimizes [cand].  [oracle]
    must be deterministic (re-run the candidate with its pinned
    seeds); [target] is the verdict to preserve.  If [cand] itself
    does not reproduce [target]'s class under [oracle], it is returned
    unchanged. *)
