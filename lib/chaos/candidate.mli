(** What executing one chaos candidate yields, and the one mapping
    from simulator exceptions to oracle verdicts.

    Every {!Subject} reduces its run to an
    {!Rtnet_analysis.Oracle.verdict} and a {b trace fingerprint}: a
    hex digest of canonical bytes that carry no wall-clock fields, so
    the fingerprint is a pure function of the candidate — the
    equality replay artifacts assert. *)

type report = {
  rp_verdict : Rtnet_analysis.Oracle.verdict;
  rp_fingerprint : string;
}

val fingerprint_outcome : Rtnet_stats.Run.outcome -> string
(** Hex digest of {!Rtnet_stats.Run_json.outcome_to_json}'s canonical
    bytes. *)

val failed : Rtnet_analysis.Oracle.verdict -> report
(** A run that produced no outcome: the verdict, fingerprinted by its
    own rendering (deterministic, so replay equality still holds). *)

val simulate : (unit -> 'a) -> ('a -> report) -> report
(** [simulate sim classify] runs [sim] and hands its result to
    [classify].  A protocol failure inside [sim] becomes a {!failed}
    report instead of escaping: {!Rtnet_mac.Harness.Mismatch} →
    [Harness_mismatch], [Ddcr.Protocol_violation] and [Assert_failure]
    → [Run_crash], a safety/reconciliation [Failure] →
    [Safety_violation].  Exceptions raised by [classify] escape. *)
