module Ddcr = Rtnet_core.Ddcr
module Harness = Rtnet_mac.Harness
module Oracle = Rtnet_analysis.Oracle
module Run_json = Rtnet_stats.Run_json
module Json = Rtnet_util.Json

type report = { rp_verdict : Oracle.verdict; rp_fingerprint : string }

let fingerprint_outcome outcome =
  Digest.to_hex (Digest.string (Json.to_string (Run_json.outcome_to_json outcome)))

(* When the run dies in an exception there is no outcome to digest;
   fingerprint the verdict rendering instead — still a pure function
   of the candidate, so replay equality holds. *)
let failed v =
  {
    rp_verdict = v;
    rp_fingerprint =
      Digest.to_hex (Digest.string ("verdict:" ^ Json.to_string (Oracle.to_json v)));
  }

(* Only [sim] is guarded: an exception raised while classifying a
   finished run (or building its inputs) is a bug of the caller and
   must escape, not turn into a verdict. *)
let simulate sim classify =
  match sim () with
  | outcome -> classify outcome
  | exception Harness.Mismatch m ->
    failed (Oracle.Harness_mismatch (Harness.mismatch_message m))
  | exception Ddcr.Protocol_violation msg ->
    failed (Oracle.Run_crash ("protocol violation: " ^ msg))
  | exception Failure msg ->
    (* The harness raises [Failure] when safety or the end-of-run
       transmission-log reconciliation breaks. *)
    failed (Oracle.Safety_violation msg)
  | exception Assert_failure _ ->
    failed (Oracle.Run_crash "assertion failure in the simulator")
