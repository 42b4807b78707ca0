(** Self-contained, deterministic replay artifacts, one envelope for
    every {!Subject}.

    A repro freezes everything needed to re-execute one chaos finding
    byte-identically: the subject's environment and candidate (its
    pinned seeds included), the expected
    {!Rtnet_analysis.Oracle.verdict} and the expected trace
    fingerprint.  [ddcr_chaos replay] re-runs the candidate and exits
    non-zero unless {e both} the verdict and the fingerprint reproduce
    exactly — the committed repro fixtures under [test/fixtures/] are
    replayed this way on every [make check].

    The JSON is [{"<prefix>chaos_repro_version": v, <env fields>,
    <candidate fields>, "verdict", "fingerprint", "note"}] with the
    subject's {!Subject.S.prefix} in the version key
    (["chaos_repro_version"], ["topo_chaos_repro_version"],
    ["admit_chaos_repro_version"]) — {!load_any} dispatches on it. *)

type ('e, 'c) t = {
  re_env : 'e;
  re_cand : 'c;
  re_verdict : Rtnet_analysis.Oracle.verdict;  (** expected verdict *)
  re_fingerprint : string;  (** expected trace fingerprint *)
  re_note : string;  (** provenance, e.g. "search seed=7 candidate=12" *)
}

val make :
  env:'e -> cand:'c -> report:Candidate.report -> note:string -> ('e, 'c) t
(** [make ~env ~cand ~report ~note] freezes a finding. *)

val version_key : string -> string
(** [version_key prefix] is the artifact version key of the subject
    with that {!Subject.S.prefix}. *)

val to_json : ('e, 'c) Subject.t -> ('e, 'c) t -> Rtnet_util.Json.t
(** Canonical encoding (fixed key order, versioned). *)

val of_json :
  ('e, 'c) Subject.t -> Rtnet_util.Json.t -> (('e, 'c) t, string) result
(** Decodes and validates: the version within
    [\[min_version, version\]], the subject's environment and candidate
    (plans re-validated against the horizon and attached to the
    described tree, admission environments re-instantiated) and a
    well-formed verdict — [ddcr_lint --check-repro] is this function
    on a file. *)

val save : ('e, 'c) Subject.t -> path:string -> ('e, 'c) t -> unit
val load : ('e, 'c) Subject.t -> path:string -> (('e, 'c) t, string) result

type replay = {
  rr_report : Candidate.report;  (** what the re-execution produced *)
  rr_verdict_ok : bool;  (** verdict structurally equal to expected *)
  rr_fingerprint_ok : bool;  (** fingerprint byte-equal to expected *)
}

val verify : ('e, 'c) t -> Candidate.report -> replay
(** [verify t report] compares a re-execution against the artifact's
    expectations. *)

val replay : ('e, 'c) Subject.t -> ('e, 'c) t -> replay
(** [replay subject t] re-executes the candidate with the frozen seeds
    and {!verify}s it. *)

type any = Any : ('e, 'c) Subject.kind * ('e, 'c) t -> any

val load_any : path:string -> (any, string) result
(** [load_any ~path] loads an artifact of any subject, dispatching on
    the version key — [ddcr_chaos replay] and [shrink] take whichever
    file they are handed.  A file with no subject's key decodes as
    plain, so its error names the missing ["chaos_repro_version"]. *)
