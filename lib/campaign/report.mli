(** Versioned campaign report ([BENCH_<name>.json]) and the
    perf-regression gate.

    A report bundles the spec (and its hash), the per-cell metrics and
    the run's timing metadata into one JSON document.  Everything
    except the timing fields ([elapsed_s] per cell, [wall_clock_s] and
    [jobs] at the top) is a pure function of the spec, so
    {!fingerprint} — a digest of the canonical JSON with timings and
    the optional per-cell [telemetry] snapshots stripped — is identical
    across [-j 1] and [-j 8] runs, across resumed runs, across
    machines, and with or without [--profile].

    {!compare_reports} is the regression gate: it matches cells of a
    fresh report against a stored baseline by {!Grid.key} and flags
    every metric that degraded beyond the configured tolerances. *)

type cell_entry = {
  ce_index : int;
  ce_key : string;
  ce_result : Grid.result_;
}

type t = {
  campaign : string;
  spec_hash : string;
  spec : Spec.t;
  jobs : int;  (** worker count of the producing run (timing metadata) *)
  wall_clock_s : float;  (** coordinator wall-clock (timing metadata) *)
  cells : cell_entry list;  (** sorted by [ce_index] *)
}

val schema_version : int

val to_json : t -> Rtnet_util.Json.t
(** Canonical rendering, fixed key order. *)

val of_json : Rtnet_util.Json.t -> (t, string) result
(** Rejects unknown schema versions and reports whose stored
    [spec_hash] does not match the embedded spec (a hand-edited or
    corrupted baseline).  Unknown top-level keys are ignored, so an
    older report that still carries a wall-clock ["perf"] section
    loads, and fingerprints, as if the section were absent. *)

val write : path:string -> t -> unit
(** [write ~path r] pretty-prints the report to [path]
    (deterministically — byte-identical for equal reports). *)

val load : path:string -> (t, string) result

val strip_timings : Rtnet_util.Json.t -> Rtnet_util.Json.t
(** Remove every timing field ([elapsed_s], [wall_clock_s], [jobs]) and
    every per-cell [telemetry] snapshot (written only under
    [--profile]) at any depth, leaving only the deterministic content. *)

val fingerprint : t -> string
(** Hex digest of the canonical timing-stripped JSON.  Two runs of the
    same spec fingerprint identically regardless of [-j]. *)

type tolerance = {
  tol_miss_ratio : float;
      (** max allowed absolute increase in per-cell miss ratio *)
  tol_latency_rel : float;
      (** max allowed relative increase in worst/mean latency *)
  tol_delivered : int;  (** max allowed absolute drop in deliveries *)
}

val default_tolerance : tolerance
(** [{tol_miss_ratio = 0.; tol_latency_rel = 0.; tol_delivered = 0}] —
    the simulators are deterministic, so by default any degradation at
    all is a regression. *)

type regression = {
  reg_key : string;  (** cell key *)
  reg_metric : string;  (** e.g. ["miss_ratio"] *)
  reg_baseline : float;
  reg_current : float;
}

val pp_regression : Format.formatter -> regression -> unit

val compare_reports :
  tolerance:tolerance -> baseline:t -> current:t ->
  (regression list, string) result
(** [compare_reports ~tolerance ~baseline ~current] is [Ok \[\]] when
    no cell degraded beyond tolerance, [Ok regs] listing each
    violation otherwise, and [Error] when the reports are not
    comparable at all: different spec hashes, or cells present in one
    but not the other. *)
