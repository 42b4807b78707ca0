(** The CSMA/DDCR protocol — Carrier Sense Multi Access / Deadline
    Driven Collision Resolution (Section 3.2).

    Every source runs the same deterministic automaton and keeps a
    replica of the shared protocol state (current phase, reference time
    [reft], tree-search stacks, highest searched leaf [f*]) updated
    {b only from channel feedback}, plus its private EDF queue.  The
    interpretation choices for the paper's informal description are
    listed in DESIGN.md §4.

    Phases:
    - {b free CSMA-CD}: no unresolved collision pending; any source
      with a non-empty queue attempts its [msg*]; the first collision
      starts CSMA/DDCR;
    - {b time tree search} ({i TTs}): a balanced [time_m]-ary search
      over the [F] deadline-class leaves; a source participates in the
      probed interval iff
      [f(reft, msg★) = max(⌊(DM − α − reft)/c⌋, f★ + 1)]
      falls inside it (and is [<= F − 1]);
    - {b static tree search} ({i STs}): entered on a time-tree leaf
      collision; sources walk their statically owned indices, at most
      [ν_i] transmissions each, with unsearched-index joins for late
      messages;
    - {b open attempt}: after each TTs, one à-la-CSMA-CD attempt slot;
      its collision resets [reft] and starts the next TTs; silence
      returns the channel to free CSMA-CD.  A TTs that transmitted
      nothing first advances [reft] by [θ(c)] (compressed time). *)

exception Protocol_violation of string
(** Raised if the channel feedback is inconsistent with the protocol's
    invariants (e.g. a collision on a static tree leaf, which disjoint
    index ownership makes impossible). *)

(** The pure per-replica transition function: the whole DDCR step as a
    [state -> feedback -> state] map over immutable records.  The
    simulator steps one such state per replica group ({!run_trace});
    the mutable {!Automaton} below is a thin wrapper over this module;
    the explicit-state model checker ([Rtnet_model]) explores these values
    directly — they are hashable, comparable and structurally shared,
    so a frontier of reached states needs no defensive copies. *)
module Step : sig
  type tts = {
    t_stack : (int * int) list;
        (** unsearched time-tree intervals, ascending [(lo, width)] *)
    f_star : int;  (** highest searched time leaf, [-1] at entry *)
    sent : bool;  (** "out": something transmitted this TTs *)
  }

  type sts = {
    s_stack : (int * int) list;  (** unsearched static intervals *)
    time_leaf : int;  (** the colliding deadline class *)
  }

  type phase = Free | Attempt | Tts of tts | Sts of sts * tts

  type state = {
    phase : phase;
    reft : int;  (** reference time *)
    rank : int;  (** next unused own static index in current STs *)
    last_out : bool;  (** [out] flag of the last completed TTs *)
  }

  val init : state
  (** The initial (free CSMA-CD, [reft = 0]) state. *)

  val decide :
    Ddcr_params.t ->
    source:int ->
    state ->
    msg_star:Rtnet_workload.Message.t option ->
    Rtnet_channel.Channel.attempt option
  (** Pure counterpart of {!Automaton.decide}. *)

  val observe :
    Ddcr_params.t ->
    source:int ->
    state ->
    resolution:Rtnet_channel.Channel.resolution ->
    next_free:int ->
    state
  (** Pure counterpart of {!Automaton.observe}: the state after the
      slot's channel feedback.  [source] is needed only for the private
      rank bump on the replica's own static-tree transmissions.
      @raise Protocol_violation on inconsistent feedback. *)

  val fingerprint : state -> string
  (** Digest of the {b shared} state (phase, stacks, [reft], [f*]);
      byte-identical to {!Automaton.fingerprint} on the wrapped state.
      Private state (the rank) is excluded. *)

  val phase_name : state -> string
  (** ["free"], ["attempt"], ["tts"] or ["sts"]. *)

  val at_boundary : state -> bool
  (** Between tree epochs (phase free or attempt). *)

  val sts_leaf : state -> int option
  (** The colliding deadline class of an STs in progress, if any. *)

  val wf : Ddcr_params.t -> source:int -> state -> (unit, string) result
  (** [wf p ~source st] checks structural well-formedness — the
      slot-accounting obligations the model checker asserts on every
      reached state: stack intervals non-empty, in bounds, ascending
      and disjoint; [f* + 1] equal to the top time interval's start;
      [reft >= 0]; [0 <= rank <= ν(source)]; a non-empty stack in each
      in-search phase and the STs leaf in range. *)
end

(** The per-source protocol automaton, exposed for unit tests and for
    the lockstep-replication property test.  A thin mutable wrapper
    around {!Step}. *)
module Automaton : sig
  type t
  (** Replicated protocol state of one source. *)

  val state : t -> Step.state
  (** [state a] is the wrapped pure state (shared, immutable). *)

  val create : Ddcr_params.t -> source:int -> t
  (** [create params ~source] is the automaton of source [source] in
      its initial (free CSMA-CD) state. *)

  val decide :
    t -> msg_star:Rtnet_workload.Message.t option -> Rtnet_channel.Channel.attempt option
  (** [decide a ~msg_star] is the source's action for the next
      contention slot, given the head of its local EDF queue: [Some
      attempt] to transmit, [None] to stay silent. *)

  val observe :
    t ->
    resolution:Rtnet_channel.Channel.resolution ->
    next_free:int ->
    unit
  (** [observe a ~resolution ~next_free] advances the replica with the
      channel feedback of the slot; [next_free] is the start of the
      next contention slot ("local physical time" at which the next
      decision is taken). *)

  val fingerprint : t -> string
  (** [fingerprint a] digests the {b shared} replica state (phase,
      stacks, [reft], [f*]) — equal across all sources after every slot
      iff replication is in lockstep.  Private state (the static-index
      rank) is excluded. *)

  val phase_name : t -> string
  (** [phase_name a] is ["free"], ["attempt"], ["tts"] or ["sts"]. *)

  val reft : t -> int
  (** [reft a] is the replica's current reference time. *)

  val last_tts_sent : t -> bool
  (** [last_tts_sent a] is the [out] flag of the most recently
      completed time tree search ([false] before the first one). *)

  val sts_leaf : t -> int option
  (** [sts_leaf a] is the colliding deadline class of the static tree
      search in progress, if any. *)

  val at_boundary : t -> bool
  (** [at_boundary a] iff the replica is between tree epochs (phase
      free or attempt) — the only states a recovering station may copy. *)

  val resync : t -> reference:t -> unit
  (** [resync a ~reference] replaces [a]'s shared replica state (phase,
      [reft], [out]) with [reference]'s and resets its private rank —
      the divergence-recovery step, legal only at a tree-epoch boundary.
      @raise Invalid_argument if [reference] is inside a tree search. *)

  val restart : t -> reft:int -> unit
  (** [restart a ~reft] cold-starts the replica (free CSMA-CD, the
      given [reft]) — used when no synced station is left to copy. *)
end

val run_trace :
  ?check_lockstep:bool ->
  ?on_event:(Ddcr_trace.event -> unit) ->
  ?fault:Rtnet_channel.Channel.fault ->
  ?plan:Rtnet_channel.Fault_plan.t ->
  ?analyze:bool ->
  ?sink:Rtnet_telemetry.Sink.t ->
  ?on_complete:
    (msg:Rtnet_workload.Message.t -> start:int -> finish:int -> unit) ->
  ?inject:(now:int -> Rtnet_workload.Message.t list) ->
  Ddcr_params.t ->
  Rtnet_workload.Instance.t ->
  Rtnet_workload.Message.t list ->
  horizon:int ->
  Rtnet_stats.Run.outcome
(** [run_trace params inst trace ~horizon] simulates CSMA/DDCR for the
    given arrival trace on [inst]'s medium until [horizon] (bit-times)
    and reports the outcome (completions carry exact start/finish
    times; the channel's safety log is embedded in the statistics).
    Replicas are stepped {e grouped}: all replicas holding the same
    shared state form one group whose state is stepped once per slot,
    and each source keeps only its group id and private static rank —
    so a slot costs O(distinct replica states + backlogged sources),
    not O(z) (see DESIGN.md, "Grouped replica stepping").

    With [check_lockstep] (default [false]) the run also steps a
    per-source {!Step.state} array the ungrouped way — each replica on
    its own observation, with the per-replica divergence verdict and
    recovery — and asserts every slot that the grouped decisions equal
    the per-replica ones and that every live synced source's state is
    structurally its group's state with its own rank ([last_out]
    included).  O(z) extra work per slot.  [on_event]
    receives one {!Ddcr_trace.event} per slot plus phase transitions
    (see {!Ddcr_trace.collector}).  [fault] injects channel noise
    (garbled frames); the protocol retries garbled frames and remains
    safe, at the cost of latency.  [analyze] is forwarded to
    {!Rtnet_mac.Harness.run} (default [true]): the completion list is
    reconciled against the channel's transmission log when the run
    ends.

    [plan] runs the protocol under a {!Rtnet_channel.Fault_plan}:

    - a crashed source neither decides nor observes; on rejoin it is
      {e desynchronized} and stays listen-only;
    - every live synced replica is fed its own local observation
      ([Harness.observed]), so per-source misperception can make
      replicas diverge;
    - members of a replica group that observe the slot differently
      (misperception) split off into a group of their own, which steps
      on their observation; crashed members leave their group;
    - divergence is detected the slot it occurs by comparing replica
      digests ({!Step.fingerprint}, one per group): sources whose
      group disagrees with the plurality by member count (ties broken
      towards the lowest id) are desynchronized and go listen-only;
      groups left with equal states merge back;
    - a desynchronized source recovers at the first tree-epoch boundary
      (the plurality replica in phase free/attempt): it copies the
      reference replica state and re-enters contention — within one
      tree epoch of the fault clearing.  If {e no} synced source
      remains, the lowest-id live source cold-restarts the protocol and
      the others resync to it;
    - a resynced or restarted source joins the reference's group;
    - with [check_lockstep], lockstep is asserted among the live synced
      replicas only (the property fault plans preserve), and the
      per-replica oracle's desync verdicts must equal the grouped
      ones.

    [fault] and [plan] are mutually exclusive; the outcome's [faults]
    statistics are [Some] iff [plan] was given.

    [sink] (default {!Rtnet_telemetry.Sink.null}) receives, on top of
    the harness probes, the DDCR-specific ones: one [search] span per
    completed TTs/STs descent and one [jump] per compressed-time θ
    advance (an unproductive TTs).

    [on_complete] and [inject] are forwarded verbatim to
    {!Rtnet_mac.Harness.run} — the federation hooks a multi-hop
    topology driver uses to ingest this segment's completions online
    and to inject bridged arrivals from upstream segments.
    @raise Invalid_argument if [params] fail validation for [inst].
    @raise Protocol_violation on inconsistent channel feedback. *)

type work = {
  observes : int;  (** [Step.observe] calls on replica groups *)
  fingerprints : int;  (** [Step.fingerprint] calls on replica groups *)
}
(** Replica work done by {!run_trace}. *)

val work : unit -> work
(** [work ()] is the replica work {!run_trace} has done on the calling
    domain so far (cumulative; take differences around a run).  Without a
    plan a run makes exactly one [observes] per slot and no
    [fingerprints]; under a plan, one of each per replica group per
    slot.  The [check_lockstep] oracle's own calls are not counted. *)

val run :
  ?check_lockstep:bool ->
  ?on_event:(Ddcr_trace.event -> unit) ->
  ?fault:Rtnet_channel.Channel.fault ->
  ?plan:Rtnet_channel.Fault_plan.t ->
  ?analyze:bool ->
  ?sink:Rtnet_telemetry.Sink.t ->
  ?on_complete:
    (msg:Rtnet_workload.Message.t -> start:int -> finish:int -> unit) ->
  ?inject:(now:int -> Rtnet_workload.Message.t list) ->
  ?seed:int ->
  Ddcr_params.t ->
  Rtnet_workload.Instance.t ->
  horizon:int ->
  Rtnet_stats.Run.outcome
(** [run params inst ~horizon] is {!run_trace} on
    [Instance.trace inst ~seed ~horizon] (default seed 1). *)
