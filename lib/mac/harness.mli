(** Common harness for slotted MAC-protocol simulations.

    Every contention protocol in this repository (CSMA/DDCR, CSMA/DCR,
    CSMA-CD/BEB) shares the same skeleton: deliver arrivals into
    per-source EDF queues at each slot boundary, collect the sources'
    transmission attempts, resolve the slot on the {!Rtnet_channel}
    medium, record the carried frame (if any) as a completion, let the
    protocol update its state from the feedback, and repeat until the
    horizon.  This module owns that skeleton — driven by the
    {!Rtnet_sim.Engine} discrete-event kernel — so a protocol only
    supplies two callbacks:

    - [decide]: the attempts for the next contention slot;
    - [after]: protocol-state update from the slot's resolution, with
      the option to extend the acquisition (packet bursting) by
      returning a later [next_free].

    Under a {!Rtnet_channel.Fault_plan} the harness additionally owns
    the {e per-source} view of each slot: a crashed source's attempts
    are discarded and it observes nothing; a live listener may
    misperceive the wire ([observed] then differs from the wire
    resolution).  The paper's consistent-observation assumption
    (Section 2.1) is exactly [observed src = resolution] for every
    live [src]; fault plans break it and the harness measures by how
    much (per-source counters, merged fault epochs) in
    {!Rtnet_stats.Run.fault_stats}.

    The harness asserts the channel-level safety property (mutual
    exclusion) when the run ends and assembles the {!Rtnet_stats.Run}
    outcome (completions, unfinished, dropped, channel statistics). *)

type services = {
  channel : Rtnet_channel.Channel.t;  (** the medium (e.g. for {!Rtnet_channel.Channel.burst}) *)
  peek : int -> Rtnet_workload.Message.t option;
      (** [peek src] is the head ([msg*]) of [src]'s EDF queue *)
  pop : int -> Rtnet_workload.Message.t option;
      (** [pop src] removes and returns the head *)
  complete : Rtnet_workload.Message.t -> start:int -> finish:int -> unit;
      (** record a carried frame (used by the harness itself for the
          slot's main frame, and by protocols for burst frames) *)
  drop : Rtnet_workload.Message.t -> unit;
      (** record a message the protocol abandoned (counts as missed) *)
  deliver_until : int -> unit;
      (** make arrivals with [T <= time] visible in the queues; the
          harness already does this at every slot boundary, but a
          protocol extending an acquisition (packet bursting) must call
          it before choosing each continuation frame so the EDF ranking
          sees messages that arrived mid-acquisition.  Arrivals at or
          after the horizon are never enqueued, so they are never
          reported unfinished. *)
  iter_backlog : (int -> unit) -> unit;
      (** [iter_backlog f] calls [f] on every source whose EDF queue is
          non-empty, in ascending source order — the only sources with
          a [msg*] to contend with, so a protocol's [decide] can cost
          O(backlog) instead of O(num_sources).  Allocation-free; [f]
          may [peek] but must not [pop]. *)
  alive : int -> bool;
      (** [alive src] — false while [src] is inside a fault-plan crash
          window (always true without a plan).  Valid during [decide]
          and [after] of the current slot. *)
  observed : int -> Rtnet_channel.Channel.resolution;
      (** [observed src] is [src]'s {e local} decoding of the current
          slot — equal to the wire resolution unless the fault plan
          made [src] misperceive it.  Only meaningful inside [after];
          a protocol with replicated state must feed each replica its
          own observation, not the wire's.  Without a plan it is the
          wire resolution for every [src] (no per-source copy is
          made). *)
  mark_desync : int -> unit;
      (** protocol callback: count one slot during which [src]'s
          replica was desynchronized (listen-only); feeds
          {!Rtnet_stats.Run.source_faults} and extends the current
          fault epoch *)
  mark_resync : int -> unit;
      (** protocol callback: count one completed divergence recovery
          by [src] *)
}

type mismatch = {
  mm_slot : int;  (** slot start time (bit-times) *)
  mm_source : int;  (** transmitting source *)
  mm_tag : int;  (** tag the channel carried *)
  mm_reason : string;  (** what disagreed *)
}
(** Structured diagnostic for a tag/queue disagreement, so protocol
    bugs under fault injection are debuggable: which slot, which
    source, which tag. *)

exception Mismatch of mismatch
(** Raised when the channel reports a transmission whose tag is not the
    head of the sender's queue — a protocol-implementation error. *)

val mismatch_message : mismatch -> string
(** [mismatch_message m] formats the diagnostic:
    ["slot at t=<slot>: source <src>, tag <tag>: <reason>"].  Also
    installed as the [Printexc] printer for {!Mismatch}. *)

val misperceived_view :
  Rtnet_channel.Channel.resolution -> Rtnet_channel.Channel.resolution
(** [misperceived_view resolution] is what a misperceiving listener
    decodes instead of [resolution]: a [Tx] as CRC-garbage
    ([Garbled]), a destructive [Clash] as silence ([Idle]); [Idle],
    [Garbled] and arbitrated-survivor slots pass through unchanged.
    Exposed so model checkers ([Rtnet_model]) apply the {e exact} same
    observation corruption the harness does. *)

(** The fault-epoch ledger: the merged spans of degraded slots. *)
type epochs = {
  closed : (int * int) list;  (** finished epochs, most recent first *)
  current : (int * int) option;  (** the epoch still growing, if any *)
}

val no_epochs : epochs

val note_epoch : epochs -> start:int -> finish:int -> epochs
(** [note_epoch ep ~start ~finish] records the degraded slot
    [\[start, finish)]: it extends the current epoch if it starts no
    later than that epoch's end, and opens a new one otherwise.
    {!run} notes every degraded slot this way. *)

val epoch_list : epochs -> (int * int) list
(** [epoch_list ep] is every epoch, oldest first — the outcome's
    [f_epochs]. *)

val run :
  protocol:string ->
  ?fault:Rtnet_channel.Channel.fault ->
  ?plan:Rtnet_channel.Fault_plan.t ->
  ?analyze:bool ->
  ?sink:Rtnet_telemetry.Sink.t ->
  ?on_complete:
    (msg:Rtnet_workload.Message.t -> start:int -> finish:int -> unit) ->
  ?inject:(now:int -> Rtnet_workload.Message.t list) ->
  phy:Rtnet_channel.Phy.t ->
  num_sources:int ->
  horizon:int ->
  decide:(services -> now:int -> Rtnet_channel.Channel.attempt list) ->
  after:
    (services ->
    now:int ->
    resolution:Rtnet_channel.Channel.resolution ->
    next_free:int ->
    int) ->
  Rtnet_workload.Message.t list ->
  Rtnet_stats.Run.outcome
(** [run ~protocol ~phy ~num_sources ~horizon ~decide ~after trace]
    simulates the protocol on [trace].  Per slot, the harness:

    + delivers arrivals with [T <= now] into the EDF queues,
    + under a [plan], refreshes per-source liveness (crash windows),
    + calls [decide], discards attempts of crashed sources, and
      resolves the slot on the channel,
    + under a [plan], computes each live source's local observation
      (misperception draws) and each crashed source's missed slots,
    + on a carried frame ([Tx] or an arbitrated survivor) pops the
      sender's head (verifying the tag — {!Mismatch} otherwise) and
      records the completion,
    + calls [after], whose return value becomes the next slot boundary
      (return [next_free] unchanged unless bursting extended the
      acquisition),
    + if anything was degraded this slot (crash, miss, misperception,
      wire garbling, or the protocol called [mark_desync]), extends
      the current fault epoch to the returned boundary,
    + asserts, at the end, that no two carried frames overlapped.

    [fault] is the legacy i.i.d. noise model, [plan] the composable
    fault-plan model; they are mutually exclusive (the channel rejects
    both).  The outcome's [faults] field is [Some] iff [plan] was
    given.

    With [analyze] (default [true] — every harness run is
    invariant-checked unless explicitly opted out) the run additionally
    reconciles its completion list against the channel's transmission
    log when it ends: the two must agree entry for entry on
    (source, uid, start, finish), and no two completions may overlap on
    the wire.  This is the MAC-layer half of the [rtnet.analysis]
    safety net; the richer protocol-trace obligations (nesting,
    timeliness, ξ bounds) live in [Rtnet_analysis.Trace_check], which
    sits above this library.

    [sink] (default {!Rtnet_telemetry.Sink.null}) receives the
    harness-level probes: [enqueue] on queue insertion, [slot] after
    every channel resolution, [complete]/[drop] on message service,
    [engine_event] per engine dispatch, and [epoch] for each merged
    fault epoch at the end of the run.  With the null sink every probe
    is a single boolean test.

    [on_complete] and [inject] are the federation hooks for multi-hop
    topologies ([Rtnet_topology]).  [on_complete] is called for every
    recorded completion (main frames and burst frames alike), in
    completion order, before the run's outcome is assembled — a bridge
    station uses it to ingest frames bound for a downstream segment the
    moment they finish on this one.  [inject ~now], polled at every
    slot boundary before arrivals are delivered, returns messages to
    merge into the arrival stream (the injector must return each
    message exactly once); a message whose [arrival <= now] becomes
    visible to the EDF queues this very slot, a later one when its
    arrival time passes — exactly the visibility rule trace arrivals
    follow.  Injected messages are indistinguishable from trace
    arrivals afterwards: they are EDF-queued, completed, counted in
    [unfinished] if still pending, and reconciled by [analyze].

    @raise Mismatch on tag/queue-head disagreement.
    @raise Failure if the channel safety check or the [analyze]
    reconciliation fails. *)
