(** Domain-parallel event-driven simulator of the fault-tolerant model:
    one shard per binomial subtree (paper Section 4) on a
    {!Lesslog_sim.Sharded_engine}, deterministic at any domain count. It
    runs the native protocol only — the overload trigger, the replica
    push, the Section 4 request step and churn repair; the dynamic-RF
    competitor and the erasure-coded tier run on {!Des_sim}.

    The Section 4 protocol is nearly subtree-local — insertion places one
    copy per subtree, lookups climb alive ancestors within the origin's
    subtree, replicas go to subtree children — so each of the [2^b]
    subtrees becomes a shard owning all of its nodes' mutable state
    (holder bits over subtree VIDs, rate estimators, cooldowns,
    histograms, span sink, RNG stream, FNV digest). The only cross-shard
    traffic is a faulting request migrating to a sibling subtree and the
    replies it earns; both ride sampled network latency, whose
    distribution minimum is the engine's lookahead.

    Determinism: shard count and shard ownership are fixed by [b], not
    by [domains]; per-shard RNG streams are derived from [seed] and the
    subtree id; churn runs as sequential barrier globals. The result —
    including {!result.digest} — is bit-identical for any [domains],
    including 1. Contrast {!Des_sim}, the sequential single-tree
    simulator with the richer feature set (substrates, eviction, traces,
    multi-phase scenarios, the policy and the erasure-coded tier) and
    the pinned golden digest. *)

open Lesslog_id
module Latency = Lesslog_net.Latency
module Histogram = Lesslog_metrics.Histogram
module Demand = Lesslog_workload.Demand
module Obs = Lesslog_obs.Obs

type config = {
  capacity : float;  (** Requests/s one node serves before replicating. *)
  detection_tau : float;  (** Access-counter decay constant, seconds. *)
  cooldown : float;  (** Seconds between replications off one node. *)
  latency : Latency.t;
      (** Per-hop delay; its minimum must be positive when [b > 0] — it
          is the conservative lookahead. *)
  loss : float;  (** Per-message drop probability. *)
}

val default_config : config
(** capacity 100, tau 2 s, cooldown 0.5 s, default latency, no loss —
    {!Des_sim.default_config} without eviction. *)

type result = {
  served : int;
  faults : int;
  migrations : int;
      (** Subtree crossings: GET hops that {!Lesslog_topology.Topology.route}
          sent into another subtree (Section 4 migration). *)
  requests : int;
  latencies : Histogram.t;  (** Merged across shards in shard order. *)
  hops : Histogram.t;
  replicas_created : int;
  replicas_end : int;  (** Copies held across all subtrees at the end. *)
  messages : int;
  control_messages : int;
  file_transfers : int;
  events : int;
  epochs : int;  (** Epoch windows of the sharded engine. *)
  phases : int;
      (** Pool dispatches: 1, as {!Lesslog_sim.Sharded_engine.run} makes
          one per call. *)
  cross_sends : int;  (** Mailbox messages between shards. *)
  worker_times : Lesslog_sim.Sharded_engine.worker_time array;
      (** Per worker, host seconds draining, delivering mail and waiting
          at the window barrier (spinning and blocked apart); published
          as [pdes/worker<w>/{drain_s,deliver_s,barrier_spin_s,
          barrier_block_s}] with [obs]. Host timing: not in [digest] and
          not domain-count invariant. *)
  digest : int;
      (** FNV fold over every handled event of every shard, combined in
          shard order — the domain-count-invariance witness. *)
}

include module type of struct
  include Churn
end

val run :
  ?config:config ->
  ?churn:churn_event list ->
  ?faults:Lesslog_workload.Faults.plan ->
  ?obs:Obs.t ->
  ?domains:int ->
  seed:int ->
  params:Params.t ->
  key:string ->
  demand:Demand.t ->
  duration:float ->
  unit ->
  result
(** Simulate [duration] seconds of Poisson demand against one file in a
    [2^m]-slot system of [2^b] subtrees, all slots initially live, the
    file pre-inserted per ADVANCEDINSERTFILE. [churn] events run as
    barrier globals (a {!Leave} relocates the departing node's copy, a
    {!Fail} loses it and recovers from a sibling subtree while any copy
    survives, a {!Join} lets a new insertion target take the copy over);
    [faults] is a {!Lesslog_workload.Faults.plan} lowered onto the same
    machinery — crashes become [Fail]/[Join] churn, loss bursts become
    barrier globals that raise the drop probability to the maximum of
    the active bursts for their span (partitions are rejected);
    [domains] is purely a speed knob. Each shard's state is built on the
    worker that drains it ({!Lesslog_sim.Sharded_engine.create}). With
    [obs], per-shard span sinks are merged into the bundle in shard
    order and [pdes/*] registry metrics are attributed at the end.
    @raise Invalid_argument when [m] exceeds the 24-bit packed origin
    field, the latency model fails [Latency.validate], [b > 0] with a
    latency minimum of zero, [config.loss] or a burst's loss outside
    [[0, 1)] (NaN included), or [faults] contains partitions. *)
