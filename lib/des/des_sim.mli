(** Message-level simulation of a complete LessLog deployment.

    Where {!Lesslog_flow} solves the steady state in closed form (and
    generates the paper's figures), this simulator plays the system out
    event by event: Poisson request arrivals at each node, per-hop network
    latency, per-node overload detection from a decayed serve-rate
    estimator (the node's own observation — still no client-access logs),
    replica pushes that take time to arrive, and optional churn events.
    The integration tests check that both engines agree on replica counts;
    this engine additionally yields latency and hop distributions and
    convergence behaviour that the fluid solver cannot express.

    It is also the one simulator that runs the log-driven dynamic-RF
    competitor and the erasure-coded cold tier, neither of them part of
    the paper's protocol, both through {!Control_plane}. {!Pdes_sim}
    runs the native protocol alone on the sharded engine; {!Fault_sim}
    runs it over rpc and heartbeat membership. *)

module Histogram = Lesslog_metrics.Histogram
module Timeseries = Lesslog_metrics.Timeseries

type eviction = {
  period : float;
      (** How often each node reconsiders its replicas; must be [> 0]. *)
  min_rate : float;
      (** Locally-estimated accesses/s below which a replica is dropped. *)
}

type config = {
  capacity : float;  (** Requests/s a node serves without overload. *)
  detection_tau : float;
      (** Time constant of the serve-rate estimator (seconds). *)
  cooldown : float;
      (** Minimum time between two replications triggered by the same
          node. *)
  latency : Lesslog_net.Latency.t;
  loss : float;  (** Per-message drop probability. *)
  eviction : eviction option;
      (** When set, run the paper's counter-based replica removal: every
          [period], each live holder of the simulated key drops its
          replicated copy when the copy's decayed access counter
          estimates fewer than [min_rate] accesses/s — a purely local,
          logless decision ({!Lesslog_storage.File_store.is_cold_replica}).
          A tick walks the key's live holders in ascending PID order, so
          it costs the copies it looks at, not the live population.

          The survivor floor: the key's live copy count is re-read
          immediately before each removal, and a copy is dropped only
          while more than one is live. When every live holder is a cold
          replica (the inserted copy's node is down), the tick stops at
          the last copy. Inserted and erasure-coded copies are never
          dropped.

          Eviction is per simulated key: copies of other keys placed in
          the cluster are never evicted, counted or traced. (Before,
          each tick also silently dropped their cold replicas, without
          counting or tracing them.) *)
}

val default_config : config
(** capacity 100, tau 2 s, cooldown 0.5 s, default latency, no loss, no
    eviction. *)

include module type of struct
  include Churn
end

type result = {
  served : int;
  faults : int;  (** Requests whose path met no copy. *)
  latencies : Histogram.t;  (** Request completion time, seconds. *)
  hops : Histogram.t;  (** Forwarding hops per served request. *)
  replicas_created : int;
  replicas_evicted : int;
      (** Replicas removed by the counter-based mechanism (0 unless
          [config.eviction] is set). *)
  replica_timeline : Timeseries.t;  (** Copies of the key over time. *)
  last_replication : float option;
      (** When the system stopped creating replicas — convergence. *)
  messages : int;  (** Total overlay messages. *)
  control_messages : int;
      (** Status-word broadcasts triggered by churn events (one message
          per live node per event, Section 5). *)
  file_transfers : int;
      (** Files relocated by the self-organized mechanism (join
          copy-backs, leave re-inserts, failure recoveries). *)
  overloaded_at_end : int;
      (** Nodes whose estimated serve rate still exceeded capacity when
          the run ended. *)
  events : int;
      (** Engine events executed — the throughput denominator for
          events/sec benchmarks. *)
  cold : Control_plane.cold_stats option;
      (** Byte accounting and tier transitions; [Some] iff the run was
          given a [cold_tier] (even if nothing was ever demoted, so a
          full-replication baseline run carries the same ledger). *)
}

(** Both entry points accept an optional [sink] receiving a
    {!Lesslog_trace.Trace.Event.t} for every served/faulted request,
    replica push, eviction and membership change — feed it a
    [Trace.Writer] to record the run.

    With [obs], the run is instrumented: the [des/]* metrics land in
    [obs.registry] (request/served/fault/replication/eviction counters
    filled from the run's own tallies, latency and hop timers backed by
    the result histograms) and every resolved request records a
    ["lookup"] span in [obs.spans] keyed by its wire-level id, carrying
    origin, serving node (absent on a fault) and hop count — emitted in
    one call at resolution, since the wire already carries the issue
    timestamp. Requests still in flight when the engine stops leave no
    span. Each replica push records an instant ["replicate"] span. The
    hot path stays allocation-flat.

    Every routing hop, replica placement and churn repair goes through
    one {!Lesslog_substrate.Substrate.t}: [substrate] when given, else
    the native adapter {!Lesslog.Substrate_native.of_cluster}, so passing
    the native adapter is the same run as omitting it. Routing is the
    substrate's [next_hop], placement its [replica_target], and churn
    [Ops.on_membership_via] for {!Lesslog_substrate.Substrate.Generic}
    substrates (the native adapter's [Self_organized] membership keeps
    the Section 5 mechanism and the native cold-tier placement). Routes
    longer than the packed hop field (63) — impossible on a conforming
    substrate — count as faults.

    With [policy], replica management switches from LessLog's native
    logless overload trigger to the log-driven weighted dynamic-RF
    competitor ({!Lesslog_policy.Rf_policy}), run by the
    {!Control_plane}: every issued request is
    logged against its origin node, and at every tick of
    {!Control_plane.ticks} (multiples of the policy interval, strictly
    before the horizon) {!Control_plane.tick} closes the analysis window
    and this simulator reconciles the key's live copy count to the
    resulting replica factor — deficits fill at the first live
    non-holders in ascending PID order, surpluses shed replicated copies
    (never the inserted original). Enforcement is instantaneous and
    draws no randomness. The policy instance must be fresh for the run
    and sized to the cluster's PID space; inspect it after the run for
    the final RF and classification. Omitting [policy] leaves the event
    stream and RNG draws bit-identical to previous releases.

    With [cold_tier] (requires [policy]), the erasure-coded cold tier is
    armed — its verdicts, flags and byte ledger are the
    {!Control_plane}'s, its placement goes through {!Lesslog.Ops}: after
    [demote_after] consecutive Cold classifications the key
    trades its full copies for the [k + r] fragments of a Reed-Solomon
    code ({!Lesslog.Ops.demote_to_coded}); a later Hot verdict promotes
    it back to the policy's replica factor. While coded, a request is
    served when its route meets a fragment holder and at least [k]
    fragments are live anywhere (the decode fan-in is byte accounting,
    not simulated messages); below [k] survivors requests degrade to
    reported faults — no panic. Churn events trigger fragment repair
    ({!Lesslog.Ops.repair_coded}, through [Ops.on_membership_via] on
    Generic substrates, which alone also place fragments and promoted
    copies). The [cold] result field carries demotion/
    promotion/repair counts and the byte ledger; it is present whenever
    [cold_tier] was given, so a baseline run with [demote_after =
    max_int] yields comparable byte accounting under full replication.
    @raise Invalid_argument when the policy's accessor population does
    not match the cluster's PID space, when [cold_tier] is given without
    [policy], on invalid code/size parameters, when the eviction period
    is not [> 0], or when [config.loss] is outside [[0, 1)] (NaN
    included). *)

val run :
  ?config:config ->
  ?churn:churn_event list ->
  ?sink:(Lesslog_trace.Trace.Event.t -> unit) ->
  ?obs:Lesslog_obs.Obs.t ->
  ?substrate:Lesslog_substrate.Substrate.t ->
  ?policy:Lesslog_policy.Rf_policy.t ->
  ?cold_tier:Control_plane.cold_tier ->
  rng:Lesslog_prng.Rng.t ->
  cluster:Lesslog.Cluster.t ->
  key:string ->
  demand:Lesslog_workload.Demand.t ->
  duration:float ->
  unit ->
  result
(** Simulate [duration] seconds. The key must already be inserted in the
    cluster. Churn events call the Section 5 mechanism at their scheduled
    times (joins/leaves/failures); request arrivals stop at nodes that die
    and never start at nodes absent from the initial demand. *)

val run_scenario :
  ?config:config ->
  ?churn:churn_event list ->
  ?sink:(Lesslog_trace.Trace.Event.t -> unit) ->
  ?obs:Lesslog_obs.Obs.t ->
  ?substrate:Lesslog_substrate.Substrate.t ->
  ?policy:Lesslog_policy.Rf_policy.t ->
  ?cold_tier:Control_plane.cold_tier ->
  rng:Lesslog_prng.Rng.t ->
  cluster:Lesslog.Cluster.t ->
  key:string ->
  scenario:Lesslog_workload.Scenario.t ->
  unit ->
  result
(** Like {!run} but with a time-varying workload: each scenario phase
    drives its own arrival processes. With [config.eviction] set this
    plays the full flash-crowd lifecycle: replicas grow at the peak and
    the counter-based mechanism trims them when the crowd disperses. *)
