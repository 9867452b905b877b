(** The reliability testbed: the event-driven simulator with no oracle.

    {!Des_sim} tells every node which peers are dead (the status word is
    written directly by the churn schedule) and treats a dropped message
    as lost forever. This simulator removes both crutches:

    - requests travel through {!Lesslog_net.Rpc} — per-request IDs,
      per-attempt timeouts, exponential-backoff retransmission, and an
      explicit fault when the attempt budget is spent, so a request is
      never silently lost;
    - servers deduplicate request IDs ({!Lesslog_net.Rpc.Dedup}), so
      retransmissions are idempotent;
    - a request's rpc metadata is just its origin PID (the issue time is
      read back with {!Lesslog_net.Rpc.issued_at}); ids are packed
      unwrapped into GET and REPLY words, so a run that would issue more
      than 2^30 requests fails before issuing the one past
      {!Wire.id_mask} ([Invalid_argument "Fault_sim: rpc id exceeds
      Wire.id_mask"]) instead of corrupting its id field;
    - the membership status word is driven {e only} by a
      {!Lesslog_net.Heartbeat} failure detector observing ping timeouts
      over the same lossy overlay. FINDLIVENODE routing and subtree
      migration run off {e suspected} liveness: a false suspicion
      triggers a real (spurious) migration, and the later pong triggers a
      rejoin;
    - a {!Lesslog_workload.Faults.plan} injects loss bursts, node
      crashes with optional restart, and asymmetric partitions, while
      ground truth is tracked separately so detector accuracy is
      measurable. Partitions are checked per send by
      {!Lesslog_workload.Faults.Cuts.allows}, installed as the overlay's
      link filter only when the plan has partitions.

    With neither [sink] nor [obs], the tracker gets no event callback
    and builds no event records. The tracker, the detector and the
    partition check then allocate nothing per request, and the dedup set
    only when it doubles.

    Every run reports delivered-within-deadline and delivered-or-faulted
    rates, duplicate serves, spurious suspicions/migrations, and the
    detector's agreement with injected truth over time. *)

module Latency = Lesslog_net.Latency
module Rpc = Lesslog_net.Rpc
module Heartbeat = Lesslog_net.Heartbeat
module Histogram = Lesslog_metrics.Histogram
module Timeseries = Lesslog_metrics.Timeseries
module Trace = Lesslog_trace.Trace

type config = {
  capacity : float;  (** Requests/s a node serves before replicating. *)
  detection_tau : float;  (** Access-counter decay constant, seconds. *)
  cooldown : float;  (** Minimum spacing of replications per node. *)
  latency : Latency.t;
  loss : float;  (** Baseline drop probability (bursts raise it). *)
  rpc : Rpc.config;
  heartbeat : Heartbeat.config;
  deadline : float;
      (** A request served within this many seconds of first issue counts
          as delivered within deadline. *)
  arrival_stop : float;
      (** Fraction of the run after which no new requests are issued, so
          in-flight requests drain before the end (default 0.65 —
          {!Lesslog_net.Retry.max_lifetime} under the default policy fits
          in the remaining 35% of any run of 30 s or more). *)
  agreement_target : float;
      (** Detector-vs-truth agreement that counts as converged. *)
  sample_period : float;
      (** Agreement sampling interval, seconds; must be [> 0]. *)
}

val default_config : config

type result = {
  issued : int;
  served : int;
  faulted : int;  (** Exhausted the retry budget: a {e reported} fault. *)
  pending_at_end : int;
      (** Still in flight when the clock stopped — [0] whenever
          [arrival_stop] leaves room to drain. Never silently dropped:
          [issued = served + faulted + pending_at_end]. *)
  within_deadline : int;
  duplicate_serves : int;  (** Retransmissions absorbed by server dedup. *)
  retransmissions : int;
  timeouts : int;
  latencies : Histogram.t;  (** First issue to first reply, served only. *)
  hops : Histogram.t;
  replicas_created : int;
  suspicions : int;
  recoveries : int;
  spurious_suspicions : int;  (** Suspicions of a truly live node. *)
  migrations : int;  (** Suspicion-triggered relocations. *)
  spurious_migrations : int;
  crashes : int;
  restarts : int;
  lost_keys : int;
      (** Keys a crash verdict left with no surviving copy, at any [b]. *)
  detector_agreement : float;
      (** Fraction of monitored nodes whose detector verdict matches
          injected truth when the run ends. *)
  convergence : float option;
      (** Seconds after the last injected disturbance until agreement
          first reached [agreement_target]; [None] if it never did. *)
  agreement_timeline : Timeseries.t;
  messages : int;
}

val run :
  ?config:config ->
  ?plan:Lesslog_workload.Faults.plan ->
  ?sink:(Trace.Event.t -> unit) ->
  ?obs:Lesslog_obs.Obs.t ->
  ?substrate:Lesslog_substrate.Substrate.t ->
  rng:Lesslog_prng.Rng.t ->
  cluster:Lesslog.Cluster.t ->
  key:string ->
  demand:Lesslog_workload.Demand.t ->
  duration:float ->
  unit ->
  result
(** Run the scenario. The cluster's status word must initially agree with
    truth (it is never written by the harness afterwards — only by
    {!Lesslog.Self_org} calls triggered by detector verdicts).

    With [obs], each request settled during the run records one
    ["lookup"] span keyed by its rpc id, from its issue time to its
    settlement, with the attempt it settled on: completion records the
    serving node and hop count, exhaustion records a fault on the last
    attempt. Timeouts and retransmissions drop instant
    ["rpc/timeout"]/["rpc/retry"] marks. At end of run the [fsim/]* and
    [rpc/]* metrics are filled into [obs.registry] from the run's
    tallies; [rpc/request_s] and [fsim/latency_s] share the latency
    histogram. Instrumenting a run changes none of its results.

    Routing, replica placement and verdict-triggered repair go through
    one {!Lesslog_substrate.Substrate.t}: [substrate] when given, else
    the native adapter {!Lesslog.Substrate_native.of_cluster}, so passing
    the native adapter is the same run as omitting it. A
    {!Lesslog_substrate.Substrate.Generic} substrate gets the generic
    registry repair; the native adapter's [Self_organized] membership
    keeps the Section 5 mechanism. The rpc, dedup and heartbeat layers are
    substrate-independent and run unchanged.
    @raise Invalid_argument when [config.sample_period] is not [> 0], or
    when [config.loss] or a burst's loss in [plan] is outside [[0, 1)]
    (NaN included) — checked before the run starts. *)
