(** Invariant oracles for the deterministic checker.

    An oracle value watches one cluster through one trial: {!on_event} is
    the simulator sink — it runs the cheap epoch-monotonicity check on
    every trace event and the heavy state oracles (topology against the
    naive scans, tree properties P1–P4, replica availability) at every
    membership or detector-verdict event, which is exactly when the
    status word can have moved; {!at_end} re-runs everything on the
    final state and, for Des runs, checks span/trace consistency against
    the run's tallies. The
    oracle contract: checks either return unit or raise {!Violation} —
    they never mutate the cluster, so a passing check is free of side
    effects and a trial is bit-reproducible from its schedule.

    See [lib/check/README.md] for what each oracle asserts and why its
    blind spots (Fault-mode availability, lost/orphaned keys) are
    deliberate. *)

module Cluster = Lesslog.Cluster
module Obs = Lesslog_obs.Obs
module Des_sim = Lesslog_des.Des_sim
module Trace = Lesslog_trace.Trace

exception Violation of { oracle : string; at : float; detail : string }
(** [oracle] is the stable oracle name recorded in repro files
    ("topology-naive", "tree-properties", "replica-availability",
    "epoch-monotonic", "epoch-stale", "span-consistency"). *)

type t

val create : Cluster.t -> sim:Schedule.sim -> t
(** Snapshot the initial epoch/membership; the cluster must be fully set
    up (keys inserted) before the first event. *)

val on_event : t -> Trace.Event.t -> unit
(** Feed as the simulator's [sink]. @raise Violation on the first failed
    invariant. *)

val at_end :
  ?obs:Obs.t -> ?result:Des_sim.result -> t -> now:float -> unit
(** Final sweep at simulation time [now]. Pass [obs] and [result] for Des
    runs to enable the span-consistency oracle. @raise Violation. *)

val heavy_checks : t -> int
(** How many heavy sweeps ran — part of the checker's deterministic
    output, so a schedule change that silently skips checking shows up. *)

val events_seen : t -> int
