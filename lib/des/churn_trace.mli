(** Synthetic membership traces — the paper's stated future work is
    "a real-world scenario where nodes dynamically join and leave"; this
    generates the standard model of that scenario: every node alternates
    exponentially-distributed online sessions and offline periods, and a
    configurable fraction of departures are crashes rather than clean
    leaves. *)

type config = {
  mean_session : float;  (** Mean online time, seconds. *)
  mean_downtime : float;  (** Mean offline time, seconds. *)
  fail_fraction : float;  (** Probability a departure is a crash. *)
  duration : float;  (** Trace horizon, seconds. *)
}

val default : config
(** 120 s sessions, 60 s downtimes, 20% crashes, 300 s horizon. *)

val generate :
  rng:Lesslog_prng.Rng.t ->
  live:Lesslog_id.Pid.t list ->
  config ->
  Churn.churn_event list
(** One alternating session/downtime timeline per node (all initially
    online), merged and sorted by time. Deterministic given the RNG. *)

val summary : Churn.churn_event list -> int * int * int
(** (joins, leaves, fails) in a trace. *)
