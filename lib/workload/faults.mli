(** Fault-injection plans: the disturbances a reliability scenario
    replays against the overlay — loss bursts, node crashes with optional
    restart, and (possibly asymmetric) network partitions.

    A plan is pure data; {!Lesslog_des.Fault_sim} interprets it. The
    generator confines every disturbance to an early {e active window} of
    the run so the tail is quiet — that quiet period is where detector
    convergence is measured. *)

open Lesslog_id

type burst = { from_ : float; until : float; loss : float }
(** Message loss raised to [loss] on every link during [[from_, until)]. *)

type crash = { node : Pid.t; at : float; restart_at : float option }
(** The node's process dies at [at] (its handler disappears; its disk
    contents are unreachable). [restart_at] brings it back with its PID —
    and whatever the self-organized mechanism left it. *)

type direction =
  | Both  (** No messages cross the cut. *)
  | Inbound  (** The group hears nothing from outside (asymmetric). *)
  | Outbound  (** Nothing the group sends gets out (asymmetric). *)

type partition = {
  from_ : float;
  until : float;
  group : Pid.t list;
  direction : direction;
}

type plan = {
  bursts : burst list;
  crashes : crash list;
  partitions : partition list;
}

val empty : plan

val last_disturbance : plan -> float
(** When the last injected disturbance ends (last burst/partition end,
    crash, or restart); [0] for {!empty}. Detector convergence is
    measured from here. *)

val crashed_at : plan -> time:float -> Pid.t list
(** Nodes down at [time] under the plan (crashed, not yet restarted). *)

val generate :
  rng:Lesslog_prng.Rng.t ->
  live:Pid.t list ->
  duration:float ->
  ?active_until:float ->
  ?crash_fraction:float ->
  ?restart_fraction:float ->
  ?mean_downtime:float ->
  ?bursts:int ->
  ?burst_loss:float ->
  ?mean_burst:float ->
  ?partitions:int ->
  ?partition_fraction:float ->
  ?mean_partition:float ->
  unit ->
  plan
(** A random plan over the [live] population. Disturbances start within
    [[0.05, active_until] * duration] ([active_until] defaults to [0.6])
    and every burst, partition and restart completes by
    [0.75 * duration]. Defaults: [crash_fraction = 0.05] of the
    population crashes, [restart_fraction = 0.5] of those restart after
    an exponential [mean_downtime] (default [duration / 8]); [bursts = 1]
    loss burst to [burst_loss = 0.5] lasting ~[mean_burst] (default
    [duration / 10]); [partitions = 0] cuts of
    [partition_fraction = 0.25] of the nodes (direction drawn uniformly
    from both/inbound/outbound) lasting ~[mean_partition] (default
    [duration / 10]).
    @raise Invalid_argument naming the argument unless [duration] and
    every mean are [> 0], [active_until] is in [(0.05, 0.75]], every
    fraction is in [\[0, 1\]] and the counts are [>= 0]; NaN is
    rejected everywhere. *)
