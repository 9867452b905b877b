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

(** The link check of a plan's partitions while it runs: which cuts are
    active, and whether a message from [src] to [dst] crosses none of
    them. A simulator installs {!allows} as its overlay's link filter
    and calls {!cut} and {!heal} at each partition's [from_] and
    [until]. Membership is a byte per node per partition and the active
    cuts a flat index array, so a check allocates nothing and costs one
    step per active cut. *)
module Cuts : sig
  type t

  val create : space:int -> partition list -> t
  (** Cut [i] is the [i]-th partition of the list; none starts active.
      @raise Invalid_argument when a group member is outside
      [[0, space)]. *)

  val cut : t -> int -> unit
  (** Activate cut [i] (a no-op when active). *)

  val heal : t -> int -> unit
  (** Deactivate cut [i] (a no-op when not active). *)

  val allows : t -> src:Pid.t -> dst:Pid.t -> bool
  (** [false] when an active cut blocks the link: a [Both] cut blocks
      every link with exactly one end in its group, an [Inbound] cut a
      link from outside into the group, an [Outbound] cut one from the
      group out. *)
end

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
