(** What one LessLog node does, written once under the simulators: forward
    a GET one hop, record a serve, decide on and send an overload replica
    push, apply an arriving push, and repair after a membership change.

    {!Des_sim} and {!Fault_sim} keep one {!t} each and call these steps
    from their handlers; {!Pdes_sim} shares the overload test
    ({!Trigger}) and {!Lesslog.Ops.choose}. Every route hop and every
    replica decision goes through the one
    {!Lesslog_substrate.Substrate.t} a {!t} holds. The per-request steps
    build no options, tuples or records, and are inlined into their
    callers ([-inline 100]): out of line, the request path allocates. *)

open Lesslog_id

(** Per-slot access-rate estimators and replication cooldowns, indexed by
    PID (by subtree VID in [Pdes_sim]). The estimators are one
    {!Lesslog_storage.Access_counter.Slots} and the cooldowns one float
    array: no record per slot, and the same floats as a per-slot
    {!Lesslog_storage.Access_counter}. *)
module Trigger : sig
  type t

  val create : capacity:float -> tau:float -> cooldown:float -> int -> t
  (** [n] slots, each with count 0 stamped at time 0.
      @raise Invalid_argument when [tau <= 0]. *)

  val record : t -> int -> now:float -> unit

  val rate : t -> int -> now:float -> float
  (** The slot's estimated serve rate at [now]
      ({!Lesslog_storage.Access_counter.rate}); decays the slot to [now]. *)

  val overloaded : t -> int -> now:float -> bool
  (** The slot's estimated serve rate exceeds capacity. *)

  val due : t -> int -> now:float -> bool
  (** {!overloaded}, and the slot's cooldown has expired. *)

  val arm : t -> int -> now:float -> unit
  (** Start the slot's cooldown: a push was sent. *)
end

type t = {
  rng : Lesslog_prng.Rng.t;
  cluster : Lesslog.Cluster.t;
  key : string;
  engine : Lesslog_sim.Engine.t;
  overlay : Lesslog_net.Overlay.t;
  trigger : Trigger.t;
  substrate : Lesslog_substrate.Substrate.t;
      (** routes every hop and places every replica *)
  holds : Pid.t -> bool;
      (** whether a node holds the key: built once, for
          {!maybe_replicate}'s target choice *)
  clock : unit -> float;
      (** the engine's time: built once, for {!repair}'s
          [Self_org.join_clocked]/[leave_clocked]/[fail_clocked] *)
  sink : (Lesslog_trace.Trace.Event.t -> unit) option;
  spans : Lesslog_obs.Obs.Span.sink option;
  sp_replicate : int;
  mutable lost_keys : int;  (** keys a failure left with no copy *)
}

val create :
  rng:Lesslog_prng.Rng.t ->
  cluster:Lesslog.Cluster.t ->
  key:string ->
  engine:Lesslog_sim.Engine.t ->
  overlay:Lesslog_net.Overlay.t ->
  trigger:Trigger.t ->
  substrate:Lesslog_substrate.Substrate.t option ->
  sink:(Lesslog_trace.Trace.Event.t -> unit) option ->
  obs:Lesslog_obs.Obs.t option ->
  t
(** [substrate = None] is the native adapter,
    {!Lesslog.Substrate_native.of_cluster} over [cluster]. *)

val now : t -> float

val emit_request : t -> origin:int -> server:int -> hops:int -> unit
(** The [Request] trace event of a resolved request ([server < 0] = a
    fault). The record is built only when a sink is attached. *)

val emit_membership :
  t -> node:int -> change:[ `Join | `Leave | `Fail ] -> unit
(** The [Membership] trace event of a join, leave or failure, built
    only when a sink is attached. *)

val emit_evict : t -> node:int -> unit
(** The [Evict] trace event of a replica of the key dropped at [node],
    built only when a sink is attached. *)

val forward :
  t -> me:Pid.t -> id:int -> origin:Pid.t -> hops:int -> issued_at:float -> bool
(** Send the GET one hop along the route; [false] at a dead end or when
    [hops] has reached [Wire.hops_max] (the route would wrap the 6-bit
    hop field), which the caller reports as a fault. The route step is
    the substrate's [next_hop], one int, [-1] at the end of the route;
    on the native adapter it is [Topology.route], the Section 4 climb
    with subtree migration. *)

val record_serve : t -> server:Pid.t -> unit
(** The store's access record and the node's rate estimator. *)

val maybe_replicate : t -> overloaded:Pid.t -> unit
(** When {!Trigger.due}: choose a target (the substrate's
    [replica_target], given the cluster's holder set; on the native
    adapter it is [Ops.choose]), arm the cooldown and send a PUSH
    carrying the holder's version. *)

val apply_push : t -> me:Pid.t -> src:Pid.t -> version:int -> bool
(** Add a [Replicated] copy unless [me] holds one, with its [Replicate]
    trace event and ["replicate"] span; [true] when added. *)

val placement : t -> Lesslog_substrate.Substrate.t option
(** The substrate that places and repairs data: the run's when its
    membership is [Generic], else [None], where [Self_org] and the
    native {!Lesslog.Ops} placement apply. *)

val repair :
  t ->
  Pid.t ->
  change:[ `Join | `Leave | `Fail ] ->
  ledger:Control_plane.ledger option ->
  int
(** Apply a membership change at the node and repair after it:
    [Ops.on_membership_via] over a {!placement} substrate, else the
    Section 5 [Self_org.join_clocked]/[leave_clocked]/[fail_clocked]
    and, for a coded key,
    [Ops.repair_coded]. Returns the copies relocated; [ledger] hears the
    fragment repair; a failure adds to [lost_keys] at any [b]. On the
    Section 5 path with no coded ledger, a change that moves no file
    allocates nothing: [Self_org] reads {!field-clock} only to stamp a
    copy it places. *)
