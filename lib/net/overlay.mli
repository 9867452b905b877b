(** Message-passing overlay on top of the discrete-event engine. A message
    is an [(int, float)] payload carried inside a packed engine event
    (src/dst share one word), delivered after a sampled per-hop latency
    to a single per-overlay receive function — node-level demux is the
    receiver's job. Loss injection and link filters apply at send time;
    {!attach}/{!detach} mark which nodes are up to receive. *)

open Lesslog_id

type t

val create :
  engine:Lesslog_sim.Engine.t ->
  rng:Lesslog_prng.Rng.t ->
  ?latency:Latency.t ->
  ?loss:float ->
  Params.t ->
  t
(** [loss] is the probability a message is silently dropped (default 0).
    Every node starts detached.
    @raise Invalid_argument on a [loss] that {!check_loss} rejects or a
    [latency] that {!Latency.validate} rejects. *)

val set_loss : t -> float -> unit
(** Change the drop probability mid-run — loss bursts in fault-injection
    scenarios. @raise Invalid_argument as {!check_loss}. *)

val check_loss : who:string -> float -> unit
(** The one drop-probability check every simulator applies at run entry,
    to its baseline loss and to every loss burst.
    @raise Invalid_argument ["<who>: loss must be in [0, 1)"] unless
    [0 <= p < 1]; NaN is rejected. *)

val loss : t -> float

val set_filter : t -> (src:Pid.t -> dst:Pid.t -> bool) option -> unit
(** Install (or clear) a link filter consulted at send time: a message
    whose link is down ([false]) is dropped and counted. Partitions —
    including asymmetric ones — are expressed here. *)

val set_packed_recv :
  t -> (src:Pid.t -> dst:Pid.t -> int -> float -> unit) option -> unit
(** The simulator's demux: receives every delivery as [(src, dst, b, x)].
    With none installed, deliveries count as dropped. *)

val attach : t -> Pid.t -> unit
(** Mark a node live for deliveries. *)

val detach : t -> Pid.t -> unit
(** A detached node silently drops deliveries (a crashed node); they
    count as dropped. *)

val send_packed : t -> src:Pid.t -> dst:Pid.t -> b:int -> x:float -> unit
(** Schedule a delivery after one latency sample; no per-message
    closure. [b] and [x] are opaque payload words. *)

val messages_sent : t -> int
val messages_delivered : t -> int
val messages_dropped : t -> int
