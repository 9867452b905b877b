(** Exponentially-decayed access counter.

    The paper suggests "a simple counter-based mechanism" to remove replicas
    that are not frequently accessed (Sections 2.2 and 6). This counter
    estimates a per-replica request rate: each access adds one, and the
    accumulated count decays with time constant [tau] seconds, so the value
    approximates [rate × tau] at steady state. *)

type t

val create : ?tau:float -> now:float -> unit -> t
(** [tau] defaults to 30 seconds. *)

val record : t -> now:float -> unit
(** One access at simulated time [now]. *)

val record_many : t -> now:float -> count:int -> unit

val value : t -> now:float -> float
(** Decayed count at time [now]. *)

val rate : t -> now:float -> float
(** Estimated accesses per second ([value / tau]). *)

val reset : t -> now:float -> unit

(** [n] counters sharing one [tau], kept flat: a count and a stamp per
    slot in two float arrays, with no record per slot. Each slot follows
    the same decay rule as a [t], so its floats equal a [t]'s bit for
    bit. *)
module Slots : sig
  type t

  val create : ?tau:float -> now:float -> int -> t
  (** [n] slots, each with count 0 stamped at [now]. [tau] defaults to
      30 seconds. @raise Invalid_argument when [tau <= 0]. *)

  val record : t -> int -> now:float -> unit
  (** One access to slot [i] at [now]. *)

  val rate : t -> int -> now:float -> float
  (** Slot [i]'s estimated accesses per second at [now]. *)
end
