(** Time-varying workloads: a sequence of demand phases played back to
    back — e.g. a flash crowd (high demand) followed by dispersal (low
    demand), the lifecycle that motivates the paper's counter-based
    replica removal. *)

type phase = { demand : Demand.t; duration : float }

type t

val of_phases : phase list -> t
(** @raise Invalid_argument on an empty list or a phase duration that is
    not [> 0] (NaN included). *)

val phases : t -> phase list

val total_duration : t -> float

val demand_at : t -> time:float -> Demand.t option
(** The demand in force at an instant; [None] past the end. *)

val flash_crowd :
  Lesslog_membership.Status_word.t ->
  rng:Lesslog_prng.Rng.t ->
  peak:float ->
  calm:float ->
  peak_duration:float ->
  calm_duration:float ->
  t
(** The canonical two-phase scenario: locality-model demand at [peak]
    req/s, then the same shape scaled down to [calm] req/s. *)
