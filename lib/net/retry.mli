(** Retransmission policies: capped exponential backoff with jitter.

    A request is transmitted up to [max_retries + 1] times. The [k]-th
    retransmission ([k >= 1]) waits [base * factor^(k-1)] seconds after
    the timeout that triggered it, capped at [max_delay]; {!delay}
    additionally spreads the wait uniformly over
    [[backoff * (1 - jitter), backoff]] so that clients whose requests
    were lost together do not retransmit together. *)

type policy = {
  max_retries : int;  (** Retransmissions after the first attempt. *)
  base : float;  (** Backoff before the first retransmission, seconds. *)
  factor : float;  (** Multiplier per further retransmission. *)
  max_delay : float;  (** Backoff cap, seconds. *)
  jitter : float;  (** Fraction of the backoff randomized away, in [0, 1]. *)
}

val default : policy
(** [{max_retries = 4; base = 0.25; factor = 2.0; max_delay = 2.0;
    jitter = 0.5}]. *)

val create :
  ?max_retries:int ->
  ?base:float ->
  ?factor:float ->
  ?max_delay:float ->
  ?jitter:float ->
  unit ->
  policy
(** {!default} with fields overridden.
    @raise Invalid_argument on a negative retry count, non-positive
    [base], [factor < 1], [max_delay < base] or [jitter] outside
    [[0, 1]]. *)

val attempts : policy -> int
(** Total transmissions a request may use: [max_retries + 1]. *)

val backoff : policy -> retry:int -> float
(** Deterministic backoff before retransmission [retry] (1-based):
    [min max_delay (base * factor^(retry-1))].
    @raise Invalid_argument when [retry < 1]. *)

val delay : policy -> Lesslog_prng.Rng.t -> retry:int -> float
(** {!backoff} with jitter applied: uniform over
    [[backoff * (1 - jitter), backoff]]. It and {!backoff} are inlined
    where they are called (release builds), so the delay reaches the
    caller unboxed: a retry allocates nothing. *)

val max_lifetime : policy -> timeout:float -> float
(** An upper bound on how long a request can stay pending: every attempt
    times out and every backoff hits its jitterless maximum. Useful for
    sizing drain windows in simulations. *)
