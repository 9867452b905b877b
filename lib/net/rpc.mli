(** Client-side request reliability: per-request IDs, timeouts,
    retransmission with backoff, and an explicit fault on exhaustion.

    The tracker is transport-agnostic: the caller supplies a [transmit]
    callback that puts attempt [n] of request [id] on the wire (for
    LessLog, routing a GETFILE up the target's lookup tree via
    {!Overlay}), and calls {!complete} when the matching response
    arrives. The tracker owns the timers: every attempt is given
    [config.timeout] seconds; an unanswered attempt is retransmitted
    after a {!Retry} backoff until the policy's attempt budget is spent,
    at which point the request is {e reported} as exhausted — a request
    can end served or faulted, never silently lost.

    Each request carries caller metadata (['meta]: the origin node, the
    issue time, the routing key…) which is handed back to [transmit], to
    every event, and by {!complete}.

    Servers keep retransmissions idempotent with {!Dedup}: the first
    delivery of a request ID performs the side effects, duplicates only
    re-send the response. *)

type config = { timeout : float; policy : Retry.policy }
(** [timeout] is per-attempt, seconds. *)

val default_config : config
(** 1 s per attempt, {!Retry.default} backoff. *)

type 'meta event =
  | Timeout of { id : int; attempt : int; meta : 'meta }
      (** Attempt [attempt] (0-based) of request [id] went unanswered. *)
  | Retransmit of { id : int; attempt : int; meta : 'meta }
      (** Attempt [attempt] is being transmitted ([attempt >= 1]). *)
  | Exhausted of { id : int; attempts : int; meta : 'meta }
      (** All [attempts] transmissions timed out; the request is now a
          reported fault. *)

type 'meta t

val create :
  engine:Lesslog_sim.Engine.t ->
  rng:Lesslog_prng.Rng.t ->
  ?config:config ->
  ?on_event:('meta event -> unit) ->
  ?registry:Lesslog_obs.Obs.Registry.t ->
  transmit:(id:int -> attempt:int -> 'meta -> unit) ->
  unit ->
  'meta t
(** [transmit] is called synchronously from {!issue} (attempt 0) and from
    the tracker's timer handler, which [create] registers with [engine]
    (retransmissions). With [registry], the
    tracker keeps the [rpc/]* metrics: issued / completed / timeouts /
    retransmissions / exhausted counters and an issue-to-completion
    latency timer ([rpc/request_s], retries included).
    @raise Invalid_argument when [config.timeout <= 0]. *)

val issue : 'meta t -> 'meta -> int
(** Allocate a fresh request ID, transmit attempt 0 and arm its timeout.
    IDs are unique for the lifetime of the tracker. *)

val complete : 'meta t -> id:int -> 'meta option
(** The response for [id] arrived: cancel its timers and return the
    request's metadata. [None] when the request is unknown, already
    completed, already exhausted, or this is a duplicate response —
    callers count a request served only on [Some]. *)

val in_flight : 'meta t -> int
(** Requests neither completed nor exhausted yet. *)

(** Lifetime counters. [issued t = completed t + exhausted t + in_flight t]. *)

val issued : 'meta t -> int
val completed : 'meta t -> int
val exhausted : 'meta t -> int

val retransmissions : 'meta t -> int
val timeouts : 'meta t -> int

(** Server-side request-ID deduplication table. *)
module Dedup : sig
  type t

  val create : unit -> t

  val first : t -> id:int -> bool
  (** [true] exactly once per ID: perform the request's side effects only
      on [true], but answer on every delivery. *)

  val seen : t -> id:int -> bool

  val duplicates : t -> int
  (** Deliveries for which {!first} returned [false]. *)
end
