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

    Each request carries caller metadata (['meta], e.g. the origin node)
    which is handed back to [transmit] and to every event; {!issued_at}
    and {!attempt} read a live request's issue time and current attempt,
    so a caller can record a request whole when it settles.

    Live requests sit in slot arrays (id, attempt, issue time, metadata),
    an open-addressed table keyed by id: home slot [id land mask], else
    the first free slot after it. Ids are issued in sequence, so nearly
    every request sits at home. The table starts at 64 slots and
    doubles, rehoming every live request, only when the next id's home
    is taken and at least half the slots are live — so any number of
    requests may be in flight and complete in any order, and the table
    stays within four times the peak in-flight count however long one
    request lives. Completion and exhaustion only free the slot (a
    finished request's metadata stays referenced until its slot is
    reused).

    Every attempt's timeout falls due [config.timeout] after it is
    armed, so timeouts fall due in arm order: they sit in one FIFO ring
    of (id, attempt, due time), and one engine event is outstanding, for
    the ring's front. An entry whose request is no longer live on that
    attempt is stale; stale entries are dropped as they reach the front,
    so a request completed before its timeout costs a ring slot and no
    engine event. The ring holds the attempts armed within one timeout
    window, stale ones included until they reach the front; it starts at
    64 entries and doubles when full. When the front's event fires,
    every timeout due by then is handled, in arm order. The order
    against other events differs from one timer per attempt only at
    exact time ties: a timeout behind the front has its event posted
    when the front before it fires, so an event posted after the
    timeout was armed may fire first; and timeouts armed at one instant
    fire together, before an event posted between those arms. Each
    backoff end is one engine event. With no [on_event], issuing, timing
    out, retransmitting and completing allocate nothing in the tracker
    itself once the slot table and the ring are warm (release builds,
    where the engine and {!Retry} calls are inlined).

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
  | Exhausted of { id : int; attempts : int; issued_at : float; meta : 'meta }
      (** All [attempts] transmissions timed out; the request, issued at
          [issued_at], is now a reported fault and no longer live, so its
          last attempt is [attempts - 1]. *)

type 'meta t

val create :
  engine:Lesslog_sim.Engine.t ->
  rng:Lesslog_prng.Rng.t ->
  ?config:config ->
  ?on_event:('meta event -> unit) ->
  transmit:(id:int -> attempt:int -> 'meta -> unit) ->
  unit ->
  'meta t
(** [transmit] is called synchronously from {!issue} (attempt 0) and from
    the tracker's backoff handler (retransmissions); [create] registers
    it and the timeout ring's handler with [engine]. The tracker keeps
    no metrics registry: its lifetime counters ({!issued} and the rest)
    are the tallies a caller reports. Event records are built only when
    [on_event] is given. [on_event] may re-enter
    the tracker, e.g. complete the request a [Timeout] reports: the
    tracker looks the request up again before retrying or exhausting it.
    @raise Invalid_argument when [config.timeout <= 0]. *)

val issue : 'meta t -> 'meta -> int
(** Take the next request ID (0, 1, 2, … — unique for the lifetime of
    the tracker), record the issue time, transmit attempt 0 and arm its
    timeout. IDs are never wrapped, so a server's {!Dedup} stays exact;
    a transport whose id field is narrower checks {!issued} (the next
    ID) before issuing. *)

val complete : 'meta t -> id:int -> bool
(** The response for [id] arrived: free its slot, so its armed timeout
    and any backoff end become stale, and return [true]. [false] when the request is unknown,
    already completed, already exhausted, or this is a duplicate
    response — callers count a request served only on [true]. *)

val issued_at : 'meta t -> id:int -> float
(** Simulated time at which live request [id] was issued (attempt 0).
    @raise Invalid_argument when [id] is not in flight. *)

val attempt : 'meta t -> id:int -> int
(** The attempt live request [id] is on (0 until its first
    retransmission), or [-1] when [id] is not in flight. Read it before
    {!complete} to record the attempt that was answered. *)

val in_flight : 'meta t -> int
(** Requests neither completed nor exhausted yet. *)

val slots : 'meta t -> int
(** Current size of the slot table: 64 at first, doubled by each
    {!issue} that finds its id's home slot taken while at least half the
    slots are live, so at most [max 64 (4 * peak in_flight)]. Never
    shrinks. *)

(** Lifetime counters. [issued t = completed t + exhausted t + in_flight t]. *)

val issued : 'meta t -> int
val completed : 'meta t -> int
val exhausted : 'meta t -> int

val retransmissions : 'meta t -> int
val timeouts : 'meta t -> int

(** Server-side request-ID deduplication set: a bitset over IDs that
    doubles to cover the largest ID seen, so its memory is one bit per ID
    up to that one. *)
module Dedup : sig
  type t

  val create : unit -> t

  val first : t -> id:int -> bool
  (** [true] exactly once per ID: perform the request's side effects only
      on [true], but answer on every delivery.
      @raise Invalid_argument when [id < 0]. *)

  val seen : t -> id:int -> bool
  (** Whether {!first} was called for [id] ([false] for negative IDs). *)

  val duplicates : t -> int
  (** Deliveries for which {!first} returned [false]. *)
end
