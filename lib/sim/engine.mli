(** Discrete-event simulation engine: a simulated clock over a ladder
    event queue ({!Ladder_queue}). Events scheduled for the same instant
    fire in scheduling order (a monotone sequence number breaks ties),
    which keeps runs deterministic.

    Every event is packed: a handler id from {!register} plus a payload
    of two ints and a float [(a, b, x)], stored as plain scalars and
    dispatched through the handler table. The handler receives [a] and
    [b]; it reads [x] with {!x}, from the engine's flat float record, so
    no float crosses the closure call. Scheduling and dispatch allocate
    nothing per event (see {!post}). Timers, message deliveries and fault
    plans alike register a handler once at setup and carry what varies
    per event — a node, a request id and attempt, an index into a
    setup-time array, a time — in the payload. There is no cancellation:
    consumers ignore stale timers with generation counters or liveness
    checks. Timers of one fixed delay fall due in the order they were
    armed, so they need no event each: keep them in an arm-ordered FIFO
    with one event outstanding for its front, and drop stale entries as
    they reach the front (the pattern of [Lesslog_net.Rpc]'s timeouts). *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time, seconds. Starts at 0. *)

val x : t -> float
(** The [x] payload of the event being dispatched, for its handler to
    read. Inlined where it is called (release builds), it is read
    unboxed. Between dispatches it holds the last event's [x]. *)

(** {2 Scheduling} *)

val register : t -> (int -> int -> unit) -> int
(** Add a dispatch-table entry; the returned id is passed to {!post}.
    The handler receives the event payload's [a] and [b] and reads its
    [x] with {!x}. Ids are engine-specific and never reused. *)

val register_handler : t -> (int -> int -> float -> unit) -> int
(** {!register} for a handler that takes [x] as an argument: a one-line
    adapter that reads {!x} and boxes it at every dispatch. It is kept
    only for the benchmark's event-core probe, whose source calls it;
    every handler in the library, the tests and the examples uses
    {!register}. *)

val post : t -> delay:float -> h:int -> a:int -> b:int -> x:float -> unit
(** Enqueue a packed event [delay] seconds from now for handler [h].
    @raise Invalid_argument unless [delay >= 0] (so also on NaN).

    What an event allocates, once queue capacity is warm: [post] and
    {!post_at} are inlined into their callers in release builds and then
    allocate nothing — the time and [x] reach the queue unboxed — and
    neither does dispatch, under {!run} (with or without [until]),
    {!step} or {!drain_below}. Under [-opaque] (dev builds) nothing is
    inlined across modules, so the floats are boxed at each call on the
    way to the queue and back. Queue capacity grows with the standing
    backlog; {!Ladder_queue} says what a refill after a full drain
    costs. *)

val post_at : t -> time:float -> h:int -> a:int -> b:int -> x:float -> unit
(** Same at an absolute time.
    @raise Invalid_argument unless [time >= now] (so also on NaN). *)

val post_batch :
  t ->
  len:int ->
  time:float array ->
  h:int array ->
  a:int array ->
  b:int array ->
  x:float array ->
  unit
(** Enqueue the first [len] events of five parallel field arrays (a
    mailbox slice) in one call: one validation pass and one seq-counter
    sweep instead of a {!post_at} per event. Events receive consecutive
    tie-breaking seqs in slice order — bit-identical scheduling to [len]
    single posts. The arrays are read, never kept.
    @raise Invalid_argument when [len] exceeds any array or any of the
    first [len] times is below [now] or NaN; nothing is queued then. *)

(** {2 Driving the clock} *)

val pending : t -> int
(** Events still queued. *)

val step : t -> bool
(** Execute the next event; [false] when the queue is empty. *)

val step_below : t -> bound:float -> bool
(** Execute the next event only when its time is strictly below [bound];
    [false] when the queue is empty or the head is at or past the bound
    (nothing is dequeued, the clock does not move). *)

val drain_below : t -> bound:float -> unit
(** Execute every event with time strictly below [bound], including ones
    posted by handlers during the drain — one shard's share of an epoch
    in the sharded engine ({!Sharded_engine}). *)

val next_time : t -> float option
(** Time of the next queued event; [None] when the queue is empty. *)

val next_time_inf : t -> float
(** Same with [Float.infinity] as the empty sentinel — no [option] box,
    so the sharded engine's per-epoch minimum scan allocates nothing. *)

val advance_to : t -> time:float -> unit
(** Move the clock forward to [time] without executing anything (no-op
    when [time <= now]). The epoch barrier uses this to line shards up
    on a common boundary. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drain the queue. [until] stops the clock at that time (later events
    stay queued, [now] is clamped to [until]); [max_events] bounds the
    number of events executed — a runaway guard. *)

val events_executed : t -> int
