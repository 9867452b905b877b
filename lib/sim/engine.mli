(** Discrete-event simulation engine: a simulated clock over a ladder
    event queue ({!Ladder_queue}). Events scheduled for the same instant
    fire in scheduling order (a monotone sequence number breaks ties),
    which keeps runs deterministic.

    Every event is packed: a handler id from {!register_handler} plus a
    payload of two ints and a float [(a, b, x)], stored as plain scalars
    and dispatched through the handler table, so scheduling allocates
    nothing per event (see {!post} for the one boxed float dispatch
    hands the handler). Timers, message deliveries and fault plans alike
    register a handler once at setup and carry what varies per event —
    a node, a request id and attempt, an index into a setup-time array,
    a time — in the payload. There is no cancellation: consumers ignore
    stale timers with generation counters or liveness checks. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time, seconds. Starts at 0. *)

(** {2 Scheduling} *)

val register_handler : t -> (int -> int -> float -> unit) -> int
(** Add a dispatch-table entry; the returned id is passed to {!post}.
    The handler receives the event payload [(a, b, x)]. Ids are engine-
    specific and never reused. *)

val post : t -> delay:float -> h:int -> a:int -> b:int -> x:float -> unit
(** Enqueue a packed event [delay] seconds from now for handler [h].
    @raise Invalid_argument unless [delay >= 0] (so also on NaN).

    What an event allocates, once queue capacity is warm: [post] and
    {!post_at} are inlined into their callers in release builds and then
    allocate nothing — the time reaches the queue unboxed. Dispatch
    allocates exactly one boxed float, the [x] handed to the handler
    closure (2 words). Under [-opaque] (dev builds) nothing is inlined
    across modules, so the floats are boxed at each call on the way to
    the queue. *)

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
