(** Domain-parallel discrete-event engine: one packed-core {!Engine} per
    shard, cross-shard events through per-pair single-producer
    mailboxes, conservative epoch synchronization.

    {2 Model}

    Shards and workers (OCaml domains) are fixed at creation; the worker
    count only decides which domain builds and drains which shard —
    never what happens. The contract callers must uphold:

    - handlers registered on shard [s]'s engine touch only shard-[s]
      state (plus read-only shared data);
    - events destined for another shard go through {!send} with a delay
      of at least the engine's [lookahead].

    Under that contract the event sequence — order, timestamps,
    payloads, per-engine tie-breaking seqs — is bit-identical at any
    domain count, including 1: an epoch spans [[T, T + lookahead)]
    where [T] is the earliest pending event anywhere, so a cross-shard
    message (sent at [>= T], delivered after [>= lookahead]) can never
    land in the epoch that issued it; and mailboxes are drained in a
    fixed order (destination shard, then source shard, then FIFO), so
    destination seq assignment does not depend on worker interleaving.

    {2 Execution shape}

    {!run} dispatches one pool job per call, not per epoch. Each worker
    owns a fixed contiguous block of shards; per epoch window it first
    delivers the previous window's mail addressed to its own destination
    shards (batched, one {!Engine.post_batch} per nonempty mailbox),
    then drains its shards below the window bound, then publishes its
    local minimum next-event time through a pre-sized per-worker slot.
    Workers meet at an in-job {!Par.Barrier} where the last arriver
    folds the minima, runs the global actions that are due, and then
    either ends the run at the horizon or opens the next window: a run
    of [k] epochs costs one pool dispatch plus [k] barrier crossings.
    Mailboxes are double-buffered by window parity, flipped at every
    window, so delivery of the previous window's mail never touches the
    buffers the current window's sends append to.

    {2 Ownership}

    A shard is built where it is drained. {!create} runs one pool job
    over the same contiguous block split the runs use, and each
    worker allocates its own shards' engines and, through the caller's
    [init] hook, the caller's per-shard state, then runs a minor
    collection so those blocks are promoted into its own domain's
    major-heap pools before anyone else can reach them (a minor
    collection promotes a young block into the pools of whichever domain
    reaches it first). The small records one worker writes on every
    event (the engine's clock and counters, its queue's staging record
    and vec headers, the caller's shard record) then never share a cache
    line with another worker's. Built one after another on one domain,
    neighbouring shards' records did, and the two workers' writes to
    them contended for the same lines (false sharing). Build all
    per-shard mutable state in [init]; state allocated elsewhere and
    written per event brings the contention back. *)

type t

val create :
  ?domains:int ->
  shards:int ->
  lookahead:float ->
  init:(int -> Engine.t -> 'a) ->
  unit ->
  t * 'a array
(** [create ~domains ~shards ~lookahead ~init ()] builds [shards]
    engines ([>= 1]) drained by [min domains shards] workers ([domains]
    defaults to 1; the shared {!Par.ensure_pool} supplies the domains);
    [lookahead > 0] is the minimum cross-shard delivery delay (the epoch
    width). Worker [w] owns shards [[w*n/W, (w+1)*n/W)] for the whole
    life of [t], and calls [init i (engine t i)] exactly once for each
    of its shards, in index order, on its own domain; the values come
    back in shard order. With more than one worker, each then runs one
    minor collection ({!Gc.minor}) before publishing its shards. At one
    worker everything runs inline on the caller's domain. [init] must
    touch only its own shard (it runs concurrently with other workers'
    calls); an exception it raises is re-raised after every worker has
    finished.
    @raise Invalid_argument when [shards < 1], [lookahead <= 0] or
    [domains < 1]. *)

val engine : t -> int -> Engine.t
(** Shard [i]'s engine: register handlers and post shard-local events
    directly on it. Handler ids are per-engine; registering the same
    handlers in the same order on every shard keeps ids aligned. *)

val epoch : t -> int
(** Completed-or-running epoch count — the mailbox-ordering property
    ("no event is delivered in its issuing epoch") is observable by
    stamping {!send} payloads with this. *)

val phases : t -> int
(** Pool dispatches so far: one per {!run} that opened an epoch window,
    none for a run with nothing to drain before its horizon. *)

val send :
  t -> src:int -> dst:int -> delay:float -> h:int -> a:int -> b:int ->
  x:float -> unit
(** Cross-shard post: deliver [(h, a, b, x)] to shard [dst] at
    [Engine.now (engine t src) +. delay], where [h] names a handler
    registered on the {e destination} shard's engine. [src = dst]
    degrades to a local {!Engine.post}.
    @raise Invalid_argument when [src <> dst] and [delay < lookahead]. *)

val run : ?until:float -> ?globals:(float * (unit -> unit)) list -> t -> unit
(** Drive all shards to completion (or to [until], inclusive, clamping
    every shard clock there) on the workers fixed at {!create}, each
    draining the shards it built, in one pool job.

    [globals] is a time-sorted list of whole-system actions (membership
    churn, phase switches) that run {e sequentially at a barrier}: the
    epoch window is clipped so it never spans one, every shard clock is
    advanced to the action's time, and the action may touch any shard
    and post or {!send} freely. A global due at the same instant as a
    queued event runs before it. Actions past [until] do not fire. Those
    due before the first event run on the caller's domain, the rest on
    whichever worker arrives last at the window barrier.

    An exception raised by a handler or by a global ends the run: every
    worker leaves the job at the next barrier, and [run] re-raises the
    exception (the lowest-numbered worker's when several handlers
    raised). The engine's shards are then left wherever the run stopped;
    the shared pool is free for other engines. *)

val events_executed : t -> int
(** Total executed across shards. *)

val cross_sends : t -> int
(** Cross-shard messages delivered so far. *)

type worker_time = {
  drain_s : float;  (** Draining own shards below the window bound. *)
  deliver_s : float;  (** Handing the previous window's mail to them. *)
  barrier_spin_s : float;
      (** Waiting at the window barrier while spinning (for the last
          arriver: running the window decision and any globals due). *)
  barrier_block_s : float;
      (** Waiting at the window barrier blocked on its condition
          variable. *)
}
(** One worker's wall time inside {!run}'s pool job, in seconds of
    {!Par.now_ns}. The clock is read a few times per epoch window, never
    per event. A global fired at a window barrier, and the mail flush
    after it, count in the barrier time of the worker that ran them.
    Time outside the job — globals due before the first event, the
    run's first flush, pool dispatch — belongs to no worker. Host
    timing: never part of any result digest. *)

val worker_times : t -> worker_time array
(** Per worker, totals over every {!run} so far, indexed by worker. *)
