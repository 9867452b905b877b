(** Ladder (calendar) event queue; each event's fields stored side by side.

    Holds fixed-shape events — [(time, seq, h, a, b, x)] where [h] names a
    handler and [a]/[b]/[x] are its payload — ordered by [(time, seq)].
    Near-horizon events live in windowed buckets with O(1) amortized
    push/pop; far timers spill to a binary heap that is re-scattered into
    buckets when the horizon reaches them; a bucket that turns out to be
    crowded is split into a finer child rung. [seq] must be unique per
    queue (the engine's monotone counter), which makes the order total:
    for the same inputs the pop order is bit-identical to a binary heap
    keyed by [(Float.compare, Int.compare)] — [Heap] stays in-tree as the
    differential oracle for exactly that property. Events are routed to
    buckets by the bucket index alone, which is monotone in time, so the
    order holds under float rounding at bucket edges too.

    Storage: every band (the rung slab, the open heap of events pushed
    into a bucket already drained, the far heap) keeps an event's two
    floats [(time, x)] side by side in one float array and its four ints
    [(seq, h, a, b)] side by side in one int array. Every rung bucket is
    a chain of fixed 64-slot blocks from one slab per queue. The bucket
    being drained — the run — is not copied out: it is an index array
    over its slab slots, sorted by [(time, seq)], and pops read each
    event from the slab in place. The run's blocks go back to the slab's
    free list, all at once, only after its last event is popped; a split
    frees each block of the split bucket once read. The slab grows
    (doubling) only when the free list is empty. Queue memory is
    therefore bounded by the peak number of events held in rungs and the
    run, plus at most one partial block per non-empty bucket, plus the
    run index and the open- and far-heap arrays — not by the number of
    events that pass through. Rounds of posts with a drain between them
    allocate nothing once the slab and the arrays have grown to the
    round's peak.

    Popping uses a cursor: [pop] returns whether an event was dequeued
    and the accessors read its fields. Once capacity is warm, [pop] and
    [pop_until] allocate nothing. [push] allocates nothing where it is
    inlined (release builds); as an out-of-line call ([-opaque] dev
    builds) its caller boxes [time] and [x]. Only capacity growth
    allocates. The float accessors [time], [arg_x] and [min_time] return
    a boxed float unless inlined. *)

type t

val create : ?buckets:int -> ?split_threshold:int -> unit -> t
(** [buckets] is the bucket count per rung (default 64, min 2);
    [split_threshold] is the bucket population above which a bucket is
    split into a child rung instead of heapified (default 64). *)

val length : t -> int
val is_empty : t -> bool

val push :
  t -> time:float -> seq:int -> h:int -> a:int -> b:int -> x:float -> unit
(** [time] must be finite and [seq] unique within the queue. Events may be
    pushed at any time value, including below already-popped times. *)

val min_time : t -> float
(** Time of the next event to pop. @raise Invalid_argument when empty. *)

val pop : t -> bool
(** Dequeue the minimum event into the cursor; [false] when empty. *)

val pop_until : t -> bound:float -> bool
(** Dequeue the minimum event into the cursor only when its time is
    strictly below [bound]; [false] when empty or the head is at or past
    the bound (the queue is untouched). Drains an epoch in the sharded
    engine: [while pop_until q ~bound do … done] executes exactly the
    events below the epoch boundary, in [(time, seq)] order. *)

(** {2 Cursor accessors} — fields of the most recently popped event. *)

val time : t -> float
val seq : t -> int
val handler : t -> int
val arg_a : t -> int
val arg_b : t -> int
val arg_x : t -> float
