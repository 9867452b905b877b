(** Ladder (calendar) event queue with struct-of-arrays storage.

    Holds fixed-shape events — [(time, seq, h, a, b, x)] where [h] names a
    handler and [a]/[b]/[x] are its payload — ordered by [(time, seq)].
    Near-horizon events live in windowed buckets with O(1) amortized
    push/pop; far timers spill to a binary heap that is re-scattered into
    buckets when the horizon reaches them; a bucket that turns out to be
    crowded is split into a finer child rung. [seq] must be unique per
    queue (the engine's monotone counter), which makes the order total:
    for the same inputs the pop order is bit-identical to a binary heap
    keyed by [(Float.compare, Int.compare)] — [Heap] stays in-tree as the
    differential oracle for exactly that property.

    Popping uses a cursor: [pop] returns whether an event was dequeued
    and the accessors read its fields. Once capacity is warm, [pop] and
    [pop_until] allocate nothing. [push] allocates nothing where it is
    inlined (release builds); as an out-of-line call ([-opaque] dev
    builds) its caller boxes [time] and [x]. Only capacity growth
    allocates, and capacity is kept: every bucket of every pooled rung
    grows once to the largest population it has held. That includes
    refills after a full drain — a burst that lands in a bucket not yet
    that large grows it, the same burst later costs nothing — so rounds
    of equal-time posts with a drain between them allocate nothing per
    post once the buckets they reach are warm. The float accessors
    [time], [arg_x] and [min_time] return a boxed float unless
    inlined. *)

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
