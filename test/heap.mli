(** Array-based binary min-heap: the reference priority queue that
    [test_sim] checks [Lesslog_sim.Ladder_queue] (the engine's event
    queue) against. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit
val peek : 'a t -> 'a option
val pop : 'a t -> 'a option
val pop_exn : 'a t -> 'a
(** @raise Invalid_argument when empty. *)

val pop_if : 'a t -> ('a -> bool) -> 'a option
(** Pop the minimum only when the predicate accepts it; [None] when
    empty or rejected (the heap is untouched). With a time-below-bound
    predicate this mirrors [Ladder_queue.pop_until], so the ladder/heap
    differential oracle covers epoch draining too. *)

val clear : 'a t -> unit
val to_sorted_list : 'a t -> 'a list
(** Non-destructive; ascending order. For tests and inspection. *)
