(** Fixed-length bitsets packed into OCaml [int] arrays, 62 usable bits per
    word.

    This is the storage layer of the membership status word and the
    cluster's per-key holder index. All hot queries are word-level:
    iteration skips zero words, counting is SWAR popcount, and the
    selects ([first_set_at_or_below], [first_set_at_or_above], [nth_set])
    scan words, not bits, so they cost O(length/62) in the worst case.

    Indices are [0 .. length-1]; functions do not range-check beyond what
    is needed for memory safety, callers keep indices in range. *)

type t

val bits_per_word : int
(** 62: the number of payload bits stored per array word. Chosen below the
    63 value bits of an OCaml [int] so that masks like
    [(1 lsl (b + 1)) - 1] for any in-word bit position [b] never touch the
    sign bit. *)

val create : int -> t
(** [create len] is the empty (all-zero) set over [0 .. len-1]. *)

val create_full : int -> t
(** All bits in [0 .. len-1] set; tail bits beyond [len] stay clear. *)

val length : t -> int

val copy : t -> t

val clear_all : t -> unit
(** Reset every bit to 0 in place. *)

val get : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit

val count : t -> int
(** Number of set bits, by word popcount. *)

val equal : t -> t -> bool
(** Same length and same members. *)

val first_set_at_or_below : t -> int -> int
(** [first_set_at_or_below t i] is the largest set index [<= i], or [-1]
    when no such bit exists. The caller guarantees [0 <= i < length]. *)

val first_set_at_or_above : t -> int -> int
(** Smallest set index [>= i], or [-1]. *)

val first_set_in_range : t -> lo:int -> hi:int -> int
(** Smallest set index in [\[lo, hi\]], or [-1]; [lo > hi] is allowed and
    yields [-1]. *)

val nth_set : t -> int -> int
(** [nth_set t n] is the index of the [n]-th set bit (0-based, ascending),
    or [-1] when fewer than [n + 1] bits are set — rank/select in
    O(length/62). *)

val nth_clear : t -> int -> int
(** Same for clear bits, counting only indices below [length]. *)

val iter_set : t -> (int -> unit) -> unit
(** Ascending order, skipping zero words. *)

val fold_set : t -> init:'a -> f:('a -> int -> 'a) -> 'a

val iter_clear : t -> (int -> unit) -> unit
(** Ascending order over clear indices below [length]. *)

val count_inter : t -> t -> int
(** [count_inter a b] is the number of members of [a AND b], by word
    popcount, with no allocation. The two sets must have the same length.
    @raise Invalid_argument when the lengths differ. *)

val iter_inter : t -> t -> (int -> unit) -> unit
(** [iter_inter a b f] calls [f] on every member of [a AND b], ascending.
    The two sets must have the same length. *)
