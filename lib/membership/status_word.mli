(** The status word (paper Section 5.1): one bit per PID slot indicating
    whether the corresponding node is live. Every live node maintains a
    copy; here it is the authoritative membership view of a simulated
    cluster.

    The bits live in a packed [int]-array bitset
    ({!Lesslog_bits.Packed_bits}), so membership tests are one word load
    and iteration skips dead regions 62 slots at a time. The topology
    layer navigates by reading {!live_bits} directly: every dead-aware
    query is a climb or scan over these bits, so nothing derived from
    the status word has to be kept current.

    Each mutation that actually changes a bit bumps a monotonic {!epoch},
    which the checker's epoch oracles and the substrates' epoch-cached
    overlays use to tell whether membership moved. *)

open Lesslog_id

type t

val create : Params.t -> initially_live:bool -> t
(** All [2^m] slots set to [initially_live]. *)

val of_live_list : Params.t -> Pid.t list -> t
(** Only the listed PIDs are live. *)

val copy : t -> t
(** Fresh status word with the same membership; its epoch restarts
    at 0. *)

val params : t -> Params.t

val epoch : t -> int
(** Monotonic mutation counter, bumped by every {!set_live}/{!set_dead}
    that changes a bit (idempotent no-ops do not bump it). A derived
    structure is valid exactly while the epoch it was built at is
    current. *)

val live_bits : t -> Lesslog_bits.Packed_bits.t
(** The underlying bitset (bit [i] = PID [i] live). Read-only by
    convention: mutate only through {!set_live}/{!set_dead}, otherwise
    [epoch]/[live_count] go stale. *)

val is_live : t -> Pid.t -> bool
val is_dead : t -> Pid.t -> bool

val set_live : t -> Pid.t -> unit
(** Register a node as live (idempotent). *)

val set_dead : t -> Pid.t -> unit
(** Register a node as dead (idempotent). *)

val live_count : t -> int
val dead_count : t -> int

val live_pids : t -> Pid.t list
(** Ascending PID order. *)

val dead_pids : t -> Pid.t list

val live_array : t -> Pid.t array
(** Ascending PID order; fresh array. *)

val fold_live : t -> init:'a -> f:('a -> Pid.t -> 'a) -> 'a
val iter_live : t -> (Pid.t -> unit) -> unit

val first_live_at_or_below : t -> Pid.t -> Pid.t option
(** Highest live PID [<= p] — a word-level select, O(space/62) worst
    case. *)

val first_live_in_range : t -> lo:Pid.t -> hi:Pid.t -> Pid.t option
(** Lowest live PID in [\[lo, hi\]]. *)

val nth_live : t -> int -> Pid.t option
(** [nth_live t n] is the [n]-th live PID in ascending order (0-based),
    or [None] when [n >= live_count t] — rank/select over words. *)

val nth_dead : t -> int -> Pid.t option

val random_live : t -> Lesslog_prng.Rng.t -> Pid.t option
(** Uniform live PID, [None] when the system is empty. Rejection-samples
    a few slots, then falls back to exact rank/select ({!nth_live}) so
    degenerate densities stay O(space/62) instead of looping. *)

val random_dead : t -> Lesslog_prng.Rng.t -> Pid.t option

val kill_fraction : t -> Lesslog_prng.Rng.t -> fraction:float -> Pid.t list
(** Mark a uniformly chosen [fraction] of the currently live nodes dead and
    return them — the paper's 10/20/30%-dead configurations.
    @raise Invalid_argument unless [fraction] is in [\[0, 1\]] (NaN
    included). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
