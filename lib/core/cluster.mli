(** Global state of a simulated LessLog system: the identifier-space
    parameters, ψ, the membership status word, and one {!File_store} per
    PID slot.

    The cluster also keeps a registry of every key ever inserted. A real
    deployment has no such global table — the self-organized mechanism of
    Section 5 finds files by examining children lists — but the simulator
    uses it for integrity checking and to drive recovery; {!Self_org}
    additionally implements the paper's children-list search and the test
    suite checks both agree. *)

open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Ptree = Lesslog_ptree.Ptree
module File_store = Lesslog_storage.File_store

type t

val create : ?live:Pid.t list -> Params.t -> t
(** A cluster with the given live population ([live] defaults to every PID
    slot — the basic model of Section 2 where N = 2^m). *)

val create_with_dead_fraction :
  Params.t -> rng:Lesslog_prng.Rng.t -> fraction:float -> t
(** All slots live, then a uniform [fraction] of them marked dead — the
    configurations of Figures 6 and 8. *)

val params : t -> Params.t
val status : t -> Status_word.t
val psi : t -> Lesslog_hash.Psi.t

val live_count : t -> int

val store : t -> Pid.t -> File_store.t
(** Local storage of a node (live or dead — dead nodes keep stale state
    until {!Self_org.fail} clears it). *)

val target_of_key : t -> string -> Pid.t
(** [P(ψ(f))]: the target node slot of a key. *)

val tree_of_key : t -> string -> Ptree.t
(** The lookup tree of the key's target node. Memoized: ψ and the root
    are pure functions of the key, so the same tree value is returned on
    every call (the common repeated key costs a pointer compare). *)

val tree_of : t -> Pid.t -> Ptree.t
(** The lookup tree rooted at an arbitrary node. *)

val holds : t -> Pid.t -> key:string -> bool

val holder_bitset : t -> key:string -> Lesslog_bits.Packed_bits.t
(** The live-agnostic holder bitset of a key (bit [i] set iff slot [i]'s
    store holds a copy), maintained by the store observers. Read-only:
    callers test bits out of it on hot paths ({!Ops.get}'s walk) but must
    never mutate it; it stays valid across store mutations because it IS
    the index being maintained. *)

val holders : t -> key:string -> Pid.t list
(** Live nodes currently holding a copy, ascending PID. *)

val register_key : t -> string -> unit
(** Add to the key registry (done automatically by {!Ops.insert}). *)

val unregister_key : t -> string -> unit
(** Remove from the key registry (done by {!Ops.delete}). *)

val registered_keys : t -> string list

val register_coded : t -> string -> k:int -> r:int -> unit
(** Mark a base key as held in erasure-coded form with code parameters
    [(k, r)] (done by {!Ops.demote_to_coded}). While registered, the
    key has no full copies; its bytes live in [k + r] fragment entries
    under {!Ops.frag_key}-derived keys. *)

val unregister_coded : t -> string -> unit

val coded_params : t -> key:string -> (int * int) option
(** [(k, r)] when the key is currently coded. *)

val coded_keys : t -> string list
(** Base keys currently held as fragments, sorted. *)

val replica_count : t -> key:string -> int
(** Number of live replicated (non-inserted) copies. *)

val total_copies : t -> key:string -> int
(** Live copies of any origin: the popcount of the live set AND the
    key's holder bitset, O(space / 62) word operations with no
    allocation. *)
