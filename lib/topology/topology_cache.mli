(** Epoch-invalidated derived state for topology queries.

    A cache entry binds one (status word, tree) pair — keyed by the status
    word's {!Lesslog_membership.Status_word.uid} and the tree's XOR
    constant — to the live set re-expressed in VID space, plus the cached
    maximum live VID and a memo table for children lists. Entries
    revalidate lazily: each access compares the entry's recorded epoch
    with the status word's current {!Lesslog_membership.Status_word.epoch}.
    When membership moved by at most
    {!Lesslog_membership.Status_word.ring_size} epochs, the entry catches
    up from the status word's delta ring in O(Δ): each flipped PID's VID
    bit is re-synced, the maximum live VID is raised by a join or
    re-selected when it left, and the children memo is cleared. An entry
    further behind rebuilds the VID view from scratch (O(space/62 +
    live)).

    State is domain-local ({!Domain.DLS}): the experiment harness fans
    trials out across real domains, and a shared mutable cache would race.
    Entries are only ever an optimization — dropping them (as the bounded
    table does under pressure) costs a rebuild, never correctness. *)

open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Packed_bits = Lesslog_bits.Packed_bits

type entry = private {
  status : Status_word.t;
  comp : int;
  mutable epoch : int;  (** status epoch the VID view is current at *)
  vids : Packed_bits.t;  (** bit [v] set iff the node with VID [v] is live *)
  mutable max_live_vid : int;  (** largest set VID, [-1] when none *)
  children : (int, Pid.t list) Hashtbl.t;
      (** children-list memo, keyed by PID; cleared on every catch-up
          and rebuild *)
}

val get : Status_word.t -> comp:int -> entry
(** The current, validated entry for this (status word, tree) pair: caught
    up or rebuilt to the status word's epoch. The returned value is only
    guaranteed fresh until the next status-word mutation; hot paths should
    use it immediately, not store it. *)

val broken_catch_up : bool ref
(** Test-only fault injection, re-exported as
    [Topology.Testing.broken_catch_up]: when set, a catch-up skips the
    oldest delta of its window. Never set this outside tests. *)

