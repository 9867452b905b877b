(** The self-organized mechanism (paper Section 5): joining, voluntarily
    leaving, and failing nodes.

    A real deployment locates the files affected by a membership change by
    examining children lists tree by tree (Section 5.1); this simulator
    computes the same set directly from the cluster's key registry — the
    test suite checks the outcome matches a from-scratch recomputation of
    every insertion target. *)

open Lesslog_id

type join_stats = {
  took_over : (string * Pid.t) list;
      (** Keys whose inserted copy moved to the joiner, with the previous
          holder (now demoted to a replica holder). *)
}

type leave_stats = {
  reinserted : (string * Pid.t) list;
      (** Inserted files re-homed by ADVANCEDINSERTFILE with the leaver
          marked dead, with their new holder. *)
  dropped_replicas : string list;
      (** Replicated copies simply discarded on departure. *)
}

type fail_stats = {
  lost : string list;
      (** Inserted files with no surviving copy anywhere ([b = 0]: requests
          for these now fault, as Section 5.3 warns). *)
  recovered : (string * Pid.t) list;
      (** [b > 0]: files re-inserted into the failed node's subtree from a
          sibling subtree's copy, with their new holder. *)
  orphaned : string list;
      (** Files whose inserted copy died but which survive as replicas
          somewhere (served in degraded mode). *)
}

(** {2 Cost}

    A membership change allocates in proportion to the files its stats
    name — a list cell per file moved, dropped, lost or orphaned, plus
    the stats record and the work of placing each moved copy — and
    nothing else. A joiner that becomes no key's insertion target, and
    a departing node that held no replica and no inserted full copy,
    return a shared record of empty lists and allocate 0 words: the
    joiner's target test scans the key registry in place, and a
    departing store is walked in place. Events that move files log one
    [Logs.info] line when the source logs at info; the others log
    nothing.

    Each copy a change places gets its access counter started at the
    change's time: [?now] (default [0.0]) for {!join}, {!leave} and
    {!fail}, or a read of [clock] for {!join_clocked},
    {!leave_clocked} and {!fail_clocked}, which share their code. The
    clock is read once per copy placed and never by a change that
    places none, so a caller whose time is an unboxed float hands over
    a clock built once and boxes no time for such a change. *)

val join : ?now:float -> Cluster.t -> Pid.t -> join_stats
(** Register the node live and copy back every file whose insertion target
    it now is. @raise Invalid_argument when the node is already live. *)

val leave : ?now:float -> Cluster.t -> Pid.t -> leave_stats
(** Voluntary departure: broadcast dead status, drop replicas, re-insert
    inserted files elsewhere. @raise Invalid_argument when already dead. *)

val fail : ?now:float -> Cluster.t -> Pid.t -> fail_stats
(** Crash: the node's entire store is lost, then recovery runs (only
    effective when [b > 0]). @raise Invalid_argument when already dead. *)

val join_clocked : clock:(unit -> float) -> Cluster.t -> Pid.t -> join_stats
(** {!join}, stamping each placed copy with a read of [clock]. *)

val leave_clocked : clock:(unit -> float) -> Cluster.t -> Pid.t -> leave_stats
(** {!leave}, stamping each placed copy with a read of [clock]. *)

val fail_clocked : clock:(unit -> float) -> Cluster.t -> Pid.t -> fail_stats
(** {!fail}, stamping each placed copy with a read of [clock]. *)

val expected_targets : Cluster.t -> key:string -> Pid.t list
(** Where the inserted copies of a key belong under the current
    membership: the single FINDLIVENODE target when [b = 0], one per
    subtree when [b > 0]. *)

val integrity_violations : Cluster.t -> (string * Pid.t) list
(** Registered keys whose expected target does not hold an inserted copy —
    empty after any sequence of inserts, joins and leaves (failures with
    [b = 0] may legitimately lose files). *)
