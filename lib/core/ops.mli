(** The LessLog file operations — inserting, getting, replicating and
    updating a file (paper Sections 2.2, 3 and 4).

    All operations implement the {e advanced} system model (dead nodes
    allowed); the basic model of Section 2 is the special case where every
    slot is live. When the cluster's parameters have [b > 0], insertion and
    lookup use the fault-tolerant model: [2^b] per-subtree copies and
    subtree migration on faults. *)

open Lesslog_id

type get_result = {
  server : Pid.t option;  (** The node that returned the file; [None] on a fault. *)
  hops : int;  (** Forwarding hops, not counting the client's first contact. *)
  path : Pid.t list;  (** Nodes visited, origin first, server (if any) last. *)
  subtree_migrations : int;
      (** Fault-tolerant model only: how many times the path crosses a
          subtree boundary (each migration is also one hop). *)
}

type update_result = {
  version : int;  (** Version the copies were raised to. *)
  updated : int;  (** Live copies that received the new version. *)
  messages : int;  (** Update messages broadcast along children lists. *)
}

val insert : ?now:float -> Cluster.t -> key:string -> Pid.t list
(** ADVANCEDINSERTFILE: store [key] at the live node with the most
    offspring in the target's lookup tree — with [b > 0], at that node in
    {e each} of the [2^b] subtrees. Returns the nodes that received the
    inserted copy ([\[\]] iff no live node exists). Registers the key. *)

val get :
  ?now:float ->
  Cluster.t ->
  origin:Pid.t ->
  key:string ->
  get_result
(** GETFILE from a live [origin]: serve locally when a copy is present,
    otherwise walk hop by hop by {!Lesslog_topology.Topology.route}, the
    request step every simulator takes — first-alive-ancestors in the
    target's lookup tree, the Section 3 jump to the most-offspring live
    node when the target is dead, and (for [b > 0]) the Section 4
    migration to the origin's mirror in each later subtree in turn when
    a subtree dead-ends, each subtree entered at most once. Records an
    access on the serving store. @raise Invalid_argument when [origin]
    is dead.
    @raise Failure when the walk exceeds the route's hop budget,
    [2^b (m - b + 1) - 1] hops — a broken route step, never a
    conforming one. *)

val replication_candidates :
  Cluster.t -> overloaded:Pid.t -> key:string -> Pid.t list * Pid.t list
(** The two candidate children lists for REPLICATEFILE at an overloaded
    node, already filtered to nodes not holding a copy:
    [(own_list, root_list)]. [root_list] is empty except in the
    proportional-choice case (the overloaded node is the max-VID live node
    of a dead-root tree, Section 3). *)

val choose_replica_target :
  rng:Lesslog_prng.Rng.t ->
  Cluster.t ->
  overloaded:Pid.t ->
  key:string ->
  Pid.t option
(** The placement decision of REPLICATEFILE without creating the copy:
    first non-holding node of the children list, with the Section 3
    proportional choice between the overloaded node's and the root's
    children lists when attribution is ambiguous — {!choose} with the
    cluster's [b] and holder set. [None] when every candidate already
    holds the file. *)

val choose :
  rng:Lesslog_prng.Rng.t ->
  holds:(Pid.t -> bool) ->
  b:int ->
  Lesslog_ptree.Ptree.t ->
  Lesslog_membership.Status_word.t ->
  overloaded:Pid.t ->
  Pid.t option
(** {!choose_replica_target} over the overloaded node's subtree of the
    [2^b] (the whole tree when [b = 0]), with the caller's holder test:
    the highest-VID live non-holder of each candidate children list,
    found by a fold over the live children frontier
    ({!Lesslog_topology.Topology.first_child}) that builds no list. The
    rng is drawn only when both lists have a candidate. Beyond its
    result, a decision allocates only when both lists compete, where the
    live-offspring count may walk the live set. *)

val replicate :
  ?now:float ->
  rng:Lesslog_prng.Rng.t ->
  Cluster.t ->
  overloaded:Pid.t ->
  key:string ->
  Pid.t option
(** One REPLICATEFILE step: {!choose_replica_target}, then create the copy
    there. *)

val update : ?now:float -> Cluster.t -> key:string -> update_result
(** UPDATEFILE: bump the version at the target(s) and broadcast top-down
    along children lists; holders update and propagate, non-holders discard,
    dead nodes are bypassed (Sections 2.2 and 3; per subtree when
    [b > 0]). *)

val delete : ?now:float -> Cluster.t -> key:string -> update_result
(** Remove a file from the system (an extension beyond the paper, built
    from the same top-down children-list broadcast as UPDATEFILE): every
    reachable copy is discarded and the key leaves the registry.
    [updated] counts the copies removed. *)

(** {2 Substrate-parameterized operations}

    The same protocol steps, with every routing and placement decision
    delegated to a {!Lesslog_substrate.Substrate.t} — the seam that lets
    identical replication code run over the native binomial trees, Chord,
    Pastry or CAN (see the Substrate contract in ARCHITECTURE.md). The
    substrate mode implements the single-tree model; clusters with
    [b > 0] should use the direct operations above. *)

val insert_via :
  ?now:float -> Lesslog_substrate.Substrate.t -> Cluster.t -> key:string ->
  Pid.t list
(** Register the key and store the inserted copy at the substrate's
    current owner ([\[\]] iff no node is live). On the native substrate
    with [b = 0] this is exactly {!insert}.
    @raise Invalid_argument when the substrate is
    {!Lesslog_substrate.Substrate.Self_organized} and the cluster has
    [b > 0]: its [owner] names one node, where ADVANCEDINSERTFILE places
    one copy per subtree — call {!insert}. {!Lesslog_substrate.Substrate.Generic}
    overlays keep their single owner at any [b]. *)

val on_membership_via :
  ?now:float ->
  ?on_coded_repair:(key:string -> rebuilt:int -> lost:bool -> unit) ->
  Lesslog_substrate.Substrate.t ->
  Cluster.t ->
  event:[ `Join of Pid.t | `Leave of Pid.t | `Fail of Pid.t ] ->
  int
(** Generic membership repair for {!Lesslog_substrate.Substrate.Generic}
    substrates: apply the status-word mutation, call the substrate's
    [notify], drop a departing node's copies (gracefully handing sole
    copies off on [`Leave], losing them on [`Fail]) and re-home every
    registered key whose current owner lacks a copy — a fully lost key is
    re-created at version 0 from the registry, mirroring the registry
    driven native recovery. Returns the number of copies relocated.
    Substrates with {!Lesslog_substrate.Substrate.Self_organized}
    membership should use {!Self_org} instead.

    Cold-tier keys are repaired too: after the full-copy pass, every
    coded key goes through {!repair_coded} with this substrate's
    placement, and [on_coded_repair] (if given) observes the outcome
    per key — [rebuilt] fragments re-placed, or [lost = true] when
    fewer than [k] fragments survived.
    @raise Invalid_argument on a join of a live node or a leave/fail of a
    dead one. *)

(** {1 Erasure-coded cold tier}

    A Cold-classified key ({!Lesslog_policy} verdicts, in the
    simulators) trades its full copies for the [k + r] fragments of a
    systematic Reed-Solomon [(k, r)] code ({!Lesslog_erasure.Erasure}):
    storage drops from [copies x size] to [(k + r)/k x size] while any
    [k] surviving fragments still rebuild the payload. Fragments live
    as {!File_store} entries (tier [Coded]) under {!frag_key}-derived
    keys, one per node, spread across the [2^b] subtrees exactly like
    ADVANCEDINSERTFILE spreads full copies; the {!Cluster} coded
    registry maps the base key to its code parameters. *)

val frag_key : string -> int -> string
(** The store key of fragment [i] of a base key. *)

val live_fragment_count : Cluster.t -> key:string -> int
(** Distinct fragment indices with at least one live holder (0 when the
    key is not coded). *)

val coded_servable : Cluster.t -> key:string -> bool
(** At least [k] fragments live — the codec's decode precondition. *)

val holds_fragment : Cluster.t -> Pid.t -> key:string -> bool
(** Does this node hold any fragment of the (coded) key? *)

val demote_to_coded :
  ?now:float ->
  ?substrate:Lesslog_substrate.Substrate.t ->
  Cluster.t ->
  key:string ->
  k:int ->
  r:int ->
  Pid.t list option
(** Replace every full copy (live or stale-on-dead) with [k + r]
    fragment entries at distinct live nodes — fragment [i] preferably
    at subtree [i mod 2^b]'s insertion target so request walks
    terminate on a fragment holder (with a substrate, at the fragment
    key's owner). Returns the fragment holders in index order, or
    [None] when the key is already coded or fewer than [k + r] distinct
    live nodes exist (the demotion does not happen).
    @raise Invalid_argument on invalid [(k, r)]. *)

val promote_from_coded :
  ?now:float ->
  ?substrate:Lesslog_substrate.Substrate.t ->
  Cluster.t ->
  key:string ->
  copies:int ->
  Pid.t list option
(** Rebuild full copies from the fragments and drop every fragment
    entry: inserted copies at the insertion targets (the substrate's
    owner), then plain replicas on ascending live PIDs up to [copies]
    total. [None] — and no change — when the key is not coded, fewer
    than [k] fragments survive, or no node is live. *)

val repair_coded :
  ?now:float ->
  ?substrate:Lesslog_substrate.Substrate.t ->
  Cluster.t ->
  key:string ->
  [ `Intact | `Repaired of int | `Lost ]
(** Rebuild every fragment index without a live holder from the [>= k]
    survivors, placing each on a live node holding no fragment of this
    key. [`Repaired n] re-placed [n] fragments; [`Lost] means fewer
    than [k] survive — the payload is unrecoverable and nothing is
    changed. *)

val stale_copies : Cluster.t -> key:string -> Pid.t list
(** Live copies whose version lags the maximum — non-empty only if an
    update failed to reach some replica. For tests and integrity checks. *)
