(** The fault-tolerant model's subtree decomposition (paper Section 4,
    Figure 4).

    With [b > 0], the last [b] bits of each VID are the node's subtree
    identifier and the first [m - b] bits its subtree VID. Each of the
    [2^b] subtrees is itself a complete binomial lookup tree over subtree
    VIDs, so all Section 3 operations run unchanged inside a subtree; a
    faulting request migrates to a sibling subtree by rewriting the
    identifier bits. *)

open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Ptree = Lesslog_ptree.Ptree

val reduced_params : Params.t -> Params.t
(** The [(m - b)]-bit parameter set governing each subtree ([b] reset
    to 0). *)

val subtree_id_of_vid : Params.t -> Vid.t -> int
(** Low [b] bits. *)

val subtree_vid_of_vid : Params.t -> Vid.t -> int
(** High [m - b] bits. *)

val compose_vid : Params.t -> subtree_vid:int -> subtree_id:int -> Vid.t

val subtree_id_of_pid : Ptree.t -> Pid.t -> int
(** The subtree a node belongs to in the given lookup tree. *)

val migrate_vid : Params.t -> Vid.t -> to_subtree:int -> Vid.t
(** Rewrite the subtree identifier, preserving the subtree VID — how a
    faulting request hops to a sibling subtree. *)

val subtree_root : Ptree.t -> subtree_id:int -> Pid.t
(** The node whose subtree VID is all ones within the given subtree. *)

val members : Ptree.t -> subtree_id:int -> Pid.t list
(** All PID slots of a subtree, by descending subtree VID. *)

val parent_in_subtree : Ptree.t -> Pid.t -> Pid.t option
(** Property 2 applied to the subtree VID through {!Lesslog_vtree.Vtree}
    with {!reduced_params}; [None] on the subtree root. Routing does not
    use it: {!first_alive_ancestor_in_subtree} climbs the VID bits
    directly. *)

val children_in_subtree : Ptree.t -> Pid.t -> Pid.t list
(** Property 1 on the subtree VID, descending offspring order. *)

val find_live_node_in_subtree :
  Ptree.t -> Status_word.t -> subtree_id:int -> start:Pid.t -> Pid.t option
(** The modified FINDLIVENODE of Section 4: downward scan of subtree VIDs
    from [start] within one subtree. *)

val insertion_target_in_subtree :
  Ptree.t -> Status_word.t -> subtree_id:int -> Pid.t option
(** Where a file is stored in this subtree: the live member with the most
    offspring (scan from the subtree root). *)

val insertion_targets : Ptree.t -> Status_word.t -> Pid.t list
(** The [2^b] per-subtree targets of the fault-tolerant
    ADVANCEDINSERTFILE — one per subtree that still has a live member. *)

val first_alive_ancestor_in_subtree :
  Ptree.t -> Status_word.t -> Pid.t -> Pid.t option
(** The first live strict ancestor inside the node's subtree, by
    {!Topology.climb} over the subtree VID's bits. *)

val children_list_in_subtree :
  Ptree.t -> Status_word.t -> Pid.t -> Pid.t list
(** Dead-node-aware children list restricted to the node's subtree, sorted
    by descending subtree VID. *)

val has_live_with_greater_svid : Ptree.t -> Status_word.t -> Pid.t -> bool

val max_live_in_subtree :
  Ptree.t -> Status_word.t -> subtree_id:int -> Pid.t option

val live_offspring_count_in_subtree : Ptree.t -> Status_word.t -> Pid.t -> int
(** Live strict descendants of a node within its own subtree — the
    numerator of the fault-tolerant proportional choice. *)

val route_next_in_subtree : Ptree.t -> Status_word.t -> int -> int
(** [route_next_in_subtree tree status (Pid.to_int p)] is one hop of the
    advanced GETFILE inside [p]'s subtree, as a PID int: its first live
    ancestor there or, when the subtree root is dead, the insertion
    scan's target (modified FINDLIVENODE) unless that is [p] itself.
    [-1] when the request must leave the subtree. The climb is
    {!Topology.climb} over the VID bits [\[b, m)], so a hop is at most
    [m - b] bit tests and allocates nothing; the dead-root fallback is
    the downward scan of {!find_live_node_in_subtree}. No bounds check:
    the caller guarantees a valid PID of the tree. *)

val route_path_in_subtree :
  Ptree.t -> Status_word.t -> origin:Pid.t -> Pid.t list
(** Resolution path of the advanced GETFILE confined to the origin's
    subtree (origin inclusive), following {!route_next_in_subtree}. *)
