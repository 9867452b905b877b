(** The fault-tolerant model's subtree decomposition (paper Section 4,
    Figure 4): the VID algebra only.

    With [b > 0], the last [b] bits of each VID are the node's subtree
    identifier and the first [m - b] bits its subtree VID. Each of the
    [2^b] subtrees is itself a complete binomial lookup tree over subtree
    VIDs, so all Section 3 operations run unchanged inside a subtree —
    the dead-aware ones are {!Topology}'s, with [~b]; a faulting request
    migrates to a sibling subtree by rewriting the identifier bits
    ({!Topology.route}). *)

open Lesslog_id
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

val subtree_root : Ptree.t -> subtree_id:int -> Pid.t
(** The node whose subtree VID is all ones within the given subtree. *)

val members : Ptree.t -> subtree_id:int -> Pid.t list
(** All PID slots of a subtree, by descending subtree VID. *)

val parent_in_subtree : Ptree.t -> Pid.t -> Pid.t option
(** Property 2 applied to the subtree VID through {!Lesslog_vtree.Vtree}
    with {!reduced_params}; [None] on the subtree root. Routing does not
    use it: {!Topology.next_hop} climbs the VID bits directly. *)

val children_in_subtree : Ptree.t -> Pid.t -> Pid.t list
(** Property 1 on the subtree VID, descending offspring order. *)
