(** Physical lookup trees (paper Section 2.1, Figure 2, Property 4).

    The physical lookup tree of node [P(r)] maps the virtual tree through
    [PID = VID xor comp(r)], where [comp(r)] is the m-bit complement of [r].
    XOR with a constant is a bijection, so one virtual tree yields the
    [2^m] distinct physical trees, and given the root every PID↔VID
    conversion is a single XOR (Property 4). *)

open Lesslog_id

type t
(** A physical lookup tree: the parameters plus its root PID. Cheap to
    construct (no materialized structure). *)

val make : Params.t -> root:Pid.t -> t

val params : t -> Params.t
val root : t -> Pid.t

val comp : t -> int
(** The XOR constant [comp(root)] mapping PID↔VID. Two trees with the same
    parameters and the same [comp] are the same tree. *)

val vid_of_pid : t -> Pid.t -> Vid.t
val pid_of_vid : t -> Vid.t -> Pid.t

val is_root : t -> Pid.t -> bool

val parent : t -> Pid.t -> Pid.t option
(** Parent in this tree; [None] on the root. Implements the paper's
    three-step FP computation: PID→VID (P4), parent VID (P2), VID→PID (P4). *)

val children : t -> Pid.t -> Pid.t list
(** Children ordered by descending offspring count — the paper's
    "children list" for the complete tree (e.g. the children list of P(4)
    in a 16-node system is (P(5), P(6), P(0), P(12))). *)

val child_count : t -> Pid.t -> int
val offspring_count : t -> Pid.t -> int
val depth : t -> Pid.t -> int

val path_to_root : t -> Pid.t -> Pid.t list
(** Forwarding path from a node (inclusive) up to the root (inclusive). *)

val is_ancestor : t -> ancestor:Pid.t -> Pid.t -> bool
(** Reflexive ancestry in this tree. *)

val iter_subtree : t -> Pid.t -> (Pid.t -> unit) -> unit

val pp : Format.formatter -> t -> unit
(** Render the whole tree (indentation = depth) with PID and VID per node,
    like the paper's figures. Intended for small [m] in docs and tests. *)
