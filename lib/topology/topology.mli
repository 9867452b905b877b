(** Dead-node-aware tree navigation — the paper's advanced system model
    (Section 3), inside each of the [2^b] subtrees of the fault-tolerant
    model (Section 4).

    Every query combines a physical lookup tree with the membership
    status word and reads nothing else: no per-tree table, no cache, no
    state to bring up to date after a membership change. A query with
    [~b] works on the VID bits [\[b, m)] of the node's own subtree (the
    low [b] bits, the subtree identifier, stay fixed); [~b:0] is the
    whole tree, the one-subtree case. Worst-case costs, in bit tests of
    the status word: a climb ({!first_alive_ancestor}, one routing hop)
    at most [m - b]; {!find_live_node}, {!insertion_target} and
    {!has_live_with_greater_vid} the gap they scan over; {!children_list}
    and {!first_child} the live children frontier and the dead nodes
    above it.

    {!Naive} keeps the original per-node scans of the whole tree; the
    bit-level versions are verified bit-identical against them (and, at
    [b > 0], against a per-subtree reference) by the differential tests
    and the checker's [topology-naive] oracle. *)

open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Ptree = Lesslog_ptree.Ptree

(** Test-only fault injection used by the deterministic checker
    ([lib/check]) to validate itself. With {!Testing.broken_find_live_node}
    set, {!find_live_node} deliberately scans {e upward} in VID space,
    violating FINDLIVENODE whenever the start node is dead. With
    {!Testing.broken_frontier} set, the children frontier walk
    ({!children_list}, {!first_child}) drops dead children instead of
    expanding them. The checker must find and shrink a counterexample to
    either. With {!Testing.broken_migration} set, {!route} lands a
    migrating request on the next subtree's insertion target instead of
    the origin's mirror; the request-path differential test must fail.
    Never set them outside tests. *)
module Testing : sig
  val broken_find_live_node : bool ref
  val broken_frontier : bool ref
  val broken_migration : bool ref
end

val find_live_node :
  b:int -> Ptree.t -> Status_word.t -> start:Pid.t -> Pid.t option
(** The paper's FINDLIVENODE(s, r): if [start] is live return it;
    otherwise scan VIDs downward from [start]'s VID within its subtree
    and return the first live node — the live node with the most
    offspring at or below [start] (by Property 3). [None] when the
    subtree below [start] is entirely dead. *)

val insertion_target :
  b:int -> Ptree.t -> Status_word.t -> subtree_id:int -> Pid.t option
(** FINDLIVENODE from the root of subtree [subtree_id] (in [\[0, 2^b)];
    [0] when [b = 0]): where ADVANCEDINSERTFILE stores a file whose hash
    targets this tree — the live node with the most offspring, which is
    also the largest live VID of the subtree. [None] iff no member is
    live. *)

val insertion_targets : b:int -> Ptree.t -> Status_word.t -> Pid.t list
(** {!insertion_target} of every subtree that still has a live member,
    by subtree identifier: the fault-tolerant ADVANCEDINSERTFILE's [2^b]
    copies, or the single target when [b = 0]. *)

val first_alive_ancestor :
  b:int -> Ptree.t -> Status_word.t -> Pid.t -> Pid.t option
(** The augmented FP of Section 3: the nearest live strict ancestor inside
    the node's subtree, skipping dead nodes; [None] when every strict
    ancestor (including the subtree root) is dead or the node is the
    root. *)

val children_list : b:int -> Ptree.t -> Status_word.t -> Pid.t -> Pid.t list
(** The advanced-model children list (Section 3): every live child, with
    each dead child transparently replaced by its own (recursively
    expanded) children list; the result is sorted by descending VID. For
    the 14-node example of Figure 3 this yields
    (P(6), P(7), P(1), P(12), P(13), P(8)) for P(4). *)

val first_child :
  b:int -> Ptree.t -> Status_word.t -> skip:(Pid.t -> bool) -> Pid.t -> int
(** The first entry of {!children_list} that fails [skip], as a PID int,
    or [-1]: one fold over the live children frontier that builds no
    list and allocates nothing. REPLICATEFILE's choice of the
    highest-VID non-holder. *)

val has_live_with_greater_vid :
  b:int -> Ptree.t -> Status_word.t -> Pid.t -> bool
(** Whether some live node of the node's subtree has a strictly larger
    VID — the test deciding which children list an overloaded non-root
    node replicates into (Section 3, Replicating File). *)

val live_offspring_count : b:int -> Ptree.t -> Status_word.t -> Pid.t -> int
(** Number of live strict descendants inside the node's subtree — the
    numerator of the proportional choice made by the max-VID live node.
    The subtree of a node with [n] leading one bits is its residue class
    modulo [2^(m-n)], so this counts live members of that class:
    O(min(2^n, live)) bit tests. *)

val live_population : b:int -> Ptree.t -> Status_word.t -> subtree_id:int -> int
(** Live members of subtree [subtree_id]: the status word's live count
    when [b = 0], else [2^(m-b)] bit tests. The denominator of the
    proportional choice. *)

val next_hop : b:int -> Ptree.t -> Status_word.t -> int -> int
(** [next_hop ~b tree status (Pid.to_int p)] is one ROUTE-NEXT of the
    advanced GETFILE inside [p]'s subtree, as a PID int: its first live
    ancestor there or, when the subtree root is dead, the insertion
    scan's target (modified FINDLIVENODE) unless that is [p] itself.
    [-1] at the end of the route, where a request at [b > 0] must leave
    the subtree. A hop is at most [m - b] bit tests plus, under a dead
    root, the scan; it allocates nothing. No bounds check: the caller
    guarantees a valid PID of the tree. *)

val route : b:int -> Ptree.t -> Status_word.t -> origin:int -> int -> int
(** [route ~b tree status ~origin p] is the next hop of a GET issued at
    [origin] and standing at the live node [p], as a PID int, or [-1]
    when the request faults — the one request step of every caller.
    Section 4: a request that faults in its subtree "migrates between
    subtrees by rewriting the subtree identifier". The step:
    - {!next_hop} inside [p]'s subtree while it climbs;
    - at the subtree's dead end, the subtrees after [p]'s own in turn,
      [s = sid(p) + 1, sid(p) + 2, ...] (mod [2^b]), stopping with [-1]
      when [s] would be the origin's subtree;
    - in [s], land on the origin's mirror (its subtree VID with [s]'s
      identifier); when the mirror is dead, on {!next_hop} of the mirror
      (its first live ancestor, else [s]'s insertion target); when [s]
      has no live member, go on to the next [s].

    Each subtree is entered at most once, and the step reads only [p],
    [origin] and the status word, so a hop-by-hop caller keeps no
    per-request state. At [b = 0] it is {!next_hop} over the whole tree.

    Hop budget: a route takes at most [m - b] hops in the origin's
    subtree and at most [m - b + 1] (the landing plus the climb) in each
    of the other [2^b - 1], so at most [2^b (m - b + 1) - 1] hops — [m]
    at [b = 0]. The bound is reached (all nodes live, no copy, an origin
    of subtree VID 0), and it exceeds the wire's 6-bit hop field (63)
    when [2^b (m - b + 1) > 64]: at [b = 2] from [m = 18], at [b = 3]
    from [m = 11]. The simulators report a request whose hop count
    reaches [Wire.hops_max] as a fault. Allocates nothing; no bounds
    check. *)

type router
(** Navigation keeps no per-tree state, so there is nothing to fetch or
    bring up to date after a membership change; a router is an empty
    value, kept for callers that time that fetch. *)

val router : Ptree.t -> Status_word.t -> router

val route_next : Ptree.t -> Status_word.t -> Pid.t -> Pid.t option
(** {!route} at [~b:0] as an option: one forwarding hop of the advanced
    GETFILE from a live node over the whole tree — the first alive
    ancestor if any; otherwise, when the root is dead, the migration hop
    to the insertion target (unless we are already there). [None] when
    the node is the end of the route (root, or migration target). *)

val route_path : Ptree.t -> Status_word.t -> origin:Pid.t -> Pid.t list
(** The complete whole-tree resolution path from a live origin: origin
    inclusive, following {!route_next} to the end. Every request for
    this tree's target travels a prefix of this path. *)

(** The original implementations — straight per-node scans over PIDs of
    the whole tree. They are the semantic ground truth: the differential
    tests assert every query at [b = 0] equals its [Naive] counterpart
    after arbitrary kill/revive sequences. Also useful as honest
    baselines in benchmarks. *)
module Naive : sig
  val find_live_node : Ptree.t -> Status_word.t -> start:Pid.t -> Pid.t option
  val insertion_target : Ptree.t -> Status_word.t -> Pid.t option
  val first_alive_ancestor : Ptree.t -> Status_word.t -> Pid.t -> Pid.t option
  val children_list : Ptree.t -> Status_word.t -> Pid.t -> Pid.t list
  val has_live_with_greater_vid : Ptree.t -> Status_word.t -> Pid.t -> bool
  val max_live : Ptree.t -> Status_word.t -> Pid.t option
  val live_offspring_count : Ptree.t -> Status_word.t -> Pid.t -> int
  val route_next : Ptree.t -> Status_word.t -> Pid.t -> Pid.t option
  val route_path : Ptree.t -> Status_word.t -> origin:Pid.t -> Pid.t list
end
