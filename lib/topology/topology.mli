(** Dead-node-aware tree navigation — the paper's advanced system model
    (Section 3).

    All queries combine a physical lookup tree with the membership status
    word. Routing ({!route_next_int} and everything built on it) climbs
    the status word's own bits on the fly: at most m bit tests per hop,
    no per-tree table. The selects answer out of the domain-local
    {!Topology_cache}: the live set re-expressed in VID space as a packed
    bitset, caught up lazily to the status word's epoch from its
    membership deltas. {!find_live_node} and {!max_live} become word
    scans (O(space/62)) and {!children_list} is memoized per
    (epoch, node).

    {!Naive} keeps the original per-node scans; the cached versions are
    verified bit-identical against them by the differential tests. *)

open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Ptree = Lesslog_ptree.Ptree

(** Test-only fault injection used by the deterministic checker
    ([lib/check]) to validate itself: with {!Testing.broken_find_live_node}
    set, the cached {!find_live_node} deliberately scans {e upward} in VID
    space, violating FINDLIVENODE whenever the start node is dead. The
    checker must then find and shrink a counterexample. With
    {!Testing.broken_catch_up} set, the cache's delta catch-up skips the
    oldest delta of its window, so its VID view drifts from membership;
    the checker's cache-coherence oracle must catch it. Never set either
    outside tests. *)
module Testing : sig
  val broken_find_live_node : bool ref
  val broken_catch_up : bool ref
end

val find_live_node : Ptree.t -> Status_word.t -> start:Pid.t -> Pid.t option
(** The paper's FINDLIVENODE(s, r): if [start] is live return it; otherwise
    scan VIDs downward from [start]'s VID and return the first live node —
    the live node with the most offspring at or below [start] (by
    Property 3). [None] when the system below [start] is entirely dead. *)

val insertion_target : Ptree.t -> Status_word.t -> Pid.t option
(** FINDLIVENODE(r, r): where ADVANCEDINSERTFILE stores a file whose hash
    targets this tree's root — the live node with the most offspring in the
    whole tree. [None] iff no node is live. *)

val first_alive_ancestor : Ptree.t -> Status_word.t -> Pid.t -> Pid.t option
(** The augmented FP of Section 3: the nearest live strict ancestor in this
    tree, skipping dead nodes; [None] when every strict ancestor (including
    the root) is dead or the node is the root. *)

val children_list : Ptree.t -> Status_word.t -> Pid.t -> Pid.t list
(** The advanced-model children list (Section 3): every live child, with
    each dead child transparently replaced by its own (recursively
    expanded) children list; the result is sorted by descending VID. For
    the 14-node example of Figure 3 this yields
    (P(6), P(7), P(1), P(12), P(13), P(8)) for P(4).

    The returned list is memoized inside the cache entry; treat it as
    immutable and do not hold it across status-word mutations. *)

val has_live_with_greater_vid : Ptree.t -> Status_word.t -> Pid.t -> bool
(** Whether some live node has a strictly larger VID than the given node in
    this tree — the test deciding which children list an overloaded
    non-root node replicates into (Section 3, Replicating File). *)

val max_live : Ptree.t -> Status_word.t -> Pid.t option
(** The live node with the largest VID (equivalently, the most offspring)
    in this tree. *)

val live_offspring_count : Ptree.t -> Status_word.t -> Pid.t -> int
(** Number of live strict descendants — the numerator of the proportional
    choice made by the max-VID live node. The subtree of a node with [n]
    leading one bits is its residue class modulo [2^(m-n)], so this counts
    live members of that class: O(min(2^n, live) ) bit tests instead of a
    fold over every live node with an ancestry climb each. *)

val route_next_int : Ptree.t -> Status_word.t -> int -> int
(** [route_next_int tree status (Pid.to_int p)] is {!route_next} as an
    int, [-1] at the end of the route. It climbs P2 over the status
    word's bits — set the highest zero VID bit, test that ancestor's
    PID — so a hop is at most m bit tests and allocates nothing. Only
    when every ancestor and the root are dead does it read the cache's
    maximum live VID. No bounds check: the caller guarantees the argument
    is a valid PID of the tree. *)

type router
(** The validated {!Topology_cache} entry of one (tree, status) pair.
    Routing needs no table ({!route_next_int} climbs the status word), so
    fetching a router only brings the cache's VID view up to the status
    word's epoch: a catch-up from the delta ring, or a rebuild. After a
    join, or a leave that reinserts a file, {!Self_org} has usually
    caught the entry up already (through {!insertion_target}), so a
    fetch that follows one is only a lookup on a current entry. *)

val router : Ptree.t -> Status_word.t -> router

val route_next : Ptree.t -> Status_word.t -> Pid.t -> Pid.t option
(** One forwarding hop of the advanced GETFILE from a live node: the first
    alive ancestor if any; otherwise, when the root is dead, the migration
    hop to {!insertion_target} (unless we are already there). [None] when
    the node is the end of the route (root, or migration target). *)

val route_path : Ptree.t -> Status_word.t -> origin:Pid.t -> Pid.t list
(** The complete resolution path from a live origin: origin inclusive,
    following {!route_next} to the end. Every request for this tree's
    target travels a prefix of this path. *)

(** The original uncached implementations — straight per-node scans over
    PIDs. They are the semantic ground truth: the differential tests
    assert every toplevel query equals its [Naive] counterpart after
    arbitrary kill/revive sequences. Also useful as honest baselines in
    benchmarks. *)
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
