(** The native LessLog adapter: {!Lesslog_substrate.Substrate.t} over the
    cluster's own binomial lookup trees.

    Every field delegates to the exact calls the direct code path makes —
    [next_hop] is {!Lesslog_topology.Topology.route} on the key's tree
    (the direct path's request step, subtree migration included), [owner]
    is the FINDLIVENODE insertion target,
    [neighbors] is the advanced-model children list, and [replica_target]
    is {!Ops.choose_replica_target} including the Section 3 proportional
    choice and its single [rng] draw — so simulations routed through this
    adapter are bit-for-bit identical to the direct path (pinned by the
    golden digest and the event-for-event differential test).

    [membership] is {!Lesslog_substrate.Substrate.Self_organized}: churn
    must be repaired by {!Self_org}, as the simulators do natively. The
    adapter covers the single-tree model; [b > 0] clusters use the direct
    {!Ops} path. *)

val of_cluster : Cluster.t -> Lesslog_substrate.Substrate.t
