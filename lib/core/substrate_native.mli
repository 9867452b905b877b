(** The native LessLog adapter: {!Lesslog_substrate.Substrate.t} over the
    cluster's own binomial lookup trees. [Des_sim] and [Fault_sim] run
    on it when the caller names no substrate.

    [next_hop] is {!Lesslog_topology.Topology.route} on the key's tree
    (the Section 4 request step, subtree migration included), and
    [replica_target] is {!Ops.choose} with the caller's [holds] —
    REPLICATEFILE's children-list walk with the Section 3 proportional
    choice and its single [rng] draw. Both follow the cluster's [b], and
    neither allocates beyond a decision's [Some]. [owner] is the
    FINDLIVENODE insertion target and [neighbors] the children list,
    both over the whole tree ([b = 0]); {!Ops.insert_via} therefore
    refuses this adapter when the cluster has [b > 0], where
    ADVANCEDINSERTFILE ({!Ops.insert}) places one copy per subtree.

    [membership] is {!Lesslog_substrate.Substrate.Self_organized}: churn
    is repaired by {!Self_org}, and the simulators' cold tier places
    fragments with the native {!Ops} calls. *)

val of_cluster : Cluster.t -> Lesslog_substrate.Substrate.t
