module Topology = Lesslog_topology.Topology
module Substrate = Lesslog_substrate.Substrate

let of_cluster cluster =
  let status = Cluster.status cluster in
  let b = Lesslog_id.Params.b (Cluster.params cluster) in
  let next_hop ~key ~origin p =
    Topology.route ~b (Cluster.tree_of_key cluster key) status ~origin p
  in
  let owner ~key =
    Topology.insertion_target ~b:0 (Cluster.tree_of_key cluster key) status
      ~subtree_id:0
  in
  let neighbors ~key p =
    Topology.children_list ~b:0 (Cluster.tree_of_key cluster key) status p
  in
  let replica_target ~rng ~holds ~overloaded ~key =
    Ops.choose ~rng ~holds ~b (Cluster.tree_of_key cluster key) status
      ~overloaded
  in
  {
    Substrate.name = "lesslog";
    next_hop;
    owner;
    neighbors;
    symmetric_neighbors = false;
    guaranteed_delivery = true;
    membership = Substrate.Self_organized;
    notify = (fun () -> ());
    replica_target;
  }
