open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Ptree = Lesslog_ptree.Ptree
module Topology = Lesslog_topology.Topology
module Subtrees = Lesslog_topology.Subtrees
module File_store = Lesslog_storage.File_store

let expected_targets cluster ~key =
  let tree = Cluster.tree_of_key cluster key in
  let status = Cluster.status cluster in
  Topology.insertion_targets ~b:(Params.b (Cluster.params cluster)) tree status

let classify cluster ~at ~key =
  if List.exists (Pid.equal at) (expected_targets cluster ~key) then
    File_store.Inserted
  else File_store.Replicated

let inserted_files cluster ~at =
  File_store.keys (Cluster.store cluster at)
  |> List.filter (fun key -> classify cluster ~at ~key = File_store.Inserted)

(* The live node with the largest VID strictly below [k]'s in [tree] —
   where ADVANCEDINSERTFILE stored files while [k] was absent. *)
let previous_max_live tree status ~below =
  let rec scan vid =
    if vid < 0 then None
    else
      let p = Ptree.pid_of_vid tree (Vid.unsafe_of_int vid) in
      if Status_word.is_live status p then Some p else scan (vid - 1)
  in
  scan (Vid.to_int (Ptree.vid_of_pid tree below) - 1)

let join_candidates cluster ~joining:k =
  let params = Cluster.params cluster in
  if Params.b params > 0 then
    invalid_arg "Locate.join_candidates: b > 0 unsupported";
  let status = Cluster.status cluster in
  if Status_word.is_dead status k then
    invalid_arg "Locate.join_candidates: joiner not registered live";
  let found : (string, Pid.t) Hashtbl.t = Hashtbl.create 8 in
  for r = 0 to Params.mask params do
    let root = Pid.unsafe_of_int r in
    let tree = Cluster.tree_of cluster root in
    (* Where could a file targeting [r] have been stored because of [k]'s
       absence? In [k]'s children list when [k] is the root or is routed
       through; at the previous max-VID live node when [k] just became the
       tree's max-VID live node (Section 5.1). *)
    let sources =
      if
        Pid.equal k root
        || Topology.has_live_with_greater_vid ~b:0 tree status k
      then Topology.children_list ~b:0 tree status k
      else
        match previous_max_live tree status ~below:k with
        | Some p -> [ p ]
        | None -> []
    in
    List.iter
      (fun src ->
        let store = Cluster.store cluster src in
        List.iter
          (fun key ->
            if
              Pid.equal (Cluster.target_of_key cluster key) root
              && File_store.origin store ~key = Some File_store.Inserted
              && not (Hashtbl.mem found key)
            then Hashtbl.replace found key src)
          (File_store.keys store))
      sources
  done;
  Hashtbl.fold (fun key src acc -> (key, src) :: acc) found []
  |> List.sort compare
