module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Status_word = Lesslog_membership.Status_word
module Topology = Lesslog_topology.Topology
module Rng = Lesslog_prng.Rng

type t =
  | Lesslog
  | Log_based
  | Random
  | Lesslog_biased of [ `Own | `Root ]

let name = function
  | Lesslog -> "lesslog"
  | Log_based -> "log-based"
  | Random -> "random"
  | Lesslog_biased `Own -> "lesslog-own"
  | Lesslog_biased `Root -> "lesslog-root"

let all = [ Log_based; Lesslog; Random ]

(* The paper's placement is exactly the core algorithm's decision. *)
let place_lesslog ~rng ~cluster ~key ~overloaded =
  Ops.choose_replica_target ~rng cluster ~overloaded ~key

let place_log_based ~cluster ~flow ~demand ~key ~overloaded =
  let tree = Cluster.tree_of_key cluster key in
  let status = Cluster.status cluster in
  let holders p = Cluster.holds cluster p ~key in
  let candidates =
    List.filter
      (fun p -> not (holders p))
      (Topology.children_list ~b:0 tree status overloaded)
  in
  match candidates with
  | [] -> None
  | _ ->
      let inflows = Flow.inflows flow ~holders ~demand ~at:overloaded in
      let forwarded p =
        match List.assoc_opt (Some p) inflows with Some r -> r | None -> 0.0
      in
      (* The child that forwards the most requests; inflows are sorted by
         rate, so scan them first for a candidate, falling back to the
         children-list head when no candidate forwards anything. *)
      let best =
        List.fold_left
          (fun acc p ->
            match acc with
            | Some (_, best_rate) when forwarded p <= best_rate -> acc
            | _ -> Some (p, forwarded p))
          None candidates
      in
      Option.map fst best

let place_random ~rng ~cluster ~key =
  let status = Cluster.status cluster in
  let non_holders =
    Status_word.fold_live status ~init:[] ~f:(fun acc p ->
        if Cluster.holds cluster p ~key then acc else p :: acc)
  in
  match non_holders with
  | [] -> None
  | _ -> Some (Rng.pick_list rng non_holders)

let place_biased side ~cluster ~key ~overloaded =
  let own, root_list = Ops.replication_candidates cluster ~overloaded ~key in
  match (side, own, root_list) with
  | _, [], [] -> None
  | _, c :: _, [] | _, [], c :: _ -> Some c
  | `Own, c :: _, _ -> Some c
  | `Root, _, c :: _ -> Some c

let place t ~rng ~cluster ~flow ~demand ~key ~overloaded =
  match t with
  | Lesslog -> place_lesslog ~rng ~cluster ~key ~overloaded
  | Log_based -> place_log_based ~cluster ~flow ~demand ~key ~overloaded
  | Random -> place_random ~rng ~cluster ~key
  | Lesslog_biased side -> place_biased side ~cluster ~key ~overloaded
