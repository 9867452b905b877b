open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Topology = Lesslog_topology.Topology
module Subtrees = Lesslog_topology.Subtrees
module File_store = Lesslog_storage.File_store

type join_stats = { took_over : (string * Pid.t) list }

type leave_stats = {
  reinserted : (string * Pid.t) list;
  dropped_replicas : string list;
}

type fail_stats = {
  lost : string list;
  recovered : (string * Pid.t) list;
  orphaned : string list;
}

(* What a membership change returns when no file moves: shared, so the
   common event (a node that holds nothing and takes over nothing)
   allocates no stats. *)
let no_join = { took_over = [] }
let no_leave = { reinserted = []; dropped_replicas = [] }
let no_fail = { lost = []; recovered = []; orphaned = [] }

(* The subtree exponent of the cluster's dead-aware queries: b = 0 is the
   whole tree, the one-subtree case. *)
let scope cluster = Params.b (Cluster.params cluster)

let expected_targets cluster ~key =
  Topology.insertion_targets ~b:(scope cluster)
    (Cluster.tree_of_key cluster key)
    (Cluster.status cluster)

(* The live holder of the inserted copy relevant to target [t] of [key]:
   the inserted holder in the same subtree as [t] (with b = 0, any). *)
let inserted_holder_for cluster ~key ~target =
  let tree = Cluster.tree_of_key cluster key in
  let sid = Subtrees.subtree_id_of_pid tree target in
  List.find_opt
    (fun p ->
      Subtrees.subtree_id_of_pid tree p = sid
      && File_store.origin (Cluster.store cluster p) ~key
         = Some File_store.Inserted)
    (Cluster.holders cluster ~key)

(* Whether the live node [k] is an insertion target of [key], without
   building {!expected_targets}: its subtree's target is the largest live
   VID there, so [k] is it iff no live node of its subtree has a larger
   VID. *)
let is_target cluster ~key k =
  not
    (Topology.has_live_with_greater_vid ~b:(scope cluster)
       (Cluster.tree_of_key cluster key)
       (Cluster.status cluster) k)

(* Copy back every file whose insertion target the joiner [k] has
   become (Section 5.1). The previous holder keeps a demoted replica. *)
let take_over cluster ~now k =
  let took_over =
    List.filter_map
      (fun key ->
        if is_target cluster ~key k then begin
          match inserted_holder_for cluster ~key ~target:k with
          | Some donor when not (Pid.equal donor k) ->
              let version =
                Option.value ~default:0
                  (File_store.version (Cluster.store cluster donor) ~key)
              in
              Cluster.add cluster k ~key
                ~origin:File_store.Inserted ~version ~now;
              File_store.demote_to_replica (Cluster.store cluster donor) ~key;
              Some (key, donor)
          | Some _ | None -> None
        end
        else None)
      (Cluster.registered_keys cluster)
  in
  if took_over = [] then no_join
  else begin
    Log.info (fun f ->
        f "join P(%d): took over %d file(s)" (Pid.to_int k)
          (List.length took_over));
    { took_over }
  end

(* The common joiner is nobody's insertion target: the existence check
   builds no key or target list, and only a target runs {!take_over}. *)
let join ?(now = 0.0) cluster k =
  let status = Cluster.status cluster in
  if Status_word.is_live status k then invalid_arg "Self_org.join: already live";
  Status_word.set_live status k;
  if Cluster.exists_registered_key cluster (fun key -> is_target cluster ~key k)
  then take_over cluster ~now k
  else no_join

let reinsert_one cluster ~now ~key ~version ~departing =
  let tree = Cluster.tree_of_key cluster key in
  match
    Topology.insertion_target ~b:(scope cluster) tree (Cluster.status cluster)
      ~subtree_id:(Subtrees.subtree_id_of_pid tree departing)
  with
  | None -> None
  | Some p ->
      Cluster.add cluster p ~key
        ~origin:File_store.Inserted ~version ~now;
      Some p

(* Drop the replicas and fragments of the departing [k], mark it dead
   and re-insert its inserted files elsewhere. *)
let hand_off cluster ~now k store_k =
  let dropped_replicas = File_store.drop_replicas store_k in
  (* Erasure-coded fragments are not re-inserted under their fragment
     key — ψ(fragment key) has nothing to do with where the code wants
     them. They are simply dropped here; [Ops.repair_coded] rebuilds
     the lost fragment from the k survivors. *)
  List.iter (fun key -> File_store.remove store_k ~key)
    (File_store.coded_keys store_k);
  let inserted =
    List.map
      (fun key ->
        (key, Option.value ~default:0 (File_store.version store_k ~key)))
      (File_store.inserted_keys store_k)
  in
  Status_word.set_dead (Cluster.status cluster) k;
  let reinserted =
    List.filter_map
      (fun (key, version) ->
        File_store.remove store_k ~key;
        match reinsert_one cluster ~now ~key ~version ~departing:k with
        | Some p -> Some (key, p)
        | None -> None)
      inserted
  in
  if reinserted = [] && dropped_replicas = [] then no_leave
  else begin
    Log.info (fun f ->
        f "leave P(%d): re-inserted %d file(s), dropped %d replica(s)"
          (Pid.to_int k) (List.length reinserted)
          (List.length dropped_replicas));
    { reinserted; dropped_replicas }
  end

let leave ?(now = 0.0) cluster k =
  let status = Cluster.status cluster in
  if Status_word.is_dead status k then invalid_arg "Self_org.leave: already dead";
  let store_k = Cluster.store cluster k in
  if File_store.size store_k = 0 then begin
    Status_word.set_dead status k;
    no_leave
  end
  else hand_off cluster ~now k store_k

(* The crash of [k]: its entire store is lost, then Section 5.3
   recovery runs for each inserted file it held. *)
let crash cluster ~now k store_k =
  (* Lost fragments are the cold tier's problem ([Ops.repair_coded]),
     not Section 5.3 recovery — keep them out of the stats. *)
  let held_inserted =
    List.filter
      (fun key ->
        match File_store.tier store_k ~key with
        | Some (File_store.Coded _) -> false
        | _ -> true)
      (File_store.inserted_keys store_k)
  in
  List.iter (fun key -> File_store.remove store_k ~key) (File_store.keys store_k);
  Status_word.set_dead (Cluster.status cluster) k;
  let lost = ref [] and recovered = ref [] and orphaned = ref [] in
  List.iter
    (fun key ->
      match Cluster.holders cluster ~key with
      | [] -> lost := key :: !lost
      | survivors ->
          if scope cluster > 0 then begin
            (* Recover from a sibling subtree's inserted copy
               (Section 5.3). *)
            let donor =
              List.find_opt
                (fun p ->
                  File_store.origin (Cluster.store cluster p) ~key
                  = Some File_store.Inserted)
                survivors
            in
            match donor with
            | Some d -> begin
                let version =
                  Option.value ~default:0
                    (File_store.version (Cluster.store cluster d) ~key)
                in
                match reinsert_one cluster ~now ~key ~version ~departing:k with
                | Some p -> recovered := (key, p) :: !recovered
                | None -> orphaned := key :: !orphaned
              end
            | None -> orphaned := key :: !orphaned
          end
          else orphaned := key :: !orphaned)
    held_inserted;
  if held_inserted = [] then no_fail
  else begin
    Log.info (fun f ->
        f "fail P(%d): lost %d, recovered %d, orphaned %d" (Pid.to_int k)
          (List.length !lost) (List.length !recovered)
          (List.length !orphaned));
    {
      lost = List.rev !lost;
      recovered = List.rev !recovered;
      orphaned = List.rev !orphaned;
    }
  end

let fail ?(now = 0.0) cluster k =
  let status = Cluster.status cluster in
  if Status_word.is_dead status k then invalid_arg "Self_org.fail: already dead";
  let store_k = Cluster.store cluster k in
  if File_store.size store_k = 0 then begin
    Status_word.set_dead status k;
    no_fail
  end
  else crash cluster ~now k store_k

let integrity_violations cluster =
  List.concat_map
    (fun key ->
      (* A key demoted to the coded tier deliberately has no full
         inserted copy at its targets. *)
      if Cluster.coded_params cluster ~key <> None then []
      else
        List.filter_map
          (fun target ->
            match File_store.origin (Cluster.store cluster target) ~key with
            | Some File_store.Inserted -> None
            | Some File_store.Replicated | None -> Some (key, target))
          (expected_targets cluster ~key))
    (Cluster.registered_keys cluster)
