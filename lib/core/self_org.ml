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
   VID. [k]'s own status does not enter the test. *)
let is_target cluster ~key k =
  not
    (Topology.has_live_with_greater_vid ~b:(scope cluster)
       (Cluster.tree_of_key cluster key)
       (Cluster.status cluster) k)

(* The stats line's closure is built only when the source logs it. *)
let logs_info () =
  match Logs.Src.level Log.src with
  | Some (Logs.Info | Logs.Debug) -> true
  | Some (Logs.App | Logs.Error | Logs.Warning) | None -> false

(* The time a placed copy's access counter starts from: the caller's
   [?now], else a read of [clock]. It is taken once per copy placed,
   so a change that places none reads no time, and the caller needs no
   test of its own to know whether it should. *)
let[@inline] stamp now clock = match now with Some t -> t | None -> clock ()
let no_clock () = 0.0

(* Copy back every file, from the [i]th registered key on, whose
   insertion target the joiner [k] has become (Section 5.1). The
   previous holder keeps a demoted replica. Each copy is made before
   the later keys are looked at, in ascending key order. A top-level
   loop over the registry in place: a joiner that is nobody's target
   allocates nothing. *)
let rec take_over cluster ~now ~clock k i =
  if i >= Cluster.registered_count cluster then []
  else
    let key = Cluster.registered_key cluster i in
    match
      if is_target cluster ~key k then inserted_holder_for cluster ~key ~target:k
      else None
    with
    | Some donor when not (Pid.equal donor k) ->
        let version =
          Option.value ~default:0
            (File_store.version (Cluster.store cluster donor) ~key)
        in
        Cluster.add cluster k ~key ~origin:File_store.Inserted ~version
          ~now:(stamp now clock);
        File_store.demote_to_replica (Cluster.store cluster donor) ~key;
        (key, donor) :: take_over cluster ~now ~clock k (i + 1)
    | Some _ | None -> take_over cluster ~now ~clock k (i + 1)

let join_from ~now ~clock cluster k =
  let status = Cluster.status cluster in
  if Status_word.is_live status k then invalid_arg "Self_org.join: already live";
  Status_word.set_live status k;
  match take_over cluster ~now ~clock k 0 with
  | [] -> no_join
  | took_over ->
      if logs_info () then
        Log.info (fun f ->
            f "join P(%d): took over %d file(s)" (Pid.to_int k)
              (List.length took_over));
      { took_over }

let reinsert_one cluster ~now ~clock ~key ~version ~departing =
  let tree = Cluster.tree_of_key cluster key in
  match
    Topology.insertion_target ~b:(scope cluster) tree (Cluster.status cluster)
      ~subtree_id:(Subtrees.subtree_id_of_pid tree departing)
  with
  | None -> None
  | Some p ->
      Cluster.add cluster p ~key ~origin:File_store.Inserted ~version
        ~now:(stamp now clock);
      Some p

(* Re-home the departed [k]'s inserted copies, in ascending key order. *)
let rec reinsert cluster ~now ~clock k = function
  | [] -> []
  | (e : File_store.entry) :: rest -> (
      match
        reinsert_one cluster ~now ~clock ~key:e.key ~version:e.version
          ~departing:k
      with
      | Some p -> (e.key, p) :: reinsert cluster ~now ~clock k rest
      | None -> reinsert cluster ~now ~clock k rest)

(* Voluntary departure: the store is emptied — replicas dropped,
   erasure-coded fragments too (they are not re-inserted under their
   fragment key, since ψ(fragment key) has nothing to do with where the
   code wants them; [Ops.repair_coded] rebuilds a lost fragment from
   the k survivors) — and the inserted copies are re-inserted with [k]
   marked dead. A store of replicas builds their key list and nothing
   else. *)
let leave_from ~now ~clock cluster k =
  let status = Cluster.status cluster in
  if Status_word.is_dead status k then invalid_arg "Self_org.leave: already dead";
  let store_k = Cluster.store cluster k in
  let dropped_replicas = File_store.replicated_keys store_k in
  let inserted = File_store.inserted_full store_k in
  File_store.clear store_k;
  Status_word.set_dead status k;
  match (reinsert cluster ~now ~clock k inserted, dropped_replicas) with
  | [], [] -> no_leave
  | reinserted, _ ->
      if logs_info () then
        Log.info (fun f ->
            f "leave P(%d): re-inserted %d file(s), dropped %d replica(s)"
              (Pid.to_int k) (List.length reinserted)
              (List.length dropped_replicas));
      { reinserted; dropped_replicas }

(* Section 5.3 recovery of the crashed [k]'s inserted [key]. *)
let recover cluster ~now ~clock k key (lost, recovered, orphaned) =
  match Cluster.holders cluster ~key with
  | [] -> (key :: lost, recovered, orphaned)
  | survivors when scope cluster > 0 -> (
      (* Recover from a sibling subtree's inserted copy. *)
      match
        List.find_opt
          (fun p ->
            File_store.origin (Cluster.store cluster p) ~key
            = Some File_store.Inserted)
          survivors
      with
      | Some d -> (
          let version =
            Option.value ~default:0
              (File_store.version (Cluster.store cluster d) ~key)
          in
          match
            reinsert_one cluster ~now ~clock ~key ~version ~departing:k
          with
          | Some p -> (lost, (key, p) :: recovered, orphaned)
          | None -> (lost, recovered, key :: orphaned))
      | None -> (lost, recovered, key :: orphaned))
  | _ -> (lost, recovered, key :: orphaned)

(* The crash of [k]: its entire store is lost, then recovery runs for
   each inserted full copy it held. Lost fragments are the cold tier's
   problem ([Ops.repair_coded]), not Section 5.3 recovery, and stay out
   of the stats. *)
let fail_from ~now ~clock cluster k =
  let status = Cluster.status cluster in
  if Status_word.is_dead status k then invalid_arg "Self_org.fail: already dead";
  let store_k = Cluster.store cluster k in
  let held = File_store.inserted_full store_k in
  File_store.clear store_k;
  Status_word.set_dead status k;
  match held with
  | [] -> no_fail
  | _ ->
      let lost, recovered, orphaned =
        List.fold_left
          (fun acc (e : File_store.entry) ->
            recover cluster ~now ~clock k e.key acc)
          ([], [], []) held
      in
      if logs_info () then
        Log.info (fun f ->
            f "fail P(%d): lost %d, recovered %d, orphaned %d" (Pid.to_int k)
              (List.length lost) (List.length recovered)
              (List.length orphaned));
      {
        lost = List.rev lost;
        recovered = List.rev recovered;
        orphaned = List.rev orphaned;
      }

let join ?now cluster k = join_from ~now ~clock:no_clock cluster k
let leave ?now cluster k = leave_from ~now ~clock:no_clock cluster k
let fail ?now cluster k = fail_from ~now ~clock:no_clock cluster k
let join_clocked ~clock cluster k = join_from ~now:None ~clock cluster k
let leave_clocked ~clock cluster k = leave_from ~now:None ~clock cluster k
let fail_clocked ~clock cluster k = fail_from ~now:None ~clock cluster k

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
