open Lesslog_id
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Status_word = Lesslog_membership.Status_word
module Ptree = Lesslog_ptree.Ptree
module Topology = Lesslog_topology.Topology
module File_store = Lesslog_storage.File_store
module Rng = Lesslog_prng.Rng

let pid = Pid.unsafe_of_int

(* Find a key whose ψ-target is the given PID, by brute force. *)
let key_targeting cluster target =
  let rec search i =
    if i > 100_000 then failwith "no key found"
    else
      let key = Printf.sprintf "synthetic-%d" i in
      if Pid.equal (Cluster.target_of_key cluster key) target then key
      else search (i + 1)
  in
  search 0

(* --- Insert ----------------------------------------------------------- *)

let test_insert_all_live () =
  let cluster = Cluster.create (Params.create ~m:4 ()) in
  let key = key_targeting cluster (pid 4) in
  let targets = Ops.insert cluster ~key in
  Alcotest.(check (list int)) "stored at target" [ 4 ]
    (List.map Pid.to_int targets);
  Alcotest.(check bool) "inserted origin" true
    (File_store.origin (Cluster.store cluster (pid 4)) ~key
    = Some File_store.Inserted)

let test_insert_dead_target () =
  (* Paper's example: P(4), P(5) dead; files targeting P(4) land at P(6). *)
  let params = Params.create ~m:4 () in
  let cluster = Cluster.create params in
  Status_word.set_dead (Cluster.status cluster) (pid 4);
  Status_word.set_dead (Cluster.status cluster) (pid 5);
  let key = key_targeting cluster (pid 4) in
  let targets = Ops.insert cluster ~key in
  Alcotest.(check (list int)) "most-offspring live node" [ 6 ]
    (List.map Pid.to_int targets)

let test_insert_empty_system () =
  let params = Params.create ~m:3 () in
  let cluster = Cluster.create ~live:[] params in
  let targets = Ops.insert cluster ~key:"anything" in
  Alcotest.(check int) "nowhere to store" 0 (List.length targets)

(* --- Get -------------------------------------------------------------- *)

let test_get_from_everywhere () =
  let params = Params.create ~m:5 () in
  let cluster = Cluster.create params in
  let key = key_targeting cluster (pid 11) in
  ignore (Ops.insert cluster ~key);
  List.iter
    (fun origin ->
      let r = Ops.get cluster ~origin ~key in
      Alcotest.(check (option int)) "served at target" (Some 11)
        (Option.map Pid.to_int r.Ops.server);
      Alcotest.(check bool) "bounded hops" true (r.Ops.hops <= 5))
    (Pid.all params)

let test_get_local_copy_short_circuits () =
  let params = Params.create ~m:4 () in
  let cluster = Cluster.create params in
  let key = key_targeting cluster (pid 4) in
  ignore (Ops.insert cluster ~key);
  (* Plant a replica at P(8); a request at P(8) is served locally. *)
  Cluster.add cluster (pid 8) ~key
    ~origin:File_store.Replicated ~version:0 ~now:0.0;
  let r = Ops.get cluster ~origin:(pid 8) ~key in
  Alcotest.(check (option int)) "local" (Some 8)
    (Option.map Pid.to_int r.Ops.server);
  Alcotest.(check int) "zero hops" 0 r.Ops.hops

let test_get_intercepted_on_path () =
  let params = Params.create ~m:4 () in
  let cluster = Cluster.create params in
  let key = key_targeting cluster (pid 4) in
  ignore (Ops.insert cluster ~key);
  (* P(8) routes via P(0); a replica at P(0) intercepts. *)
  Cluster.add cluster (pid 0) ~key
    ~origin:File_store.Replicated ~version:0 ~now:0.0;
  let r = Ops.get cluster ~origin:(pid 8) ~key in
  Alcotest.(check (option int)) "intercepted" (Some 0)
    (Option.map Pid.to_int r.Ops.server);
  Alcotest.(check int) "one hop" 1 r.Ops.hops;
  Alcotest.(check (list int)) "path" [ 8; 0 ]
    (List.map Pid.to_int r.Ops.path)

let test_get_missing_faults () =
  let params = Params.create ~m:4 () in
  let cluster = Cluster.create params in
  let r = Ops.get cluster ~origin:(pid 3) ~key:"never-inserted" in
  Alcotest.(check (option int)) "fault" None
    (Option.map Pid.to_int r.Ops.server)

let test_get_dead_origin_rejected () =
  let params = Params.create ~m:4 () in
  let cluster = Cluster.create params in
  Status_word.set_dead (Cluster.status cluster) (pid 3);
  Alcotest.check_raises "dead origin" (Invalid_argument "Ops.get: dead origin")
    (fun () -> ignore (Ops.get cluster ~origin:(pid 3) ~key:"x"))

let test_get_with_dead_nodes () =
  let params = Params.create ~m:4 () in
  let cluster = Cluster.create params in
  Status_word.set_dead (Cluster.status cluster) (pid 4);
  Status_word.set_dead (Cluster.status cluster) (pid 5);
  let key = key_targeting cluster (pid 4) in
  ignore (Ops.insert cluster ~key);
  (* Every live node can still fetch the file (stored at P(6)). *)
  List.iter
    (fun origin ->
      if Status_word.is_live (Cluster.status cluster) origin then begin
        let r = Ops.get cluster ~origin ~key in
        Alcotest.(check (option int))
          (Printf.sprintf "served from %d" (Pid.to_int origin))
          (Some 6)
          (Option.map Pid.to_int r.Ops.server)
      end)
    (Pid.all params)

(* --- Replicate -------------------------------------------------------- *)

let test_replicate_at_root_follows_children_list () =
  let params = Params.create ~m:4 () in
  let cluster = Cluster.create params in
  let key = key_targeting cluster (pid 4) in
  ignore (Ops.insert cluster ~key);
  let rng = Rng.create ~seed:1 in
  (* Children list of P(4) is (5, 6, 0, 12): replicas appear in that
     order. *)
  let order =
    List.init 4 (fun _ ->
        match Ops.replicate ~rng cluster ~overloaded:(pid 4) ~key with
        | Some p -> Pid.to_int p
        | None -> -1)
  in
  Alcotest.(check (list int)) "placement order" [ 5; 6; 0; 12 ] order

let test_replicate_halves_root_interception () =
  (* With one replica at the top child, requests from that child's half of
     the tree no longer reach the root: the root now serves exactly half
     of the uniformly-originated requests. *)
  let params = Params.create ~m:6 () in
  let cluster = Cluster.create params in
  let key = key_targeting cluster (pid 21) in
  ignore (Ops.insert cluster ~key);
  let rng = Rng.create ~seed:1 in
  let served_by_root () =
    List.length
      (List.filter
         (fun origin ->
           (Ops.get cluster ~origin ~key).Ops.server = Some (pid 21))
         (Pid.all params))
  in
  Alcotest.(check int) "initially all" 64 (served_by_root ());
  ignore (Ops.replicate ~rng cluster ~overloaded:(pid 21) ~key);
  Alcotest.(check int) "halved" 32 (served_by_root ())

let test_replicate_exhaustion () =
  let params = Params.create ~m:2 () in
  let cluster = Cluster.create params in
  let key = key_targeting cluster (pid 1) in
  ignore (Ops.insert cluster ~key);
  let rng = Rng.create ~seed:1 in
  let r1 = Ops.replicate ~rng cluster ~overloaded:(pid 1) ~key in
  let r2 = Ops.replicate ~rng cluster ~overloaded:(pid 1) ~key in
  Alcotest.(check bool) "placed twice" true (r1 <> None && r2 <> None);
  let r3 = Ops.replicate ~rng cluster ~overloaded:(pid 1) ~key in
  Alcotest.(check bool) "exhausted" true (r3 = None)

let test_replicate_non_root_uses_own_children () =
  let params = Params.create ~m:4 () in
  let cluster = Cluster.create params in
  let key = key_targeting cluster (pid 4) in
  ignore (Ops.insert cluster ~key);
  let rng = Rng.create ~seed:1 in
  (* Make P(5) (top child, VID 1110) a holder, then overload it: the
     replica must land in P(5)'s own children list. *)
  ignore (Ops.replicate ~rng cluster ~overloaded:(pid 4) ~key);
  let tree = Cluster.tree_of_key cluster key in
  let expected =
    Topology.children_list ~b:0 tree (Cluster.status cluster) (pid 5)
  in
  match Ops.replicate ~rng cluster ~overloaded:(pid 5) ~key with
  | None -> Alcotest.fail "expected placement"
  | Some p ->
      Alcotest.(check int) "first of P(5)'s children list"
        (Pid.to_int (List.hd expected))
        (Pid.to_int p)

let test_replicate_proportional_choice_cases () =
  (* Dead root: the max-VID live node replicates into either its own or
     the root's children list; both outcomes must be observed across
     seeds, and never a node already holding. *)
  let params = Params.create ~m:4 () in
  let make () =
    let cluster = Cluster.create params in
    Status_word.set_dead (Cluster.status cluster) (pid 4);
    Status_word.set_dead (Cluster.status cluster) (pid 5);
    let key = key_targeting cluster (pid 4) in
    ignore (Ops.insert cluster ~key);
    (cluster, key)
  in
  let cluster0, key0 = make () in
  let own, root_list =
    Ops.replication_candidates cluster0 ~overloaded:(pid 6) ~key:key0
  in
  Alcotest.(check bool) "own list non-empty" true (own <> []);
  Alcotest.(check bool) "root list non-empty" true (root_list <> []);
  let outcomes =
    List.map
      (fun seed ->
        let cluster, key = make () in
        let rng = Rng.create ~seed in
        match Ops.replicate ~rng cluster ~overloaded:(pid 6) ~key with
        | Some p -> Pid.to_int p
        | None -> -1)
      (List.init 64 (fun i -> i))
  in
  let own_hits =
    List.length
      (List.filter (fun o -> List.mem (pid o) own) outcomes)
  in
  let root_hits =
    List.length
      (List.filter (fun o -> List.mem (pid o) root_list) outcomes)
  in
  Alcotest.(check int) "all placements in a candidate list" 64
    (own_hits + root_hits);
  Alcotest.(check bool) "both branches exercised" true
    (own_hits > 0 && root_hits > 0)

(* --- Update ----------------------------------------------------------- *)

let test_update_reaches_all_copies () =
  let params = Params.create ~m:5 () in
  let cluster = Cluster.create params in
  let key = key_targeting cluster (pid 9) in
  ignore (Ops.insert cluster ~key);
  let rng = Rng.create ~seed:7 in
  (* Grow a replica population by repeatedly overloading current holders. *)
  for _ = 1 to 12 do
    let holders = Cluster.holders cluster ~key in
    let overloaded = Rng.pick_list rng holders in
    ignore (Ops.replicate ~rng cluster ~overloaded ~key)
  done;
  let copies = Cluster.total_copies cluster ~key in
  Alcotest.(check bool) "grew copies" true (copies > 3);
  let result = Ops.update cluster ~key in
  Alcotest.(check int) "every copy updated" copies result.Ops.updated;
  Alcotest.(check int) "version bumped" 1 result.Ops.version;
  Alcotest.(check (list int)) "no stale copies" []
    (List.map Pid.to_int (Ops.stale_copies cluster ~key));
  (* A second update bumps again. *)
  let r2 = Ops.update cluster ~key in
  Alcotest.(check int) "version 2" 2 r2.Ops.version

let test_update_with_dead_root () =
  let params = Params.create ~m:4 () in
  let cluster = Cluster.create params in
  Status_word.set_dead (Cluster.status cluster) (pid 4);
  Status_word.set_dead (Cluster.status cluster) (pid 5);
  let key = key_targeting cluster (pid 4) in
  ignore (Ops.insert cluster ~key);
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 5 do
    let holders = Cluster.holders cluster ~key in
    let overloaded = Rng.pick_list rng holders in
    ignore (Ops.replicate ~rng cluster ~overloaded ~key)
  done;
  let copies = Cluster.total_copies cluster ~key in
  let result = Ops.update cluster ~key in
  Alcotest.(check int) "all copies updated" copies result.Ops.updated;
  Alcotest.(check (list int)) "no stale" []
    (List.map Pid.to_int (Ops.stale_copies cluster ~key))

(* --- Delete ------------------------------------------------------------ *)

let test_delete_removes_all_copies () =
  let params = Params.create ~m:5 () in
  let cluster = Cluster.create params in
  let key = key_targeting cluster (pid 9) in
  ignore (Ops.insert cluster ~key);
  let rng = Rng.create ~seed:8 in
  for _ = 1 to 6 do
    let holders = Cluster.holders cluster ~key in
    ignore (Ops.replicate ~rng cluster ~overloaded:(Rng.pick_list rng holders) ~key)
  done;
  let copies = Cluster.total_copies cluster ~key in
  let result = Ops.delete cluster ~key in
  Alcotest.(check int) "every copy removed" copies result.Ops.updated;
  Alcotest.(check int) "no copies remain" 0 (Cluster.total_copies cluster ~key);
  Alcotest.(check bool) "unregistered" true
    (not (List.mem key (Cluster.registered_keys cluster)));
  let r = Ops.get cluster ~origin:(pid 3) ~key in
  Alcotest.(check (option int)) "faults afterwards" None
    (Option.map Pid.to_int r.Ops.server)

let test_delete_with_dead_root () =
  let params = Params.create ~m:4 () in
  let cluster = Cluster.create params in
  Status_word.set_dead (Cluster.status cluster) (pid 4);
  Status_word.set_dead (Cluster.status cluster) (pid 5);
  let key = key_targeting cluster (pid 4) in
  ignore (Ops.insert cluster ~key);
  let result = Ops.delete cluster ~key in
  Alcotest.(check int) "inserted copy removed" 1 result.Ops.updated;
  Alcotest.(check int) "gone" 0 (Cluster.total_copies cluster ~key)

let test_delete_missing_key () =
  let params = Params.create ~m:4 () in
  let cluster = Cluster.create params in
  let result = Ops.delete cluster ~key:"never-existed" in
  Alcotest.(check int) "nothing removed" 0 result.Ops.updated

(* --- Fault-tolerant model (b > 0) ------------------------------------- *)

let test_ft_insert_2b_copies () =
  let params = Params.create ~m:6 ~b:2 () in
  let cluster = Cluster.create params in
  let key = "some-file" in
  let targets = Ops.insert cluster ~key in
  Alcotest.(check int) "2^b copies" 4 (List.length targets);
  Alcotest.(check int) "4 live copies" 4 (Cluster.total_copies cluster ~key)

let test_ft_get_survives_subtree_failure () =
  let params = Params.create ~m:6 ~b:2 () in
  let cluster = Cluster.create params in
  let key = "resilient-file" in
  let targets = Ops.insert cluster ~key in
  (* Kill one entire target; other subtrees still serve via migration. *)
  let victim = List.hd targets in
  let victim_store = Cluster.store cluster victim in
  List.iter (fun key -> Lesslog_storage.File_store.remove victim_store ~key)
    (Lesslog_storage.File_store.keys victim_store);
  Status_word.set_dead (Cluster.status cluster) victim;
  List.iter
    (fun origin ->
      if Status_word.is_live (Cluster.status cluster) origin then begin
        let r = Ops.get cluster ~origin ~key in
        Alcotest.(check bool)
          (Printf.sprintf "origin %d served" (Pid.to_int origin))
          true (r.Ops.server <> None)
      end)
    (Pid.all params)

let test_ft_get_counts_migrations () =
  let params = Params.create ~m:6 ~b:2 () in
  let cluster = Cluster.create params in
  let key = "migrating-file" in
  let targets = Ops.insert cluster ~key in
  let tree = Cluster.tree_of_key cluster key in
  (* Remove the copy in subtree 0's target only (node stays live):
     requests originating in that subtree must migrate. *)
  let in_sub0 =
    List.find
      (fun p -> Lesslog_topology.Subtrees.subtree_id_of_pid tree p = 0)
      targets
  in
  Lesslog_storage.File_store.remove (Cluster.store cluster in_sub0) ~key;
  let origin = in_sub0 in
  let r = Ops.get cluster ~origin ~key in
  Alcotest.(check bool) "served elsewhere" true (r.Ops.server <> None);
  Alcotest.(check bool) "migrated at least once" true
    (r.Ops.subtree_migrations >= 1)

let test_ft_update_reaches_all_subtrees () =
  let params = Params.create ~m:6 ~b:2 () in
  let cluster = Cluster.create params in
  let key = "updating-file" in
  ignore (Ops.insert cluster ~key);
  let result = Ops.update cluster ~key in
  Alcotest.(check int) "all 4 copies" 4 result.Ops.updated;
  Alcotest.(check (list int)) "no stale" []
    (List.map Pid.to_int (Ops.stale_copies cluster ~key))

(* --- Properties -------------------------------------------------------- *)

let gen_cluster_setup =
  QCheck2.Gen.(
    Test_support.gen_params >>= fun params ->
    Test_support.gen_status params >>= fun status ->
    int_range 0 1_000_000 >>= fun seed -> return (params, status, seed))

let cluster_of (params, status, _) =
  let cluster = Cluster.create ~live:(Status_word.live_pids status) params in
  cluster

let prop_inserted_file_always_reachable =
  Test_support.qcheck_case ~name:"inserted file served from any live origin"
    gen_cluster_setup (fun ((_, status, seed) as setup) ->
      let cluster = cluster_of setup in
      let key = Printf.sprintf "file-%d" seed in
      match Ops.insert cluster ~key with
      | [] -> Status_word.live_count status = 0
      | _ :: _ ->
          List.for_all
            (fun origin ->
              (Ops.get cluster ~origin ~key).Ops.server <> None)
            (Status_word.live_pids status))

let prop_replicas_placed_on_live_non_holders =
  Test_support.qcheck_case ~name:"replicate targets live non-holder"
    gen_cluster_setup (fun ((_, status, seed) as setup) ->
      let cluster = cluster_of setup in
      let key = Printf.sprintf "file-%d" seed in
      let rng = Rng.create ~seed in
      match Ops.insert cluster ~key with
      | [] -> true
      | first :: _ ->
          let ok = ref true in
          let overloaded = ref first in
          for _ = 1 to 5 do
            let holders_before = Cluster.holders cluster ~key in
            (match Ops.replicate ~rng cluster ~overloaded:!overloaded ~key with
            | None -> ()
            | Some p ->
                if List.mem p holders_before then ok := false;
                if Status_word.is_dead status p then ok := false;
                overloaded := p)
          done;
          !ok)

let prop_update_leaves_no_stale =
  Test_support.qcheck_case ~name:"update reaches every copy"
    gen_cluster_setup (fun ((_, _, seed) as setup) ->
      let cluster = cluster_of setup in
      let key = Printf.sprintf "file-%d" seed in
      let rng = Rng.create ~seed in
      match Ops.insert cluster ~key with
      | [] -> true
      | _ ->
          for _ = 1 to 6 do
            match Cluster.holders cluster ~key with
            | [] -> ()
            | holders ->
                let overloaded = Rng.pick_list rng holders in
                ignore (Ops.replicate ~rng cluster ~overloaded ~key)
          done;
          let result = Ops.update cluster ~key in
          result.Ops.updated = Cluster.total_copies cluster ~key
          && Ops.stale_copies cluster ~key = [])

let prop_get_hops_bounded =
  Test_support.qcheck_case ~name:"lookup hops <= m + 1"
    gen_cluster_setup (fun ((params, status, seed) as setup) ->
      let cluster = cluster_of setup in
      let key = Printf.sprintf "file-%d" seed in
      match Ops.insert cluster ~key with
      | [] -> true
      | _ ->
          List.for_all
            (fun origin ->
              (Ops.get cluster ~origin ~key).Ops.hops <= Params.m params + 1)
            (Status_word.live_pids status))

let prop_ft_inserted_file_reachable_with_dead_nodes =
  Test_support.qcheck_case
    ~name:"FT: inserted file served from any live origin (random dead sets)"
    QCheck2.Gen.(
      Test_support.gen_params_ft >>= fun params ->
      Test_support.gen_status params >>= fun status ->
      int_range 0 1_000_000 >>= fun seed -> return (params, status, seed))
    (fun (params, status, seed) ->
      let cluster = Cluster.create ~live:(Status_word.live_pids status) params in
      let key = Printf.sprintf "ft-file-%d" seed in
      match Ops.insert cluster ~key with
      | [] -> Status_word.live_count status = 0
      | _ :: _ ->
          List.for_all
            (fun origin -> (Ops.get cluster ~origin ~key).Ops.server <> None)
            (Status_word.live_pids status))

let prop_ft_update_no_stale =
  Test_support.qcheck_case ~name:"FT: update reaches every copy"
    QCheck2.Gen.(
      Test_support.gen_params_ft >>= fun params ->
      Test_support.gen_status params >>= fun status ->
      int_range 0 1_000_000 >>= fun seed -> return (params, status, seed))
    (fun (params, status, seed) ->
      let cluster = Cluster.create ~live:(Status_word.live_pids status) params in
      let key = Printf.sprintf "ft-file-%d" seed in
      let rng = Rng.create ~seed in
      match Ops.insert cluster ~key with
      | [] -> true
      | _ ->
          for _ = 1 to 5 do
            match Cluster.holders cluster ~key with
            | [] -> ()
            | holders ->
                ignore
                  (Ops.replicate ~rng cluster
                     ~overloaded:(Rng.pick_list rng holders)
                     ~key)
          done;
          let result = Ops.update cluster ~key in
          result.Ops.updated = Cluster.total_copies cluster ~key
          && Ops.stale_copies cluster ~key = [])

let prop_ft_insert_distinct_subtrees =
  Test_support.qcheck_case ~name:"FT insert: one target per live subtree"
    QCheck2.Gen.(
      Test_support.gen_params_ft >>= fun params ->
      Test_support.gen_status params >>= fun status ->
      int_range 0 1_000_000 >>= fun seed -> return (params, status, seed))
    (fun (params, status, seed) ->
      let cluster = Cluster.create ~live:(Status_word.live_pids status) params in
      let key = Printf.sprintf "file-%d" seed in
      let targets = Ops.insert cluster ~key in
      let tree = Cluster.tree_of_key cluster key in
      let sids =
        List.map (Lesslog_topology.Subtrees.subtree_id_of_pid tree) targets
      in
      List.length (List.sort_uniq compare sids) = List.length targets
      && List.length targets <= Params.subtree_count params)

(* --- Copy count ----------------------------------------------------------- *)

(* [total_copies] is a popcount over live AND holders; the holder list is
   a walk of the same sets. They agree through inserts, overload
   replication, pushed copies, evictions, repaired churn and unrepaired
   crashes, for three keys at once. *)
let prop_total_copies_matches_holders =
  Test_support.qcheck_case ~count:100 ~name:"total_copies = |holders|"
    QCheck2.Gen.(
      int_range 0 1 >>= fun b ->
      int >>= fun seed ->
      list_size (int_range 1 80) (pair (int_range 0 7) (int_range 0 1_000_000))
      >>= fun ops -> return (b, seed, ops))
    (fun (b, seed, ops) ->
      let params = Params.create ~m:6 ~b () in
      let cluster = Cluster.create params in
      let status = Cluster.status cluster in
      let rng = Rng.create ~seed in
      let keys = [| "copies/a"; "copies/b"; "copies/c" |] in
      let any_pid r = pid (r land Params.mask params) in
      let agree () =
        Array.for_all
          (fun key ->
            Cluster.total_copies cluster ~key
            = List.length (Cluster.holders cluster ~key))
          keys
      in
      List.for_all
        (fun (op, r) ->
          let key = keys.(r mod Array.length keys) and p = any_pid (r / 3) in
          (match op with
          | 0 -> ignore (Ops.insert cluster ~key)
          | 1 -> (
              match Cluster.holders cluster ~key with
              | [] -> ()
              | hs ->
                  ignore
                    (Ops.replicate ~rng cluster ~overloaded:(Rng.pick_list rng hs)
                       ~key))
          | 2 ->
              Cluster.add cluster p ~key
                ~origin:File_store.Replicated ~version:0 ~now:0.0
          | 3 ->
              (* Every replica at [p] is cold; the survivor floor keeps
                 each key's last live copy. *)
              let store = Cluster.store cluster p in
              Array.iter
                (fun key ->
                  if
                    File_store.is_cold_replica store ~key ~now:1.0
                      ~min_rate:infinity
                    && Cluster.total_copies cluster ~key > 1
                  then File_store.remove store ~key)
                keys
          | 4 -> if Status_word.is_dead status p then ignore (Lesslog.Self_org.join cluster p)
          | 5 -> if Status_word.is_live status p then ignore (Lesslog.Self_org.leave cluster p)
          | 6 -> if Status_word.is_live status p then ignore (Lesslog.Self_org.fail cluster p)
          | _ -> Status_word.set_dead status p);
          agree ())
        ops)

(* --- Replica decision: list-free choice and allocation ------------------ *)

module Subtrees = Lesslog_topology.Subtrees

(* REPLICATEFILE's decision rebuilt from the two candidate lists of
   [Ops.replication_candidates], with the proportional choice's counts
   taken from member lists: the reference the list-free [Ops.choose]
   must agree with, draw for draw. *)
let reference_choice ~rng cluster ~overloaded ~key =
  match Ops.replication_candidates cluster ~overloaded ~key with
  | [], [] -> None
  | c :: _, [] | [], c :: _ -> Some c
  | own :: _, root :: _ ->
      let tree = Cluster.tree_of_key cluster key in
      let status = Cluster.status cluster in
      let b = Params.b (Cluster.params cluster) in
      let offspring = Topology.live_offspring_count ~b tree status overloaded in
      let population =
        List.length
          (List.filter (Status_word.is_live status)
             (Subtrees.members tree
                ~subtree_id:(Subtrees.subtree_id_of_pid tree overloaded)))
      in
      let rest = max 0 (population - 1 - offspring) in
      let total = offspring + rest in
      let p =
        if total = 0 then 0.0 else float_of_int offspring /. float_of_int total
      in
      if Rng.bernoulli rng ~p then Some own else Some root

let prop_choice_matches_candidate_lists =
  Test_support.qcheck_case ~count:300
    ~name:"list-free replica choice = first of candidate lists"
    QCheck2.Gen.(
      int_range 0 3 >>= fun b ->
      int_range (b + 2) 8 >>= fun m ->
      int_range 0 4 >>= fun density ->
      int_range 0 4 >>= fun holding ->
      bool >>= fun kill_root ->
      int >>= fun seed -> return (m, b, density, holding, kill_root, seed))
    (fun (m, b, density, holding, kill_root, seed) ->
      let params = Params.create ~m ~b () in
      let rng = Rng.create ~seed in
      let cluster = Cluster.create params in
      let status = Cluster.status cluster in
      let key = "choice/object" in
      for i = 0 to Params.mask params do
        if Rng.float rng 4.0 >= float_of_int density then
          Status_word.set_dead status (pid i)
      done;
      let tree = Cluster.tree_of_key cluster key in
      if kill_root then
        for subtree_id = 0 to Params.subtree_count params - 1 do
          Status_word.set_dead status (Subtrees.subtree_root tree ~subtree_id)
        done;
      ignore (Ops.insert cluster ~key);
      Status_word.iter_live status (fun p ->
          if Rng.float rng 4.0 < float_of_int holding then
            Cluster.add cluster p ~key
              ~origin:File_store.Replicated ~version:0 ~now:0.0);
      let ok = ref true in
      Status_word.iter_live status (fun overloaded ->
          let draw = Rng.int rng 1_000_000 in
          let got =
            Ops.choose_replica_target ~rng:(Rng.create ~seed:draw) cluster
              ~overloaded ~key
          in
          let expected =
            reference_choice ~rng:(Rng.create ~seed:draw) cluster ~overloaded
              ~key
          in
          if got <> expected then ok := false);
      !ok)

(* A replica decision right after a membership change allocates nothing
   but the [holds] closure [Ops.choose_replica_target] builds and the
   [Some] it returns: the children frontier is folded, not listed. Each
   cycle kills a child of the target and decides at the target (whose
   frontier then expands the dead child), revives it and decides again,
   at m = 12 with one extra copy in the target's children list. *)
let decision_words ~b =
  let params = Params.create ~m:12 ~b () in
  let cluster = Cluster.create params in
  let key = "choice/alloc" in
  let status = Cluster.status cluster in
  let tree = Cluster.tree_of_key cluster key in
  let overloaded = Subtrees.subtree_root tree ~subtree_id:0 in
  ignore (Ops.insert cluster ~key);
  let child = List.hd (Topology.children_list ~b tree status overloaded) in
  Cluster.add cluster child ~key
    ~origin:File_store.Replicated ~version:0 ~now:0.0;
  let rng = Rng.create ~seed:5 in
  let closure =
    Test_support.words_per_cycle ~n:1000 (fun () ->
        let holds p = Cluster.holds cluster p ~key in
        let (_ : Pid.t -> bool) = Sys.opaque_identity holds in
        let (_ : Pid.t option) = Sys.opaque_identity (Some child) in
        ())
  in
  let decision =
    Test_support.words_per_cycle ~n:1000 (fun () ->
        Status_word.set_dead status child;
        ignore (Ops.choose_replica_target ~rng cluster ~overloaded ~key);
        Status_word.set_live status child;
        ignore (Ops.choose_replica_target ~rng cluster ~overloaded ~key))
  in
  (decision /. 2.0, closure)

let test_decision_allocation () =
  List.iter
    (fun b ->
      let decision, closure = decision_words ~b in
      if decision > closure then
        Alcotest.failf
          "b = %d: %.1f words per decision, more than the %.1f words of its \
           holds closure and result"
          b decision closure)
    [ 0; 2 ]

(* A slot costs a pointer until its first file: a fresh m = 20 cluster
   with one inserted file holds about 8.7 MB live (the store array and
   the status and holder bitsets), against 285 MB when every slot had its
   own empty store. *)
let test_sparse_cluster_memory () =
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let cluster = Cluster.create (Params.create ~m:20 ()) in
  let targets = Ops.insert cluster ~key:"sparse/one" in
  Gc.full_major ();
  let live_mb =
    float_of_int (((Gc.stat ()).Gc.live_words - before) * (Sys.word_size / 8))
    /. 1e6
  in
  Alcotest.(check int) "one copy" 1 (List.length targets);
  Alcotest.(check int) "the copy is readable" 1
    (Cluster.total_copies cluster ~key:"sparse/one");
  if live_mb >= 16.0 then
    Alcotest.failf "m = 20 cluster holds %.1f MB live (under 16 MB)" live_mb;
  ignore (Sys.opaque_identity cluster)

let () =
  Alcotest.run "core_ops"
    [
      ( "copy count", [ prop_total_copies_matches_holders ] );
      ( "insert",
        [
          Alcotest.test_case "all live" `Quick test_insert_all_live;
          Alcotest.test_case "dead target" `Quick test_insert_dead_target;
          Alcotest.test_case "empty system" `Quick test_insert_empty_system;
          Alcotest.test_case "m = 20 cluster under 16 MB live" `Quick
            test_sparse_cluster_memory;
        ] );
      ( "get",
        [
          Alcotest.test_case "from everywhere" `Quick test_get_from_everywhere;
          Alcotest.test_case "local copy" `Quick test_get_local_copy_short_circuits;
          Alcotest.test_case "interception" `Quick test_get_intercepted_on_path;
          Alcotest.test_case "missing file faults" `Quick test_get_missing_faults;
          Alcotest.test_case "dead origin rejected" `Quick
            test_get_dead_origin_rejected;
          Alcotest.test_case "with dead nodes" `Quick test_get_with_dead_nodes;
        ] );
      ( "replicate",
        [
          Alcotest.test_case "root follows children list" `Quick
            test_replicate_at_root_follows_children_list;
          Alcotest.test_case "halves interception" `Quick
            test_replicate_halves_root_interception;
          Alcotest.test_case "exhaustion" `Quick test_replicate_exhaustion;
          Alcotest.test_case "non-root own children" `Quick
            test_replicate_non_root_uses_own_children;
          Alcotest.test_case "proportional choice" `Quick
            test_replicate_proportional_choice_cases;
          prop_choice_matches_candidate_lists;
          Alcotest.test_case "decision after membership change: no list"
            `Quick test_decision_allocation;
        ] );
      ( "update",
        [
          Alcotest.test_case "reaches all copies" `Quick
            test_update_reaches_all_copies;
          Alcotest.test_case "dead root" `Quick test_update_with_dead_root;
        ] );
      ( "delete",
        [
          Alcotest.test_case "removes all copies" `Quick
            test_delete_removes_all_copies;
          Alcotest.test_case "dead root" `Quick test_delete_with_dead_root;
          Alcotest.test_case "missing key" `Quick test_delete_missing_key;
        ] );
      ( "fault-tolerant",
        [
          Alcotest.test_case "2^b copies" `Quick test_ft_insert_2b_copies;
          Alcotest.test_case "survives subtree failure" `Quick
            test_ft_get_survives_subtree_failure;
          Alcotest.test_case "migration count" `Quick test_ft_get_counts_migrations;
          Alcotest.test_case "update all subtrees" `Quick
            test_ft_update_reaches_all_subtrees;
        ] );
      ( "properties",
        [
          prop_inserted_file_always_reachable;
          prop_replicas_placed_on_live_non_holders;
          prop_update_leaves_no_stale;
          prop_get_hops_bounded;
          prop_ft_insert_distinct_subtrees;
          prop_ft_inserted_file_reachable_with_dead_nodes;
          prop_ft_update_no_stale;
        ] );
    ]
