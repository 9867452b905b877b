open Lesslog_id
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Status_word = Lesslog_membership.Status_word
module File_store = Lesslog_storage.File_store
module Demand = Lesslog_workload.Demand
module Flow = Lesslog_flow.Flow
module Balance = Lesslog_flow.Balance
module Policy = Lesslog_flow.Policy
module Rng = Lesslog_prng.Rng

let pid = Pid.unsafe_of_int

let key_targeting cluster target =
  let rec search i =
    if i > 100_000 then failwith "no key found"
    else
      let key = Printf.sprintf "synthetic-%d" i in
      if Pid.equal (Cluster.target_of_key cluster key) target then key
      else search (i + 1)
  in
  search 0

let setup ?(m = 5) ?(dead = []) ~target () =
  let params = Params.create ~m () in
  let cluster = Cluster.create params in
  List.iter (fun p -> Status_word.set_dead (Cluster.status cluster) (pid p)) dead;
  let key = key_targeting cluster (pid target) in
  ignore (Ops.insert cluster ~key);
  (cluster, key)

let flow_of cluster key =
  Flow.create (Cluster.tree_of_key cluster key) (Cluster.status cluster)

(* --- Flow --------------------------------------------------------------- *)

let test_serve_rates_single_holder () =
  let cluster, key = setup ~target:9 () in
  let flow = flow_of cluster key in
  let demand = Demand.uniform (Cluster.status cluster) ~total:3200.0 in
  let loads =
    Flow.serve_rates flow ~holders:(fun p -> Cluster.holds cluster p ~key) ~demand
  in
  (* One copy: the target serves everything. *)
  Alcotest.(check (float 1e-6)) "all at target" 3200.0
    loads.Flow.serve.(9);
  Alcotest.(check (float 1e-9)) "none unserved" 0.0 loads.Flow.unserved;
  Alcotest.(check (float 1e-6)) "mass conserved" 3200.0
    (Array.fold_left ( +. ) 0.0 loads.Flow.serve)

let test_serve_rates_split_by_subtree () =
  let cluster, key = setup ~target:9 () in
  let rng = Rng.create ~seed:1 in
  (* Replicate once at the root: the top child covers exactly half. *)
  ignore (Ops.replicate ~rng cluster ~overloaded:(pid 9) ~key);
  let flow = flow_of cluster key in
  let demand = Demand.uniform (Cluster.status cluster) ~total:3200.0 in
  let loads =
    Flow.serve_rates flow ~holders:(fun p -> Cluster.holds cluster p ~key) ~demand
  in
  Alcotest.(check (float 1e-6)) "root serves half" 1600.0 loads.Flow.serve.(9);
  Alcotest.(check (float 1e-6)) "mass conserved" 3200.0
    (Array.fold_left ( +. ) 0.0 loads.Flow.serve)

let test_serve_rates_no_holder_unserved () =
  let params = Params.create ~m:4 () in
  let cluster = Cluster.create params in
  let key = key_targeting cluster (pid 4) in
  (* Never inserted: every request is unserved. *)
  let flow = flow_of cluster key in
  let demand = Demand.uniform (Cluster.status cluster) ~total:160.0 in
  let loads = Flow.serve_rates flow ~holders:(fun _ -> false) ~demand in
  Alcotest.(check (float 1e-6)) "all unserved" 160.0 loads.Flow.unserved

let test_serving_node_matches_ops_get () =
  (* The fluid solver's notion of "who serves" must agree with the actual
     message-path semantics of Ops.get. *)
  let cluster, key = setup ~m:5 ~dead:[ 3; 17; 29 ] ~target:3 () in
  let rng = Rng.create ~seed:2 in
  for _ = 1 to 6 do
    match Cluster.holders cluster ~key with
    | [] -> ()
    | holders ->
        ignore
          (Ops.replicate ~rng cluster ~overloaded:(Rng.pick_list rng holders) ~key)
  done;
  let flow = flow_of cluster key in
  let holders p = Cluster.holds cluster p ~key in
  Status_word.iter_live (Cluster.status cluster) (fun origin ->
      let fluid = Flow.serving_node flow ~holders ~origin in
      let real = (Ops.get cluster ~origin ~key).Ops.server in
      Alcotest.(check (option Test_support.pid))
        (Printf.sprintf "origin %d" (Pid.to_int origin))
        real fluid)

let test_inflows_decomposition () =
  let cluster, key = setup ~target:9 () in
  let flow = flow_of cluster key in
  let demand = Demand.uniform (Cluster.status cluster) ~total:3200.0 in
  let holders p = Cluster.holds cluster p ~key in
  let inflows = Flow.inflows flow ~holders ~demand ~at:(pid 9) in
  (* Entries decompose the full served rate. *)
  let total = List.fold_left (fun acc (_, r) -> acc +. r) 0.0 inflows in
  Alcotest.(check (float 1e-6)) "decomposes serve rate" 3200.0 total;
  (* Self-origination shows up as None. *)
  Alcotest.(check bool) "self entry" true
    (List.exists (fun (e, _) -> e = None) inflows);
  (* Entries are the root's children (all live): the biggest forwarder is
     the child with the most offspring. *)
  (match inflows with
  | (Some top, rate) :: _ ->
      let tree = Cluster.tree_of_key cluster key in
      let expected = List.hd (Lesslog_ptree.Ptree.children tree (pid 9)) in
      Alcotest.(check Test_support.pid) "top forwarder" expected top;
      Alcotest.(check (float 1e-6)) "half minus self" 1600.0 rate
  | _ -> Alcotest.fail "expected a forwarding entry first")

(* --- Balance -------------------------------------------------------------- *)

let run_balance ?(policy = Policy.Lesslog) ?(capacity = 100.0) ~total cluster key =
  let rng = Rng.create ~seed:3 in
  let demand = Demand.uniform (Cluster.status cluster) ~total in
  Balance.run ~rng ~cluster ~key ~demand ~capacity ~policy ()

let test_balance_noop_when_under_capacity () =
  let cluster, key = setup ~target:9 () in
  let outcome = run_balance ~total:50.0 cluster key in
  Alcotest.(check int) "no replicas" 0 outcome.Balance.replicas;
  Alcotest.(check bool) "balanced" true outcome.Balance.balanced

let test_balance_reaches_capacity () =
  let cluster, key = setup ~target:9 () in
  let outcome = run_balance ~total:3200.0 cluster key in
  Alcotest.(check bool) "balanced" true outcome.Balance.balanced;
  Alcotest.(check bool) "max load under capacity" true
    (outcome.Balance.max_load <= 100.0);
  Alcotest.(check bool) "created replicas" true (outcome.Balance.replicas > 0)

let test_balance_impossible_demand () =
  (* 32 nodes x 100 req/s capacity = 3200; ask for much more. *)
  let cluster, key = setup ~target:9 () in
  let outcome = run_balance ~total:50_000.0 cluster key in
  Alcotest.(check bool) "not balanced" false outcome.Balance.balanced;
  Alcotest.(check bool) "every node enlisted" true
    (List.length (Balance.holder_pids cluster ~key) = 32)

let test_balance_policies_agree_on_balance () =
  List.iter
    (fun policy ->
      let cluster, key = setup ~target:9 () in
      let outcome = run_balance ~policy ~total:1600.0 cluster key in
      Alcotest.(check bool)
        (Printf.sprintf "%s balanced" (Policy.name policy))
        true outcome.Balance.balanced)
    Policy.all

let test_balance_lesslog_not_more_than_random () =
  let run policy =
    let cluster, key = setup ~m:7 ~target:9 () in
    (run_balance ~policy ~total:4000.0 cluster key).Balance.replicas
  in
  let lesslog = run Policy.Lesslog and random = run Policy.Random in
  Alcotest.(check bool)
    (Printf.sprintf "lesslog %d <= random %d" lesslog random)
    true (lesslog <= random)

let test_balance_logbased_not_more_than_lesslog_locality () =
  let run policy =
    let params = Params.create ~m:7 () in
    let cluster = Cluster.create params in
    let key = key_targeting cluster (pid 9) in
    ignore (Ops.insert cluster ~key);
    let rng = Rng.create ~seed:5 in
    let demand =
      Demand.locality (Cluster.status cluster) ~rng ~total:4000.0
    in
    let outcome =
      Balance.run ~rng ~cluster ~key ~demand ~capacity:100.0 ~policy ()
    in
    outcome.Balance.replicas
  in
  let log_based = run Policy.Log_based and lesslog = run Policy.Lesslog in
  Alcotest.(check bool)
    (Printf.sprintf "log-based %d <= lesslog %d" log_based lesslog)
    true (log_based <= lesslog)

let test_balance_is_fair_under_even_demand () =
  (* Beyond the threshold test: the surviving load is spread evenly among
     the serving nodes (Jain's index near 1 for uniform demand). *)
  let cluster, key = setup ~m:7 ~target:9 () in
  let demand = Demand.uniform (Cluster.status cluster) ~total:5000.0 in
  let rng = Rng.create ~seed:8 in
  let outcome =
    Balance.run ~rng ~cluster ~key ~demand ~capacity:100.0 ~policy:Policy.Lesslog ()
  in
  Alcotest.(check bool) "balanced" true outcome.Balance.balanced;
  let loads = Balance.loads ~cluster ~key ~demand in
  let fairness = Test_support.Fairness.jain_nonzero loads.Flow.serve in
  Alcotest.(check bool)
    (Printf.sprintf "fair (jain %.3f)" fairness)
    true (fairness > 0.9)

let test_evict_cold_keeps_balance () =
  let cluster, key = setup ~m:7 ~target:9 () in
  let demand = Demand.uniform (Cluster.status cluster) ~total:5000.0 in
  let rng = Rng.create ~seed:6 in
  let outcome =
    Balance.run ~rng ~cluster ~key ~demand ~capacity:100.0 ~policy:Policy.Lesslog ()
  in
  Alcotest.(check bool) "balanced first" true outcome.Balance.balanced;
  let decayed = Demand.scale demand ~factor:0.1 in
  let evicted =
    Balance.evict_cold ~capacity:100.0 ~cluster ~key ~demand:decayed
      ~min_rate:10.0 ()
  in
  Alcotest.(check bool) "evicted some" true (evicted > 0);
  let loads = Balance.loads ~cluster ~key ~demand:decayed in
  Alcotest.(check bool) "still balanced" true
    (Array.for_all (fun r -> r <= 100.0) loads.Flow.serve);
  Alcotest.(check (float 1e-9)) "nothing unserved" 0.0 loads.Flow.unserved

let test_evict_cold_never_removes_inserted () =
  let cluster, key = setup ~target:9 () in
  let demand = Demand.uniform (Cluster.status cluster) ~total:10.0 in
  let evicted =
    Balance.evict_cold ~cluster ~key ~demand ~min_rate:1000.0 ()
  in
  Alcotest.(check int) "nothing to evict" 0 evicted;
  Alcotest.(check bool) "inserted copy stays" true
    (Cluster.holds cluster (pid 9) ~key)

let test_evict_cold_blocks_unbalancing_removal () =
  let cluster, key = setup ~target:9 () in
  let replica = pid 20 in
  Cluster.add cluster replica ~key
    ~origin:File_store.Replicated ~version:0 ~now:0.0;
  let demand = Demand.uniform (Cluster.status cluster) ~total:120.0 in
  (* Both copies are cold (min_rate far above either serve rate), but
     dropping the replica would concentrate all 120 req/s on the one
     remaining copy — beyond capacity 100. The rollback path must restore
     the copy, mark the node blocked, and terminate with no eviction
     instead of retrying it forever. *)
  let evicted =
    Balance.evict_cold ~capacity:100.0 ~cluster ~key ~demand ~min_rate:1000.0 ()
  in
  Alcotest.(check int) "eviction blocked" 0 evicted;
  Alcotest.(check bool) "replica restored" true
    (Cluster.holds cluster replica ~key);
  (* Without the capacity constraint the same replica goes. *)
  let evicted = Balance.evict_cold ~cluster ~key ~demand ~min_rate:1000.0 () in
  Alcotest.(check int) "unconstrained eviction proceeds" 1 evicted;
  Alcotest.(check bool) "replica gone" true
    (not (Cluster.holds cluster replica ~key))

(* --- Properties ------------------------------------------------------------ *)

let gen_setup =
  QCheck2.Gen.(
    int_range 3 7 >>= fun m ->
    int_range 0 1_000_000 >>= fun seed ->
    float_range 100.0 5000.0 >>= fun total -> return (m, seed, total))

let prop_balance_always_ends_balanced_when_feasible =
  Test_support.qcheck_case ~count:100 ~name:"feasible demand always balances"
    gen_setup (fun (m, seed, total) ->
      let params = Params.create ~m () in
      let cluster = Cluster.create params in
      let key = Printf.sprintf "file-%d" seed in
      ignore (Ops.insert cluster ~key);
      let rng = Rng.create ~seed in
      let demand = Demand.uniform (Cluster.status cluster) ~total in
      let capacity = 100.0 in
      let feasible = total <= capacity *. float_of_int (Params.space params) in
      let outcome =
        Balance.run ~rng ~cluster ~key ~demand ~capacity ~policy:Policy.Lesslog ()
      in
      (not feasible) || (outcome.Balance.balanced && outcome.Balance.max_load <= capacity))

let prop_flow_mass_conservation =
  Test_support.qcheck_case ~count:150 ~name:"serve + unserved = demand"
    QCheck2.Gen.(
      Test_support.gen_tree_setup >>= fun (params, status, tree) ->
      int_range 0 1_000_000 >>= fun seed ->
      return (params, status, tree, seed))
    (fun (_, status, tree, seed) ->
      let rng = Rng.create ~seed in
      let flow = Flow.create tree status in
      let demand = Demand.uniform status ~total:1000.0 in
      (* Random holder set. *)
      let holders p = Pid.to_int p land 1 = Rng.int (Rng.copy rng) 2 in
      let loads = Flow.serve_rates flow ~holders ~demand in
      let served = Array.fold_left ( +. ) 0.0 loads.Flow.serve in
      Float.abs (served +. loads.Flow.unserved -. Demand.total demand) < 1e-6)

let () =
  Alcotest.run "flow"
    [
      ( "flow",
        [
          Alcotest.test_case "single holder" `Quick test_serve_rates_single_holder;
          Alcotest.test_case "split by subtree" `Quick
            test_serve_rates_split_by_subtree;
          Alcotest.test_case "unserved without holder" `Quick
            test_serve_rates_no_holder_unserved;
          Alcotest.test_case "matches Ops.get" `Quick
            test_serving_node_matches_ops_get;
          Alcotest.test_case "inflows decomposition" `Quick
            test_inflows_decomposition;
        ] );
      ( "balance",
        [
          Alcotest.test_case "no-op under capacity" `Quick
            test_balance_noop_when_under_capacity;
          Alcotest.test_case "reaches capacity" `Quick test_balance_reaches_capacity;
          Alcotest.test_case "impossible demand" `Quick
            test_balance_impossible_demand;
          Alcotest.test_case "all policies balance" `Quick
            test_balance_policies_agree_on_balance;
          Alcotest.test_case "lesslog <= random" `Quick
            test_balance_lesslog_not_more_than_random;
          Alcotest.test_case "log-based <= lesslog (locality)" `Quick
            test_balance_logbased_not_more_than_lesslog_locality;
          Alcotest.test_case "fair under even demand" `Quick
            test_balance_is_fair_under_even_demand;
          Alcotest.test_case "eviction keeps balance" `Quick
            test_evict_cold_keeps_balance;
          Alcotest.test_case "eviction spares inserted" `Quick
            test_evict_cold_never_removes_inserted;
          Alcotest.test_case "eviction blocked by capacity" `Quick
            test_evict_cold_blocks_unbalancing_removal;
        ] );
      ( "properties",
        [ prop_balance_always_ends_balanced_when_feasible; prop_flow_mass_conservation ] );
    ]
