(* The Section 4 request path, written once as [Topology.route] and taken
   by every caller: [Ops.get]'s walk, [Protocol]'s per-hop step (the one
   [Des_sim] and [Fault_sim] forward with), [Flow.serving_node] and
   [Pdes_sim]'s sharded GET. For random memberships and holder sets at
   m <= 10 and b in {0, 1, 2, 3}, every live origin's request must be
   served by the same node after the same hops and subtree migrations as
   [Subtree_oracle.route], the rule written from its statement over
   member lists, and no route may enter a subtree twice. At m <= 10 the
   longest route, 2^b (m - b + 1) - 1 hops, fits the wire's hop field,
   so the simulators' hop budget never cuts a route here; the hop-budget
   cases below cross it on purpose. *)

open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Ptree = Lesslog_ptree.Ptree
module Topology = Lesslog_topology.Topology
module Subtrees = Lesslog_topology.Subtrees
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module File_store = Lesslog_storage.File_store
module Flow = Lesslog_flow.Flow
module Protocol = Lesslog_des.Protocol
module Wire = Lesslog_des.Wire
module Des_sim = Lesslog_des.Des_sim
module Pdes_sim = Lesslog_des.Pdes_sim
module Engine = Lesslog_sim.Engine
module Overlay = Lesslog_net.Overlay
module Latency = Lesslog_net.Latency
module Demand = Lesslog_workload.Demand
module Obs = Lesslog_obs.Obs
module Trace = Lesslog_trace.Trace
module Rng = Lesslog_prng.Rng

type outcome = { server : int; hops : int; path : int list }

let migrations tree path =
  let sid p = Subtrees.subtree_id_of_pid tree (Pid.unsafe_of_int p) in
  let rec go n = function
    | a :: (b :: _ as rest) -> go (if sid a = sid b then n else n + 1) rest
    | [ _ ] | [] -> n
  in
  go 0 path

(* Whether the path's subtree sequence enters each subtree once: every
   subtree id appears in one contiguous run. *)
let enters_once tree path =
  let sid p = Subtrees.subtree_id_of_pid tree (Pid.unsafe_of_int p) in
  let rec go seen last = function
    | [] -> true
    | p :: rest ->
        let s = sid p in
        if s = last then go seen last rest
        else (not (List.mem s seen)) && go (s :: seen) s rest
  in
  go [] (-1) path

(* The reference walk: [Subtree_oracle.route] hop by hop from [origin],
   served by the first holder. *)
let reference tree status ~held ~origin =
  let rec walk hops acc p =
    let acc = Pid.to_int p :: acc in
    if held (Pid.to_int p) then
      { server = Pid.to_int p; hops; path = List.rev acc }
    else
      match Subtree_oracle.route tree status ~origin p with
      | None -> { server = -1; hops; path = List.rev acc }
      | Some q -> walk (hops + 1) acc q
  in
  walk 0 [] origin

(* [Protocol]'s hop sequence: every live origin issues one GET at once
   (request id = origin PID) over an overlay with no loss, and each
   delivery does what [Des_sim]'s GET step does — serve at a holder, else
   [Protocol.forward], a fault when it returns [false]. *)
let protocol_outcomes cluster ~key =
  let params = Cluster.params cluster in
  let status = Cluster.status cluster in
  let engine = Engine.create () in
  let rng = Rng.create ~seed:1 in
  let overlay =
    Overlay.create ~engine ~rng ~latency:(Latency.Constant 0.001) params
  in
  let trigger =
    Protocol.Trigger.create ~capacity:infinity ~tau:1.0 ~cooldown:1.0
      (Params.space params)
  in
  let p =
    Protocol.create ~rng ~cluster ~key ~engine ~overlay ~trigger
      ~substrate:None ~sink:None ~obs:None
  in
  let out = Array.make (Params.space params) None in
  let paths = Array.make (Params.space params) [] in
  let step ~me ~id ~hops =
    paths.(id) <- Pid.to_int me :: paths.(id);
    let finish server =
      out.(id) <- Some { server; hops; path = List.rev paths.(id) }
    in
    if Cluster.holds cluster me ~key then finish (Pid.to_int me)
    else if
      not
        (Protocol.forward p ~me ~id ~origin:(Pid.unsafe_of_int id) ~hops
           ~issued_at:0.0)
    then finish (-1)
  in
  Overlay.set_packed_recv overlay
    (Some
       (fun ~src:_ ~dst b ->
         match Wire.kind b with
         | Wire.Get -> step ~me:dst ~id:(Wire.id b) ~hops:(Wire.get_hops b)
         | _ -> ()));
  Status_word.iter_live status (fun q -> Overlay.attach overlay q);
  Status_word.iter_live status (fun q -> step ~me:q ~id:(Pid.to_int q) ~hops:0);
  Engine.run engine;
  out

(* Routes that crossed a subtree boundary, counted over the trials so
   the differential can show it exercised the migration at all. *)
let migrating_routes = ref 0
let pdes_migrating_runs = ref 0

let pp_outcome o =
  Printf.sprintf "server %d, %d hops, path [%s]" o.server o.hops
    (String.concat ";" (List.map string_of_int o.path))

(* A random membership (some nodes dead, sometimes a whole subtree) and
   a random holder set (a density of random live nodes, with or without
   the inserted copies) on a cluster; the first disagreement among the
   four callers and the reference, or [None]. *)
let check_trial seed =
  let rng = Rng.create ~seed in
  let m = if seed mod 16 = 0 then 9 + Rng.int rng 2 else 3 + Rng.int rng 6 in
  let b = Rng.int rng (min 4 m) in
  let params = Params.create ~m ~b () in
  let dead = [| 0.0; 0.1; 0.3; 0.6 |].(Rng.int rng 4) in
  let cluster = Cluster.create params in
  let status = Cluster.status cluster in
  let key = Printf.sprintf "request-path/%d" seed in
  Cluster.register_key cluster key;
  let tree = Cluster.tree_of_key cluster key in
  List.iter
    (fun p -> if Rng.float rng 1.0 < dead then Status_word.set_dead status p)
    (Pid.all params);
  if b > 0 && Rng.bool rng then
    List.iter (Status_word.set_dead status)
      (Subtrees.members tree
         ~subtree_id:(Rng.int rng (Params.subtree_count params)));
  let density = [| 0.0; 0.02; 0.1; 0.3 |].(Rng.int rng 4) in
  let add p =
    Cluster.add cluster p ~key ~origin:File_store.Replicated
      ~version:0 ~now:0.0
  in
  if Rng.bool rng then
    List.iter add (Topology.insertion_targets ~b tree status);
  Status_word.iter_live status (fun p ->
      if Rng.float rng 1.0 < density then add p);
  let held i = Cluster.holds cluster (Pid.unsafe_of_int i) ~key in
  let flow = Flow.create tree status in
  let protocol = protocol_outcomes cluster ~key in
  let failure = ref None in
  let fail origin what expected got =
    if !failure = None then
      failure :=
        Some
          (Printf.sprintf "seed %d m=%d b=%d origin %d: %s: expected %s, got %s"
             seed m b (Pid.to_int origin) what expected got)
  in
  Status_word.iter_live status (fun origin ->
      let r = reference tree status ~held ~origin in
      if migrations tree r.path > 0 then incr migrating_routes;
      let got = Ops.get cluster ~origin ~key in
      let ops =
        { server = Option.fold ~none:(-1) ~some:Pid.to_int got.Ops.server;
          hops = got.Ops.hops;
          path = List.map Pid.to_int got.Ops.path }
      in
      if ops <> r then fail origin "Ops.get" (pp_outcome r) (pp_outcome ops);
      if got.Ops.subtree_migrations <> migrations tree r.path then
        fail origin "Ops.get migrations"
          (string_of_int (migrations tree r.path))
          (string_of_int got.Ops.subtree_migrations);
      (match protocol.(Pid.to_int origin) with
      | Some o when o = r -> ()
      | Some o -> fail origin "Protocol" (pp_outcome r) (pp_outcome o)
      | None -> fail origin "Protocol" (pp_outcome r) "no outcome");
      let fl =
        Option.fold ~none:(-1) ~some:Pid.to_int
          (Flow.serving_node flow ~holders:(fun p -> held (Pid.to_int p))
             ~origin)
      in
      if fl <> r.server then
        fail origin "Flow.serving_node" (string_of_int r.server)
          (string_of_int fl);
      if not (enters_once tree r.path) then
        fail origin "subtree entered twice" "each subtree once"
          (pp_outcome r));
  !failure

let trials = List.init 160 (fun i -> 1 + i)

let first_failure check seeds = List.find_map check seeds

let test_callers_agree () =
  migrating_routes := 0;
  (match first_failure check_trial trials with
  | None -> ()
  | Some msg -> Alcotest.fail msg);
  if !migrating_routes < 1000 then
    Alcotest.failf "only %d routes migrated" !migrating_routes

(* --- Pdes_sim ----------------------------------------------------------

   [Pdes_sim] builds its own all-live cluster with the inserted copies,
   so its memberships come from churn at t = 0 (the barrier globals run
   before the first arrival): random failures, and at b > 0 one subtree
   emptied and partly rejoined, which leaves it live but with no copy —
   its requests migrate. With capacity unbounded there is no replication,
   so each lookup span (origin, server, hops) must match the reference
   on the final membership and holder set. The holder set is replayed
   from the simulator's documented churn rule: a failed holder's copy
   moves to its subtree's insertion target while another copy survives;
   a joiner in a copy-less subtree takes nothing over. *)
let check_pdes seed =
  let rng = Rng.create ~seed in
  let m = 3 + Rng.int rng 8 in
  let b = Rng.int rng (min 4 m) in
  let params = Params.create ~m ~b () in
  let key = Printf.sprintf "request-path/pdes/%d" seed in
  let cluster = Cluster.create params in
  let status = Cluster.status cluster in
  let tree = Cluster.tree_of_key cluster key in
  let nsub = Params.subtree_count params in
  let holder =
    Array.init nsub (fun s -> Some (Subtrees.subtree_root tree ~subtree_id:s))
  in
  let fail p =
    Status_word.set_dead status p;
    let s = Subtrees.subtree_id_of_pid tree p in
    if holder.(s) = Some p then begin
      holder.(s) <- None;
      if Array.exists Option.is_some holder then
        holder.(s) <- Topology.insertion_target ~b tree status ~subtree_id:s
    end
  in
  let churn = ref [] in
  let dead = [| 0.1; 0.3; 0.5 |].(Rng.int rng 3) in
  let emptied = if b > 0 then Rng.int rng nsub else -1 in
  let rejoin = ref [] in
  List.iter
    (fun p ->
      if Subtrees.subtree_id_of_pid tree p = emptied then begin
        fail p;
        churn := Pdes_sim.Fail p :: !churn;
        if Rng.bool rng then rejoin := p :: !rejoin
      end)
    (Pid.all params);
  List.iter
    (fun p ->
      if Status_word.is_live status p && Rng.float rng 1.0 < dead then begin
        fail p;
        churn := Pdes_sim.Fail p :: !churn
      end)
    (Pid.all params);
  List.iter
    (fun p ->
      Status_word.set_live status p;
      churn := Pdes_sim.Join p :: !churn)
    (List.rev !rejoin);
  let churn =
    List.rev_map (fun action -> { Pdes_sim.at = 0.0; action }) !churn
  in
  let held i =
    Array.exists (fun h -> h = Some (Pid.unsafe_of_int i)) holder
  in
  let obs = Obs.create () in
  let r =
    Pdes_sim.run
      ~config:
        { Pdes_sim.default_config with
          capacity = infinity;
          latency = Latency.Constant 0.0005 }
      ~churn ~obs ~seed ~params ~key
      ~demand:(Demand.uniform status ~total:300.0)
      ~duration:1.0 ()
  in
  let failure = ref None in
  let fail_with msg =
    if !failure = None then
      failure := Some (Printf.sprintf "seed %d m=%d b=%d: %s" seed m b msg)
  in
  let resolved = ref 0 and expected_migrations = ref 0 in
  Obs.Span.iter obs.Obs.spans (function
    | Trace.Event.Span { name = "lookup"; origin; server; hops; _ } ->
        incr resolved;
        let ref_ =
          reference tree status ~held ~origin:(Pid.unsafe_of_int origin)
        in
        expected_migrations :=
          !expected_migrations + migrations tree ref_.path;
        let server = Option.value ~default:(-1) server in
        if server <> ref_.server || hops <> ref_.hops then
          fail_with
            (Printf.sprintf "origin %d: expected %s, got server %d, %d hops"
               origin (pp_outcome ref_) server hops)
    | _ -> ());
  (* A request still in flight at the horizon crossed some subtrees
     already: at most 2^b - 1 crossings each. *)
  let unresolved = r.Pdes_sim.requests - !resolved in
  if
    r.Pdes_sim.migrations < !expected_migrations
    || r.Pdes_sim.migrations > !expected_migrations + (unresolved * (nsub - 1))
  then
    fail_with
      (Printf.sprintf "migrations %d, expected %d (+ at most %d in flight)"
         r.Pdes_sim.migrations !expected_migrations (unresolved * (nsub - 1)));
  if !resolved = 0 then fail_with "no lookup resolved";
  if r.Pdes_sim.migrations > 0 then incr pdes_migrating_runs;
  !failure

let pdes_trials = List.init 40 (fun i -> 1000 + i)

let test_pdes_agrees () =
  pdes_migrating_runs := 0;
  (match first_failure check_pdes pdes_trials with
  | None -> ()
  | Some msg -> Alcotest.fail msg);
  if !pdes_migrating_runs < 10 then
    Alcotest.failf "only %d runs migrated" !pdes_migrating_runs

(* The mutation: landing on the next subtree's insertion target instead
   of the origin's mirror must be caught by the differential. *)
let test_broken_migration_caught () =
  let caught =
    Fun.protect
      ~finally:(fun () -> Topology.Testing.broken_migration := false)
      (fun () ->
        Topology.Testing.broken_migration := true;
        first_failure check_trial trials)
  in
  match caught with
  | Some _ -> ()
  | None -> Alcotest.fail "broken migration not caught by the differential"

(* --- Hop budget -----------------------------------------------------------

   All live, no copy anywhere, m = 12, b = 3: the request from the origin
   of subtree VID 0 in subtree 0 climbs m - b = 9 hops, then lands and
   climbs m - b + 1 = 10 hops in each of the 7 other subtrees — 79 hops,
   beyond the 6-bit hop field. The simulators must report a fault at
   [Wire.hops_max] hops, not wrap the field and route on. *)
let budget_params = Params.create ~m:12 ~b:3 ()

(* Every walk goes the whole bound inside its hop budget. With no copy,
   [Flow.serving_node] finds none and [Flow.inflows] sees the origin's
   demand reach the route's last node. With the one copy there,
   [Ops.get] is served after 79 hops. *)
let test_route_bound () =
  let cluster = Cluster.create budget_params in
  let key = "request-path/bound" in
  Cluster.register_key cluster key;
  let tree = Cluster.tree_of_key cluster key in
  let status = Cluster.status cluster in
  let origin = Pid.to_int (Ptree.pid_of_vid tree (Vid.unsafe_of_int 0)) in
  let rec last hops p =
    match Topology.route ~b:3 tree status ~origin p with
    | -1 -> (hops, p)
    | _ when hops >= 79 -> Alcotest.fail "route exceeds its 79-hop budget"
    | q -> last (hops + 1) q
  in
  let hops, end_ = last 0 origin in
  Alcotest.(check int) "2^b (m - b + 1) - 1 hops" 79 hops;
  let flow = Flow.create tree status and no_copy _ = false in
  Alcotest.(check (option int)) "Flow.serving_node: no copy" None
    (Option.map Pid.to_int
       (Flow.serving_node flow ~holders:no_copy ~origin:(Pid.unsafe_of_int origin)));
  let rates = Array.make (Params.space budget_params) 0.0 in
  rates.(origin) <- 5.0;
  Alcotest.(check (float 0.0)) "Flow.inflows at the route's end" 5.0
    (List.fold_left ( +. ) 0.0
       (List.map snd
          (Flow.inflows flow ~holders:no_copy ~demand:(Demand.of_rates rates)
             ~at:(Pid.unsafe_of_int end_))));
  Cluster.add cluster
    (Pid.unsafe_of_int end_)
    ~key ~origin:File_store.Replicated ~version:0 ~now:0.0;
  let got = Ops.get cluster ~origin:(Pid.unsafe_of_int origin) ~key in
  Alcotest.(check (option int)) "Ops.get served at the route's end"
    (Some end_) (Option.map Pid.to_int got.Ops.server);
  Alcotest.(check int) "Ops.get hops" 79 got.Ops.hops

let test_protocol_budget () =
  let cluster = Cluster.create budget_params in
  let key = "request-path/budget" in
  Cluster.register_key cluster key;
  let tree = Cluster.tree_of_key cluster key in
  let origin = Ptree.pid_of_vid tree (Vid.unsafe_of_int 0) in
  let rates = Array.make (Params.space budget_params) 0.0 in
  rates.(Pid.to_int origin) <- 5.0;
  let requests = ref [] in
  let r =
    Des_sim.run
      ~config:{ Des_sim.default_config with latency = Latency.Constant 0.001 }
      ~sink:(function
        | Trace.Event.Request { server; hops; _ } ->
            requests := (server, hops) :: !requests
        | _ -> ())
      ~rng:(Rng.create ~seed:3) ~cluster ~key ~demand:(Demand.of_rates rates)
      ~duration:2.0 ()
  in
  Alcotest.(check bool) "some requests" true (!requests <> []);
  Alcotest.(check int) "all faulted" (List.length !requests) r.Des_sim.faults;
  List.iter
    (fun (server, hops) ->
      Alcotest.(check (option int)) "no server" None server;
      Alcotest.(check int) "faulted at the hop budget" Wire.hops_max hops)
    !requests;
  Alcotest.(check int) "hops_max messages per request"
    (Wire.hops_max * r.Des_sim.faults) r.Des_sim.messages

(* [Pdes_sim] places the inserted copies itself; failing every node at
   t = 0 loses them all (a subtree's copy dies with its last member), and
   rejoining every node brings back the all-live membership with no copy
   anywhere: the same 79-hop route as above. *)
let test_pdes_budget () =
  let params = budget_params in
  let key = "request-path/budget" in
  let tree = Cluster.tree_of_key (Cluster.create params) key in
  let origin = Ptree.pid_of_vid tree (Vid.unsafe_of_int 0) in
  let churn =
    List.map (fun p -> { Pdes_sim.at = 0.0; action = Pdes_sim.Fail p })
      (Pid.all params)
    @ List.map (fun p -> { Pdes_sim.at = 0.0; action = Pdes_sim.Join p })
        (Pid.all params)
  in
  let rates = Array.make (Params.space params) 0.0 in
  rates.(Pid.to_int origin) <- 5.0;
  let obs = Obs.create () in
  let r =
    Pdes_sim.run
      ~config:
        { Pdes_sim.default_config with
          capacity = infinity;
          latency = Latency.Constant 0.001 }
      ~churn ~obs ~seed:5 ~params ~key ~demand:(Demand.of_rates rates)
      ~duration:2.0 ()
  in
  let spans = ref [] in
  Obs.Span.iter obs.Obs.spans (function
    | Trace.Event.Span { name = "lookup"; server; hops; _ } ->
        spans := (server, hops) :: !spans
    | _ -> ());
  Alcotest.(check int) "no copy left" 0 r.Pdes_sim.replicas_end;
  Alcotest.(check bool) "some lookups" true (!spans <> []);
  Alcotest.(check int) "every request faulted" r.Pdes_sim.requests
    r.Pdes_sim.faults;
  List.iter
    (fun (server, hops) ->
      Alcotest.(check (option int)) "no server" None server;
      Alcotest.(check int) "faulted at the hop budget" Wire.hops_max hops)
    !spans;
  Alcotest.(check int) "hops_max messages per request"
    (Wire.hops_max * r.Pdes_sim.faults) r.Pdes_sim.messages

let () =
  Alcotest.run "request-path"
    [
      ( "differential",
        [
          Alcotest.test_case "Ops.get = Protocol = Flow = reference" `Quick
            test_callers_agree;
          Alcotest.test_case "Pdes_sim lookups = reference" `Quick
            test_pdes_agrees;
          Alcotest.test_case "broken migration caught" `Quick
            test_broken_migration_caught;
        ] );
      ( "hop budget",
        [
          Alcotest.test_case "route bound reached" `Quick test_route_bound;
          Alcotest.test_case "Protocol faults at hops_max" `Quick
            test_protocol_budget;
          Alcotest.test_case "Pdes_sim faults at hops_max" `Quick
            test_pdes_budget;
        ] );
    ]
