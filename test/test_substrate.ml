(* The shared Substrate conformance suite and the native differential
   gate.

   Part 1 applies the same properties to all four adapters — native
   LessLog trees, Chord, Pastry, CAN — exactly as promised by the
   contract in lib/substrate/substrate.mli: routes terminate at the
   responsible node, neighbor sets are symmetric where the adapter
   guarantees it, and routing stays consistent across kill/revive cycles
   (epoch semantics).

   Part 2 is the refactor's differential gate: the native adapter driven
   through the substrate-parameterized simulator paths must produce the
   same trace event-for-event as the direct (substrate-less) code, in
   both Des_sim and Fault_sim, at b = 0 and in the fault-tolerant model
   (b = 2), and with the cold tier armed. *)

open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Substrate_native = Lesslog.Substrate_native
module Substrate = Lesslog_substrate.Substrate
module Chord_sub = Lesslog_substrate.Chord_sub
module Pastry_sub = Lesslog_substrate.Pastry_sub
module Can_sub = Lesslog_substrate.Can_sub
module Schedule = Lesslog_check.Schedule
module Des_sim = Lesslog_des.Des_sim
module Control_plane = Lesslog_des.Control_plane
module Rf_policy = Lesslog_policy.Rf_policy
module Demand = Lesslog_workload.Demand
module Fault_sim = Lesslog_des.Fault_sim
module Trace = Lesslog_trace.Trace
module Rng = Lesslog_prng.Rng

(* --- Part 1: conformance ----------------------------------------------- *)

(* All four adapters over one cluster, so a Status_word mutation plus
   [notify] is visible to every substrate at once. *)
let adapters cluster =
  let params = Cluster.params cluster in
  let status = Cluster.status cluster in
  let psi = Cluster.psi cluster in
  [
    Substrate_native.of_cluster cluster;
    Chord_sub.make params status psi;
    Pastry_sub.make params status psi;
    Can_sub.make params status;
  ]

let hop_cap params = 8 * Params.space params

let check_route sub params status ~key ~origin =
  let name = sub.Substrate.name in
  let path, terminated =
    Substrate.route_path sub ~key ~origin ~max_hops:(hop_cap params)
  in
  let finite =
    terminated
    || QCheck2.Test.fail_reportf "%s: route exceeded %d hops" name
         (hop_cap params)
  in
  let all_live =
    List.for_all (Status_word.is_live status) path
    || QCheck2.Test.fail_reportf "%s: route passed through a dead node" name
  in
  let at_owner =
    match sub.Substrate.owner ~key with
    | None -> QCheck2.Test.fail_reportf "%s: live nodes but no owner" name
    | Some o ->
        let last = List.nth path (List.length path - 1) in
        Pid.equal last o
        (* A terminated route not at the owner is a greedy dead end:
           allowed only on best-effort substrates, and only when some
           node is dead. *)
        || (not sub.Substrate.guaranteed_delivery)
           && Status_word.dead_count status > 0
        || QCheck2.Test.fail_reportf "%s: route ended at %d, owner is %d"
             name (Pid.to_int last) (Pid.to_int o)
  in
  finite && all_live && at_owner

(* m, key index, origin slot, kill list (slot indices into the live
   population, dedup'd at use). *)
let gen_case =
  QCheck2.Gen.(
    int_range 3 7 >>= fun m ->
    let space = 1 lsl m in
    quad (return m) (int_range 0 99)
      (int_range 0 (space - 1))
      (list_size (int_range 0 (space / 2)) (int_range 0 (space - 1))))

let print_case (m, k, origin, kills) =
  Printf.sprintf "m=%d key=k%d origin=%d kills=[%s]" m k origin
    (String.concat ";" (List.map string_of_int kills))

let prop_route_terminates =
  QCheck2.Test.make ~count:150 ~name:"route terminates at responsible node"
    ~print:print_case gen_case (fun (m, k, origin, _) ->
      let cluster = Cluster.create (Params.create ~m ()) in
      let params = Cluster.params cluster in
      let status = Cluster.status cluster in
      let key = Printf.sprintf "sub/k%d" k in
      List.for_all
        (fun sub ->
          check_route sub params status ~key ~origin:(Pid.of_int params origin))
        (adapters cluster))

let prop_neighbor_symmetry =
  QCheck2.Test.make ~count:100
    ~name:"neighbor symmetry where guaranteed" ~print:print_case gen_case
    (fun (m, k, _, kills) ->
      let cluster = Cluster.create (Params.create ~m ()) in
      let params = Cluster.params cluster in
      let status = Cluster.status cluster in
      let key = Printf.sprintf "sub/k%d" k in
      let subs = adapters cluster in
      (* Symmetry must hold on any population, not just the full one. *)
      List.iter
        (fun s ->
          if Status_word.live_count status > 1 then
            Status_word.set_dead status (Pid.of_int params s))
        kills;
      List.iter (fun sub -> sub.Substrate.notify ()) subs;
      List.for_all
        (fun sub ->
          (not sub.Substrate.symmetric_neighbors)
          || Status_word.fold_live status ~init:true ~f:(fun ok p ->
                 ok
                 && List.for_all
                      (fun q ->
                        List.exists (Pid.equal p)
                          (sub.Substrate.neighbors ~key q)
                        || QCheck2.Test.fail_reportf
                             "%s: %d lists %d but not vice versa"
                             sub.Substrate.name (Pid.to_int p) (Pid.to_int q))
                      (sub.Substrate.neighbors ~key p)))
        subs)

let prop_kill_revive_consistency =
  QCheck2.Test.make ~count:100
    ~name:"routing consistent under kill/revive" ~print:print_case gen_case
    (fun (m, k, origin, kills) ->
      let cluster = Cluster.create (Params.create ~m ()) in
      let params = Cluster.params cluster in
      let status = Cluster.status cluster in
      let key = Printf.sprintf "sub/k%d" k in
      let subs = adapters cluster in
      let owner0 =
        List.map (fun sub -> sub.Substrate.owner ~key) subs
      in
      (* Kill a subset (keeping at least two nodes live), notify, and
         check every adapter routes in the shrunken system. *)
      List.iter
        (fun s ->
          if Status_word.live_count status > 2 then
            Status_word.set_dead status (Pid.of_int params s))
        kills;
      List.iter (fun sub -> sub.Substrate.notify ()) subs;
      let origin =
        let p = Pid.of_int params origin in
        if Status_word.is_live status p then p
        else List.hd (Status_word.live_pids status)
      in
      let shrunken_ok =
        List.for_all
          (fun sub ->
            (match sub.Substrate.owner ~key with
            | None ->
                QCheck2.Test.fail_reportf "%s: no owner with live nodes"
                  sub.Substrate.name
            | Some o ->
                Status_word.is_live status o
                || QCheck2.Test.fail_reportf "%s: dead owner %d"
                     sub.Substrate.name (Pid.to_int o))
            && check_route sub params status ~key ~origin)
          subs
      in
      (* Revive everything: every adapter must return to its original
         all-live answer (no stale epoch state). *)
      List.iter
        (fun p -> Status_word.set_live status p)
        (Status_word.dead_pids status);
      List.iter (fun sub -> sub.Substrate.notify ()) subs;
      shrunken_ok
      && List.for_all2
           (fun sub o0 ->
             sub.Substrate.owner ~key = o0
             || QCheck2.Test.fail_reportf "%s: owner drifted after revive"
                  sub.Substrate.name)
           subs owner0)

let prop_replica_target_fresh =
  QCheck2.Test.make ~count:80
    ~name:"replica target is live and not a holder" ~print:print_case
    gen_case (fun (m, k, origin, _) ->
      let cluster = Cluster.create (Params.create ~m ()) in
      let params = Cluster.params cluster in
      let status = Cluster.status cluster in
      let key = Printf.sprintf "sub/k%d" k in
      let overloaded = Pid.of_int params origin in
      let rng = Rng.create ~seed:(m + k) in
      let holds p = Pid.equal p overloaded in
      List.for_all
        (fun sub ->
          match
            sub.Substrate.replica_target ~rng ~holds ~overloaded ~key
          with
          | None -> true
          | Some p ->
              Status_word.is_live status p
              && (not (holds p))
              || QCheck2.Test.fail_reportf "%s: bad replica target %d"
                   sub.Substrate.name (Pid.to_int p))
        (adapters cluster))

(* --- Part 2: native differential gate ---------------------------------- *)

let scalars_des (r : Des_sim.result) =
  ( r.Des_sim.served,
    r.Des_sim.faults,
    r.Des_sim.replicas_created,
    r.Des_sim.messages,
    r.Des_sim.control_messages,
    r.Des_sim.file_transfers,
    r.Des_sim.events )

let scalars_faults (r : Fault_sim.result) =
  ( r.Fault_sim.issued,
    r.Fault_sim.served,
    r.Fault_sim.faulted,
    r.Fault_sim.replicas_created,
    r.Fault_sim.migrations,
    r.Fault_sim.lost_keys,
    r.Fault_sim.messages )

let fresh_cluster ~b (sch : Schedule.t) =
  let cluster = Cluster.create (Params.create ~m:sch.Schedule.m ~b ()) in
  for i = 0 to sch.Schedule.keys - 1 do
    ignore (Ops.insert cluster ~key:(Schedule.key_of_index i))
  done;
  cluster

let des_events ~b substrate (sch : Schedule.t) =
  let cluster = fresh_cluster ~b sch in
  let substrate =
    if substrate then Some (Substrate_native.of_cluster cluster) else None
  in
  let events = ref [] in
  let r =
    Des_sim.run
      ~config:{ Des_sim.default_config with capacity = sch.Schedule.capacity }
      ~churn:(Schedule.to_churn sch)
      ~sink:(fun e -> events := e :: !events)
      ?substrate
      ~rng:(Rng.create ~seed:sch.Schedule.seed)
      ~cluster
      ~key:(Schedule.key_of_index 0)
      ~demand:(Schedule.demand sch (Cluster.status cluster))
      ~duration:sch.Schedule.duration ()
  in
  (List.rev !events, r)

let fault_events ~b substrate (sch : Schedule.t) =
  let cluster = fresh_cluster ~b sch in
  let substrate =
    if substrate then Some (Substrate_native.of_cluster cluster) else None
  in
  let events = ref [] in
  let r =
    Fault_sim.run
      ~config:
        { Fault_sim.default_config with capacity = sch.Schedule.capacity }
      ~plan:(Schedule.to_plan sch)
      ~sink:(fun e -> events := e :: !events)
      ?substrate
      ~rng:(Rng.create ~seed:sch.Schedule.seed)
      ~cluster
      ~key:(Schedule.key_of_index 0)
      ~demand:(Schedule.demand sch (Cluster.status cluster))
      ~duration:sch.Schedule.duration ()
  in
  (List.rev !events, r)

(* Des_sim with the cold tier armed under a trickle (the seed matrix's
   cold run): idle intervals demote to fragments, bursts promote, and two
   low-PID failures force fragment repair — every placement the cold tier
   makes runs through the substrate when one is given. *)
let des_cold_events ~b substrate =
  let params = Params.create ~m:7 ~b () in
  let cluster = Cluster.create params in
  let key = "differential/cold" in
  ignore (Ops.insert cluster ~key);
  let substrate =
    if substrate then Some (Substrate_native.of_cluster cluster) else None
  in
  let policy =
    Rf_policy.create
      ~config:
        {
          Rf_policy.default_config with
          Rf_policy.interval = 0.25;
          rf_max = Params.space params;
          capacity = Some 100.0;
        }
      ~nodes:(Params.space params) ~files:1 ()
  in
  let churn =
    [ { Des_sim.at = 1.3; action = Des_sim.Fail (Pid.unsafe_of_int 0) };
      { Des_sim.at = 2.1; action = Des_sim.Fail (Pid.unsafe_of_int 1) } ]
  in
  let events = ref [] in
  let r =
    Des_sim.run ~churn ~policy
      ~cold_tier:
        { Control_plane.default_cold_tier with Control_plane.demote_after = 1 }
      ~sink:(fun e -> events := e :: !events)
      ?substrate ~rng:(Rng.create ~seed:9) ~cluster ~key
      ~demand:(Demand.uniform (Cluster.status cluster) ~total:4.0)
      ~duration:4.0 ()
  in
  (List.rev !events, r)

let scalars_cold (r : Des_sim.result) = (scalars_des r, r.Des_sim.cold)

let check_identical name (direct_ev, direct_r) (via_ev, via_r) scalars =
  Alcotest.(check int)
    (name ^ ": event count")
    (List.length direct_ev) (List.length via_ev);
  List.iteri
    (fun i (d, v) ->
      if not (Trace.Event.equal d v) then
        Alcotest.failf "%s: event %d differs:\n  direct: %s\n  via:    %s"
          name i (Trace.Event.to_line d) (Trace.Event.to_line v))
    (List.combine direct_ev via_ev);
  if scalars direct_r <> scalars via_r then
    Alcotest.failf "%s: result counters differ" name

let test_des_differential ~b () =
  List.iter
    (fun seed ->
      let sch = Schedule.generate ~seed ~m:6 ~sim:Schedule.Des in
      check_identical
        (Printf.sprintf "des b=%d seed %d" b seed)
        (des_events ~b false sch) (des_events ~b true sch) scalars_des)
    [ 7; 42; 1234 ]

let test_faults_differential ~b () =
  List.iter
    (fun seed ->
      let sch = Schedule.generate ~seed ~m:6 ~sim:Schedule.Faults in
      let sch = { sch with Schedule.duration = 10.0 } in
      check_identical
        (Printf.sprintf "faults b=%d seed %d" b seed)
        (fault_events ~b false sch) (fault_events ~b true sch) scalars_faults)
    [ 7; 42 ]

let test_cold_differential ~b () =
  check_identical
    (Printf.sprintf "des cold tier b=%d" b)
    (des_cold_events ~b false) (des_cold_events ~b true) scalars_cold

(* The shootout's own gate, exercised at test scale: the report must
   self-certify the native digest. *)
let test_shootout_gate () =
  let report = Lesslog_harness.Shootout.run ~quick:true ~seed:9 ~m:5 () in
  Alcotest.(check bool)
    "native digest matches direct path" true
    report.Lesslog_harness.Shootout.native_digest_match;
  Alcotest.(check int)
    "four rows" 4
    (List.length report.Lesslog_harness.Shootout.rows)

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "substrate"
    [
      ( "conformance",
        to_alcotest
          [
            prop_route_terminates;
            prop_neighbor_symmetry;
            prop_kill_revive_consistency;
            prop_replica_target_fresh;
          ] );
      ( "differential",
        [
          Alcotest.test_case "des: native via substrate = direct" `Quick
            (test_des_differential ~b:0);
          Alcotest.test_case "faults: native via substrate = direct" `Quick
            (test_faults_differential ~b:0);
          Alcotest.test_case "des b=2: native via substrate = direct" `Quick
            (test_des_differential ~b:2);
          Alcotest.test_case "faults b=2: native via substrate = direct"
            `Quick (test_faults_differential ~b:2);
          Alcotest.test_case "des cold tier: native via substrate = direct"
            `Quick (test_cold_differential ~b:0);
          Alcotest.test_case
            "des cold tier b=2: native via substrate = direct" `Quick
            (test_cold_differential ~b:2);
          Alcotest.test_case "shootout digest gate" `Quick test_shootout_gate;
        ] );
    ]
