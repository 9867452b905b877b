(* Seed-matrix differential: a fixed set of runs through every simulator
   path the policy/cold-tier control plane and the shared node protocol
   (route, overload trigger, replica push, membership repair) touch, each
   pinned field by field. A refactor that keeps every field here has not changed what the
   simulators compute; a change that moves a field must say which one and
   why. *)

open Lesslog_id
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Demand = Lesslog_workload.Demand
module Status_word = Lesslog_membership.Status_word
module Subtrees = Lesslog_topology.Subtrees
module Des_sim = Lesslog_des.Des_sim
module Fault_sim = Lesslog_des.Fault_sim
module Faults = Lesslog_workload.Faults
module Chord_sub = Lesslog_substrate.Chord_sub
module Histogram = Lesslog_metrics.Histogram
module Timeseries = Lesslog_metrics.Timeseries
module Control_plane = Lesslog_des.Control_plane
module Pdes_sim = Lesslog_des.Pdes_sim
module Experiments = Lesslog_harness.Experiments
module Rf_policy = Lesslog_policy.Rf_policy
module Rng = Lesslog_prng.Rng
module Trace = Lesslog_trace.Trace
module Fnv = Lesslog_hash.Fnv

let i = string_of_int
let f = Printf.sprintf "%h"
let b = string_of_bool

let policy_for params =
  Rf_policy.create
    ~config:
      {
        Rf_policy.default_config with
        Rf_policy.interval = 0.25;
        rf_max = Params.space params;
        capacity = Some 100.0;
      }
    ~nodes:(Params.space params) ~files:1 ()

(* Des_sim under the dynamic-RF policy, with one failure and its rejoin
   so the churn path runs too. The trace digest pins the event stream. *)
let des_policy seed =
  let params = Params.create ~m:6 () in
  let cluster = Cluster.create params in
  let key = "matrix/object" in
  ignore (Ops.insert cluster ~key);
  let victim = Pid.unsafe_of_int 5 in
  let churn =
    [ { Des_sim.at = 1.1; action = Des_sim.Fail victim };
      { Des_sim.at = 1.9; action = Des_sim.Join victim } ]
  in
  let buf = Buffer.create 65536 in
  let writer = Trace.Writer.to_buffer buf in
  let r =
    Des_sim.run ~churn ~policy:(policy_for params)
      ~sink:(Trace.Writer.emit writer) ~rng:(Rng.create ~seed) ~cluster ~key
      ~demand:(Demand.uniform (Cluster.status cluster) ~total:800.0)
      ~duration:2.5 ()
  in
  [
    ("digest", i (Fnv.hash63 (Buffer.contents buf)));
    ("trace events", i (Trace.Writer.count writer));
    ("served", i r.Des_sim.served);
    ("faults", i r.Des_sim.faults);
    ("replicas created", i r.Des_sim.replicas_created);
    ("replicas evicted", i r.Des_sim.replicas_evicted);
    ("replicas end", i (Cluster.total_copies cluster ~key));
    ("messages", i r.Des_sim.messages);
    ("control messages", i r.Des_sim.control_messages);
    ("file transfers", i r.Des_sim.file_transfers);
    ("events", i r.Des_sim.events);
    ("no cold ledger", b (r.Des_sim.cold = None));
  ]

(* Des_sim with the cold tier armed under a trickle: idle intervals
   classify Cold and demote, bursts promote, and two low-PID failures
   (where fragments sit) exercise fragment repair. At [b = 2] fragments
   spread one per subtree and the climb migrates between subtrees. *)
let des_cold ~b:fanout () =
  let params = Params.create ~m:7 ~b:fanout () in
  let cluster = Cluster.create params in
  let key = "matrix/cold" in
  ignore (Ops.insert cluster ~key);
  let churn =
    [ { Des_sim.at = 1.3; action = Des_sim.Fail (Pid.unsafe_of_int 0) };
      { Des_sim.at = 2.1; action = Des_sim.Fail (Pid.unsafe_of_int 1) } ]
  in
  let cold_tier = { Control_plane.default_cold_tier with Control_plane.demote_after = 1 } in
  let buf = Buffer.create 65536 in
  let writer = Trace.Writer.to_buffer buf in
  let r =
    Des_sim.run ~churn ~policy:(policy_for params) ~cold_tier
      ~sink:(Trace.Writer.emit writer) ~rng:(Rng.create ~seed:9) ~cluster ~key
      ~demand:(Demand.uniform (Cluster.status cluster) ~total:4.0)
      ~duration:4.0 ()
  in
  let c = Option.get r.Des_sim.cold in
  [
    ("digest", i (Fnv.hash63 (Buffer.contents buf)));
    ("trace events", i (Trace.Writer.count writer));
    ("served", i r.Des_sim.served);
    ("faults", i r.Des_sim.faults);
    ("replicas created", i r.Des_sim.replicas_created);
    ("replicas evicted", i r.Des_sim.replicas_evicted);
    ("replicas end", i (Cluster.total_copies cluster ~key));
    ("messages", i r.Des_sim.messages);
    ("control messages", i r.Des_sim.control_messages);
    ("file transfers", i r.Des_sim.file_transfers);
    ("events", i r.Des_sim.events);
    ("demotions", i c.Control_plane.demotions);
    ("promotions", i c.Control_plane.promotions);
    ("fragment repairs", i c.Control_plane.fragment_repairs);
    ("lost", b c.Control_plane.lost_cold);
    ("coded at end", b c.Control_plane.coded_at_end);
    ("coded serves", i c.Control_plane.coded_serves);
    ("bytes end", i c.Control_plane.bytes_stored_end);
    ("mean bytes", f c.Control_plane.mean_bytes_stored);
    ("bytes moved", i c.Control_plane.bytes_moved);
    ("repair bytes", i c.Control_plane.repair_bytes);
  ]

let coldtier_arm hybrid =
  let p = Experiments.coldtier_point ~m:9 ~calm_duration:10.0 ~hybrid () in
  [
    ("requests", i p.Experiments.ct_requests);
    ("served", i p.Experiments.ct_served);
    ("faults", i p.Experiments.ct_faults);
    ("demotions", i p.Experiments.ct_demotions);
    ("promotions", i p.Experiments.ct_promotions);
    ("fragment repairs", i p.Experiments.ct_fragment_repairs);
    ("coded serves", i p.Experiments.ct_coded_serves);
    ("mean bytes", f p.Experiments.ct_mean_bytes);
    ("bytes moved", i p.Experiments.ct_bytes_moved);
    ("repair bytes", i p.Experiments.ct_repair_bytes);
    ("bytes end", i p.Experiments.ct_bytes_end);
    ("lost", b p.Experiments.ct_lost);
  ]

let pdes_fields (r : Pdes_sim.result) =
  [
    ("digest", i r.Pdes_sim.digest);
    ("served", i r.Pdes_sim.served);
    ("faults", i r.Pdes_sim.faults);
    ("requests", i r.Pdes_sim.requests);
    ("migrations", i r.Pdes_sim.migrations);
    ("replicas created", i r.Pdes_sim.replicas_created);
    ("replicas end", i r.Pdes_sim.replicas_end);
    ("messages", i r.Pdes_sim.messages);
    ("control messages", i r.Pdes_sim.control_messages);
    ("file transfers", i r.Pdes_sim.file_transfers);
    ("events", i r.Pdes_sim.events);
  ]

(* --- Node-protocol runs: the native overload trigger, replica push and
   Section 5 repair through Des_sim, Fault_sim and Pdes_sim. --- *)

let hist name h =
  [ (name ^ " count", i (Histogram.count h)); (name ^ " mean", f (Histogram.mean h)) ]

let trace_run run =
  let buf = Buffer.create 65536 in
  let writer = Trace.Writer.to_buffer buf in
  let fields = run (Trace.Writer.emit writer) in
  ("digest", i (Fnv.hash63 (Buffer.contents buf)))
  :: ("trace events", i (Trace.Writer.count writer))
  :: fields

(* A cluster with [key] inserted natively, or through Chord when
   [chord]; returns the first inserted holder too. *)
let setup ~m ~b ~chord key =
  let params = Params.create ~m ~b () in
  let cluster = Cluster.create params in
  let substrate =
    if chord then
      Some
        (Chord_sub.make params (Cluster.status cluster) (Cluster.psi cluster))
    else None
  in
  let holders =
    match substrate with
    | None -> Ops.insert cluster ~key
    | Some s -> Ops.insert_via s cluster ~key
  in
  (cluster, substrate, List.hd holders)

(* Fault_sim with a crash of the first inserted holder at [holder_crash]
   (early enough over Chord that it is the sole holder: a lost key), a
   crash and restart, a loss burst and a partition: the detector drives
   Self_org (or the Generic repair over Chord) through fail, leave and
   join. *)
let fault_run ~b ~chord ~holder_crash () =
  let key = "matrix/faults" in
  let cluster, substrate, holder = setup ~m:6 ~b ~chord key in
  let p = Pid.unsafe_of_int in
  let plan =
    {
      Faults.crashes =
        [ { Faults.node = holder; at = holder_crash; restart_at = None };
          { Faults.node = p 9; at = 2.0; restart_at = Some 4.5 } ];
      bursts = [ { Faults.from_ = 1.0; until = 2.5; loss = 0.3 } ];
      partitions =
        [ { Faults.from_ = 3.0; until = 4.0;
            group = List.init 8 (fun k -> p (40 + k));
            direction = Faults.Both } ];
    }
  in
  trace_run (fun sink ->
      let r =
        Fault_sim.run ~plan ~sink ?substrate ~rng:(Rng.create ~seed:21)
          ~cluster ~key
          ~demand:(Demand.uniform (Cluster.status cluster) ~total:700.0)
          ~duration:8.0 ()
      in
      [
        ("issued", i r.Fault_sim.issued);
        ("served", i r.Fault_sim.served);
        ("faulted", i r.Fault_sim.faulted);
        ("pending", i r.Fault_sim.pending_at_end);
        ("within deadline", i r.Fault_sim.within_deadline);
        ("duplicate serves", i r.Fault_sim.duplicate_serves);
        ("retransmissions", i r.Fault_sim.retransmissions);
        ("timeouts", i r.Fault_sim.timeouts);
        ("replicas created", i r.Fault_sim.replicas_created);
        ("suspicions", i r.Fault_sim.suspicions);
        ("recoveries", i r.Fault_sim.recoveries);
        ("spurious suspicions", i r.Fault_sim.spurious_suspicions);
        ("migrations", i r.Fault_sim.migrations);
        ("spurious migrations", i r.Fault_sim.spurious_migrations);
        ("crashes", i r.Fault_sim.crashes);
        ("restarts", i r.Fault_sim.restarts);
        ("lost keys", i r.Fault_sim.lost_keys);
        ("agreement", f r.Fault_sim.detector_agreement);
        ( "convergence",
          match r.Fault_sim.convergence with None -> "none" | Some c -> f c );
        ("messages", i r.Fault_sim.messages);
        ("replicas end", i (Cluster.total_copies cluster ~key));
      ]
      @ hist "latency" r.Fault_sim.latencies
      @ hist "hops" r.Fault_sim.hops)

(* Fault_sim with overlapping disturbances of the same kind: two bursts
   with the same loss value over a third with another (ending one burst
   removes a single occurrence of its value), a [Both] and an [Inbound]
   partition that overlap (ending one removes that partition's own cut),
   and a crash and a restart at instants that are also sampling ticks and
   heartbeat rounds, so their same-time order is pinned too. *)
let fault_overlap () =
  let key = "matrix/overlap" in
  let cluster, substrate, _ = setup ~m:6 ~b:1 ~chord:false key in
  let p = Pid.unsafe_of_int in
  let plan =
    {
      Faults.crashes =
        [ { Faults.node = p 21; at = 1.5; restart_at = Some 4.5 } ];
      bursts =
        [ { Faults.from_ = 1.0; until = 2.5; loss = 0.3 };
          { Faults.from_ = 1.5; until = 3.0; loss = 0.3 };
          { Faults.from_ = 2.0; until = 3.5; loss = 0.15 } ];
      partitions =
        [ { Faults.from_ = 2.0; until = 3.5;
            group = List.init 8 (fun k -> p (40 + k));
            direction = Faults.Both };
          { Faults.from_ = 2.5; until = 4.0;
            group = List.init 8 (fun k -> p (36 + k));
            direction = Faults.Inbound } ];
    }
  in
  trace_run (fun sink ->
      let r =
        Fault_sim.run ~plan ~sink ?substrate ~rng:(Rng.create ~seed:33)
          ~cluster ~key
          ~demand:(Demand.uniform (Cluster.status cluster) ~total:600.0)
          ~duration:6.0 ()
      in
      [
        ("issued", i r.Fault_sim.issued);
        ("served", i r.Fault_sim.served);
        ("faulted", i r.Fault_sim.faulted);
        ("pending", i r.Fault_sim.pending_at_end);
        ("within deadline", i r.Fault_sim.within_deadline);
        ("duplicate serves", i r.Fault_sim.duplicate_serves);
        ("retransmissions", i r.Fault_sim.retransmissions);
        ("timeouts", i r.Fault_sim.timeouts);
        ("replicas created", i r.Fault_sim.replicas_created);
        ("suspicions", i r.Fault_sim.suspicions);
        ("recoveries", i r.Fault_sim.recoveries);
        ("spurious suspicions", i r.Fault_sim.spurious_suspicions);
        ("migrations", i r.Fault_sim.migrations);
        ("spurious migrations", i r.Fault_sim.spurious_migrations);
        ("crashes", i r.Fault_sim.crashes);
        ("restarts", i r.Fault_sim.restarts);
        ("lost keys", i r.Fault_sim.lost_keys);
        ("agreement", f r.Fault_sim.detector_agreement);
        ( "convergence",
          match r.Fault_sim.convergence with None -> "none" | Some c -> f c );
        ("agreement samples", i (Timeseries.length r.Fault_sim.agreement_timeline));
        ("messages", i r.Fault_sim.messages);
        ("replicas end", i (Cluster.total_copies cluster ~key));
      ]
      @ hist "latency" r.Fault_sim.latencies
      @ hist "hops" r.Fault_sim.hops)

(* Des_sim under the native overload trigger with Join/Leave/Fail churn
   (the first inserted holder fails and rejoins) and counter-based
   eviction. *)
let des_run ~b ~chord () =
  let key = "matrix/des" in
  let cluster, substrate, holder = setup ~m:6 ~b ~chord key in
  let p = Pid.unsafe_of_int in
  let churn =
    [ { Des_sim.at = 1.2; action = Des_sim.Leave (p 12) };
      { Des_sim.at = 1.6; action = Des_sim.Fail (p 33) };
      { Des_sim.at = 2.2; action = Des_sim.Join (p 12) };
      { Des_sim.at = 2.4; action = Des_sim.Fail holder };
      { Des_sim.at = 3.0; action = Des_sim.Join holder } ]
  in
  let config =
    {
      Des_sim.default_config with
      Des_sim.eviction = Some { Des_sim.period = 0.5; min_rate = 20.0 };
    }
  in
  trace_run (fun sink ->
      let r =
        Des_sim.run ~config ~churn ~sink ?substrate ~rng:(Rng.create ~seed:17)
          ~cluster ~key
          ~demand:(Demand.uniform (Cluster.status cluster) ~total:900.0)
          ~duration:3.5 ()
      in
      [
        ("served", i r.Des_sim.served);
        ("faults", i r.Des_sim.faults);
        ("replicas created", i r.Des_sim.replicas_created);
        ("replicas evicted", i r.Des_sim.replicas_evicted);
        ("replicas end", i (Cluster.total_copies cluster ~key));
        ("timeline", i (Timeseries.length r.Des_sim.replica_timeline));
        ( "last replication",
          match r.Des_sim.last_replication with None -> "none" | Some t -> f t );
        ("messages", i r.Des_sim.messages);
        ("control messages", i r.Des_sim.control_messages);
        ("file transfers", i r.Des_sim.file_transfers);
        ("overloaded at end", i r.Des_sim.overloaded_at_end);
        ("events", i r.Des_sim.events);
      ]
      @ hist "latency" r.Des_sim.latencies
      @ hist "hops" r.Des_sim.hops)

(* Pdes_sim's native overload trigger (no policy) under churn. *)
let pdes_native ~b () =
  let params = Params.create ~m:7 ~b () in
  let status = Status_word.create params ~initially_live:true in
  let p = Pid.unsafe_of_int in
  let churn =
    [ { Pdes_sim.at = 0.5; action = Pdes_sim.Fail (p 3) };
      { Pdes_sim.at = 0.9; action = Pdes_sim.Leave (p 70) };
      { Pdes_sim.at = 1.4; action = Pdes_sim.Join (p 3) } ]
  in
  pdes_fields
    (Pdes_sim.run ~churn ~seed:77 ~params ~key:"matrix/pdes"
       ~demand:(Demand.uniform status ~total:1200.0)
       ~duration:2.0 ())

(* A native run that migrates: at t = 0 one subtree is emptied and every
   other member rejoins, which leaves it live but with no copy, so its
   requests cross into the next subtree (the [test_request_path]
   construction). *)
let pdes_migrate () =
  let params = Params.create ~m:7 ~b:2 () in
  let key = "matrix/migrate" in
  let tree = Cluster.tree_of_key (Cluster.create params) key in
  let members = Subtrees.members tree ~subtree_id:1 in
  let at action = { Pdes_sim.at = 0.0; action } in
  let churn =
    List.map (fun p -> at (Pdes_sim.Fail p)) members
    @ List.filteri (fun i _ -> i mod 2 = 0)
        (List.map (fun p -> at (Pdes_sim.Join p)) members)
  in
  let status = Status_word.create params ~initially_live:true in
  pdes_fields
    (Pdes_sim.run ~churn ~seed:31 ~params ~key
       ~demand:(Demand.uniform status ~total:1200.0)
       ~duration:2.0 ())

let check name run expected () =
  let actual = run () in
  Alcotest.(check (list string))
    (name ^ ": fields") (List.map fst expected) (List.map fst actual);
  List.iter2
    (fun (field, want) (_, got) ->
      Alcotest.(check string) (name ^ ": " ^ field) want got)
    expected actual

(* --- Pins ---------------------------------------------------------- *)

let des_policy_1 =
  [
    ("digest", "3438199416720866857");
    ("trace events", "1971");
    ("served", "1960");
    ("faults", "0");
    ("replicas created", "8");
    ("replicas evicted", "1");
    ("replicas end", "8");
    ("messages", "6279");
    ("control messages", "127");
    ("file transfers", "0");
    ("events", "8211");
    ("no cold ledger", "true");
  ]

let des_policy_2 =
  [
    ("digest", "3852399567933710350");
    ("trace events", "1906");
    ("served", "1895");
    ("faults", "0");
    ("replicas created", "8");
    ("replicas evicted", "1");
    ("replicas end", "8");
    ("messages", "6151");
    ("control messages", "127");
    ("file transfers", "0");
    ("events", "8039");
    ("no cold ledger", "true");
  ]

let des_policy_3 =
  [
    ("digest", "365837591415857703");
    ("trace events", "1918");
    ("served", "1908");
    ("faults", "0");
    ("replicas created", "8");
    ("replicas evicted", "0");
    ("replicas end", "9");
    ("messages", "6029");
    ("control messages", "127");
    ("file transfers", "0");
    ("events", "7913");
    ("no cold ledger", "true");
  ]

let des_cold_pins =
  [
    ("digest", "302523151055141986");
    ("trace events", "26");
    ("served", "24");
    ("faults", "0");
    ("replicas created", "0");
    ("replicas evicted", "0");
    ("replicas end", "2");
    ("messages", "63");
    ("control messages", "253");
    ("file transfers", "0");
    ("events", "104");
    ("demotions", "2");
    ("promotions", "2");
    ("fragment repairs", "2");
    ("lost", "false");
    ("coded at end", "false");
    ("coded serves", "15");
    ("bytes end", "2097152");
    ("mean bytes", "0x1.6ccd1p+20");
    ("bytes moved", "11534364");
    ("repair bytes", "2306876");
  ]

let des_cold_b2_pins =
  [
    ("digest", "4173734458890842015");
    ("trace events", "24");
    ("served", "22");
    ("faults", "0");
    ("replicas created", "0");
    ("replicas evicted", "0");
    ("replicas end", "4");
    ("messages", "57");
    ("control messages", "253");
    ("file transfers", "0");
    ("events", "95");
    ("demotions", "1");
    ("promotions", "1");
    ("fragment repairs", "2");
    ("lost", "false");
    ("coded at end", "false");
    ("coded serves", "15");
    ("bytes end", "4194304");
    ("mean bytes", "0x1.e3337cp+20");
    ("bytes moved", "9017772");
    ("repair bytes", "2306876");
  ]

let coldtier_full =
  [
    ("requests", "1418");
    ("served", "1418");
    ("faults", "0");
    ("demotions", "0");
    ("promotions", "0");
    ("fragment repairs", "0");
    ("coded serves", "0");
    ("mean bytes", "0x1.b237237237236p+21");
    ("bytes moved", "10485760");
    ("repair bytes", "0");
    ("bytes end", "5242880");
    ("lost", "false");
  ]

let coldtier_hybrid =
  [
    ("requests", "1386");
    ("served", "1386");
    ("faults", "0");
    ("demotions", "1");
    ("promotions", "1");
    ("fragment repairs", "2");
    ("coded serves", "62");
    ("mean bytes", "0x1.1a17c313b13b1p+21");
    ("bytes moved", "15309228");
    ("repair bytes", "2306876");
    ("bytes end", "5242880");
    ("lost", "false");
  ]

let faults_native_b0 =
  [
    ("digest", "543026618704040488");
    ("trace events", "6713");
    ("issued", "3534");
    ("served", "3534");
    ("faulted", "0");
    ("pending", "0");
    ("within deadline", "3106");
    ("duplicate serves", "148");
    ("retransmissions", "1580");
    ("timeouts", "1580");
    ("replicas created", "13");
    ("suspicions", "2");
    ("recoveries", "1");
    ("spurious suspicions", "1");
    ("migrations", "2");
    ("spurious migrations", "1");
    ("crashes", "2");
    ("restarts", "1");
    ("lost keys", "0");
    ("agreement", "0x1p+0");
    ("convergence", "0x0p+0");
    ("messages", "14072");
    ("replicas end", "13");
    ("latency count", "3534");
    ("latency mean", "0x1.5e3493aa4d7e2p-1");
    ("hops count", "3534");
    ("hops mean", "0x1.b996d17e7a913p+0");
  ]

(* Pinned on the one Section 4 request step, [Topology.route] (checked
   by test_request_path): at b > 0 a request climbs its own subtree,
   then migrates to the origin's mirror in the next subtree. *)
let faults_native_b2 =
  [
    ("digest", "4358342607630721873");
    ("trace events", "7147");
    ("issued", "3559");
    ("served", "3559");
    ("faulted", "0");
    ("pending", "0");
    ("within deadline", "3082");
    ("duplicate serves", "124");
    ("retransmissions", "1786");
    ("timeouts", "1786");
    ("replicas created", "10");
    ("suspicions", "2");
    ("recoveries", "1");
    ("spurious suspicions", "1");
    ("migrations", "2");
    ("spurious migrations", "1");
    ("crashes", "2");
    ("restarts", "1");
    ("lost keys", "0");
    ("agreement", "0x1p+0");
    ("convergence", "0x0p+0");
    ("messages", "13436");
    ("replicas end", "14");
    ("latency count", "3559");
    ("latency mean", "0x1.805b8e3771367p-1");
    ("hops count", "3559");
    ("hops mean", "0x1.7ef4fea22185p+0");
  ]

let faults_chord =
  [
    ("digest", "3455452744773737417");
    ("trace events", "12003");
    ("issued", "3521");
    ("served", "3521");
    ("faulted", "0");
    ("pending", "0");
    ("within deadline", "2047");
    ("duplicate serves", "21");
    ("retransmissions", "4235");
    ("timeouts", "4235");
    ("replicas created", "6");
    ("suspicions", "2");
    ("recoveries", "1");
    ("spurious suspicions", "0");
    ("migrations", "2");
    ("spurious migrations", "0");
    ("crashes", "2");
    ("restarts", "1");
    ("lost keys", "1");
    ("agreement", "0x1p+0");
    ("convergence", "0x0p+0");
    ("messages", "24192");
    ("replicas end", "7");
    ("latency count", "3521");
    ("latency mean", "0x1.ba889e2003558p+0");
    ("hops count", "3521");
    ("hops mean", "0x1.1cb817d9077d2p+1");
  ]

(* Pinned on the one Section 4 request step, [Topology.route] (checked
   by test_request_path): at b > 0 a request climbs its own subtree,
   then migrates to the origin's mirror in the next subtree. *)
let faults_overlap =
  [
    ("digest", "3167926789325064975");
    ("trace events", "6995");
    ("issued", "2352");
    ("served", "2348");
    ("faulted", "0");
    ("pending", "4");
    ("within deadline", "1589");
    ("duplicate serves", "200");
    ("retransmissions", "2311");
    ("timeouts", "2311");
    ("replicas created", "7");
    ("suspicions", "7");
    ("recoveries", "7");
    ("spurious suspicions", "6");
    ("migrations", "7");
    ("spurious migrations", "6");
    ("crashes", "1");
    ("restarts", "1");
    ("lost keys", "0");
    ("agreement", "0x1p+0");
    ("convergence", "0x0p+0");
    ("agreement samples", "24");
    ("messages", "11688");
    ("replicas end", "8");
    ("latency count", "2348");
    ("latency mean", "0x1.61cc1b71afc95p+0");
    ("hops count", "2348");
    ("hops mean", "0x1.e3c2f19bb17fdp+0");
  ]

let des_churn_b0 =
  [
    ("digest", "3104533114543165583");
    ("trace events", "2995");
    ("served", "2768");
    ("faults", "209");
    ("replicas created", "7");
    ("replicas evicted", "6");
    ("replicas end", "1");
    ("timeline", "14");
    ("last replication", "0x1.92b321e4f16edp+1");
    ("messages", "11084");
    ("control messages", "313");
    ("file transfers", "0");
    ("overloaded at end", "2");
    ("events", "14090");
    ("latency count", "2739");
    ("latency mean", "0x1.56b527745492dp-3");
    ("hops count", "2768");
    ("hops mean", "0x1.5e6d80bd69104p+1");
  ]

(* Pinned on the one Section 4 request step, [Topology.route] (checked
   by test_request_path): at b > 0 a request climbs its own subtree,
   then migrates to the origin's mirror in the next subtree. *)
let des_churn_b2 =
  [
    ("digest", "1126917688529570418");
    ("trace events", "3084");
    ("served", "3041");
    ("faults", "0");
    ("replicas created", "19");
    ("replicas evicted", "19");
    ("replicas end", "4");
    ("timeline", "25");
    ("last replication", "0x1.b5daf4e9a81cfp+1");
    ("messages", "8545");
    ("control messages", "313");
    ("file transfers", "2");
    ("overloaded at end", "4");
    ("events", "11574");
    ("latency count", "3005");
    ("latency mean", "0x1.003a08de48d45p-3");
    ("hops count", "3041");
    ("hops mean", "0x1.db6166483a976p+0");
  ]

let des_churn_chord =
  [
    ("digest", "3860800515349168908");
    ("trace events", "2925");
    ("served", "2904");
    ("faults", "0");
    ("replicas created", "8");
    ("replicas evicted", "8");
    ("replicas end", "2");
    ("timeline", "15");
    ("last replication", "0x1.aabaed7df7568p+1");
    ("messages", "13667");
    ("control messages", "313");
    ("file transfers", "2");
    ("overloaded at end", "3");
    ("events", "16582");
    ("latency count", "2856");
    ("latency mean", "0x1.aae39975a9397p-3");
    ("hops count", "2904");
    ("hops mean", "0x1.d13bf1e5337b7p+1");
  ]

let pdes_native_b0 =
  [
    ("digest", "760667583678198877");
    ("served", "2226");
    ("faults", "0");
    ("requests", "2326");
    ("migrations", "0");
    ("replicas created", "9");
    ("replicas end", "10");
    ("messages", "8101");
    ("control messages", "380");
    ("file transfers", "0");
    ("events", "10277");
  ]

let pdes_native_b2 =
  [
    ("digest", "4218188214395302215");
    ("served", "2301");
    ("faults", "0");
    ("requests", "2396");
    ("migrations", "0");
    ("replicas created", "10");
    ("replicas end", "14");
    ("messages", "7162");
    ("control messages", "380");
    ("file transfers", "0");
    ("events", "9419");
  ]

(* Pinned on the one Section 4 request step, [Topology.route] (checked
   by test_request_path): a migrating GET lands on the origin's mirror
   in the next subtree. *)
let pdes_migrate_b2 =
  [
    ("digest", "3758548450877196140");
    ("served", "2012");
    ("faults", "0");
    ("requests", "2114");
    ("migrations", "301");
    ("replicas created", "9");
    ("replicas end", "12");
    ("messages", "7213");
    ("control messages", "5240");
    ("file transfers", "31");
    ("events", "9211");
  ]

(* [SEED_MATRIX_DUMP=1] prints every run's fields in pin syntax instead
   of checking them — for re-pinning a field a change is meant to move. *)
let runs =
  [
    ("des policy, seed 1", (fun () -> des_policy 1), des_policy_1);
    ("des policy, seed 2", (fun () -> des_policy 2), des_policy_2);
    ("des policy, seed 3", (fun () -> des_policy 3), des_policy_3);
    ("des cold tier", des_cold ~b:0, des_cold_pins);
    ("des cold tier b=2", des_cold ~b:2, des_cold_b2_pins);
    ("coldtier_point full", (fun () -> coldtier_arm false), coldtier_full);
    ("coldtier_point hybrid", (fun () -> coldtier_arm true), coldtier_hybrid);
    ("faults native b=0", fault_run ~b:0 ~chord:false ~holder_crash:1.5, faults_native_b0);
    ("faults native b=2", fault_run ~b:2 ~chord:false ~holder_crash:0.1, faults_native_b2);
    ("faults chord", fault_run ~b:0 ~chord:true ~holder_crash:0.1, faults_chord);
    ("faults overlap", fault_overlap, faults_overlap);
    ("des churn b=0", des_run ~b:0 ~chord:false, des_churn_b0);
    ("des churn b=2", des_run ~b:2 ~chord:false, des_churn_b2);
    ("des churn chord", des_run ~b:0 ~chord:true, des_churn_chord);
    ("pdes native b=0", pdes_native ~b:0, pdes_native_b0);
    ("pdes native b=2", pdes_native ~b:2, pdes_native_b2);
    ("pdes migrate b=2", pdes_migrate, pdes_migrate_b2);
  ]

let () =
  if Sys.getenv_opt "SEED_MATRIX_DUMP" <> None then
    List.iter
      (fun (name, run, _) ->
        Printf.printf "%s\n" name;
        List.iter (fun (k, v) -> Printf.printf "    (%S, %S);\n" k v) (run ()))
      runs
  else
    Alcotest.run "seed-matrix"
      [
        ( "differential",
          List.map
            (fun (name, run, pins) ->
              Alcotest.test_case name `Quick (check name run pins))
            runs );
      ]
