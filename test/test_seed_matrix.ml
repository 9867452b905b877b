(* Seed-matrix differential: a fixed set of runs through every simulator
   path the policy/cold-tier control plane touches, each pinned field by
   field. A refactor that keeps every field here has not changed what the
   simulators compute; a change that moves a field must say which one and
   why. *)

open Lesslog_id
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Demand = Lesslog_workload.Demand
module Status_word = Lesslog_membership.Status_word
module Des_sim = Lesslog_des.Des_sim
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
   (where fragments sit) exercise fragment repair. *)
let des_cold () =
  let params = Params.create ~m:7 () in
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
  @
  match r.Pdes_sim.cold with
  | None -> [ ("cold", "none") ]
  | Some c ->
      [
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

let pdes_policy () =
  let params = Params.create ~m:8 ~b:2 () in
  let status = Status_word.create params ~initially_live:true in
  let churn =
    [ { Pdes_sim.at = 0.6; action = Pdes_sim.Fail (Pid.unsafe_of_int 11) };
      { Pdes_sim.at = 1.7; action = Pdes_sim.Join (Pid.unsafe_of_int 11) } ]
  in
  pdes_fields
    (Pdes_sim.run ~churn ~policy:(policy_for params) ~seed:4242 ~params
       ~key:"matrix/object"
       ~demand:(Demand.uniform status ~total:900.0)
       ~duration:2.5 ())

let coldtier_pdes () = pdes_fields (Experiments.coldtier_pdes ~m:7 ~duration:4.0 ())

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

let pdes_policy_pins =
  [
    ("digest", "3097594797913578525");
    ("served", "2148");
    ("faults", "0");
    ("requests", "2288");
    ("migrations", "1575");
    ("replicas created", "7");
    ("replicas end", "9");
    ("messages", "9854");
    ("control messages", "511");
    ("file transfers", "0");
    ("events", "11956");
    ("cold", "none");
  ]

let coldtier_pdes_pins =
  [
    ("digest", "3335272055616854491");
    ("served", "40");
    ("faults", "0");
    ("requests", "40");
    ("migrations", "0");
    ("replicas created", "2");
    ("replicas end", "0");
    ("messages", "103");
    ("control messages", "0");
    ("file transfers", "0");
    ("events", "142");
    ("demotions", "2");
    ("promotions", "1");
    ("fragment repairs", "0");
    ("lost", "false");
    ("coded at end", "true");
    ("coded serves", "38");
    ("bytes end", "1468012");
    ("mean bytes", "0x1.9999e8p+20");
    ("bytes moved", "6081756");
    ("repair bytes", "0");
  ]

(* [SEED_MATRIX_DUMP=1] prints every run's fields in pin syntax instead
   of checking them — for re-pinning a field a change is meant to move. *)
let runs =
  [
    ("des policy, seed 1", (fun () -> des_policy 1), des_policy_1);
    ("des policy, seed 2", (fun () -> des_policy 2), des_policy_2);
    ("des policy, seed 3", (fun () -> des_policy 3), des_policy_3);
    ("des cold tier", des_cold, des_cold_pins);
    ("coldtier_point full", (fun () -> coldtier_arm false), coldtier_full);
    ("coldtier_point hybrid", (fun () -> coldtier_arm true), coldtier_hybrid);
    ("pdes policy", pdes_policy, pdes_policy_pins);
    ("coldtier_pdes", coldtier_pdes, coldtier_pdes_pins);
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
