open Lesslog_id
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Status_word = Lesslog_membership.Status_word
module Demand = Lesslog_workload.Demand
module Des_sim = Lesslog_des.Des_sim
module Pdes_sim = Lesslog_des.Pdes_sim
module Control_plane = Lesslog_des.Control_plane
module Balance = Lesslog_flow.Balance
module Policy = Lesslog_flow.Policy
module Histogram = Lesslog_metrics.Histogram
module Latency = Lesslog_net.Latency
module Rng = Lesslog_prng.Rng
module Trace = Lesslog_trace.Trace

let key = "des/test-object"

let make_cluster ?(m = 6) () =
  let params = Params.create ~m () in
  let cluster = Cluster.create params in
  ignore (Ops.insert cluster ~key);
  cluster

let run ?config ?churn ?(m = 6) ?(seed = 11) ~total ~duration () =
  let cluster = make_cluster ~m () in
  let rng = Rng.create ~seed in
  let demand = Demand.uniform (Cluster.status cluster) ~total in
  let result = Des_sim.run ?config ?churn ~rng ~cluster ~key ~demand ~duration () in
  (cluster, result)

let test_low_load_no_replication () =
  let _, r = run ~total:50.0 ~duration:10.0 () in
  Alcotest.(check int) "no replicas" 0 r.Des_sim.replicas_created;
  Alcotest.(check int) "no faults" 0 r.Des_sim.faults;
  Alcotest.(check bool) "some service" true (r.Des_sim.served > 0)

let test_overload_triggers_replication () =
  let cluster, r = run ~total:2000.0 ~duration:20.0 () in
  Alcotest.(check bool) "replicated" true (r.Des_sim.replicas_created > 0);
  Alcotest.(check int) "no faults" 0 r.Des_sim.faults;
  Alcotest.(check int) "no overloaded node at end" 0 r.Des_sim.overloaded_at_end;
  Alcotest.(check int) "copies match timeline" (1 + r.Des_sim.replicas_created)
    (Cluster.total_copies cluster ~key);
  match r.Des_sim.last_replication with
  | Some t -> Alcotest.(check bool) "converged before end" true (t < 20.0)
  | None -> Alcotest.fail "expected replication"

let test_latency_bounded_by_hops () =
  let config =
    { Des_sim.default_config with latency = Latency.Constant 0.01 }
  in
  let _, r = run ~config ~total:200.0 ~duration:10.0 () in
  (* With constant 10ms hops and at most m forwarding hops + 1 reply, no
     request can take longer than (m + 1) * 10ms. *)
  Alcotest.(check bool) "max latency bound" true
    (Histogram.max_value r.Des_sim.latencies <= 0.01 *. 7.0 +. 1e-9);
  Alcotest.(check bool) "hops bound" true
    (Histogram.max_value r.Des_sim.hops <= 6.0)

let test_determinism () =
  let _, r1 = run ~seed:99 ~total:800.0 ~duration:10.0 () in
  let _, r2 = run ~seed:99 ~total:800.0 ~duration:10.0 () in
  Alcotest.(check int) "served" r1.Des_sim.served r2.Des_sim.served;
  Alcotest.(check int) "replicas" r1.Des_sim.replicas_created
    r2.Des_sim.replicas_created;
  Alcotest.(check int) "messages" r1.Des_sim.messages r2.Des_sim.messages

let test_seed_sensitivity () =
  let _, r1 = run ~seed:1 ~total:800.0 ~duration:10.0 () in
  let _, r2 = run ~seed:2 ~total:800.0 ~duration:10.0 () in
  Alcotest.(check bool) "different arrival streams" true
    (r1.Des_sim.served <> r2.Des_sim.served)

let test_agrees_with_fluid_solver () =
  (* Same workload through both engines: the DES replica count must be in
     the same regime as the fluid optimum (>= it, within a small factor). *)
  let m = 6 and total = 1500.0 in
  let params = Params.create ~m () in
  let cluster = Cluster.create params in
  ignore (Ops.insert cluster ~key);
  let rng = Rng.create ~seed:5 in
  let demand = Demand.uniform (Cluster.status cluster) ~total in
  let fluid =
    Balance.run ~rng ~cluster ~key ~demand ~capacity:100.0 ~policy:Policy.Lesslog ()
  in
  let _, des = run ~seed:5 ~m ~total ~duration:30.0 () in
  let f = fluid.Balance.replicas and d = des.Des_sim.replicas_created in
  Alcotest.(check bool)
    (Printf.sprintf "fluid %d <= des %d <= 4x fluid" f d)
    true
    (d >= f && d <= 4 * f)

let test_churn_leave_keeps_serving () =
  let params = Params.create ~m:6 () in
  let cluster = Cluster.create params in
  ignore (Ops.insert cluster ~key);
  let rng = Rng.create ~seed:3 in
  let demand = Demand.uniform (Cluster.status cluster) ~total:500.0 in
  (* The file's own target leaves mid-run; the Section 5 mechanism re-homes
     it and requests keep resolving. *)
  let target = Cluster.target_of_key cluster key in
  let churn = [ { Des_sim.at = 5.0; action = Des_sim.Leave target } ] in
  let result = Des_sim.run ~churn ~rng ~cluster ~key ~demand ~duration:15.0 () in
  Alcotest.(check int) "no faults across the handover" 0 result.Des_sim.faults;
  Alcotest.(check bool) "target is gone" true
    (Status_word.is_dead (Cluster.status cluster) target)

let test_churn_join_is_applied () =
  let params = Params.create ~m:6 () in
  let cluster = Cluster.create params in
  let absent = Pid.unsafe_of_int 13 in
  Status_word.set_dead (Cluster.status cluster) absent;
  ignore (Ops.insert cluster ~key);
  let rng = Rng.create ~seed:4 in
  let demand = Demand.uniform (Cluster.status cluster) ~total:200.0 in
  let churn = [ { Des_sim.at = 2.0; action = Des_sim.Join absent } ] in
  let result = Des_sim.run ~churn ~rng ~cluster ~key ~demand ~duration:8.0 () in
  Alcotest.(check bool) "joined" true
    (Status_word.is_live (Cluster.status cluster) absent);
  Alcotest.(check int) "no faults" 0 result.Des_sim.faults

let test_message_loss_still_converges () =
  let config = { Des_sim.default_config with loss = 0.05 } in
  let _, r = run ~config ~total:1500.0 ~duration:30.0 () in
  (* Requests can be lost (clients see timeouts, which we do not model),
     but the system still de-overloads. *)
  Alcotest.(check int) "no overloaded node at end" 0 r.Des_sim.overloaded_at_end;
  Alcotest.(check bool) "replicated" true (r.Des_sim.replicas_created > 0)

let test_scenario_with_eviction_trims_fleet () =
  let params = Params.create ~m:6 () in
  let cluster = make_cluster ~m:6 () in
  ignore params;
  let rng = Rng.create ~seed:21 in
  let scenario =
    Lesslog_workload.Scenario.flash_crowd (Cluster.status cluster) ~rng
      ~peak:2000.0 ~calm:100.0 ~peak_duration:20.0 ~calm_duration:40.0
  in
  let config =
    {
      Des_sim.default_config with
      eviction = Some { Des_sim.period = 4.0; min_rate = 5.0 };
    }
  in
  let r = Des_sim.run_scenario ~config ~rng ~cluster ~key ~scenario () in
  Alcotest.(check bool) "replicated during peak" true
    (r.Des_sim.replicas_created > 0);
  Alcotest.(check bool) "evicted after dispersal" true
    (r.Des_sim.replicas_evicted > 0);
  Alcotest.(check int) "bookkeeping consistent"
    (1 + r.Des_sim.replicas_created - r.Des_sim.replicas_evicted)
    (Cluster.total_copies cluster ~key);
  Alcotest.(check int) "no faults" 0 r.Des_sim.faults;
  (* The crowd's fleet shrinks: final copies well below the peak. *)
  let pts = Lesslog_metrics.Timeseries.points r.Des_sim.replica_timeline in
  let peak = Array.fold_left (fun a (_, v) -> Float.max a v) 0.0 pts in
  let final = snd pts.(Array.length pts - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "final %.0f < peak %.0f" final peak)
    true (final < peak)

let test_eviction_never_removes_inserted_copy () =
  let cluster = make_cluster ~m:6 () in
  let rng = Rng.create ~seed:22 in
  (* Tiny demand + aggressive eviction: the inserted copy must survive. *)
  let demand = Demand.uniform (Cluster.status cluster) ~total:5.0 in
  let config =
    {
      Des_sim.default_config with
      eviction = Some { Des_sim.period = 1.0; min_rate = 1000.0 };
    }
  in
  let r = Des_sim.run ~config ~rng ~cluster ~key ~demand ~duration:20.0 () in
  Alcotest.(check int) "inserted copy immune" 1
    (Cluster.total_copies cluster ~key);
  Alcotest.(check int) "no faults" 0 r.Des_sim.faults

(* Golden trace: the full event log of a fixed-seed run — churn, loss,
   eviction, all features on — captured on the closure+binary-heap engine
   before the ladder-queue/packed-event port. The port is required to
   reproduce it bit for bit: every event at the same simulated time, in
   the same order, with the same RNG draws. Any scheduling or RNG
   reordering shows up here as a digest mismatch. *)
let test_golden_trace_reproduced () =
  let params = Params.create ~m:6 () in
  let cluster = Cluster.create params in
  let key = "golden/object" in
  ignore (Ops.insert cluster ~key);
  let rng = Rng.create ~seed:77 in
  let demand = Demand.uniform (Cluster.status cluster) ~total:1500.0 in
  let target = Cluster.target_of_key cluster key in
  let churn =
    [ { Des_sim.at = 4.0; action = Des_sim.Fail target };
      { Des_sim.at = 7.0; action = Des_sim.Join target } ]
  in
  let config =
    { Des_sim.default_config with
      loss = 0.03;
      eviction = Some { Des_sim.period = 2.0; min_rate = 5.0 } }
  in
  let buf = Buffer.create 65536 in
  let writer = Trace.Writer.to_buffer buf in
  let r =
    Des_sim.run ~config ~churn ~sink:(Trace.Writer.emit writer) ~rng ~cluster
      ~key ~demand ~duration:10.0 ()
  in
  Alcotest.(check int) "trace digest" 4045666517057985694
    (Lesslog_hash.Fnv.hash63 (Buffer.contents buf));
  Alcotest.(check int) "trace events" 14512 (Trace.Writer.count writer);
  Alcotest.(check int) "served" 13980 r.Des_sim.served;
  Alcotest.(check int) "faults" 405 r.Des_sim.faults;
  Alcotest.(check int) "replicas" 68 r.Des_sim.replicas_created;
  Alcotest.(check int) "evicted" 57 r.Des_sim.replicas_evicted;
  Alcotest.(check int) "messages" 29479 r.Des_sim.messages;
  Alcotest.(check (float 0.0)) "max latency (bit-exact)" 0x1.79ff3939ab99ep-2
    (Histogram.max_value r.Des_sim.latencies);
  Alcotest.(check (float 0.0)) "max hops (bit-exact)" 0x1.8p+2
    (Histogram.max_value r.Des_sim.hops);
  (* Runs without a [cold_tier] carry no cold ledger — the tier is
     strictly opt-in, and the digest above proves it leaves the event
     stream untouched. *)
  Alcotest.(check bool) "no cold ledger" true (r.Des_sim.cold = None)

(* --- Dynamic-RF policy --------------------------------------------------- *)

module Rf_policy = Lesslog_policy.Rf_policy

let make_policy ?rf0 ~params ~capacity () =
  Rf_policy.create
    ~config:
      {
        Rf_policy.default_config with
        Rf_policy.interval = 0.25;
        rf_max = Params.space params;
        capacity = Some capacity;
      }
    ?rf0 ~nodes:(Params.space params) ~files:1 ()

let test_policy_sizes_fleet_to_demand () =
  let cluster = make_cluster ~m:6 () in
  let params = Cluster.params cluster in
  let policy = make_policy ~params ~capacity:100.0 () in
  let rng = Rng.create ~seed:5 in
  let demand = Demand.uniform (Cluster.status cluster) ~total:800.0 in
  let r = Des_sim.run ~policy ~rng ~cluster ~key ~demand ~duration:10.0 () in
  Alcotest.(check int) "no faults" 0 r.Des_sim.faults;
  Alcotest.(check bool) "policy replicated" true (r.Des_sim.replicas_created > 0);
  (* The interval tick enforces the prescribed factor, so the cluster
     ends exactly at the policy's RF — which must sit at the mean-field
     target, 800 req/s over 100 req/s-per-copy = 8 copies. *)
  let rf = Rf_policy.rf policy ~file:0 in
  Alcotest.(check int) "copies = prescribed RF" rf
    (Cluster.total_copies cluster ~key);
  Alcotest.(check bool)
    (Printf.sprintf "RF %d within 1 of the fluid target 8" rf)
    true
    (abs (rf - 8) <= 1)

let test_policy_drains_after_demand () =
  let cluster = make_cluster ~m:6 () in
  let params = Cluster.params cluster in
  (* Start over-provisioned at 16 copies with almost no demand: the
     policy walks the fleet back down, never touching the inserted
     copy. *)
  let policy = make_policy ~rf0:16 ~params ~capacity:100.0 () in
  let rng = Rng.create ~seed:6 in
  let demand = Demand.uniform (Cluster.status cluster) ~total:5.0 in
  let r = Des_sim.run ~policy ~rng ~cluster ~key ~demand ~duration:10.0 () in
  Alcotest.(check int) "no faults" 0 r.Des_sim.faults;
  Alcotest.(check bool) "evicted surplus" true (r.Des_sim.replicas_evicted > 0);
  (* The trickle keeps the observed-rate target at one copy; PD spikes
     above the EMA threshold may pre-provision one of headroom. *)
  let final = Cluster.total_copies cluster ~key in
  Alcotest.(check bool)
    (Printf.sprintf "drained to the floor (%d copies)" final)
    true
    (final >= 1 && final <= 2)

let test_policy_rejects_wrong_population () =
  let cluster = make_cluster ~m:6 () in
  let policy =
    Rf_policy.create ~nodes:4 ~files:1 () (* cluster space is 64 *)
  in
  let rng = Rng.create ~seed:7 in
  let demand = Demand.uniform (Cluster.status cluster) ~total:10.0 in
  Alcotest.check_raises "population mismatch"
    (Invalid_argument "Des_sim: policy accessor population <> cluster space")
    (fun () ->
      ignore (Des_sim.run ~policy ~rng ~cluster ~key ~demand ~duration:1.0 ()))

(* --- Erasure-coded cold tier ---------------------------------------- *)

module Experiments = Lesslog_harness.Experiments

(* The Ops layer end to end: demote, serve from fragments, lose up to
   [r] holders and keep serving, repair, then lose [r + 1] and degrade
   to faults — never an exception. *)
let test_cold_ops_lifecycle () =
  let params = Params.create ~m:6 () in
  let cluster = Cluster.create params in
  let key = "cold/object" in
  ignore (Ops.insert cluster ~key);
  let status = Cluster.status cluster in
  let k = 4 and r = 2 in
  let holders =
    match Ops.demote_to_coded cluster ~key ~k ~r with
    | Some hs -> hs
    | None -> Alcotest.fail "demotion refused"
  in
  Alcotest.(check int) "k+r fragment holders" (k + r) (List.length holders);
  Alcotest.(check int) "no full copies left" 0
    (Cluster.total_copies cluster ~key);
  Alcotest.(check bool) "servable" true (Ops.coded_servable cluster ~key);
  let origin =
    (* A live node holding no fragment, so the request must walk. *)
    let rec find i =
      let p = Pid.unsafe_of_int i in
      if
        Status_word.is_live status p
        && not (Ops.holds_fragment cluster p ~key)
      then p
      else find (i + 1)
    in
    find 0
  in
  let serves () = (Ops.get cluster ~origin ~key).Ops.server <> None in
  Alcotest.(check bool) "serves from fragments" true (serves ());
  (* Fail the r parity holders: still >= k fragments, still servable,
     and the data-stripe holder at the walk's insertion target stays up
     so the path keeps meeting a fragment. *)
  List.iteri
    (fun i p -> if i >= k then Status_word.set_dead status p)
    holders;
  Alcotest.(check int) "k fragments survive" k
    (Ops.live_fragment_count cluster ~key);
  Alcotest.(check bool) "still serves at r losses" true (serves ());
  (* Churn repair re-seats the missing fragments on fresh nodes. *)
  (match Ops.repair_coded cluster ~key with
  | `Repaired n -> Alcotest.(check int) "rebuilt" r n
  | `Intact | `Lost -> Alcotest.fail "expected a repair");
  Alcotest.(check int) "full strength again" (k + r)
    (Ops.live_fragment_count cluster ~key);
  (* Now lose r + 1 of the current holders with no repair in between:
     fewer than k fragments survive, and every path degrades
     gracefully. *)
  let current =
    List.concat_map
      (fun i -> Cluster.holders cluster ~key:(Ops.frag_key key i))
      (List.init (k + r) Fun.id)
    |> List.filter (Status_word.is_live status)
  in
  List.iteri
    (fun i p -> if i <= r then Status_word.set_dead status p)
    current;
  Alcotest.(check bool) "below k" true
    (Ops.live_fragment_count cluster ~key < k);
  Alcotest.(check bool) "not servable" false (Ops.coded_servable cluster ~key);
  Alcotest.(check bool) "get faults, no exception" false (serves ());
  Alcotest.(check bool) "promotion refused" true
    (Ops.promote_from_coded cluster ~key ~copies:3 = None);
  (match Ops.repair_coded cluster ~key with
  | `Lost -> ()
  | `Intact | `Repaired _ -> Alcotest.fail "expected `Lost")

(* The simulator end to end, through the harness lifecycle: flash
   crowd, demotion during the calm, two fragment-holder failures
   (<= r), fragment repair, promotion on the re-heat — the payload
   survives and requests are served out of fragments. The (10, 4) code
   keeps a 1.4x footprint through the calm where the rf_min = 3 floor
   keeps 3x, so the hybrid saves at least 30% of stored bytes; repair
   is k reads and one write per missing fragment, bounded by rebuilding
   every parity's worth of fragments plus the two relocated copies the
   baseline moves. *)
let test_cold_sim_lifecycle () =
  let code_k = 10 and code_r = 4 and file_bytes = 1 lsl 20 in
  let points =
    Experiments.coldtier_run ~m:9 ~calm_duration:10.0 ~code_k ~code_r
      ~file_bytes ()
  in
  match points with
  | [ full; hybrid ] ->
      Alcotest.(check int) "baseline never demotes" 0
        full.Experiments.ct_demotions;
      Alcotest.(check bool) "hybrid demotes" true
        (hybrid.Experiments.ct_demotions >= 1);
      Alcotest.(check bool) "hybrid promotes" true
        (hybrid.Experiments.ct_promotions >= 1);
      Alcotest.(check bool) "served from fragments" true
        (hybrid.Experiments.ct_coded_serves >= 1);
      Alcotest.(check bool) "payload survived <= r failures" false
        hybrid.Experiments.ct_lost;
      Alcotest.(check bool) "failures triggered fragment repair" true
        (hybrid.Experiments.ct_fragment_repairs >= 1
        && hybrid.Experiments.ct_repair_bytes > 0);
      Alcotest.(check bool) "loss parity with the baseline" true
        (Float.abs
           (hybrid.Experiments.ct_loss -. full.Experiments.ct_loss)
        <= 0.05);
      let ratio =
        hybrid.Experiments.ct_mean_bytes /. full.Experiments.ct_mean_bytes
      in
      Alcotest.(check bool)
        (Printf.sprintf "hybrid stores <= 0.70 of the baseline's bytes (%.3f)"
           ratio)
        true (ratio <= 0.70);
      let frag_bytes = (file_bytes + code_k - 1) / code_k in
      let repair_bound =
        (code_r * (code_k + 1) * frag_bytes) + (2 * file_bytes)
      in
      Alcotest.(check bool)
        (Printf.sprintf "repair %d bytes within the %d-byte rebuild bound"
           hybrid.Experiments.ct_repair_bytes repair_bound)
        true
        (hybrid.Experiments.ct_repair_bytes <= repair_bound)
  | _ -> Alcotest.fail "coldtier_run: expected [full; hybrid]"

(* Every fault is traced, including one resolved at the request's own
   origin. In a 16-node cluster seven failures leave nine live nodes —
   fewer than the [k] = 10 of the (10, 4) code, however repair re-seats
   fragments — so the coded key is lost, and a request issued at a
   surviving fragment holder faults right there. The trace's fault
   count must still equal [result.faults]. *)
let test_cold_origin_faults_traced () =
  let params = Params.create ~m:4 () in
  let cluster = Cluster.create params in
  let key = "cold/faulting" in
  ignore (Ops.insert cluster ~key);
  let status = Cluster.status cluster in
  (* A trickle demotes the key; the burst after the failures then meets
     surviving fragment holders at every origin that is one. *)
  let scenario =
    Lesslog_workload.Scenario.of_phases
      [
        { demand = Demand.uniform status ~total:4.0; duration = 2.0 };
        { demand = Demand.uniform status ~total:200.0; duration = 2.0 };
      ]
  in
  let churn =
    List.init 7 (fun i ->
        {
          Des_sim.at = 1.9 +. (0.01 *. float_of_int i);
          action = Des_sim.Fail (Pid.unsafe_of_int i);
        })
  in
  let cold_tier =
    { Control_plane.default_cold_tier with Control_plane.demote_after = 1 }
  in
  let traced_faults = ref 0 in
  let sink = function
    | Trace.Event.Request { server = None; _ } -> incr traced_faults
    | _ -> ()
  in
  let r =
    Des_sim.run_scenario ~churn ~sink
      ~policy:(make_policy ~params ~capacity:100.0 ())
      ~cold_tier ~rng:(Rng.create ~seed:9) ~cluster ~key ~scenario ()
  in
  let c = Option.get r.Des_sim.cold in
  Alcotest.(check bool) "demoted, then lost" true
    (c.Control_plane.demotions >= 1 && c.Control_plane.lost_cold);
  Alcotest.(check bool) "requests faulted" true (r.Des_sim.faults > 0);
  Alcotest.(check int) "every fault traced" r.Des_sim.faults !traced_faults

(* One validator behind both entry points, each keeping its own message
   prefix. *)
let test_cold_tier_validation () =
  let params = Params.create ~m:6 () in
  let demand =
    Demand.uniform (Status_word.create params ~initially_live:true) ~total:10.0
  in
  let des policy cold_tier =
    ignore
      (Des_sim.run ?policy ?cold_tier ~rng:(Rng.create ~seed:3)
         ~cluster:(make_cluster ~m:6 ()) ~key ~demand ~duration:1.0 ())
  in
  let pdes policy cold_tier =
    ignore
      (Pdes_sim.run ?policy ?cold_tier ~seed:3 ~params ~key ~demand
         ~duration:1.0 ())
  in
  let policy = Some (make_policy ~params ~capacity:100.0 ()) in
  let tier = Control_plane.default_cold_tier in
  let cases =
    [
      ( "population",
        Some (Rf_policy.create ~nodes:4 ~files:1 ()),
        None,
        "policy accessor population <> cluster space" );
      ( "needs a policy",
        None,
        Some tier,
        "cold_tier needs a policy (its Cold verdicts)" );
      ( "bad code",
        policy,
        Some { tier with code_k = 0 },
        "invalid cold_tier code parameters" );
      ( "bad size",
        policy,
        Some { tier with file_bytes = 0 },
        "file_bytes must be > 0" );
      ( "bad streak",
        policy,
        Some { tier with demote_after = 0 },
        "demote_after must be >= 1" );
    ]
  in
  List.iter
    (fun (prefix, attempt) ->
      List.iter
        (fun (label, policy, cold_tier, msg) ->
          Alcotest.check_raises (prefix ^ ": " ^ label)
            (Invalid_argument (prefix ^ ": " ^ msg))
            (fun () -> attempt policy cold_tier))
        cases)
    [ ("Des_sim", des); ("Pdes_sim.run", pdes) ]

(* A non-positive eviction period would post every tick at the same
   instant (0) or in the past (< 0); [run] rejects it up front. *)
let test_rejects_bad_eviction_period () =
  List.iter
    (fun period ->
      let config =
        {
          Des_sim.default_config with
          Des_sim.eviction = Some { Des_sim.period; min_rate = 1.0 };
        }
      in
      Alcotest.check_raises
        (Printf.sprintf "eviction period %g" period)
        (Invalid_argument "Des_sim: eviction period must be > 0")
        (fun () -> ignore (run ~config ~m:4 ~total:10.0 ~duration:1.0 ())))
    [ 0.0; -1.0 ]

let test_replica_timeline_monotone () =
  let _, r = run ~total:2000.0 ~duration:15.0 () in
  let pts = Lesslog_metrics.Timeseries.points r.Des_sim.replica_timeline in
  let ok = ref true in
  for i = 1 to Array.length pts - 1 do
    if snd pts.(i) < snd pts.(i - 1) then ok := false
  done;
  Alcotest.(check bool) "copies never decrease during a run" true !ok

let () =
  Alcotest.run "des"
    [
      ( "behaviour",
        [
          Alcotest.test_case "low load" `Quick test_low_load_no_replication;
          Alcotest.test_case "overload replicates" `Quick
            test_overload_triggers_replication;
          Alcotest.test_case "latency bounds" `Quick test_latency_bounded_by_hops;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "seed-sensitive" `Quick test_seed_sensitivity;
          Alcotest.test_case "replica timeline monotone" `Quick
            test_replica_timeline_monotone;
          Alcotest.test_case "golden trace reproduced" `Quick
            test_golden_trace_reproduced;
        ] );
      ( "integration",
        [
          Alcotest.test_case "agrees with fluid solver" `Slow
            test_agrees_with_fluid_solver;
          Alcotest.test_case "leave handover" `Quick test_churn_leave_keeps_serving;
          Alcotest.test_case "join applied" `Quick test_churn_join_is_applied;
          Alcotest.test_case "converges under loss" `Slow
            test_message_loss_still_converges;
          Alcotest.test_case "flash-crowd lifecycle" `Slow
            test_scenario_with_eviction_trims_fleet;
          Alcotest.test_case "eviction spares inserted" `Quick
            test_eviction_never_removes_inserted_copy;
          Alcotest.test_case "rejects non-positive eviction period" `Quick
            test_rejects_bad_eviction_period;
        ] );
      ( "dynamic-rf policy",
        [
          Alcotest.test_case "sizes fleet to demand" `Quick
            test_policy_sizes_fleet_to_demand;
          Alcotest.test_case "drains after demand" `Quick
            test_policy_drains_after_demand;
          Alcotest.test_case "rejects wrong population" `Quick
            test_policy_rejects_wrong_population;
        ] );
      ( "cold tier",
        [
          Alcotest.test_case "ops lifecycle" `Quick test_cold_ops_lifecycle;
          Alcotest.test_case "sim lifecycle" `Slow test_cold_sim_lifecycle;
          Alcotest.test_case "validation" `Quick test_cold_tier_validation;
          Alcotest.test_case "origin faults traced" `Quick
            test_cold_origin_faults_traced;
        ] );
    ]
