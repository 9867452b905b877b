open Lesslog_id
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Status_word = Lesslog_membership.Status_word
module Demand = Lesslog_workload.Demand
module Des_sim = Lesslog_des.Des_sim
module Control_plane = Lesslog_des.Control_plane
module Balance = Lesslog_flow.Balance
module Policy = Lesslog_flow.Policy
module Histogram = Lesslog_metrics.Histogram
module Latency = Lesslog_net.Latency
module Rng = Lesslog_prng.Rng
module Trace = Lesslog_trace.Trace
module Engine = Lesslog_sim.Engine
module File_store = Lesslog_storage.File_store
module Access_counter = Lesslog_storage.Access_counter
module Protocol = Lesslog_des.Protocol

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

(* The survivor floor, in a run: the inserted copy's node fails, so
   every live holder is a cold replica. The tick walks the holders in
   ascending PID order and re-reads the live copy count before each
   removal, so it drops the two lowest and keeps the last one; a count
   read once at the start of the sweep (3 > 1) would drop all three. *)
let test_eviction_survivor_floor () =
  let cluster = make_cluster ~m:4 () in
  let target = Cluster.target_of_key cluster key in
  (* Replicas at the three lowest PIDs other than the target. *)
  let replicas =
    List.filter
      (fun p -> not (Pid.equal p target))
      (Status_word.live_pids (Cluster.status cluster))
    |> List.filteri (fun i _ -> i < 3)
    |> List.map Pid.to_int
  in
  List.iter
    (fun p ->
      Cluster.add cluster
        (Pid.unsafe_of_int p)
        ~key ~origin:File_store.Replicated ~version:0 ~now:0.0)
    replicas;
  let evicts = ref [] in
  let sink = function
    | Trace.Event.Evict { at; node; _ } -> evicts := (node, at) :: !evicts
    | _ -> ()
  in
  let config =
    {
      Des_sim.default_config with
      eviction = Some { Des_sim.period = 1.0; min_rate = 1.0 };
    }
  in
  let r =
    Des_sim.run ~config ~sink
      ~churn:[ { Des_sim.at = 0.5; action = Des_sim.Fail target } ]
      ~rng:(Rng.create ~seed:1) ~cluster ~key
      ~demand:(Demand.of_rates (Array.make 16 0.0))
      ~duration:1.5 ()
  in
  let a, b, c =
    match replicas with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  Alcotest.(check int) "two of three evicted" 2 r.Des_sim.replicas_evicted;
  Alcotest.(check (list (pair int (float 0.0))))
    "lowest PIDs first, at the tick" [ (a, 1.0); (b, 1.0) ] (List.rev !evicts);
  Alcotest.(check (list int)) "the highest holder keeps the last copy" [ c ]
    (List.map Pid.to_int (Cluster.holders cluster ~key))

(* --- Eviction differential ------------------------------------------------ *)

(* The per-node sweep the eviction tick replaced, kept as its oracle:
   every live node in ascending PID order collects its cold full
   replicas of every key, sorted, and drops each while the key keeps
   another live copy. Returns the nodes that dropped [key], in order. *)
let per_node_sweep cluster ~key ~now ~min_rate =
  let evicted = ref [] in
  Status_word.iter_live (Cluster.status cluster) (fun p ->
      let store = Cluster.store cluster p in
      let cold = ref [] in
      File_store.iter store (fun e ->
          if
            e.origin = File_store.Replicated
            && e.tier = File_store.Replicated_full
            && Access_counter.rate e.counter ~now < min_rate
          then cold := e.key :: !cold);
      List.iter
        (fun k ->
          if Cluster.total_copies cluster ~key:k > 1 then begin
            File_store.remove store ~key:k;
            if String.equal k key then evicted := Pid.to_int p :: !evicted
          end)
        (List.sort compare !cold));
  List.rev !evicted

(* Replay a run's trace on a fresh cluster, with the oracle sweep at
   every eviction tick: serves feed the access counters, pushes add
   replicas, membership events run the Section 5 repair, each at its
   traced time. The run's own [Evict] events are the output under test
   and are skipped. Returns the oracle's evicted (node, time) sequence
   and its replica timeline. *)
let replay_with_oracle ~m ~period ~min_rate ~duration events =
  let cluster = make_cluster ~m () in
  let copies () = float_of_int (Cluster.total_copies cluster ~key) in
  let evicted = ref [] and timeline = ref [ (0.0, copies ()) ] in
  let next_tick = ref period in
  let ticks_until t =
    while !next_tick <= duration && !next_tick <= t do
      let now = !next_tick in
      let nodes = per_node_sweep cluster ~key ~now ~min_rate in
      List.iter (fun n -> evicted := (n, now) :: !evicted) nodes;
      if nodes <> [] then timeline := (now, copies ()) :: !timeline;
      next_tick := now +. period
    done
  in
  List.iter
    (fun (ev : Trace.Event.t) ->
      match ev with
      | Request { at; server; _ } -> (
          ticks_until at;
          match server with
          | Some s ->
              File_store.record_access
                (Cluster.store cluster (Pid.unsafe_of_int s))
                ~key ~now:at
          | None -> ())
      | Replicate { at; dst; _ } ->
          ticks_until at;
          Cluster.add cluster
            (Pid.unsafe_of_int dst)
            ~key ~origin:File_store.Replicated ~version:0 ~now:at;
          timeline := (at, copies ()) :: !timeline
      | Membership { at; node; change } -> (
          ticks_until at;
          let p = Pid.unsafe_of_int node in
          match change with
          | `Join -> ignore (Lesslog.Self_org.join ~now:at cluster p)
          | `Leave -> ignore (Lesslog.Self_org.leave ~now:at cluster p)
          | `Fail -> ignore (Lesslog.Self_org.fail ~now:at cluster p))
      | _ -> ())
    events;
  ticks_until duration;
  (List.rev !evicted, Array.of_list (List.rev !timeline))

(* Over seeds and sizes m = 4..8, a flash crowd under random churn:
   the tick over the key's holders evicts exactly what the per-node
   sweep evicts, at the same times, and the replica timelines agree
   point for point. On every other seed the inserted copy's node fails
   early in the calm; the calm is long enough for the replicas' access
   counters (time constant 30 s) to fall below [min_rate], so the
   survivor floor binds at later ticks. *)
let test_eviction_matches_per_node_sweep () =
  let period = 2.0 and min_rate = 20.0 in
  let total_evicted = ref 0 in
  for seed = 1 to 10 do
    let m = 4 + (seed mod 5) in
    let cluster = make_cluster ~m () in
    let space = Params.space (Cluster.params cluster) in
    let rng = Rng.create ~seed in
    let scenario =
      Lesslog_workload.Scenario.flash_crowd (Cluster.status cluster) ~rng
        ~peak:(150.0 *. float_of_int (1 lsl (m - 2)))
        ~calm:4.0 ~peak_duration:10.0 ~calm_duration:90.0
    in
    let duration = 100.0 in
    let churn_rng = Rng.create ~seed:(1000 + seed) in
    let churn =
      List.init 12 (fun _ ->
          let at = Rng.float churn_rng duration in
          let p = Pid.unsafe_of_int (Rng.int churn_rng space) in
          let action =
            match Rng.int churn_rng 3 with
            | 0 -> Des_sim.Join p
            | 1 -> Des_sim.Leave p
            | _ -> Des_sim.Fail p
          in
          { Des_sim.at; action })
      @
      if seed mod 2 = 0 then
        [ { Des_sim.at = 12.3; action = Des_sim.Fail (Cluster.target_of_key cluster key) } ]
      else []
    in
    let churn = List.sort (fun a b -> compare a.Des_sim.at b.Des_sim.at) churn in
    let events = ref [] in
    let config =
      {
        Des_sim.default_config with
        eviction = Some { Des_sim.period; min_rate };
      }
    in
    let r =
      Des_sim.run_scenario ~config ~churn
        ~sink:(fun ev -> events := ev :: !events)
        ~rng ~cluster ~key ~scenario ()
    in
    let events = List.rev !events in
    let run_evicted =
      List.filter_map
        (function
          | Trace.Event.Evict { at; node; _ } -> Some (node, at) | _ -> None)
        events
    in
    let oracle_evicted, oracle_timeline =
      replay_with_oracle ~m ~period ~min_rate ~duration events
    in
    let label what = Printf.sprintf "seed %d m %d: %s" seed m what in
    Alcotest.(check (list (pair int (float 0.0))))
      (label "evicted (node, time)") oracle_evicted run_evicted;
    Alcotest.(check int) (label "replicas_evicted")
      (List.length oracle_evicted) r.Des_sim.replicas_evicted;
    Alcotest.(check (array (pair (float 0.0) (float 0.0))))
      (label "replica timeline") oracle_timeline
      (Lesslog_metrics.Timeseries.points r.Des_sim.replica_timeline);
    total_evicted := !total_evicted + r.Des_sim.replicas_evicted
  done;
  Alcotest.(check bool) "the runs evict" true (!total_evicted > 0)

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

(* The control plane validates the policy and the cold tier before the
   run starts, under the simulator's message prefix. *)
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
    (fun (label, policy, cold_tier, msg) ->
      Alcotest.check_raises label
        (Invalid_argument ("Des_sim: " ^ msg))
        (fun () -> des policy cold_tier))
    cases

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

(* --- Allocation gate ----------------------------------------------------- *)

(* Minor words and events of one Des_sim run at m = 8 under uniform
   demand: the root replicates early, then the copies settle and every
   later request is a steady GET climb, a serve and a reply. The event
   queue's buckets reach their capacity within about 20 s. *)
let steady_run ~duration =
  let cluster = make_cluster ~m:8 () in
  let rng = Rng.create ~seed:3 in
  let demand = Demand.uniform (Cluster.status cluster) ~total:1000.0 in
  let w0 = Gc.minor_words () in
  let r = Des_sim.run ~rng ~cluster ~key ~demand ~duration () in
  (Gc.minor_words () -. w0, r)

(* A steady request cycle allocates no more than the engine calls it
   makes. The cycle is the marginal between a 40 s and an 80 s run of
   the same seed, per engine event: the first 40 s are identical, so
   set-up, the early replication and the queue's capacity growth
   cancel. The reference is the bare 2-argument engine chain per event.
   Where cross-module inlining is on (release builds) the chain
   allocates nothing, and so must the cycle. Under the dev profile's [-opaque] every float
   crossing a module boundary is boxed: the chain pays that for its
   engine calls, and the cycle also for its calls into the overlay, the
   latency model, the histograms and the access counters, which the
   allowance covers: 6.6 words per event measured at OCaml 5.1, against
   0.0 in a release build. *)
let test_steady_cycle_allocates_no_more_than_engine () =
  let w40, r40 = steady_run ~duration:40.0 in
  let w80, r80 = steady_run ~duration:80.0 in
  Alcotest.(check int) "no replication in the window"
    r40.Des_sim.replicas_created r80.Des_sim.replicas_created;
  let events = r80.Des_sim.events - r40.Des_sim.events in
  let cycle = (w80 -. w40) /. float_of_int events in
  let engine = Test_support.chain_words_per_event (Engine.run ~max_events:14_000) in
  let allowance = if engine = 0.0 then 0.1 else 7.0 in
  if cycle -. engine > allowance then
    Alcotest.failf
      "steady cycle: %.3f words/event, engine calls alone: %.3f (allowance %.1f)"
      cycle engine allowance

(* Minor words and engine events of a run at m = 12 (4,096 live nodes)
   with no demand, so the eviction ticks are the only events. The key
   has its inserted copy and 64 replicas; [min_rate = 0] keeps every
   copy, so each tick walks 65 holders and tests each one. *)
let tick_run ~period =
  let cluster = make_cluster ~m:12 () in
  for i = 1 to 64 do
    Cluster.add cluster
      (Pid.unsafe_of_int (i * 61))
      ~key ~origin:File_store.Replicated ~version:0 ~now:0.0
  done;
  let config =
    {
      Des_sim.default_config with
      eviction = Some { Des_sim.period; min_rate = 0.0 };
    }
  in
  let demand = Demand.of_rates (Array.make 4096 0.0) in
  let rng = Rng.create ~seed:1 in
  let w0 = Gc.minor_words () in
  let r = Des_sim.run ~config ~rng ~cluster ~key ~demand ~duration:64.0 () in
  (Gc.minor_words () -. w0, r)

(* An eviction tick costs the copies it walks, not the population: the
   marginal words per tick, between a run of 64 ticks and one of 256
   that differ in nothing else, stay at most 512 at m = 12. This reads
   0.5 words in a release build (13.5 when each tick built its walk's
   closure and boxed the clock and the rate threshold into it) and 266.5
   under the dev profile's [-opaque], where each holder's clock read
   and rate come back boxed. The sweep over every live node this
   replaced read 209k words per tick here (about 51 per node). *)
let test_eviction_tick_allocation () =
  let w64, r64 = tick_run ~period:1.0 in
  let w256, r256 = tick_run ~period:0.25 in
  Alcotest.(check int) "nothing evicted" 0
    (r64.Des_sim.replicas_evicted + r256.Des_sim.replicas_evicted);
  let ticks = r256.Des_sim.events - r64.Des_sim.events in
  Alcotest.(check int) "ticks apart" 192 ticks;
  let per_tick = (w256 -. w64) /. float_of_int ticks in
  if per_tick > 512.0 then
    Alcotest.failf "eviction tick: %.1f words (at most 512)" per_tick

(* A membership change that moves no file allocates nothing on the
   simulators' one repair path: [Protocol.repair] hands [Self_org] the
   engine's clock, built once, which is read only to stamp a copy the
   change places, so a bystander's change boxes no time. A bystander of an m = 8 cluster holding one
   key leaves and rejoins, then fails and rejoins: 0 words per cycle,
   which covers join, leave and fail alike (a cycle cannot allocate
   less than any of its events). 0 under the dev profile's [-opaque]
   as well, since no float crosses a module boundary. *)
let test_bystander_repair_allocates_nothing () =
  let cluster = make_cluster ~m:8 () in
  let params = Cluster.params cluster in
  let engine = Engine.create () and rng = Rng.create ~seed:1 in
  let overlay =
    Lesslog_net.Overlay.create ~engine ~rng ~latency:Latency.default
      ~loss:0.0 params
  in
  let trigger =
    Protocol.Trigger.create ~capacity:100.0 ~tau:2.0 ~cooldown:0.5
      (Params.space params)
  in
  let p =
    Protocol.create ~rng ~cluster ~key ~engine ~overlay ~trigger
      ~substrate:None ~sink:None ~obs:None
  in
  (* Any node but the target: with the target live, no joiner outranks
     it, and no copy sits anywhere else. *)
  let target = Cluster.target_of_key cluster key in
  let k = Pid.unsafe_of_int ((Pid.to_int target + 1) land 255) in
  let repair change =
    if Protocol.repair p k ~change ~ledger:None <> 0 then assert false
  in
  let cycle depart =
    Test_support.words_per_cycle ~n:1000 (fun () ->
        repair depart;
        repair `Join)
  in
  Alcotest.(check (float 0.0)) "leave + join words" 0.0 (cycle `Leave);
  Alcotest.(check (float 0.0)) "fail + join words" 0.0 (cycle `Fail);
  Alcotest.(check int) "no key lost" 0 p.Protocol.lost_keys

(* The flat trigger keeps each slot's count and stamp in float arrays;
   over any record/query sequence its rate must equal a per-slot
   [Access_counter]'s bit for bit, and its overload verdict with it. *)
let prop_flat_trigger_matches_counter =
  let slots = 4 and tau = 1.5 and capacity = 2.0 in
  Test_support.qcheck_case ~name:"flat trigger = Access_counter, bit for bit"
    QCheck2.Gen.(
      list_size (int_range 1 200)
        (triple (int_bound (slots - 1)) bool (float_bound_inclusive 0.7)))
    (fun ops ->
      let trigger =
        Lesslog_des.Protocol.Trigger.create ~capacity ~tau ~cooldown:1.0 slots
      in
      let counters =
        Array.init slots (fun _ -> Access_counter.create ~tau ~now:0.0 ())
      in
      let now = ref 0.0 in
      List.for_all
        (fun (i, is_record, dt) ->
          now := !now +. dt;
          if is_record then begin
            Lesslog_des.Protocol.Trigger.record trigger i ~now:!now;
            Access_counter.record counters.(i) ~now:!now;
            true
          end
          else
            let flat = Lesslog_des.Protocol.Trigger.rate trigger i ~now:!now
            and reference = Access_counter.rate counters.(i) ~now:!now in
            Int64.equal (Int64.bits_of_float flat) (Int64.bits_of_float reference)
            && Lesslog_des.Protocol.Trigger.overloaded trigger i ~now:!now
               = (reference > capacity))
        ops)

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
      ( "allocation",
        [
          Alcotest.test_case "steady cycle: no more than the engine calls"
            `Quick test_steady_cycle_allocates_no_more_than_engine;
          Alcotest.test_case "eviction tick: at most 512 words at m = 12"
            `Quick test_eviction_tick_allocation;
          Alcotest.test_case "bystander repair allocates nothing" `Quick
            test_bystander_repair_allocates_nothing;
        ] );
      ("trigger", [ prop_flat_trigger_matches_counter ]);
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
          Alcotest.test_case "eviction survivor floor" `Quick
            test_eviction_survivor_floor;
          Alcotest.test_case "eviction tick = per-node sweep" `Quick
            test_eviction_matches_per_node_sweep;
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
