(* The domain-parallel simulation stack: the sharded engine against the
   plain packed core, the no-same-epoch-delivery mailbox property, and
   the headline determinism claim — Pdes_sim runs bit-identically at any
   domain count. *)

open Lesslog_id
module Engine = Lesslog_sim.Engine
module Sharded = Lesslog_sim.Sharded_engine
module Pdes = Lesslog_des.Pdes_sim
module Demand = Lesslog_workload.Demand
module Status_word = Lesslog_membership.Status_word
module Latency = Lesslog_net.Latency
module Histogram = Lesslog_metrics.Histogram

(* --- Sharded engine ---------------------------------------------------- *)

(* A reproducible synthetic workload: event [b] at a node re-posts
   locally while [b > 0], and every third value also crosses to the next
   shard. Pure function of the payload, so the same schedule can be
   replayed on any engine and any domain count. *)
let synthetic_schedule ~shards ~seeds =
  List.concat_map
    (fun seed ->
      List.init 12 (fun i ->
          let t = float_of_int (((seed * 37) + (i * 13)) mod 50) /. 7.0 in
          (i mod shards, t, (seed + i) mod 7, (seed * i) mod 5)))
    seeds

let run_sharded ?fuse ~shards ~domains sched =
  let lookahead = 0.5 in
  let se = Sharded.create ~shards ~lookahead () in
  let log = Array.make shards [] in
  let handlers = Array.make shards (-1) in
  for s = 0 to shards - 1 do
    let eng = Sharded.engine se s in
    let h = ref (-1) in
    let handler a b =
      let x = Engine.x eng in
      log.(s) <- (Engine.now eng, a, b, x) :: log.(s);
      if b > 0 then Engine.post eng ~delay:0.1 ~h:!h ~a ~b:(b - 1) ~x;
      if b > 0 && b mod 3 = 0 && shards > 1 then
        Sharded.send se ~src:s ~dst:((s + 1) mod shards)
          ~delay:(lookahead +. 0.01) ~h:handlers.((s + 1) mod shards) ~a
          ~b:(max 0 (b - 1))
          ~x:(x +. 1.0)
    in
    h := Engine.register eng handler;
    handlers.(s) <- !h
  done;
  List.iter
    (fun (s, t, a, b) ->
      Engine.post_at (Sharded.engine se s) ~time:t ~h:handlers.(s) ~a ~b
        ~x:0.0)
    sched;
  Sharded.run ?fuse ~domains se;
  let phases = Sharded.phases se and epochs = Sharded.epoch se in
  (Array.map List.rev log, epochs, phases)

let test_one_shard_matches_engine () =
  let sched = synthetic_schedule ~shards:1 ~seeds:[ 3; 11; 29 ] in
  let logs, _, _ = run_sharded ~shards:1 ~domains:1 sched in
  let sharded = logs.(0) in
  (* The same schedule on a bare packed engine. *)
  let eng = Engine.create () in
  let log = ref [] in
  let h = ref (-1) in
  let handler a b =
    let x = Engine.x eng in
    log := (Engine.now eng, a, b, x) :: !log;
    if b > 0 then Engine.post eng ~delay:0.1 ~h:!h ~a ~b:(b - 1) ~x
  in
  h := Engine.register eng handler;
  List.iter
    (fun (_, t, a, b) -> Engine.post_at eng ~time:t ~h:!h ~a ~b ~x:0.0)
    sched;
  Engine.run eng;
  Alcotest.(check int) "events" (List.length !log) (List.length sharded);
  Alcotest.(check bool) "sequence identical" true (List.rev !log = sharded)

let test_sharded_domain_invariance () =
  let sched = synthetic_schedule ~shards:4 ~seeds:[ 1; 5; 9; 17; 23 ] in
  let base, _, _ = run_sharded ~shards:4 ~domains:1 sched in
  List.iter
    (fun domains ->
      let other, _, _ = run_sharded ~shards:4 ~domains sched in
      for s = 0 to 3 do
        Alcotest.(check bool)
          (Printf.sprintf "shard %d @ %d domains" s domains)
          true
          (base.(s) = other.(s))
      done)
    [ 2; 3; 4; 8 ]

(* Epoch fusion is a pure dispatch optimisation: on any random schedule
   the fused and unfused runs must produce identical event sequences —
   at 1 domain and at several. The generator draws a shard count and a
   handful of schedule seeds, the same recipe as the fixed tests. *)
let qcheck_fused_equals_unfused =
  Test_support.qcheck_case ~count:40 ~name:"fused = unfused on random schedules"
    QCheck2.Gen.(
      pair (int_range 1 4) (list_size (int_range 1 6) (int_range 0 1000)))
    (fun (shards, seeds) ->
      let sched = synthetic_schedule ~shards ~seeds in
      let fused, ep_f, ph_f = run_sharded ~fuse:true ~shards ~domains:1 sched in
      let unfused, ep_u, ph_u =
        run_sharded ~fuse:false ~shards ~domains:1 sched
      in
      let fused3, _, _ = run_sharded ~fuse:true ~shards ~domains:3 sched in
      fused = unfused && fused = fused3 && ep_f = ep_u && ph_u = ep_u
      && ph_f <= ep_f)

let test_fusion_collapses_quiet_epochs () =
  (* A purely local workload (no cross-shard sends, no globals) spans
     many epoch windows but needs only one pool dispatch. *)
  let sched =
    List.init 8 (fun i -> (i mod 2, float_of_int i, 1, 0))
  in
  let _, epochs, phases = run_sharded ~shards:2 ~domains:2 sched in
  Alcotest.(check bool) "many epochs" true (epochs > 1);
  Alcotest.(check int) "one phase" 1 phases

let test_send_below_lookahead_rejected () =
  let se = Sharded.create ~shards:2 ~lookahead:0.5 () in
  let h = Engine.register (Sharded.engine se 1) (fun _ _ -> ()) in
  Alcotest.check_raises "below lookahead"
    (Invalid_argument "Sharded_engine.send: cross-shard delay below lookahead")
    (fun () -> Sharded.send se ~src:0 ~dst:1 ~delay:0.25 ~h ~a:0 ~b:0 ~x:0.0)

(* No event is delivered in the epoch that issued it: stamp every
   cross-shard payload with the issuing epoch and check it on arrival. *)
let test_no_same_epoch_delivery () =
  let shards = 3 and lookahead = 0.125 in
  let se = Sharded.create ~shards ~lookahead () in
  let handlers = Array.make shards (-1) in
  let violations = ref 0 and delivered = ref 0 in
  for s = 0 to shards - 1 do
    let eng = Sharded.engine se s in
    let handler a b =
      if a >= 0 then begin
        (* Cross-shard delivery: [a] is the issuing epoch. *)
        incr delivered;
        if Sharded.epoch se <= a then incr violations
      end;
      if b > 0 then begin
        let dst = (s + 1) mod shards in
        Sharded.send se ~src:s ~dst ~delay:(lookahead +. 0.001)
          ~h:handlers.(dst) ~a:(Sharded.epoch se) ~b:(b - 1) ~x:0.0;
        Engine.post eng ~delay:0.05 ~h:handlers.(s) ~a:(-1) ~b:(b - 1) ~x:0.0
      end
    in
    handlers.(s) <- Engine.register eng handler
  done;
  for s = 0 to shards - 1 do
    Engine.post_at (Sharded.engine se s) ~time:(0.1 *. float_of_int (s + 1))
      ~h:handlers.(s) ~a:(-1) ~b:6 ~x:0.0
  done;
  Sharded.run ~domains:1 se;
  Alcotest.(check bool) "cross deliveries happened" true (!delivered > 0);
  Alcotest.(check int) "same-epoch deliveries" 0 !violations

let test_globals_fire_in_order () =
  let se = Sharded.create ~shards:2 ~lookahead:1.0 () in
  let fired = ref [] in
  let h =
    Engine.register (Sharded.engine se 0) (fun a _ ->
        fired := `Event a :: !fired)
  in
  ignore (Engine.register (Sharded.engine se 1) (fun _ _ -> ()));
  List.iter
    (fun t -> Engine.post_at (Sharded.engine se 0) ~time:t ~h ~a:(int_of_float t) ~b:0 ~x:0.0)
    [ 1.0; 3.0; 5.0 ];
  Sharded.run
    ~globals:
      [ (2.0, fun () -> fired := `Global 2 :: !fired);
        (4.0, fun () -> fired := `Global 4 :: !fired) ]
    ~domains:1 se;
  Alcotest.(check bool)
    "interleaved in time order" true
    (List.rev !fired
    = [ `Event 1; `Global 2; `Event 3; `Global 4; `Event 5 ])

(* --- Pdes_sim ----------------------------------------------------------- *)

let pdes_churn params =
  let pid i = Pid.unsafe_of_int (i mod Params.space params) in
  [
    { Pdes.at = 0.6; action = Pdes.Fail (pid 11) };
    { Pdes.at = 0.9; action = Pdes.Leave (pid 42) };
    { Pdes.at = 1.2; action = Pdes.Fail (pid 7) };
    { Pdes.at = 1.7; action = Pdes.Join (pid 11) };
  ]

let run_pdes ?(m = 8) ?(b = 2) ?(loss = 0.02) ~domains () =
  let params = Params.create ~m ~b () in
  let status = Status_word.create params ~initially_live:true in
  let demand = Demand.uniform status ~total:900.0 in
  Pdes.run
    ~config:{ Pdes.default_config with loss }
    ~churn:(pdes_churn params) ~domains ~seed:4242 ~params ~key:"pdes/object"
    ~demand ~duration:2.5 ()

let check_same_result msg (a : Pdes.result) (b : Pdes.result) =
  Alcotest.(check int) (msg ^ ": digest") a.Pdes.digest b.Pdes.digest;
  Alcotest.(check int) (msg ^ ": served") a.Pdes.served b.Pdes.served;
  Alcotest.(check int) (msg ^ ": faults") a.Pdes.faults b.Pdes.faults;
  Alcotest.(check int) (msg ^ ": requests") a.Pdes.requests b.Pdes.requests;
  Alcotest.(check int)
    (msg ^ ": migrations") a.Pdes.migrations b.Pdes.migrations;
  Alcotest.(check int)
    (msg ^ ": replicas") a.Pdes.replicas_created b.Pdes.replicas_created;
  Alcotest.(check int)
    (msg ^ ": replicas_end") a.Pdes.replicas_end b.Pdes.replicas_end;
  Alcotest.(check int) (msg ^ ": messages") a.Pdes.messages b.Pdes.messages;
  Alcotest.(check int) (msg ^ ": events") a.Pdes.events b.Pdes.events;
  Alcotest.(check int)
    (msg ^ ": latency count")
    (Histogram.count a.Pdes.latencies)
    (Histogram.count b.Pdes.latencies);
  Alcotest.(check (float 1e-9))
    (msg ^ ": latency mean")
    (Histogram.mean a.Pdes.latencies)
    (Histogram.mean b.Pdes.latencies)

let test_pdes_domain_invariance () =
  let base = run_pdes ~domains:1 () in
  Alcotest.(check bool) "run does something" true (base.Pdes.served > 0);
  Alcotest.(check bool) "epochs advanced" true (base.Pdes.epochs > 0);
  List.iter
    (fun domains ->
      check_same_result
        (Printf.sprintf "%d domains" domains)
        base
        (run_pdes ~domains ()))
    [ 2; 4; 8 ]

let test_pdes_eight_shards () =
  (* 2^3 subtrees: every domain count up to 8 maps onto real shards. *)
  let base = run_pdes ~m:9 ~b:3 ~domains:1 () in
  List.iter
    (fun domains ->
      check_same_result
        (Printf.sprintf "b=3, %d domains" domains)
        base
        (run_pdes ~m:9 ~b:3 ~domains ()))
    [ 2; 4; 8 ]

let test_pdes_oversized_pool () =
  (* The shared pool only grows: after an 8-domain run the pool keeps 8
     workers, and a later 2-domain run hands its epoch job to all of
     them. The engine must ignore workers beyond its own count or two
     of them race on one shard (regression: duplicate-drain race). *)
  ignore (Sys.opaque_identity (Lesslog_parallel.Par.ensure_pool 8));
  let base = run_pdes ~m:9 ~b:3 ~domains:1 () in
  for i = 1 to 5 do
    check_same_result
      (Printf.sprintf "oversized pool, try %d" i)
      base
      (run_pdes ~m:9 ~b:3 ~domains:2 ())
  done

(* The dynamic-RF policy runs in sequential barrier globals and draws no
   randomness, so the headline determinism claim must survive it: the
   same policy-driven run is bit-identical at any domain count. Each run
   needs a fresh policy instance — the policy itself is mutable state. *)
let run_pdes_policy ~domains () =
  let params = Params.create ~m:8 ~b:2 () in
  let status = Status_word.create params ~initially_live:true in
  let demand = Demand.uniform status ~total:900.0 in
  let policy =
    Lesslog_policy.Rf_policy.create
      ~config:
        {
          Lesslog_policy.Rf_policy.default_config with
          Lesslog_policy.Rf_policy.interval = 0.25;
          rf_max = Params.space params;
          capacity = Some 100.0;
        }
      ~rf0:(Params.subtree_count params)
      ~nodes:(Params.space params) ~files:1 ()
  in
  Pdes.run ~churn:(pdes_churn params) ~policy ~domains ~seed:4242 ~params
    ~key:"pdes/object" ~demand ~duration:2.5 ()

let test_pdes_policy_domain_invariance () =
  let base = run_pdes_policy ~domains:1 () in
  Alcotest.(check bool) "policy replicated" true
    (base.Pdes.replicas_created > 0);
  (* The policy path is load-bearing: it must not reproduce the
     native-trigger run. *)
  Alcotest.(check bool) "differs from native" true
    (base.Pdes.digest <> (run_pdes ~loss:0.0 ~domains:1 ()).Pdes.digest);
  List.iter
    (fun domains ->
      check_same_result
        (Printf.sprintf "policy, %d domains" domains)
        base
        (run_pdes_policy ~domains ()))
    [ 2; 4; 8 ]

let test_pdes_cold_tier_domain_invariance () =
  (* The erasure-coded cold tier mutates only in the sequential barrier
     globals, so the digest and the whole cold ledger must survive the
     domain count. The workload's trickle alternates idle and busy
     policy intervals, driving real demote/promote cycles. *)
  let point domains =
    Lesslog_harness.Experiments.coldtier_pdes ~m:7 ~domains ~duration:4.0 ()
  in
  let base = point 1 in
  let bc =
    match base.Pdes.cold with
    | Some c -> c
    | None -> Alcotest.fail "expected a cold ledger"
  in
  Alcotest.(check bool) "tier exercised" true
    (bc.Lesslog_des.Control_plane.demotions >= 1
    && bc.Lesslog_des.Control_plane.coded_serves >= 1);
  Alcotest.(check bool) "payload intact" false
    bc.Lesslog_des.Control_plane.lost_cold;
  List.iter
    (fun domains ->
      let p = point domains in
      check_same_result
        (Printf.sprintf "cold tier, %d domains" domains)
        base p;
      Alcotest.(check bool)
        (Printf.sprintf "cold ledger identical at %d domains" domains)
        true
        (p.Pdes.cold = base.Pdes.cold))
    [ 2; 4; 8 ]

let test_pdes_quiet_run_has_no_faults () =
  (* All nodes live, no loss: every subtree keeps its insertion copy, so
     routing always terminates at a holder. *)
  let params = Params.create ~m:7 ~b:2 () in
  let status = Status_word.create params ~initially_live:true in
  let demand = Demand.uniform status ~total:400.0 in
  let r =
    Pdes.run ~domains:2 ~seed:7 ~params ~key:"quiet" ~demand ~duration:1.5 ()
  in
  Alcotest.(check int) "no faults" 0 r.Pdes.faults;
  Alcotest.(check int) "no migrations" 0 r.Pdes.migrations;
  Alcotest.(check bool) "requests flowed" true (r.Pdes.requests > 100);
  Alcotest.(check bool) "served <= requests" true
    (r.Pdes.served <= r.Pdes.requests);
  Alcotest.(check bool)
    "insertion copies survive" true
    (r.Pdes.replicas_end >= Params.subtree_count params)

let test_pdes_replication_under_load () =
  (* Hotspot demand far above one node's capacity must create replicas. *)
  let params = Params.create ~m:6 ~b:1 () in
  let status = Status_word.create params ~initially_live:true in
  let demand = Demand.uniform status ~total:2000.0 in
  let r =
    Pdes.run
      ~config:{ Pdes.default_config with capacity = 50.0 }
      ~domains:2 ~seed:13 ~params ~key:"hot" ~demand ~duration:2.0 ()
  in
  Alcotest.(check bool) "replicated" true (r.Pdes.replicas_created > 0);
  Alcotest.(check bool) "copies at end" true
    (r.Pdes.replicas_end > Params.subtree_count params)

let test_pdes_churn_moves_copies () =
  let params = Params.create ~m:8 ~b:2 () in
  let status = Status_word.create params ~initially_live:true in
  let demand = Demand.uniform status ~total:600.0 in
  (* Fail every member of subtree 0's insertion chain head-on: the copy
     must be recovered from a sibling subtree, not lost. *)
  let tree_key = "churny" in
  let r =
    Pdes.run ~churn:(pdes_churn params) ~domains:4 ~seed:99 ~params
      ~key:tree_key ~demand ~duration:2.5 ()
  in
  Alcotest.(check bool) "control traffic accounted" true
    (r.Pdes.control_messages > 0);
  Alcotest.(check bool) "copies survive churn" true (r.Pdes.replicas_end > 0)

(* --- Fault plans on Pdes_sim -------------------------------------------- *)

module Faults = Lesslog_workload.Faults
module Rng = Lesslog_prng.Rng

let fault_plan ~seed ~params ~duration =
  let status = Status_word.create params ~initially_live:true in
  Faults.generate ~rng:(Rng.create ~seed)
    ~live:(Status_word.live_pids status)
    ~duration ~crash_fraction:0.1 ~restart_fraction:0.5 ~bursts:2
    ~burst_loss:0.4 ~partitions:0 ()

let run_faulted ?fuse ~domains () =
  let params = Params.create ~m:9 ~b:3 () in
  let duration = 2.5 in
  let status = Status_word.create params ~initially_live:true in
  let demand = Demand.uniform status ~total:900.0 in
  Pdes.run
    ~faults:(fault_plan ~seed:77 ~params ~duration)
    ?fuse ~domains ~seed:4242 ~params ~key:"pdes/faulted" ~demand ~duration ()

let test_pdes_faulted_domain_invariance () =
  (* The churn-heavy workload: crashes, restarts and loss bursts as
     barrier globals must not disturb domain-count invariance — and
     fusion must stay a no-op on results. *)
  let base = run_faulted ~domains:1 () in
  Alcotest.(check bool) "run does something" true (base.Pdes.served > 0);
  List.iter
    (fun domains ->
      check_same_result
        (Printf.sprintf "faulted, %d domains" domains)
        base
        (run_faulted ~domains ()))
    [ 2; 4; 8 ];
  let unfused = run_faulted ~fuse:false ~domains:2 () in
  check_same_result "faulted, unfused" base unfused;
  Alcotest.(check int) "unfused: one dispatch per epoch" unfused.Pdes.epochs
    unfused.Pdes.phases;
  Alcotest.(check bool) "fused: fewer dispatches than epochs" true
    (base.Pdes.phases < base.Pdes.epochs)

let test_pdes_loss_burst_drops_messages () =
  (* A wall-to-wall loss burst at p = 0.99 suppresses almost every
     overlay message for its span, so far fewer requests resolve than in
     the quiet run. *)
  let params = Params.create ~m:8 ~b:2 () in
  let status = Status_word.create params ~initially_live:true in
  let demand = Demand.uniform status ~total:900.0 in
  let go faults =
    Pdes.run ?faults ~domains:2 ~seed:4242 ~params ~key:"bursty" ~demand
      ~duration:2.0 ()
  in
  let quiet = go None in
  let bursty =
    go
      (Some
         {
           Faults.empty with
           Faults.bursts =
             [ { Faults.from_ = 0.1; until = 1.9; loss = 0.99 } ];
         })
  in
  Alcotest.(check bool) "burst suppresses resolutions" true
    (bursty.Pdes.served * 2 < quiet.Pdes.served);
  Alcotest.(check bool) "demand kept flowing" true
    (bursty.Pdes.requests > 100)

(* Baseline and burst losses outside [0, 1) — NaN included — are
   rejected before any shard is built. *)
let test_pdes_loss_validated () =
  let params = Params.create ~m:6 ~b:1 () in
  let status = Status_word.create params ~initially_live:true in
  let demand = Demand.uniform status ~total:100.0 in
  let run ?faults loss () =
    ignore
      (Pdes.run
         ~config:{ Pdes.default_config with loss }
         ?faults ~seed:1 ~params ~key:"lossy" ~demand ~duration:0.5 ())
  in
  let burst loss =
    {
      Faults.empty with
      Faults.bursts = [ { Faults.from_ = 0.1; until = 0.3; loss } ];
    }
  in
  List.iter
    (fun loss ->
      Alcotest.check_raises
        (Printf.sprintf "loss %g" loss)
        (Invalid_argument "Pdes_sim.run: loss must be in [0, 1)")
        (run loss);
      Alcotest.check_raises
        (Printf.sprintf "burst loss %g" loss)
        (Invalid_argument "Pdes_sim.run: loss must be in [0, 1)")
        (run ~faults:(burst loss) 0.0))
    [ -0.5; 1.0; 1.5; Float.nan ]

let test_pdes_partitions_rejected () =
  let params = Params.create ~m:6 ~b:1 () in
  let status = Status_word.create params ~initially_live:true in
  let demand = Demand.uniform status ~total:100.0 in
  let faults =
    {
      Faults.empty with
      Faults.partitions =
        [
          {
            Faults.from_ = 0.1;
            until = 0.5;
            group = [ Pid.unsafe_of_int 3 ];
            direction = Faults.Both;
          };
        ];
    }
  in
  Alcotest.check_raises "partitions unsupported"
    (Invalid_argument "Pdes_sim.run: partitions are not supported")
    (fun () ->
      ignore
        (Pdes.run ~faults ~seed:1 ~params ~key:"cut" ~demand ~duration:0.5 ()))

(* A [Uniform] model with [lo > hi] samples below [lo], yet [lo] would
   become the conservative lookahead; a NaN model would corrupt the event
   order. Both are rejected before any shard is built. *)
let test_pdes_latency_validated () =
  let params = Params.create ~m:6 ~b:1 () in
  let status = Status_word.create params ~initially_live:true in
  let demand = Demand.uniform status ~total:100.0 in
  let run latency () =
    ignore
      (Pdes.run
         ~config:{ Pdes.default_config with latency }
         ~seed:1 ~params ~key:"lat" ~demand ~duration:0.5 ())
  in
  Alcotest.check_raises "lo above hi"
    (Invalid_argument "Pdes_sim.run: latency hi must be >= lo")
    (run (Latency.Uniform { lo = 0.08; hi = 0.01 }));
  Alcotest.check_raises "nan constant"
    (Invalid_argument "Pdes_sim.run: latency constant must be finite")
    (run (Latency.Constant Float.nan));
  Alcotest.check_raises "negative floor"
    (Invalid_argument "Pdes_sim.run: latency floor must be >= 0")
    (run (Latency.Exponential { mean = 0.02; floor = -0.01 }))

let () =
  Alcotest.run "pdes"
    [
      ( "sharded-engine",
        [
          Alcotest.test_case "one shard = packed engine" `Quick
            test_one_shard_matches_engine;
          Alcotest.test_case "domain invariance" `Quick
            test_sharded_domain_invariance;
          Alcotest.test_case "lookahead enforced" `Quick
            test_send_below_lookahead_rejected;
          Alcotest.test_case "no same-epoch delivery" `Quick
            test_no_same_epoch_delivery;
          Alcotest.test_case "globals in time order" `Quick
            test_globals_fire_in_order;
          qcheck_fused_equals_unfused;
          Alcotest.test_case "fusion collapses quiet epochs" `Quick
            test_fusion_collapses_quiet_epochs;
        ] );
      ( "pdes-sim",
        [
          Alcotest.test_case "bit-identical at 1/2/4/8 domains" `Quick
            test_pdes_domain_invariance;
          Alcotest.test_case "eight shards, 1/2/4/8 domains" `Quick
            test_pdes_eight_shards;
          Alcotest.test_case "oversized pool: workers beyond domains idle"
            `Quick test_pdes_oversized_pool;
          Alcotest.test_case "dynamic-RF policy bit-identical at 1/2/4/8"
            `Quick test_pdes_policy_domain_invariance;
          Alcotest.test_case "cold tier bit-identical at 1/2/4/8" `Quick
            test_pdes_cold_tier_domain_invariance;
          Alcotest.test_case "quiet run: no faults" `Quick
            test_pdes_quiet_run_has_no_faults;
          Alcotest.test_case "replication under load" `Quick
            test_pdes_replication_under_load;
          Alcotest.test_case "churn recovers copies" `Quick
            test_pdes_churn_moves_copies;
        ] );
      ( "pdes-faults",
        [
          Alcotest.test_case "faulted run bit-identical at 1/2/4/8 domains"
            `Quick test_pdes_faulted_domain_invariance;
          Alcotest.test_case "loss burst drops messages" `Quick
            test_pdes_loss_burst_drops_messages;
          Alcotest.test_case "loss validated" `Quick test_pdes_loss_validated;
          Alcotest.test_case "partitions rejected" `Quick
            test_pdes_partitions_rejected;
          Alcotest.test_case "latency model validated" `Quick
            test_pdes_latency_validated;
        ] );
    ]
