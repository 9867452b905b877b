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
module Par = Lesslog_parallel.Par

(* --- Sharded engine ---------------------------------------------------- *)

(* An engine with no per-shard caller state. *)
let create ?domains ~shards ~lookahead () =
  fst (Sharded.create ?domains ~shards ~lookahead ~init:(fun _ _ -> ()) ())

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

(* [gsched] lists barrier globals as [(at, s, b)]: at [at] the global
   posts an event with payload [b] on shard [s] and sends one to the next
   shard, both with [a = -1] so the log tells them apart. Each firing is
   logged too, on shard [s], with [b = -1], and then [on_global at se]
   runs. *)
let run_sharded ?(gsched = []) ?(on_global = fun _ _ -> ()) ~shards
    ~domains sched =
  let lookahead = 0.5 in
  let se = create ~domains ~shards ~lookahead () in
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
  let global (at, s, b) =
    ( at,
      fun () ->
        let eng = Sharded.engine se s and dst = (s + 1) mod shards in
        log.(s) <- (Engine.now eng, -1, -1, at) :: log.(s);
        Engine.post eng ~delay:0.05 ~h:handlers.(s) ~a:(-1) ~b ~x:at;
        Sharded.send se ~src:s ~dst ~delay:(lookahead +. 0.02) ~h:handlers.(dst)
          ~a:(-1) ~b ~x:(at +. 1.0);
        on_global at se )
  in
  let globals =
    List.map global
      (List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b) gsched)
  in
  Sharded.run ~globals se;
  let phases = Sharded.phases se and epochs = Sharded.epoch se in
  (Array.map List.rev log, epochs, phases)

(* FNV-1a over every logged event, shard by shard, floats by their bits:
   one number that pins a whole run. *)
let log_digest logs =
  let mix h v = (h lxor v) * 0x100000001b3 in
  let fmix h f = mix h (Int64.to_int (Int64.bits_of_float f)) in
  Array.fold_left
    (fun h log ->
      List.fold_left
        (fun h (t, a, b, x) -> fmix (mix (mix (fmix h t) a) b) x)
        (mix h 0x5eed) log)
    0xcbf29ce4 logs

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

(* A fixed schedule pinned by digest. It has cross-shard sends from
   handlers, globals that post locally and send across shards, and
   globals due while mail is parked: the event at 10.0 on shard 0 sends
   to shard 1 for 10.51 and the window stops at the global at 10.3, so
   the global fires with that message still in its mailbox. The same
   happens at 20.49 (a message for 20.51), and the next global, at
   20.52 on shard 1, is due before any event left in the queues: it
   must still follow the parked message, which the flush after each
   global puts in the frontier. *)
let pinned_schedule =
  synthetic_schedule ~shards:3 ~seeds:[ 2; 7; 13 ]
  @ [ (0, 10.0, 4, 3); (0, 20.0, 5, 3) ]

let pinned_globals =
  [
    (0.45, 1, 4); (2.0, 0, 3); (2.0, 2, 1); (5.5, 2, 6); (10.3, 2, 2);
    (20.49, 2, 0); (20.52, 1, 0);
  ]

let pinned_digest = -2082301370027677207

let test_pinned_schedule () =
  List.iter
    (fun domains ->
      let label what = Printf.sprintf "%d domains: %s" domains what in
      let parked = ref false in
      let on_global at se =
        if at = 10.3 then
          parked := Engine.next_time_inf (Sharded.engine se 1) = Float.infinity
      in
      let logs, _, phases =
        run_sharded ~gsched:pinned_globals ~on_global ~shards:3 ~domains
          pinned_schedule
      in
      Alcotest.(check bool) (label "shard 1 idle at the 10.3 global") true !parked;
      Alcotest.(check bool) (label "the parked message arrives") true
        (List.mem (10.0 +. 0.51, 4, 2, 1.0) logs.(1));
      Alcotest.(check int) (label "digest") pinned_digest (log_digest logs);
      Alcotest.(check int) (label "one pool job") 1 phases)
    [ 1; 2; 3 ]

(* Random schedules with random globals that post and send: the logs are
   identical at 1, 2 and 3 domains, and each run is one pool job. The
   generator draws a shard count, a handful of schedule seeds (the same
   recipe as the fixed tests) and up to five globals in [0, 8). *)
let qcheck_random_globals =
  Test_support.qcheck_case ~count:40
    ~name:"random schedules with globals"
    QCheck2.Gen.(
      triple (int_range 1 4)
        (list_size (int_range 1 6) (int_range 0 1000))
        (list_size (int_range 0 5)
           (triple (float_bound_exclusive 8.0) (int_range 0 3) (int_range 0 6))))
    (fun (shards, seeds, globals) ->
      let sched = synthetic_schedule ~shards ~seeds in
      let gsched = List.map (fun (at, s, b) -> (at, s mod shards, b)) globals in
      let run domains = run_sharded ~gsched ~shards ~domains sched in
      let logs1, epochs1, phases1 = run 1 in
      List.for_all
        (fun domains ->
          let logs, epochs, phases = run domains in
          logs = logs1 && epochs = epochs1 && phases = 1)
        [ 2; 3 ]
      && phases1 = 1)

let test_fusion_collapses_quiet_epochs () =
  (* A purely local workload (no cross-shard sends, no globals) spans
     many epoch windows in one pool dispatch. *)
  let sched =
    List.init 8 (fun i -> (i mod 2, float_of_int i, 1, 0))
  in
  let _, epochs, phases = run_sharded ~shards:2 ~domains:2 sched in
  Alcotest.(check bool) "many epochs" true (epochs > 1);
  Alcotest.(check int) "one phase" 1 phases

let test_send_below_lookahead_rejected () =
  let se = create ~shards:2 ~lookahead:0.5 () in
  let h = Engine.register (Sharded.engine se 1) (fun _ _ -> ()) in
  Alcotest.check_raises "below lookahead"
    (Invalid_argument "Sharded_engine.send: cross-shard delay below lookahead")
    (fun () -> Sharded.send se ~src:0 ~dst:1 ~delay:0.25 ~h ~a:0 ~b:0 ~x:0.0)

(* No event is delivered in the epoch that issued it: stamp every
   cross-shard payload with the issuing epoch and check it on arrival. *)
let test_no_same_epoch_delivery () =
  let shards = 3 and lookahead = 0.125 in
  let se = create ~shards ~lookahead () in
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
  Sharded.run se;
  Alcotest.(check bool) "cross deliveries happened" true (!delivered > 0);
  Alcotest.(check int) "same-epoch deliveries" 0 !violations

let test_globals_fire_in_order () =
  let se = create ~shards:2 ~lookahead:1.0 () in
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
    se;
  Alcotest.(check bool)
    "interleaved in time order" true
    (List.rev !fired
    = [ `Event 1; `Global 2; `Event 3; `Global 4; `Event 5 ])

(* The constructor hook: shard i is built exactly once, gets its own
   engine and value back in shard order, and is built on the domain that
   later drains it — at several worker counts, and with the shared pool
   wider than the engine's workers (extra workers build nothing). *)
let test_init_hook () =
  let shards = 8 in
  let domain () = (Domain.self () :> int) in
  let check_at ~domains =
    let label what = Printf.sprintf "%d domains: %s" domains what in
    let calls = Array.init shards (fun _ -> Atomic.make 0) in
    let built_on = Array.make shards (-1) and drained_on = Array.make shards (-1) in
    let se, values =
      Sharded.create ~domains ~shards ~lookahead:0.5
        ~init:(fun i eng ->
          Atomic.incr calls.(i);
          built_on.(i) <- domain ();
          let h = Engine.register eng (fun _ _ -> drained_on.(i) <- domain ()) in
          Engine.post_at eng ~time:0.25 ~h ~a:0 ~b:0 ~x:0.0;
          (i, eng))
        ()
    in
    Sharded.run se;
    Alcotest.(check (array int))
      (label "built once") (Array.make shards 1) (Array.map Atomic.get calls);
    Alcotest.(check (array int))
      (label "values in shard order") (Array.init shards Fun.id)
      (Array.map fst values);
    Array.iteri
      (fun i (_, eng) ->
        Alcotest.(check bool) (label "own engine") true (eng == Sharded.engine se i))
      values;
    Alcotest.(check (array int)) (label "built where drained") built_on drained_on;
    let times = Sharded.worker_times se in
    Alcotest.(check int) (label "one timing per worker") (min domains shards)
      (Array.length times);
    Array.iter
      (fun (wt : Sharded.worker_time) ->
        Alcotest.(check bool) (label "times non-negative") true
          (wt.drain_s >= 0.0 && wt.deliver_s >= 0.0 && wt.barrier_spin_s >= 0.0
          && wt.barrier_block_s >= 0.0))
      times
  in
  List.iter (fun domains -> check_at ~domains) [ 1; 2; 4; 8 ];
  ignore (Sys.opaque_identity (Par.ensure_pool 8));
  List.iter (fun domains -> check_at ~domains) [ 2; 3 ]

(* A raising handler or global ends the run on every worker, and [run]
   re-raises the original exception; the shared pool then runs another
   engine, so no worker was left waiting at the barrier. *)
exception Boom of string

let check_pool_still_runs ~domains =
  let logs, _, _ =
    run_sharded ~gsched:pinned_globals ~shards:3 ~domains pinned_schedule
  in
  Alcotest.(check int)
    (Printf.sprintf "%d domains: next engine's digest" domains)
    pinned_digest (log_digest logs)

(* Four shards, each with a chain of local events over [0, 4); shard 3's
   handler raises at 2.0 when [raise_at_2] is set. *)
let failing_engine ~domains ~raise_at_2 =
  let se = create ~domains ~shards:4 ~lookahead:0.5 () in
  for s = 0 to 3 do
    let eng = Sharded.engine se s in
    let h = ref (-1) in
    h :=
      Engine.register eng (fun _ b ->
          if raise_at_2 && s = 3 && Engine.now eng = 2.0 then
            raise (Boom "handler");
          if b > 0 then Engine.post eng ~delay:0.25 ~h:!h ~a:0 ~b:(b - 1) ~x:0.0);
    Engine.post_at eng ~time:0.0 ~h:!h ~a:0 ~b:15 ~x:0.0
  done;
  se

let test_raising_handler () =
  List.iter
    (fun domains ->
      let se = failing_engine ~domains ~raise_at_2:true in
      Alcotest.check_raises
        (Printf.sprintf "%d domains: handler exception re-raised" domains)
        (Boom "handler") (fun () -> Sharded.run se);
      check_pool_still_runs ~domains)
    [ 1; 2; 4 ]

let test_raising_global () =
  List.iter
    (fun (domains, at) ->
      let se = failing_engine ~domains ~raise_at_2:false in
      Alcotest.check_raises
        (Printf.sprintf "%d domains: global at %g re-raised" domains at)
        (Boom "global")
        (fun () ->
          Sharded.run
            ~globals:[ (at, fun () -> raise (Boom "global")); (3.0, ignore) ]
            se);
      check_pool_still_runs ~domains)
    (* At 0.0 the global is due before the first window and runs on the
       caller; at 1.5 it runs at a window barrier. *)
    [ (1, 0.0); (1, 1.5); (2, 0.0); (2, 1.5); (4, 0.0); (4, 1.5) ]

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

let run_faulted ~domains () =
  let params = Params.create ~m:9 ~b:3 () in
  let duration = 2.5 in
  let status = Status_word.create params ~initially_live:true in
  let demand = Demand.uniform status ~total:900.0 in
  Pdes.run
    ~faults:(fault_plan ~seed:77 ~params ~duration)
    ~domains ~seed:4242 ~params ~key:"pdes/faulted" ~demand ~duration ()

let test_pdes_faulted_domain_invariance () =
  (* The churn-heavy workload: crashes, restarts and loss bursts as
     barrier globals must not disturb domain-count invariance, and the
     whole run is one pool job at every domain count. *)
  let base = run_faulted ~domains:1 () in
  Alcotest.(check bool) "run does something" true (base.Pdes.served > 0);
  Alcotest.(check int) "faulted, 1 domain: one pool job" 1 base.Pdes.phases;
  List.iter
    (fun domains ->
      let r = run_faulted ~domains () in
      let label = Printf.sprintf "faulted, %d domains" domains in
      check_same_result label base r;
      Alcotest.(check int) (label ^ ": one pool job") 1 r.Pdes.phases)
    [ 2; 4; 8 ]

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
          Alcotest.test_case "pinned schedule with globals" `Quick
            test_pinned_schedule;
          qcheck_random_globals;
          Alcotest.test_case "fusion collapses quiet epochs" `Quick
            test_fusion_collapses_quiet_epochs;
          Alcotest.test_case "init hook: once, in order, on its drainer"
            `Quick test_init_hook;
          Alcotest.test_case "raising handler re-raised"
            `Quick test_raising_handler;
          Alcotest.test_case "raising global re-raised"
            `Quick test_raising_global;
        ] );
      ( "pdes-sim",
        [
          Alcotest.test_case "bit-identical at 1/2/4/8 domains" `Quick
            test_pdes_domain_invariance;
          Alcotest.test_case "eight shards, 1/2/4/8 domains" `Quick
            test_pdes_eight_shards;
          Alcotest.test_case "oversized pool: workers beyond domains idle"
            `Quick test_pdes_oversized_pool;
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
