open Lesslog_id
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Status_word = Lesslog_membership.Status_word
module Demand = Lesslog_workload.Demand
module Faults = Lesslog_workload.Faults
module Fault_sim = Lesslog_des.Fault_sim
module Wire = Lesslog_des.Wire
module Rpc = Lesslog_net.Rpc
module Retry = Lesslog_net.Retry
module Rng = Lesslog_prng.Rng
module F = Fault_sim
module Des_sim = Lesslog_des.Des_sim
module Churn_trace = Lesslog_des.Churn_trace
module Heartbeat = Lesslog_net.Heartbeat
module Access_counter = Lesslog_storage.Access_counter
module Rf_policy = Lesslog_policy.Rf_policy
module Balance = Lesslog_flow.Balance
module Multi_balance = Lesslog_flow.Multi_balance
module Policy = Lesslog_flow.Policy

let key = "faults/test-object"

(* Build a cluster, generate a plan (or none), run the scenario. The
   duration floor of 30 s keeps the post-[arrival_stop] tail longer than
   [Retry.max_lifetime] so a clean run always drains to zero pending. *)
let run ?(m = 6) ?(seed = 7) ?(rate = 300.0) ?(duration = 30.0) ?(loss = 0.0)
    ?(crash = 0.0) ?(restart = 0.5) ?(bursts = 0) ?(partitions = 0) ?config ()
    =
  let params = Params.create ~m () in
  let cluster = Cluster.create params in
  ignore (Ops.insert cluster ~key);
  let rng = Rng.create ~seed in
  let demand = Demand.uniform (Cluster.status cluster) ~total:rate in
  let live = Status_word.live_pids (Cluster.status cluster) in
  let plan =
    if crash = 0.0 && bursts = 0 && partitions = 0 then Faults.empty
    else
      Faults.generate ~rng ~live ~duration ~crash_fraction:crash
        ~restart_fraction:restart ~bursts ~partitions ()
  in
  let config =
    match config with
    | Some c -> { c with F.loss }
    | None -> { F.default_config with loss }
  in
  let result = F.run ~config ~plan ~rng ~cluster ~key ~demand ~duration () in
  (cluster, plan, result)

let check_accounted ~msg (r : F.result) =
  Alcotest.(check int)
    (msg ^ ": issued = served + faulted + pending")
    r.F.issued
    (r.F.served + r.F.faulted + r.F.pending_at_end)

(* Satellite: under loss in {0, 0.1, 0.3} every request either serves
   within the retry budget or reports a fault — nothing vanishes. *)
let test_no_silent_loss () =
  List.iter
    (fun loss ->
      let msg = Printf.sprintf "loss %.1f" loss in
      let _, _, r = run ~loss () in
      check_accounted ~msg r;
      Alcotest.(check int) (msg ^ ": drained") 0 r.F.pending_at_end;
      Alcotest.(check bool) (msg ^ ": traffic flowed") true (r.F.served > 0);
      if loss = 0.0 then
        Alcotest.(check int) (msg ^ ": lossless -> no faults") 0 r.F.faulted)
    [ 0.0; 0.1; 0.3 ]

let prop_no_silent_loss =
  let open QCheck2 in
  Test_support.qcheck_case ~count:6 ~name:"issued = served + faulted, drained"
    Gen.(pair (int_range 0 1000) (oneofl [ 0.0; 0.1; 0.3 ]))
    (fun (seed, loss) ->
      let _, _, r = run ~m:5 ~seed ~rate:120.0 ~loss () in
      r.F.issued = r.F.served + r.F.faulted && r.F.pending_at_end = 0)

(* Satellite: retransmission is idempotent at the server. Heavy loss
   forces duplicate deliveries of the same request ID; the dedup table
   absorbs them, so the per-request accounting still balances. *)
let test_retransmission_idempotent () =
  let _, _, r = run ~loss:0.3 ~rate:500.0 () in
  Alcotest.(check bool) "retries happened" true (r.F.retransmissions > 0);
  Alcotest.(check bool) "duplicates reached servers" true
    (r.F.duplicate_serves > 0);
  check_accounted ~msg:"under duplicates" r;
  Alcotest.(check int) "drained" 0 r.F.pending_at_end

(* Satellite: after the last injected disturbance the detector's view
   converges to injected truth. *)
let test_detector_converges () =
  let _, plan, r =
    run ~seed:11 ~loss:0.1 ~crash:0.1 ~restart:0.5 ~duration:40.0 ()
  in
  Alcotest.(check bool) "plan injected crashes" true
    (List.length plan.Faults.crashes > 0);
  Alcotest.(check bool) "crashes executed" true (r.F.crashes > 0);
  (match r.F.convergence with
  | Some s ->
      Alcotest.(check bool)
        (Printf.sprintf "convergence lag %.2fs within run" s)
        true
        (s >= 0.0 && s <= 40.0)
  | None -> Alcotest.fail "detector never reached the agreement target");
  Alcotest.(check bool)
    (Printf.sprintf "final agreement %.3f >= 0.95" r.F.detector_agreement)
    true
    (r.F.detector_agreement >= 0.95)

let test_determinism () =
  let go () = run ~seed:42 ~loss:0.2 ~crash:0.05 ~bursts:1 () in
  let _, _, r1 = go () in
  let _, _, r2 = go () in
  Alcotest.(check int) "issued" r1.F.issued r2.F.issued;
  Alcotest.(check int) "served" r1.F.served r2.F.served;
  Alcotest.(check int) "faulted" r1.F.faulted r2.F.faulted;
  Alcotest.(check int) "suspicions" r1.F.suspicions r2.F.suspicions;
  Alcotest.(check int) "messages" r1.F.messages r2.F.messages

(* False suspicions under a loss burst (no crashes): every suspicion is
   spurious, each live suspicion triggers a migration, and once the burst
   ends the pongs get through again — by the end the status word agrees
   with truth. An aggressive [suspect_after = 2] makes the burst bite. *)
let test_false_suspicions_recover () =
  let config =
    {
      F.default_config with
      heartbeat = { Lesslog_net.Heartbeat.period = 0.5; suspect_after = 2 };
    }
  in
  let _, _, r = run ~config ~seed:3 ~loss:0.0 ~bursts:2 ~duration:40.0 () in
  Alcotest.(check bool) "aggressive detector suspects someone" true
    (r.F.suspicions > 0);
  Alcotest.(check int) "no crashes -> all suspicions spurious"
    r.F.suspicions r.F.spurious_suspicions;
  Alcotest.(check bool) "suspects recover" true
    (r.F.recoveries > 0);
  Alcotest.(check bool)
    (Printf.sprintf "view heals: agreement %.3f" r.F.detector_agreement)
    true
    (r.F.detector_agreement >= 0.95)

let test_plan_generator_bounds () =
  let rng = Rng.create ~seed:19 in
  let live = List.init 64 Pid.unsafe_of_int in
  let duration = 100.0 in
  let plan =
    Faults.generate ~rng ~live ~duration ~crash_fraction:0.1
      ~restart_fraction:0.5 ~bursts:2 ~partitions:1 ()
  in
  Alcotest.(check int) "bursts" 2 (List.length plan.Faults.bursts);
  Alcotest.(check int) "partitions" 1 (List.length plan.Faults.partitions);
  Alcotest.(check bool) "crashes drawn" true
    (List.length plan.Faults.crashes > 0);
  Alcotest.(check bool) "everything settles by 0.75 * duration" true
    (Faults.last_disturbance plan <= 0.75 *. duration +. 1e-9);
  List.iter
    (fun (c : Faults.crash) ->
      Alcotest.(check bool) "crash inside active window" true
        (c.at >= 0.0 && c.at <= 0.75 *. duration);
      match c.restart_at with
      | Some t ->
          Alcotest.(check bool) "restart after crash, before settle" true
            (t > c.at && t <= 0.75 *. duration +. 1e-9)
      | None -> ())
    plan.Faults.crashes;
  Alcotest.(check (list int)) "nobody down before first disturbance" []
    (List.map Pid.to_int (Faults.crashed_at plan ~time:0.0))

(* The ISSUE acceptance criterion, asserted: loss 0.2 with 5% injected
   crashes (plus a loss burst and an asymmetric partition) — >= 99%
   delivered-or-faulted with zero silent losses, and the detector reaches
   >= 95% agreement with injected truth within the measured window. The
   status word is never written by the harness: only Self_org calls
   triggered by heartbeat verdicts move it. *)
let test_acceptance_loss02_crash5pct () =
  let _, plan, r =
    run ~m:7 ~seed:7 ~rate:400.0 ~duration:60.0 ~loss:0.2 ~crash:0.05
      ~bursts:1 ~partitions:1 ()
  in
  Alcotest.(check bool) "crashes injected" true
    (List.length plan.Faults.crashes > 0);
  check_accounted ~msg:"acceptance" r;
  Alcotest.(check int) "zero silently lost" 0 r.F.pending_at_end;
  let resolved = float_of_int (r.F.served + r.F.faulted) in
  Alcotest.(check bool)
    (Printf.sprintf "delivered-or-faulted %.4f >= 0.99"
       (resolved /. float_of_int r.F.issued))
    true
    (resolved >= 0.99 *. float_of_int r.F.issued);
  Alcotest.(check bool)
    (Printf.sprintf "detector agreement %.3f >= 0.95" r.F.detector_agreement)
    true
    (r.F.detector_agreement >= 0.95);
  (match r.F.convergence with
  | Some _ -> ()
  | None -> Alcotest.fail "agreement target never reached after disturbances");
  Alcotest.(check bool) "work happened under faults" true
    (r.F.served > 0 && r.F.retransmissions > 0)

(* A non-positive sample period would post every agreement sample at
   the same instant (0) or in the past (< 0); [run] rejects it up front. *)
let test_rejects_bad_sample_period () =
  List.iter
    (fun sample_period ->
      Alcotest.check_raises
        (Printf.sprintf "sample_period %g" sample_period)
        (Invalid_argument "Fault_sim: sample_period must be > 0")
        (fun () ->
          ignore
            (run ~m:4 ~rate:10.0 ~duration:1.0
               ~config:{ F.default_config with F.sample_period }
               ())))
    [ 0.0; -1.0 ]

(* The one loss check runs at run entry, on the baseline loss and on
   every burst, so a bad burst fails before the run starts rather than
   when the run reaches it. *)
let test_rejects_bad_loss () =
  let params = Params.create ~m:4 () in
  let cluster = Cluster.create params in
  ignore (Ops.insert cluster ~key);
  let demand = Demand.uniform (Cluster.status cluster) ~total:10.0 in
  let rng = Rng.create ~seed:1 in
  List.iter
    (fun loss ->
      let rejects label who f =
        Alcotest.check_raises
          (Printf.sprintf "%s, loss %g" label loss)
          (Invalid_argument (who ^ ": loss must be in [0, 1)"))
          f
      in
      rejects "Fault_sim baseline" "Fault_sim" (fun () ->
          ignore
            (F.run
               ~config:{ F.default_config with F.loss }
               ~rng ~cluster ~key ~demand ~duration:1.0 ()));
      rejects "Fault_sim burst" "Fault_sim" (fun () ->
          ignore
            (F.run
               ~plan:
                 {
                   Faults.empty with
                   Faults.bursts = [ { Faults.from_ = 0.5; until = 0.8; loss } ];
                 }
               ~rng ~cluster ~key ~demand ~duration:1.0 ()));
      rejects "Des_sim" "Des_sim" (fun () ->
          ignore
            (Des_sim.run
               ~config:{ Des_sim.default_config with Des_sim.loss }
               ~rng ~cluster ~key ~demand ~duration:1.0 ())))
    [ -0.5; 1.0; 1.5; Float.nan ]

(* NaN fails every [x <= 0.0] comparison, so each positive-value guard
   reads [not (x > 0.0)]: a NaN parameter must be rejected at create
   time, not fail mid-run (a NaN rpc timeout posts a negative delay) or
   silently disable a mechanism (a NaN policy interval never ticks). *)
let test_rejects_nan_parameters () =
  let nan = Float.nan in
  let engine = Lesslog_sim.Engine.create () in
  let rng = Rng.create ~seed:1 in
  let cluster = Cluster.create (Params.create ~m:4 ()) in
  ignore (Ops.insert cluster ~key);
  let demand = Demand.uniform (Cluster.status cluster) ~total:10.0 in
  let rf_policy config =
    ignore (Rf_policy.create ~config ~nodes:16 ~files:1 ())
  in
  let churn_trace config =
    ignore (Churn_trace.generate ~rng ~live:[] config)
  in
  List.iter
    (fun (msg, f) -> Alcotest.check_raises msg (Invalid_argument msg) f)
    [
      ( "Rpc.create: timeout",
        fun () ->
          ignore
            (Rpc.create ~engine ~rng
               ~config:{ Rpc.default_config with Rpc.timeout = nan }
               ~transmit:(fun ~id:_ ~attempt:_ () -> ())
               ()) );
      ( "Heartbeat.create: period",
        fun () ->
          ignore
            (Heartbeat.create ~engine
               ~config:{ Heartbeat.default_config with Heartbeat.period = nan }
               ~peers:[||]
               ~ping:(fun ~seq:_ _ -> ())
               ~on_change:(fun _ _ -> ())
               ()) );
      ("Retry.create: base", fun () -> ignore (Retry.create ~base:nan ()));
      ("Retry.create: jitter", fun () -> ignore (Retry.create ~jitter:nan ()));
      ( "Access_counter.create",
        fun () -> ignore (Access_counter.create ~tau:nan ~now:0.0 ()) );
      ( "Churn_trace.generate: means must be positive",
        fun () ->
          churn_trace { Churn_trace.default with Churn_trace.mean_session = nan }
      );
      ( "Churn_trace.generate: means must be positive",
        fun () ->
          churn_trace
            { Churn_trace.default with Churn_trace.mean_downtime = nan } );
      ( "Churn_trace.generate: fail_fraction",
        fun () ->
          churn_trace
            { Churn_trace.default with Churn_trace.fail_fraction = nan } );
      ( "Rf_policy.create: interval",
        fun () ->
          rf_policy { Rf_policy.default_config with Rf_policy.interval = nan }
      );
      ( "Rf_policy.create: history",
        fun () ->
          rf_policy { Rf_policy.default_config with Rf_policy.history = nan } );
      ( "Rf_policy.create: capacity",
        fun () ->
          rf_policy
            { Rf_policy.default_config with Rf_policy.capacity = Some nan } );
      ( "Balance.run: capacity",
        fun () ->
          ignore
            (Balance.run ~rng ~cluster ~key ~demand ~capacity:nan
               ~policy:Policy.Lesslog ()) );
      ( "Multi_balance.run: capacity",
        fun () ->
          ignore
            (Multi_balance.run ~rng ~cluster ~catalog:[ (key, demand) ]
               ~capacity:nan ~policy:Policy.Lesslog ()) );
    ]

(* The rpc id field of a GET or REPLY is [Wire.id_mask] wide: the largest
   id round-trips with its neighbours intact, the next one does not.
   That is why [Fault_sim] refuses to issue an rpc id past
   [Wire.id_mask]. *)
let test_wire_id_field () =
  let id = Wire.id_mask in
  let g = Wire.get ~id ~origin:4095 ~hops:Wire.hops_max in
  Alcotest.(check (list int)) "get at id_mask" [ id; 4095; Wire.hops_max ]
    [ Wire.id g; Wire.get_origin g; Wire.get_hops g ];
  let r = Wire.reply ~id ~server:77 ~hops:5 in
  Alcotest.(check (list int)) "reply at id_mask" [ id; 77; 5 ]
    [ Wire.id r; Wire.reply_server r; Wire.reply_hops r ];
  Alcotest.(check bool) "id_mask + 1 is corrupted" false
    (Wire.id (Wire.get ~id:(id + 1) ~origin:1 ~hops:1) = id + 1)

let () =
  Alcotest.run "faults"
    [
      ( "reliability",
        [
          Alcotest.test_case "no silent loss at 0/0.1/0.3" `Slow
            test_no_silent_loss;
          prop_no_silent_loss;
          Alcotest.test_case "retransmission idempotent" `Quick
            test_retransmission_idempotent;
          Alcotest.test_case "deterministic" `Quick test_determinism;
        ] );
      ( "detector",
        [
          Alcotest.test_case "converges to injected truth" `Quick
            test_detector_converges;
          Alcotest.test_case "false suspicions recover" `Slow
            test_false_suspicions_recover;
          Alcotest.test_case "rejects non-positive sample period" `Quick
            test_rejects_bad_sample_period;
        ] );
      ( "validation",
        [
          Alcotest.test_case "loss checked at run entry" `Quick
            test_rejects_bad_loss;
          Alcotest.test_case "NaN rejected at create" `Quick
            test_rejects_nan_parameters;
          Alcotest.test_case "rpc ids fit the wire id field" `Quick
            test_wire_id_field;
        ] );
      ( "plans",
        [
          Alcotest.test_case "generator bounds" `Quick
            test_plan_generator_bounds;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "loss 0.2 + 5% crashes" `Slow
            test_acceptance_loss02_crash5pct;
        ] );
    ]
