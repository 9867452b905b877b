(* Integration tests: the experiment harness must reproduce the *shapes*
   of the paper's figures (who wins, by roughly what factor), which is the
   reproduction criterion EXPERIMENTS.md reports against. *)

module E = Lesslog_harness.Experiments
module A = Lesslog_harness.Ablations
module Series = Lesslog_report.Series
module Fnv = Lesslog_hash.Fnv

let config =
  {
    E.quick with
    E.m = 8;
    E.rates = [ 1000.0; 2000.0; 4000.0; 8000.0 ];
    E.trials = 2;
  }

let series_by_label series label =
  match List.find_opt (fun s -> Series.label s = label) series with
  | Some s -> s
  | None -> Alcotest.failf "missing series %s" label

let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let pointwise_le ?(slack = 1.0) a b =
  Array.for_all2 (fun x y -> x <= (y *. slack) +. 1e-9) (Series.ys a) (Series.ys b)

(* --- Figure 5: even load ------------------------------------------------ *)

let fig5 = lazy (E.fig5 ~config ())

let test_fig5_ordering () =
  let s = Lazy.force fig5 in
  let log_based = series_by_label s "log-based"
  and lesslog = series_by_label s "lesslog"
  and random = series_by_label s "random" in
  Alcotest.(check bool) "log-based <= lesslog" true
    (pointwise_le log_based lesslog);
  Alcotest.(check bool) "lesslog well below random" true
    (mean (Series.ys random) > 2.0 *. mean (Series.ys lesslog))

let test_fig5_monotone_demand () =
  let s = Lazy.force fig5 in
  let lesslog = Series.ys (series_by_label s "lesslog") in
  let ok = ref true in
  for i = 1 to Array.length lesslog - 1 do
    if lesslog.(i) < lesslog.(i - 1) then ok := false
  done;
  Alcotest.(check bool) "replicas grow with demand" true !ok

(* --- Figure 6: dead nodes, even load ------------------------------------ *)

let test_fig6_dead_fractions_close () =
  let s = E.fig6 ~config () in
  let d10 = mean (Series.ys (series_by_label s "10% dead")) in
  let d30 = mean (Series.ys (series_by_label s "30% dead")) in
  (* The paper: "a similar number of replicas are created in all three
     configurations", with 30% drifting higher. *)
  Alcotest.(check bool)
    (Printf.sprintf "same regime (10%%: %.0f, 30%%: %.0f)" d10 d30)
    true
    (d30 >= d10 *. 0.8 && d30 <= d10 *. 3.0)

(* --- Figure 7: locality -------------------------------------------------- *)

let test_fig7_ordering () =
  let s = E.fig7 ~config () in
  let log_based = series_by_label s "log-based"
  and lesslog = series_by_label s "lesslog"
  and random = series_by_label s "random" in
  (* LessLog uses slightly more replicas than the log-based oracle under
     locality, and far fewer than random. *)
  Alcotest.(check bool) "log-based <= lesslog (10% slack)" true
    (pointwise_le ~slack:1.1 log_based lesslog);
  Alcotest.(check bool) "lesslog well below random" true
    (mean (Series.ys random) > 1.5 *. mean (Series.ys lesslog))

(* --- Figure 8: locality + dead nodes -------------------------------------- *)

let test_fig8_same_regime () =
  let s = E.fig8 ~config () in
  let d10 = mean (Series.ys (series_by_label s "10% dead")) in
  let d30 = mean (Series.ys (series_by_label s "30% dead")) in
  Alcotest.(check bool)
    (Printf.sprintf "same regime (10%%: %.0f, 30%%: %.0f)" d10 d30)
    true
    (d30 >= d10 *. 0.7 && d30 <= d10 *. 3.0)

(* --- Ablations -------------------------------------------------------------- *)

let test_hops_logarithmic () =
  let s = A.hops ~ms:[ 4; 6; 8; 10 ] ~samples:400 () in
  List.iter
    (fun series ->
      Array.iteri
        (fun i m ->
          let hops = (Series.ys series).(i) in
          Alcotest.(check bool)
            (Printf.sprintf "%s at m=%.0f: %.2f hops" (Series.label series) m hops)
            true
            (hops <= 2.0 *. m))
        (Series.xs series))
    s;
  (* More nodes, more hops. *)
  let lesslog = Series.ys (series_by_label s "lesslog tree") in
  Alcotest.(check bool) "grows with m" true
    (lesslog.(Array.length lesslog - 1) > lesslog.(0))

let test_eviction_reduces_fleet () =
  let s = A.eviction ~config () in
  let created = series_by_label s "created at peak" in
  let kept = series_by_label s "kept after decay" in
  Alcotest.(check bool) "kept <= created" true (pointwise_le kept created);
  Alcotest.(check bool) "eviction removes a real fraction" true
    (mean (Series.ys kept) < 0.9 *. mean (Series.ys created))

let test_fault_tolerance_improves_with_b () =
  let s = A.fault_tolerance ~m:7 ~files:16 () in
  let rate b = mean (Series.ys (series_by_label s (Printf.sprintf "b=%d" b))) in
  Alcotest.(check bool) "b=1 beats b=0" true (rate 1 < rate 0);
  Alcotest.(check bool) "b=2 no worse than b=1" true (rate 2 <= rate 1);
  Alcotest.(check (float 1e-9)) "b=3 never faults here" 0.0 (rate 3)

let test_hops_includes_all_substrates () =
  let s = A.hops ~ms:[ 4; 8 ] ~samples:200 () in
  List.iter
    (fun label -> ignore (series_by_label s label))
    [ "lesslog tree"; "chord fingers"; "pastry prefixes"; "can d=2" ]

let test_update_cost_tracks_copies () =
  let s = A.update_cost ~m:8 ~replica_levels:[ 0; 15; 63 ] () in
  let broadcast = series_by_label s "children-list broadcast" in
  let flood = series_by_label s "naive flood" in
  (* Broadcast cost grows with the copy count but stays under the flood. *)
  let ys = Series.ys broadcast in
  Alcotest.(check bool) "monotone" true (ys.(0) < ys.(2));
  Alcotest.(check bool) "cheaper than flooding" true
    (pointwise_le broadcast flood)

let test_lifecycle_trims_fleet () =
  let o =
    A.eviction_lifecycle ~m:7 ~peak:2000.0 ~calm:100.0 ~peak_duration:15.0
      ~calm_duration:30.0 ()
  in
  Alcotest.(check bool) "created" true (o.A.created > 0);
  Alcotest.(check bool) "evicted" true (o.A.evicted > 0);
  Alcotest.(check int) "no faults" 0 o.A.lifecycle_faults;
  Alcotest.(check bool) "fleet shrank" true
    (float_of_int o.A.final_copies < o.A.peak_copies)

let test_session_churn_stays_available () =
  let outcomes =
    A.session_churn ~m:7 ~duration:30.0 ~mean_sessions:[ 30.0 ] ()
  in
  List.iter
    (fun (o : A.session_outcome) ->
      Alcotest.(check bool) "available" true (o.A.availability > 0.95);
      Alcotest.(check bool) "control traffic accounted" true
        (o.A.control_messages > 0))
    outcomes

let test_fluid_vs_des_same_regime () =
  let s = A.fluid_vs_des ~rates:[ 1000.0; 2000.0 ] ~duration:15.0 () in
  let fluid = series_by_label s "fluid solver" in
  let des = series_by_label s "event-driven" in
  Array.iteri
    (fun i f ->
      let d = (Series.ys des).(i) in
      Alcotest.(check bool)
        (Printf.sprintf "point %d: fluid %.0f vs des %.0f" i f d)
        true
        (d >= f && d <= 4.0 *. f))
    (Series.ys fluid)

(* --- m-sweep ---------------------------------------------------------------- *)

let test_des_sweep_smoke () =
  let points =
    E.des_sweep ~ms:[ 6; 8 ] ~rate_per_node:1.0 ~duration:1.0 ~capacity:50.0
      ~seed:7 ()
  in
  Alcotest.(check int) "one point per m" 2 (List.length points);
  List.iter
    (fun (p : E.des_point) ->
      Alcotest.(check int) "nodes = 2^m" (1 lsl p.E.des_m) p.E.nodes;
      Alcotest.(check bool) "events executed" true (p.E.events > 0);
      Alcotest.(check bool) "requests served" true (p.E.served > 0);
      Alcotest.(check bool) "quantiles ordered" true
        (p.E.p50_latency <= p.E.p99_latency);
      Alcotest.(check bool) "positive throughput" true (p.E.events_per_sec > 0.0))
    points;
  (* Demand scales with population, so the larger exponent serves more. *)
  match points with
  | [ small; big ] ->
      Alcotest.(check bool) "bigger system serves more" true
        (big.E.served > small.E.served)
  | _ -> Alcotest.fail "expected two points"

(* --- Adaptive replication vs the mean-field oracle --------------------- *)

(* The replicas-vs-rate curve family on Des_sim at b = 2. Each
   point's end-state population must sit in its policy's band around the
   oracle max(1, R / capacity): the dynamic-RF policy sizes the replica
   set from the access log, so its band is tight; the native logless
   trigger overshoots by design (per-node detection plus cooldown
   quantisation). Loss may exceed the fluid bound at the end-state
   population by at most 5 points, the slack for the convergence ramp. *)
let test_adaptive_curve_in_oracle_band () =
  let points =
    E.adaptive_sweep ~m:9 ~duration:6.0 ~rates:[ 500.0; 1000.0; 2000.0 ] ()
  in
  Alcotest.(check int) "two policies per rate" 6 (List.length points);
  List.iter
    (fun (p : E.adaptive_point) ->
      let ratio = float_of_int p.E.ad_replicas_end /. p.E.ad_oracle_replicas in
      let lo, hi =
        if p.E.ad_label = "dynamic-rf" then (0.6, 2.0) else (1.0, 4.0)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s at %.0f req/s: %d replicas, %.2fx oracle %.1f"
           p.E.ad_label p.E.ad_rate p.E.ad_replicas_end ratio
           p.E.ad_oracle_replicas)
        true
        (ratio >= lo && ratio <= hi);
      Alcotest.(check bool)
        (Printf.sprintf "%s at %.0f req/s: loss %.4f vs fluid bound %.4f"
           p.E.ad_label p.E.ad_rate p.E.ad_loss p.E.ad_oracle_loss)
        true
        (p.E.ad_loss <= p.E.ad_oracle_loss +. 0.05))
    points

(* The multi-file hot/warm/cold timeline: at every interval the policy's
   prescribed population stays within [0.5x, 3x] of the per-class
   oracle. The ramp-rate lag on the flash crowd is expected and bounded
   by the band. *)
let test_adaptive_timeline_tracks_oracle () =
  let steps = E.adaptive_timeline ~intervals:12 () in
  Alcotest.(check int) "one step per interval" 12 (List.length steps);
  List.iter
    (fun (s : E.adaptive_step) ->
      let ratio = float_of_int s.E.st_rf_replicas /. s.E.st_oracle in
      Alcotest.(check bool)
        (Printf.sprintf "interval %d: %d replicas, %.2fx oracle %.1f" s.E.st_i
           s.E.st_rf_replicas ratio s.E.st_oracle)
        true
        (ratio >= 0.5 && ratio <= 3.0))
    steps

let test_churn_availability_high () =
  let outcomes = A.churn ~m:7 ~duration:20.0 ~events_per_min:[ 0.0; 30.0 ] () in
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (Printf.sprintf "availability %.4f at %.0f events/min" o.A.availability
           o.A.events_per_min)
        true
        (o.A.availability > 0.95))
    outcomes

(* --- Figures 5-8, pinned exactly ---------------------------------------- *)

(* The figure runs are deterministic per seed, so every table is pinned
   bit for bit: one FNV digest over each series' label and the IEEE bits
   of every (x, y). A change to the request walk or the replica decision
   that moves any point of any figure fails here. *)
let figure_digest series =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string buf (Series.label s);
      Array.iter2
        (fun x y ->
          Printf.bprintf buf " %Lx,%Lx" (Int64.bits_of_float x)
            (Int64.bits_of_float y))
        (Series.xs s) (Series.ys s);
      Buffer.add_char buf '\n')
    series;
  Fnv.hash63 (Buffer.contents buf)

let test_figures_pinned () =
  List.iter
    (fun (name, series, pinned) ->
      Alcotest.(check int) name pinned (figure_digest series))
    [
      ("fig5", Lazy.force fig5, 3904875755128103745);
      ("fig6", E.fig6 ~config (), 2740023741438980578);
      ("fig7", E.fig7 ~config (), 3904026650635058404);
      ("fig8", E.fig8 ~config (), 3342684743843438801);
    ]

let () =
  Alcotest.run "harness"
    [
      ( "figure shapes",
        [
          Alcotest.test_case "fig5 ordering" `Slow test_fig5_ordering;
          Alcotest.test_case "fig5 monotone" `Slow test_fig5_monotone_demand;
          Alcotest.test_case "fig6 dead fractions" `Slow
            test_fig6_dead_fractions_close;
          Alcotest.test_case "fig7 ordering" `Slow test_fig7_ordering;
          Alcotest.test_case "fig8 same regime" `Slow test_fig8_same_regime;
        ] );
      ( "figure pins",
        [ Alcotest.test_case "figures 5-8 exact" `Slow test_figures_pinned ] );
      ( "ablations",
        [
          Alcotest.test_case "hops O(log N)" `Slow test_hops_logarithmic;
          Alcotest.test_case "eviction reduces fleet" `Slow
            test_eviction_reduces_fleet;
          Alcotest.test_case "fault tolerance vs b" `Slow
            test_fault_tolerance_improves_with_b;
          Alcotest.test_case "fluid vs des" `Slow test_fluid_vs_des_same_regime;
          Alcotest.test_case "churn availability" `Slow
            test_churn_availability_high;
          Alcotest.test_case "hops covers all substrates" `Slow
            test_hops_includes_all_substrates;
          Alcotest.test_case "update cost tracks copies" `Slow
            test_update_cost_tracks_copies;
          Alcotest.test_case "lifecycle trims fleet" `Slow
            test_lifecycle_trims_fleet;
          Alcotest.test_case "session churn availability" `Slow
            test_session_churn_stays_available;
        ] );
      ( "m-sweep",
        [ Alcotest.test_case "des sweep smoke" `Slow test_des_sweep_smoke ] );
      ( "adaptive",
        [
          Alcotest.test_case "curve family in oracle band" `Slow
            test_adaptive_curve_in_oracle_band;
          Alcotest.test_case "timeline tracks oracle" `Slow
            test_adaptive_timeline_tracks_oracle;
        ] );
    ]
