(* lesslog-sim: regenerate every figure and ablation of the LessLog paper
   from the command line. *)

open Cmdliner
module E = Lesslog_harness.Experiments
module A = Lesslog_harness.Ablations
module Series = Lesslog_report.Series

(* --- Common options ---------------------------------------------------- *)

let verbose_arg =
  Arg.(value & flag
       & info [ "v"; "verbose" ]
           ~doc:"Enable debug logging of the core file operations.")

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  if verbose then Logs.set_level (Some Logs.Debug)
  else Logs.set_level (Some Logs.Warning)

let m_arg =
  Arg.(value & opt (some int) None
       & info [ "m" ] ~docv:"M" ~doc:"Identifier-space width (2^M slots).")

let capacity_arg =
  Arg.(value & opt (some float) None
       & info [ "capacity" ] ~docv:"R"
           ~doc:"Per-node capacity in requests/s (default 100).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let trials_arg =
  Arg.(value & opt (some int) None
       & info [ "trials" ] ~docv:"N" ~doc:"Trials averaged per point.")

let quick_arg =
  Arg.(value & flag
       & info [ "quick" ]
           ~doc:"Scaled-down configuration (m=7, 5 sweep points, 1 trial).")

let domains_arg =
  Arg.(value & opt int 1
       & info [ "domains" ] ~docv:"D"
           ~doc:"Worker domains for parallel sweeps (1 = sequential).")

let csv_arg =
  Arg.(value & opt (some string) None
       & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the series as CSV.")

let plot_arg =
  Arg.(value & flag & info [ "plot" ] ~doc:"Render an ASCII plot too.")

let config_of ~quick ~m ~capacity ~seed ~trials ~domains =
  let base = if quick then E.quick else E.default in
  {
    base with
    E.m = Option.value ~default:base.E.m m;
    E.capacity = Option.value ~default:base.E.capacity capacity;
    E.trials = Option.value ~default:base.E.trials trials;
    E.seed = seed;
    E.domains = domains;
  }

let emit ~title ~x_label ~y_label ~csv ~plot series =
  print_endline title;
  print_endline (String.make (String.length title) '=');
  print_endline (Lesslog_report.Table.of_series ~x_label series);
  if plot then begin
    print_newline ();
    print_endline (Lesslog_report.Ascii_plot.render ~x_label ~y_label series)
  end;
  match csv with
  | Some path ->
      Lesslog_report.Csv.write_file ~path
        (Lesslog_report.Csv.of_series ~x_label series);
      Printf.printf "wrote %s\n" path
  | None -> ()

(* --- Figure commands --------------------------------------------------- *)

let figure_cmd ~name ~title ~doc ~runner =
  let run verbose quick m capacity seed trials domains csv plot =
    setup_logs verbose;
    let config = config_of ~quick ~m ~capacity ~seed ~trials ~domains in
    emit ~title ~x_label:"req/s" ~y_label:"replicas" ~csv ~plot
      (runner ~config ())
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ verbose_arg $ quick_arg $ m_arg $ capacity_arg $ seed_arg
      $ trials_arg $ domains_arg $ csv_arg $ plot_arg)

let fig5_cmd =
  figure_cmd ~name:"fig5"
    ~title:"Figure 5: replicas to balance, evenly-distributed load"
    ~doc:"Figure 5: log-based vs LessLog vs random under even load."
    ~runner:(fun ~config () -> E.fig5 ~config ())

let fig6_cmd =
  figure_cmd ~name:"fig6"
    ~title:"Figure 6: LessLog with 10/20/30% dead nodes, even load"
    ~doc:"Figure 6: LessLog with dead nodes under even load."
    ~runner:(fun ~config () -> E.fig6 ~config ())

let fig7_cmd =
  figure_cmd ~name:"fig7"
    ~title:"Figure 7: replicas to balance, locality model (80/20)"
    ~doc:"Figure 7: the three policies under the locality model."
    ~runner:(fun ~config () -> E.fig7 ~config ())

let fig8_cmd =
  figure_cmd ~name:"fig8"
    ~title:"Figure 8: LessLog with 10/20/30% dead nodes, locality model"
    ~doc:"Figure 8: LessLog with dead nodes under the locality model."
    ~runner:(fun ~config () -> E.fig8 ~config ())

(* --- Ablations ---------------------------------------------------------- *)

let hops_cmd =
  let run samples seed csv plot =
    emit ~title:"A1: mean lookup hops vs log2 N (lesslog, chord, pastry, CAN)"
      ~x_label:"m" ~y_label:"hops" ~csv ~plot (A.hops ~samples ~seed ())
  in
  Cmd.v
    (Cmd.info "hops" ~doc:"A1: O(log N) lookup — LessLog tree vs Chord, Pastry and CAN.")
    Term.(
      const run
      $ Arg.(value & opt int 2000
             & info [ "samples" ] ~docv:"N" ~doc:"Random lookups per point.")
      $ seed_arg $ csv_arg $ plot_arg)

let eviction_cmd =
  let run quick m capacity seed trials domains decay min_rate csv plot =
    let config = config_of ~quick ~m ~capacity ~seed ~trials ~domains in
    emit ~title:"A2: counter-based replica eviction after demand decay"
      ~x_label:"peak req/s" ~y_label:"replicas" ~csv ~plot
      (A.eviction ~config ~decay_factor:decay ~min_rate ())
  in
  Cmd.v
    (Cmd.info "eviction" ~doc:"A2: counter-based removal of cold replicas.")
    Term.(
      const run $ quick_arg $ m_arg $ capacity_arg $ seed_arg $ trials_arg
      $ domains_arg
      $ Arg.(value & opt float 10.0
             & info [ "decay" ] ~docv:"F" ~doc:"Demand decay factor.")
      $ Arg.(value & opt float 10.0
             & info [ "min-rate" ] ~docv:"R"
                 ~doc:"Eviction threshold, requests/s.")
      $ csv_arg $ plot_arg)

let ft_cmd =
  let run m files seed csv plot =
    emit
      ~title:"A3: read-fault rate vs simultaneously failed fraction, per b"
      ~x_label:"failed fraction" ~y_label:"fault rate" ~csv ~plot
      (A.fault_tolerance ~m ~files ~seed ())
  in
  Cmd.v
    (Cmd.info "ft"
       ~doc:"A3: the 2^b-subtree fault-tolerance model under failures.")
    Term.(
      const run
      $ Arg.(value & opt int 8 & info [ "m" ] ~docv:"M" ~doc:"Space width.")
      $ Arg.(value & opt int 32
             & info [ "files" ] ~docv:"N" ~doc:"Files inserted.")
      $ seed_arg $ csv_arg $ plot_arg)

let propchoice_cmd =
  let run quick m capacity seed trials domains dead csv plot =
    let config = config_of ~quick ~m ~capacity ~seed ~trials ~domains in
    emit
      ~title:"A5: proportional choice vs always-own / always-root placement"
      ~x_label:"req/s" ~y_label:"replicas" ~csv ~plot
      (A.proportional_choice ~config ~dead_fraction:dead ())
  in
  Cmd.v
    (Cmd.info "propchoice"
       ~doc:"A5: the Section 3 proportional choice at the max-VID live node.")
    Term.(
      const run $ quick_arg $ m_arg $ capacity_arg $ seed_arg $ trials_arg
      $ domains_arg
      $ Arg.(value & opt float 0.3
             & info [ "dead" ] ~docv:"F" ~doc:"Dead-node fraction.")
      $ csv_arg $ plot_arg)

let validate_cmd =
  let run m duration seed csv plot =
    emit ~title:"V1: fluid solver vs event-driven simulator (LessLog policy)"
      ~x_label:"req/s" ~y_label:"replicas" ~csv ~plot
      (A.fluid_vs_des ~m ~duration ~seed ())
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"V1: cross-validate the two evaluation engines.")
    Term.(
      const run
      $ Arg.(value & opt int 7 & info [ "m" ] ~docv:"M" ~doc:"Space width.")
      $ Arg.(value & opt float 30.0
             & info [ "duration" ] ~docv:"S" ~doc:"Simulated seconds.")
      $ seed_arg $ csv_arg $ plot_arg)

let lifecycle_cmd =
  let run m peak calm seed plot =
    let o = A.eviction_lifecycle ~m ~peak ~calm ~seed () in
    print_endline "A2 (message-level): flash-crowd replica lifecycle";
    print_endline "=================================================";
    Printf.printf
      "replicas created %d, evicted %d; peak concurrent copies %.0f; final \
       copies %d; faults %d\n"
      o.A.created o.A.evicted o.A.peak_copies o.A.final_copies
      o.A.lifecycle_faults;
    if plot then begin
      print_newline ();
      print_endline
        (Lesslog_report.Ascii_plot.render ~x_label:"time (s)"
           ~y_label:"copies" (A.lifecycle_series o))
    end
  in
  Cmd.v
    (Cmd.info "lifecycle"
       ~doc:
         "A2 in the event-driven simulator: grow the fleet in a flash \
          crowd, trim it with the counter-based mechanism.")
    Term.(
      const run
      $ Arg.(value & opt int 8 & info [ "m" ] ~docv:"M" ~doc:"Space width.")
      $ Arg.(value & opt float 3000.0
             & info [ "peak" ] ~docv:"R" ~doc:"Peak demand, requests/s.")
      $ Arg.(value & opt float 150.0
             & info [ "calm" ] ~docv:"R" ~doc:"Post-crowd demand, requests/s.")
      $ seed_arg $ plot_arg)

let update_cost_cmd =
  let run m seed csv plot =
    emit ~title:"A6: UPDATEFILE messages vs replica population"
      ~x_label:"copies" ~y_label:"messages" ~csv ~plot
      (A.update_cost ~m ~seed ())
  in
  Cmd.v
    (Cmd.info "update-cost"
       ~doc:"A6: cost of the children-list update broadcast vs flooding.")
    Term.(
      const run
      $ Arg.(value & opt int 10 & info [ "m" ] ~docv:"M" ~doc:"Space width.")
      $ seed_arg $ csv_arg $ plot_arg)

let sessions_cmd =
  let run m rate duration seed =
    let outcomes = A.session_churn ~m ~rate ~duration ~seed () in
    print_endline "A7: availability under session-based churn (DES)";
    print_endline "================================================";
    print_endline
      (Lesslog_report.Table.render
         ~header:
           [ "session(s)"; "availability"; "served"; "faults"; "joins";
             "leaves"; "fails"; "replicas"; "ctrl msgs"; "transfers" ]
         (List.map
            (fun o ->
              [
                Printf.sprintf "%.0f" o.A.mean_session;
                Printf.sprintf "%.4f"
                  o.A.availability;
                string_of_int o.A.served;
                string_of_int o.A.faults;
                string_of_int o.A.joins;
                string_of_int o.A.leaves;
                string_of_int o.A.fails;
                string_of_int o.A.replicas_created;
                string_of_int o.A.control_messages;
                string_of_int o.A.file_transfers;
              ])
            outcomes))
  in
  Cmd.v
    (Cmd.info "sessions"
       ~doc:
         "A7: realistic alternating session/downtime churn (the paper's \
          future work).")
    Term.(
      const run
      $ Arg.(value & opt int 8 & info [ "m" ] ~docv:"M" ~doc:"Space width.")
      $ Arg.(value & opt float 2000.0
             & info [ "rate" ] ~docv:"R" ~doc:"Total demand, requests/s.")
      $ Arg.(value & opt float 120.0
             & info [ "duration" ] ~docv:"S" ~doc:"Simulated seconds.")
      $ seed_arg)

let churn_cmd =
  let run m rate duration seed =
    let outcomes = A.churn ~m ~rate ~duration ~seed () in
    print_endline "A4: availability under join/leave/fail churn";
    print_endline "==============================================";
    let rows =
      List.map
        (fun o ->
          [
            Printf.sprintf "%.0f" o.A.events_per_min;
            Printf.sprintf "%.4f" o.A.availability;
            string_of_int o.A.served;
            string_of_int o.A.faults;
            string_of_int o.A.replicas_created;
          ])
        outcomes
    in
    print_endline
      (Lesslog_report.Table.render
         ~header:[ "events/min"; "availability"; "served"; "faults"; "replicas" ]
         rows)
  in
  Cmd.v
    (Cmd.info "churn" ~doc:"A4: availability under membership churn (DES).")
    Term.(
      const run
      $ Arg.(value & opt int 8 & info [ "m" ] ~docv:"M" ~doc:"Space width.")
      $ Arg.(value & opt float 2000.0
             & info [ "rate" ] ~docv:"R" ~doc:"Total demand, requests/s.")
      $ Arg.(value & opt float 60.0
             & info [ "duration" ] ~docv:"S" ~doc:"Simulated seconds.")
      $ seed_arg)

let trace_run_cmd =
  let run m rate duration churn_epm seed out =
    let params = Lesslog_id.Params.create ~m () in
    let cluster = Lesslog.Cluster.create params in
    let key = "trace/hot-object" in
    ignore (Lesslog.Ops.insert cluster ~key);
    let rng = Lesslog_prng.Rng.create ~seed in
    let demand =
      Lesslog_workload.Demand.uniform (Lesslog.Cluster.status cluster)
        ~total:rate
    in
    let churn =
      if churn_epm <= 0.0 then []
      else
        Lesslog_des.Churn_trace.generate ~rng
          ~live:
            (Lesslog_membership.Status_word.live_pids
               (Lesslog.Cluster.status cluster))
          {
            Lesslog_des.Churn_trace.default with
            mean_session = 60.0 /. churn_epm *. 60.0;
            duration;
          }
    in
    let writer = Lesslog_trace.Trace.Writer.to_file out in
    let result =
      Lesslog_des.Des_sim.run ~churn
        ~sink:(Lesslog_trace.Trace.Writer.emit writer)
        ~rng ~cluster ~key ~demand ~duration ()
    in
    Lesslog_trace.Trace.Writer.close writer;
    Printf.printf
      "wrote %s: %d events (served %d, faults %d, replicas %d)\n" out
      (Lesslog_trace.Trace.Writer.count writer)
      result.Lesslog_des.Des_sim.served result.Lesslog_des.Des_sim.faults
      result.Lesslog_des.Des_sim.replicas_created;
    match Lesslog_trace.Trace.read_file out with
    | Ok events ->
        let s = Lesslog_trace.Trace.summarize events in
        Printf.printf
          "trace check: %d events over %.1fs (%d requests, %d replications, \
           %d evictions, %d membership changes)\n"
          s.Lesslog_trace.Trace.events s.Lesslog_trace.Trace.span
          s.Lesslog_trace.Trace.requests s.Lesslog_trace.Trace.replications
          s.Lesslog_trace.Trace.evictions
          s.Lesslog_trace.Trace.membership_changes
    | Error msg -> Printf.printf "trace check failed: %s\n" msg
  in
  Cmd.v
    (Cmd.info "trace-run"
       ~doc:"Run the event-driven simulator and record a replayable trace.")
    Term.(
      const run
      $ Arg.(value & opt int 7 & info [ "m" ] ~docv:"M" ~doc:"Space width.")
      $ Arg.(value & opt float 1500.0
             & info [ "rate" ] ~docv:"R" ~doc:"Total demand, requests/s.")
      $ Arg.(value & opt float 30.0
             & info [ "duration" ] ~docv:"S" ~doc:"Simulated seconds.")
      $ Arg.(value & opt float 0.0
             & info [ "churn" ] ~docv:"EPM"
                 ~doc:"Approximate membership events per minute (0 = none).")
      $ seed_arg
      $ Arg.(value & opt string "lesslog.trace"
             & info [ "out" ] ~docv:"FILE" ~doc:"Trace output path."))

let faults_cmd =
  let run m rate duration crash restart_frac bursts partitions timeout retries
      deadline loss seed =
    let losses = match loss with Some l -> [ l ] | None -> [ 0.0; 0.1; 0.2; 0.3 ] in
    let usage msg =
      prerr_endline ("lesslog-sim: faults: " ^ msg);
      exit 2
    in
    List.iter
      (fun l -> if l < 0.0 || l >= 1.0 then usage "--loss must be in [0, 1)")
      losses;
    if retries < 0 then usage "--retries must be >= 0";
    if timeout <= 0.0 then usage "--timeout must be > 0";
    print_endline
      "R1: request reliability under loss, crashes and partitions (no oracle)";
    print_endline
      "=======================================================================";
    let rows =
      List.map
        (fun loss ->
          let params = Lesslog_id.Params.create ~m () in
          let cluster = Lesslog.Cluster.create params in
          let key = "faults/hot-object" in
          ignore (Lesslog.Ops.insert cluster ~key);
          let rng = Lesslog_prng.Rng.create ~seed in
          let demand =
            Lesslog_workload.Demand.uniform (Lesslog.Cluster.status cluster)
              ~total:rate
          in
          let live =
            Lesslog_membership.Status_word.live_pids
              (Lesslog.Cluster.status cluster)
          in
          let plan =
            Lesslog_workload.Faults.generate ~rng ~live ~duration
              ~crash_fraction:crash ~restart_fraction:restart_frac ~bursts
              ~partitions ()
          in
          let config =
            {
              Lesslog_des.Fault_sim.default_config with
              loss;
              deadline;
              rpc =
                {
                  Lesslog_net.Rpc.timeout;
                  policy = Lesslog_net.Retry.create ~max_retries:retries ();
                };
            }
          in
          let r =
            Lesslog_des.Fault_sim.run ~config ~plan ~rng ~cluster ~key ~demand
              ~duration ()
          in
          let module F = Lesslog_des.Fault_sim in
          let resolved = r.F.served + r.F.faulted in
          let pct a b = if b = 0 then 100.0 else 100.0 *. float_of_int a /. float_of_int b in
          [
            Printf.sprintf "%.2f" loss;
            string_of_int r.F.issued;
            string_of_int r.F.served;
            string_of_int r.F.faulted;
            string_of_int r.F.pending_at_end;
            Printf.sprintf "%.2f" (pct resolved r.F.issued);
            Printf.sprintf "%.1f" (pct r.F.within_deadline r.F.issued);
            string_of_int r.F.retransmissions;
            string_of_int r.F.duplicate_serves;
            Printf.sprintf "%d/%d" r.F.suspicions r.F.spurious_suspicions;
            Printf.sprintf "%d/%d" r.F.migrations r.F.spurious_migrations;
            Printf.sprintf "%.1f" (100.0 *. r.F.detector_agreement);
            (match r.F.convergence with
            | Some s -> Printf.sprintf "%.1f" s
            | None -> "-");
            string_of_int r.F.messages;
          ])
        losses
    in
    print_endline
      (Lesslog_report.Table.render
         ~header:
           [ "loss"; "issued"; "served"; "faulted"; "pending"; "del|flt%";
             "<=ddl%"; "rexmit"; "dup"; "susp/spur"; "migr/spur"; "agree%";
             "conv(s)"; "msgs" ]
         rows)
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "R1: the reliability layer under injected faults — request \
          timeouts/retries over a lossy overlay, heartbeat-driven \
          membership (no oracle), crash/restart, loss bursts and \
          partitions.")
    Term.(
      const run
      $ Arg.(value & opt int 7 & info [ "m" ] ~docv:"M" ~doc:"Space width.")
      $ Arg.(value & opt float 1500.0
             & info [ "rate" ] ~docv:"R" ~doc:"Total demand, requests/s.")
      $ Arg.(value & opt float 60.0
             & info [ "duration" ] ~docv:"S" ~doc:"Simulated seconds.")
      $ Arg.(value & opt float 0.05
             & info [ "crash" ] ~docv:"F"
                 ~doc:"Fraction of nodes crashed during the run.")
      $ Arg.(value & opt float 0.5
             & info [ "restart" ] ~docv:"F"
                 ~doc:"Fraction of crashed nodes that restart.")
      $ Arg.(value & opt int 1
             & info [ "bursts" ] ~docv:"N" ~doc:"Loss bursts injected.")
      $ Arg.(value & opt int 1
             & info [ "partitions" ] ~docv:"N" ~doc:"Partitions injected.")
      $ Arg.(value & opt float 1.0
             & info [ "timeout" ] ~docv:"S" ~doc:"Per-attempt timeout.")
      $ Arg.(value & opt int 4
             & info [ "retries" ] ~docv:"N" ~doc:"Retransmissions per request.")
      $ Arg.(value & opt float 2.0
             & info [ "deadline" ] ~docv:"S"
                 ~doc:"Delivered-within-deadline threshold.")
      $ Arg.(value & opt (some float) None
             & info [ "loss" ] ~docv:"P"
                 ~doc:"Single baseline loss (default: sweep 0, .1, .2, .3).")
      $ seed_arg)

let msweep_cmd =
  let run ms rate_per_node duration capacity seed pdes_domains b =
    let ms =
      match ms with
      | [] -> [ 10; 11; 12; 13; 14; 15; 16 ]
      | ms -> ms
    in
    print_endline
      "S1: DES scale-up sweep over the identifier-space exponent m";
    print_endline
      "===========================================================";
    let points =
      E.des_sweep ~ms ~rate_per_node ~duration ~capacity ~seed ()
    in
    print_endline (E.render_des_sweep points);
    match pdes_domains with
    | None -> ()
    | Some domains ->
        Printf.printf
          "\nS2: sharded DES, %d subtree shards on %d worker domain(s)\n" (1 lsl b)
          domains;
        print_endline
          "===========================================================";
        let points =
          E.pdes_sweep ~ms ~b ~domains ~rate_per_node ~duration ~capacity ~seed
            ()
        in
        print_endline (E.render_pdes_sweep points);
        print_endline
          "(digests are invariant in --domains; rerun with a different D to \
           check)"
  in
  Cmd.v
    (Cmd.info "msweep"
       ~doc:
         "S1: run the full event-driven simulator at m = 10..16 on the \
          packed event core and report events/s, latency quantiles and \
          replication outcomes per point.")
    Term.(
      const run
      $ Arg.(value & opt_all int []
             & info [ "m" ] ~docv:"M"
                 ~doc:"Space width; repeatable (default 10..16).")
      $ Arg.(value & opt float 2.0
             & info [ "rate" ] ~docv:"R"
                 ~doc:"Demand per live node, requests/s.")
      $ Arg.(value & opt float 5.0
             & info [ "duration" ] ~docv:"S" ~doc:"Simulated seconds.")
      $ Arg.(value & opt float 100.0
             & info [ "capacity" ] ~docv:"R"
                 ~doc:"Per-node capacity in requests/s.")
      $ seed_arg
      $ Arg.(value & opt (some int) None
             & info [ "domains" ] ~docv:"D"
                 ~doc:"Also run the domain-parallel sharded simulator \
                       (Pdes_sim) on $(docv) worker domains. Results and \
                       digests are identical for every $(docv).")
      $ Arg.(value & opt int 2
             & info [ "b" ] ~docv:"B"
                 ~doc:"Subtree exponent for the sharded run: 2^$(docv) \
                       shards."))

let adaptive_cmd =
  let run m rates duration capacity seed files intervals =
    let m = Option.value ~default:10 m in
    let capacity = Option.value ~default:100.0 capacity in
    let rates =
      match rates with [] -> [ 500.0; 1000.0; 2000.0 ] | rates -> rates
    in
    print_endline
      "D1: adaptive replication — native logless vs dynamic-RF vs oracle";
    print_endline
      "=================================================================";
    let points = E.adaptive_sweep ~m ~duration ~capacity ~seed ~rates () in
    print_endline (E.render_adaptive points);
    Printf.printf
      "\nD2: hot/warm/cold timeline (%d files, shifting popularity, one \
       flash crowd)\n"
      files;
    print_endline
      "=================================================================";
    let steps = E.adaptive_timeline ~capacity ~seed ~files ~intervals () in
    print_endline (E.render_adaptive_timeline steps)
  in
  Cmd.v
    (Cmd.info "adaptive"
       ~doc:
         "D1/D2: adaptive replication under time-varying demand — the \
          replicas-vs-rate curve family (native logless trigger vs the \
          weighted dynamic-RF policy, each against the mean-field \
          oracle), then the multi-file hot/warm/cold timeline with \
          popularity shifts and a flash crowd against the fluid \
          balancer.")
    Term.(
      const run $ m_arg
      $ Arg.(value & opt_all float []
             & info [ "rate" ] ~docv:"R"
                 ~doc:"Total demand, requests/s; repeatable (default \
                       500, 1000, 2000).")
      $ Arg.(value & opt float 8.0
             & info [ "duration" ] ~docv:"S" ~doc:"Simulated seconds.")
      $ capacity_arg $ seed_arg
      $ Arg.(value & opt int 8
             & info [ "files" ] ~docv:"N"
                 ~doc:"Catalogue size for the timeline.")
      $ Arg.(value & opt int 12
             & info [ "intervals" ] ~docv:"N"
                 ~doc:"One-second intervals in the timeline."))

let coldtier_cmd =
  let run m capacity seed peak calm code_k code_r file_bytes rf_min =
    let m = Option.value ~default:10 m in
    let capacity = Option.value ~default:100.0 capacity in
    print_endline
      "Erasure-coded cold tier — hybrid replicated/coded vs full replication";
    print_endline
      "=====================================================================";
    let points =
      E.coldtier_run ~m ~capacity ~seed ~peak ~calm_duration:calm ~code_k
        ~code_r ~file_bytes ~rf_min ()
    in
    print_endline (E.render_coldtier points);
    match points with
    | [ full; hybrid ] ->
        Printf.printf
          "\nhybrid stores %.1f%% fewer bytes than full replication \
           (%.2fx vs %.2fx the file size) at a loss gap of %.4f\n"
          (100.0 *. (1.0 -. (hybrid.E.ct_mean_bytes /. full.E.ct_mean_bytes)))
          hybrid.E.ct_amplification full.E.ct_amplification
          (Float.abs (hybrid.E.ct_loss -. full.E.ct_loss))
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "coldtier"
       ~doc:
         "Erasure-coded cold tier: the adaptive lifecycle (flash crowd, \
          idle stretch with a mid-calm double failure, re-heat) run \
          through the dynamic-RF policy twice — demotion to a (k, r) \
          Reed-Solomon fragment set armed vs disarmed — comparing \
          storage amplification, repair bytes and loss, byte for byte.")
    Term.(
      const run $ m_arg $ capacity_arg $ seed_arg
      $ Arg.(value & opt float 500.0
             & info [ "peak" ] ~docv:"R"
                 ~doc:"Flash-crowd demand, requests/s.")
      $ Arg.(value & opt float 12.0
             & info [ "calm" ] ~docv:"S"
                 ~doc:"Idle-stretch length, simulated seconds.")
      $ Arg.(value & opt int 10
             & info [ "k" ] ~docv:"K" ~doc:"Data fragments of the code.")
      $ Arg.(value & opt int 4
             & info [ "r" ] ~docv:"P" ~doc:"Parity fragments of the code.")
      $ Arg.(value & opt int (1 lsl 20)
             & info [ "file-bytes" ] ~docv:"B"
                 ~doc:"Logical file size, bytes.")
      $ Arg.(value & opt int 3
             & info [ "rf-min" ] ~docv:"N"
                 ~doc:"Durability floor of the replication policy."))

(* --- Observability ------------------------------------------------------ *)

module Obs = Lesslog_obs.Obs

(* One instrumented DES run shared by [stats] and [trace]. *)
let instrumented_run ~m ~rate ~duration ~capacity ~seed =
  let params = Lesslog_id.Params.create ~m () in
  let cluster = Lesslog.Cluster.create params in
  let key = "obs/hot-object" in
  ignore (Lesslog.Ops.insert cluster ~key);
  let rng = Lesslog_prng.Rng.create ~seed in
  let demand =
    Lesslog_workload.Demand.uniform (Lesslog.Cluster.status cluster)
      ~total:rate
  in
  (* A generous ring so a whole CLI-scale run exports in full — the
     cache-sized default only retains the newest 16384 spans. *)
  let obs = Obs.create ~span_capacity:(1 lsl 18) () in
  let config = { Lesslog_des.Des_sim.default_config with capacity } in
  let result =
    Lesslog_des.Des_sim.run ~config ~obs ~rng ~cluster ~key ~demand ~duration
      ()
  in
  (obs, result)

let stats_cmd =
  let run m rate duration capacity seed json =
    let obs, result = instrumented_run ~m ~rate ~duration ~capacity ~seed in
    print_endline "O1: metrics registry after an instrumented DES run";
    print_endline "==================================================";
    let num v = if Float.is_nan v then "-" else Printf.sprintf "%.4g" v in
    let rows =
      List.map
        (fun (s : Obs.Registry.snapshot) ->
          [
            s.Obs.Registry.name;
            (match s.Obs.Registry.kind with
            | `Counter -> "counter"
            | `Gauge -> "gauge"
            | `Timer -> "timer");
            string_of_int s.Obs.Registry.count;
            num s.Obs.Registry.value;
            num s.Obs.Registry.p50;
            num s.Obs.Registry.p99;
            num s.Obs.Registry.max_v;
          ])
        (Obs.Registry.snapshot obs.Obs.registry)
    in
    print_endline
      (Lesslog_report.Table.render
         ~header:[ "metric"; "kind"; "count"; "value"; "p50"; "p99"; "max" ]
         rows);
    Printf.printf "spans: %d completed, %d retained; run served %d, faults %d\n"
      (Obs.Span.completed obs.Obs.spans)
      (Obs.Span.retained obs.Obs.spans)
      result.Lesslog_des.Des_sim.served result.Lesslog_des.Des_sim.faults;
    match json with
    | Some path ->
        let oc = open_out path in
        output_string oc (Obs.Registry.to_json obs.Obs.registry);
        output_char oc '\n';
        close_out oc;
        Printf.printf "wrote %s\n" path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "O1: run the event-driven simulator with the metrics registry \
          attached and print every des/* metric.")
    Term.(
      const run
      $ Arg.(value & opt int 10 & info [ "m" ] ~docv:"M" ~doc:"Space width.")
      $ Arg.(value & opt float 2000.0
             & info [ "rate" ] ~docv:"R" ~doc:"Total demand, requests/s.")
      $ Arg.(value & opt float 10.0
             & info [ "duration" ] ~docv:"S" ~doc:"Simulated seconds.")
      $ Arg.(value & opt float 100.0
             & info [ "capacity" ] ~docv:"R"
                 ~doc:"Per-node capacity in requests/s.")
      $ seed_arg
      $ Arg.(value & opt (some string) None
             & info [ "json" ] ~docv:"FILE"
                 ~doc:"Also write the registry snapshot as JSON."))

let trace_cmd =
  let run m rate duration capacity seed spans lines =
    let obs, result = instrumented_run ~m ~rate ~duration ~capacity ~seed in
    Obs.Span.write_chrome ~path:spans obs.Obs.spans;
    Printf.printf
      "wrote %s: %d spans (%d completed; run served %d, faults %d) — load \
       it in chrome://tracing or Perfetto\n"
      spans
      (Obs.Span.retained obs.Obs.spans)
      (Obs.Span.completed obs.Obs.spans)
      result.Lesslog_des.Des_sim.served result.Lesslog_des.Des_sim.faults;
    match lines with
    | Some path ->
        let writer = Lesslog_trace.Trace.Writer.to_file path in
        Obs.Span.iter obs.Obs.spans (Lesslog_trace.Trace.Writer.emit writer);
        Lesslog_trace.Trace.Writer.close writer;
        Printf.printf "wrote %s: %d SPN lines\n" path
          (Lesslog_trace.Trace.Writer.count writer)
    | None -> ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "O2: run the event-driven simulator with span tracing attached and \
          export the per-request spans as Chrome trace_event JSON.")
    Term.(
      const run
      $ Arg.(value & opt int 10 & info [ "m" ] ~docv:"M" ~doc:"Space width.")
      $ Arg.(value & opt float 2000.0
             & info [ "rate" ] ~docv:"R" ~doc:"Total demand, requests/s.")
      $ Arg.(value & opt float 10.0
             & info [ "duration" ] ~docv:"S" ~doc:"Simulated seconds.")
      $ Arg.(value & opt float 100.0
             & info [ "capacity" ] ~docv:"R"
                 ~doc:"Per-node capacity in requests/s.")
      $ seed_arg
      $ Arg.(value & opt string "spans.json"
             & info [ "spans" ] ~docv:"FILE"
                 ~doc:"Chrome trace_event output path.")
      $ Arg.(value & opt (some string) None
             & info [ "lines" ] ~docv:"FILE"
                 ~doc:"Also write the spans as SPN trace lines."))

(* --- Deterministic checking --------------------------------------------- *)

module Checker = Lesslog_check.Checker
module Check_schedule = Lesslog_check.Schedule

let check_cmd =
  let run m seed iterations budget out mutate =
    (match out with
    | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
    | _ -> ());
    let stop =
      match budget with
      | None -> fun () -> false
      | Some b ->
          let t0 = Sys.time () in
          fun () -> Sys.time () -. t0 > b
    in
    Printf.printf "check: m=%d seed=%d iterations=%d%s%s\n" m seed iterations
      (if mutate then " [mutation: broken FINDLIVENODE]" else "")
      (match budget with
      | Some b -> Printf.sprintf " budget=%.0fs" b
      | None -> "");
    match
      Checker.explore ~mutation:mutate ?out_dir:out ~stop
        ~log:print_endline ~seed ~m ~iterations ()
    with
    | Checker.Clean { trials } ->
        Printf.printf "clean: %d schedules, 0 oracle violations\n" trials
    | Checker.Found f ->
        Printf.printf
          "FOUND: trial %d violated %s; shrunk to %d steps (%d runs)%s\n"
          f.Checker.trial f.Checker.shrunk_violation.Checker.oracle
          (List.length f.Checker.shrunk.Check_schedule.steps)
          f.Checker.shrink_stats.Lesslog_check.Shrink.runs
          (match f.Checker.repro_path with
          | Some p -> Printf.sprintf "; repro: %s" p
          | None -> "");
        exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "C1: deterministic simulation checking — run seeded random \
          churn/fault schedules through the simulators with invariant \
          oracles attached; on violation, shrink to a minimal \
          counterexample and write a replayable repro file. Exits 1 when \
          a violation is found.")
    Term.(
      const run
      $ Arg.(value & opt int 10 & info [ "m" ] ~docv:"M" ~doc:"Space width.")
      $ seed_arg
      $ Arg.(value & opt int 100
             & info [ "iterations" ] ~docv:"N"
                 ~doc:"Maximum schedules to explore.")
      $ Arg.(value & opt (some float) None
             & info [ "budget" ] ~docv:"SEC"
                 ~doc:"Stop after this much CPU time even if iterations \
                       remain (iteration output stays deterministic; the \
                       cut-off point does not).")
      $ Arg.(value & opt (some string) None
             & info [ "out" ] ~docv:"DIR"
                 ~doc:"Directory for repro files (created if missing).")
      $ Arg.(value & flag
             & info [ "mutate" ]
                 ~doc:"Self-test: enable the deliberately broken \
                       FINDLIVENODE and demand the checker catch it."))

let replay_cmd =
  let run path =
    match Check_schedule.load path with
    | Error msg ->
        Printf.eprintf "cannot load %s: %s\n" path msg;
        exit 2
    | Ok decoded -> (
        match Checker.replay ~log:print_endline decoded with
        | Checker.Reproduced _ | Checker.Clean_run -> ()
        | Checker.Mismatch _ -> exit 1)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "C2: re-execute a checker repro file and verify it reproduces \
          the recorded violation (or clean run) deterministically. Exits \
          1 on mismatch.")
    Term.(
      const run
      $ Arg.(required & pos 0 (some string) None
             & info [] ~docv:"FILE" ~doc:"Repro file written by check."))

(* --- Substrate shootout ------------------------------------------------- *)

let substrates_cmd =
  let run quick m seed out =
    let m = Option.value ~default:(if quick then 6 else 8) m in
    let report = Lesslog_harness.Shootout.run ~quick ~seed ~m () in
    print_string (Lesslog_harness.Shootout.render report);
    (match out with
    | None -> ()
    | Some path ->
        Lesslog_report.Bench_json.write ~path
          (Lesslog_harness.Shootout.to_bench report);
        Printf.printf "wrote %s\n" path)
  in
  Cmd.v
    (Cmd.info "substrates"
       ~doc:
         "Run the substrate shootout: the same seeded churn (Des_sim) and \
          fault (Fault_sim) schedules through the one replication core \
          over four overlays — native LessLog, Chord, Pastry, CAN — and \
          print the hops/latency/replica/availability comparison.")
    Term.(
      const run $ quick_arg $ m_arg $ seed_arg
      $ Arg.(value & opt (some string) None
             & info [ "out" ] ~docv:"FILE"
                 ~doc:"Also write the comparison as flat JSON (the \
                       BENCH_substrates.json format)."))

(* --- Inspection --------------------------------------------------------- *)

let tree_cmd =
  let run m root =
    let params = Lesslog_id.Params.create ~m () in
    let tree =
      Lesslog_ptree.Ptree.make params
        ~root:(Lesslog_id.Pid.of_int params root)
    in
    Format.printf "%a@." Lesslog_ptree.Ptree.pp tree
  in
  Cmd.v
    (Cmd.info "tree" ~doc:"Print the physical lookup tree of a node.")
    Term.(
      const run
      $ Arg.(value & opt int 4 & info [ "m" ] ~docv:"M" ~doc:"Space width.")
      $ Arg.(value & opt int 4
             & info [ "root" ] ~docv:"PID" ~doc:"Root node PID."))

let all_cmd =
  let run quick m capacity seed trials domains plot =
    let config = config_of ~quick ~m ~capacity ~seed ~trials ~domains in
    let figures =
      [
        ("Figure 5 (even load)", E.fig5 ~config ());
        ("Figure 6 (dead nodes, even)", E.fig6 ~config ());
        ("Figure 7 (locality)", E.fig7 ~config ());
        ("Figure 8 (dead nodes, locality)", E.fig8 ~config ());
      ]
    in
    List.iter
      (fun (title, series) ->
        emit ~title ~x_label:"req/s" ~y_label:"replicas" ~csv:None ~plot series;
        print_newline ())
      figures
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate all four paper figures.")
    Term.(
      const run $ quick_arg $ m_arg $ capacity_arg $ seed_arg $ trials_arg
      $ domains_arg $ plot_arg)

let () =
  let doc = "Reproduce the LessLog (IPDPS 2004) evaluation." in
  let info = Cmd.info "lesslog-sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fig5_cmd; fig6_cmd; fig7_cmd; fig8_cmd; all_cmd; hops_cmd;
            eviction_cmd; ft_cmd; propchoice_cmd; validate_cmd; churn_cmd;
            update_cost_cmd; sessions_cmd; lifecycle_cmd; trace_run_cmd;
            faults_cmd; msweep_cmd; adaptive_cmd; coldtier_cmd; stats_cmd;
            trace_cmd;
            check_cmd;
            replay_cmd; substrates_cmd; tree_cmd;
          ]))
