(* Benchmark harness.

   Part 1 — bechamel micro-benchmarks of the primitives the paper's claims
   rest on (bitwise tree navigation, logless placement, lookup routing).
   The `naive/` entries run the per-node reference scans
   (Topology.Naive) on identical inputs, so each JSON snapshot carries its
   own before/after pair.

   Part 2 — regeneration of every figure of the paper's evaluation
   (Figures 5–8) plus the ablation tables A1–A5 and the V1 engine
   cross-validation, at the paper's full scale (m = 10, 1024 slots).

   Both parts append to the machine-readable trajectory files:
   BENCH_micro.json (name -> ns/op) and BENCH_figures.json (figure ->
   wall-clock seconds), written to $LESSLOG_BENCH_OUT or the working
   directory. The format is documented in EXPERIMENTS.md.

   Part 3 — `main.exe obs` runs the observability overhead gate
   (Obs_bench): the m = 10 Des_sim workload plain vs instrumented,
   enforcing the < 5% budget and appending BENCH_obs.json.

   Part 4 — `main.exe sparse` probes the dead-aware navigation queries
   in a sparse m = 20 identifier space (Sparse_bench): ns and status-word
   bit tests per call at 50%, 10% and 1% live, uniform and clustered,
   appending BENCH_sparse.json.

   Set LESSLOG_BENCH_QUICK=1 to run the figures at reduced scale and
   LESSLOG_BENCH_MICRO_ONLY=1 to skip them entirely. *)

open Bechamel
open Toolkit
open Lesslog_id
module E = Lesslog_harness.Experiments
module A = Lesslog_harness.Ablations
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Status_word = Lesslog_membership.Status_word
module Ptree = Lesslog_ptree.Ptree
module Topology = Lesslog_topology.Topology
module Demand = Lesslog_workload.Demand
module Flow = Lesslog_flow.Flow
module Rng = Lesslog_prng.Rng
module Bench_json = Lesslog_report.Bench_json

let out_file name =
  let dir = Option.value (Sys.getenv_opt "LESSLOG_BENCH_OUT") ~default:"." in
  Filename.concat dir name

(* --- Part 1: micro-benchmarks ------------------------------------------ *)

let params10 = Params.create ~m:10 ()

let micro_tests () =
  let tree = Ptree.make params10 ~root:(Pid.unsafe_of_int 421) in
  let all_live = Status_word.create params10 ~initially_live:true in
  let holed =
    let s = Status_word.create params10 ~initially_live:true in
    let rng = Rng.create ~seed:5 in
    ignore (Status_word.kill_fraction s rng ~fraction:0.3);
    s
  in
  (* Correlated failure: a contiguous 30% band of the VID space is dead
     (slots 40%..70%), the regime where FINDLIVENODE must skip long dead
     runs. Random starts land in the band ~30% of the time, making the
     scan length the dominant cost. *)
  let block_holed =
    let s = Status_word.create params10 ~initially_live:true in
    let space = Params.space params10 in
    let lo = 4 * space / 10 and hi = 7 * space / 10 in
    for v = lo to hi - 1 do
      Status_word.set_dead s (Ptree.pid_of_vid tree (Vid.unsafe_of_int v))
    done;
    s
  in
  let mid = Pid.unsafe_of_int 777 in
  let psi = Lesslog_hash.Psi.create ~m:10 in
  let chord = Lesslog_chord.Chord.create params10 ~live:(Pid.all params10) in
  let pastry = Lesslog_pastry.Pastry.create params10 ~live:(Pid.all params10) in
  let can_rng = Rng.create ~seed:6 in
  let can = Lesslog_can.Can.create ~rng:can_rng ~n:1024 ~d:2 in
  let fs = Lesslog_fs.Fs.create ~m:10 () in
  (match Lesslog_fs.Fs.write fs ~key:"bench/blob" ~data:(String.make 4096 'x') with
  | Ok _ -> ()
  | Error _ -> failwith "bench fs write failed");
  let cluster = Cluster.create params10 in
  let key = "bench/object" in
  ignore (Ops.insert cluster ~key);
  let rng = Rng.create ~seed:9 in
  (* A mid-sized holder population for the flow evaluation. *)
  for _ = 1 to 63 do
    match Cluster.holders cluster ~key with
    | [] -> ()
    | holders ->
        ignore
          (Ops.replicate ~rng cluster ~overloaded:(Rng.pick_list rng holders)
             ~key)
  done;
  let flow = Flow.create (Cluster.tree_of_key cluster key) all_live in
  let holders p = Cluster.holds cluster p ~key in
  let demand = Demand.uniform all_live ~total:10_000.0 in
  let i = ref 0 in
  let next_pid () =
    i := (!i + 7919) land 1023;
    Pid.unsafe_of_int !i
  in
  [
    Test.make ~name:"tree/parent"
      (Staged.stage (fun () -> Ptree.parent tree (next_pid ())));
    Test.make ~name:"tree/children"
      (Staged.stage (fun () -> Ptree.children tree (next_pid ())));
    Test.make ~name:"tree/depth"
      (Staged.stage (fun () -> Ptree.depth tree (next_pid ())));
    Test.make ~name:"tree/children_list(30% dead)"
      (Staged.stage (fun () ->
           Topology.children_list ~b:0 tree holed (next_pid ())));
    Test.make ~name:"naive/children_list(30% dead)"
      (Staged.stage (fun () ->
           Topology.Naive.children_list tree holed (next_pid ())));
    Test.make ~name:"tree/find_live_node(30% dead)"
      (Staged.stage (fun () ->
           Topology.find_live_node ~b:0 tree block_holed ~start:(next_pid ())));
    Test.make ~name:"naive/find_live_node(30% dead)"
      (Staged.stage (fun () ->
           Topology.Naive.find_live_node tree block_holed ~start:(next_pid ())));
    Test.make ~name:"tree/find_live_node(30% random dead)"
      (Staged.stage (fun () ->
           Topology.find_live_node ~b:0 tree holed ~start:(next_pid ())));
    Test.make ~name:"lookup/route_path(all live)"
      (Staged.stage (fun () -> Topology.route_path tree all_live ~origin:mid));
    Test.make ~name:"lookup/route_path(30% dead)"
      (Staged.stage (fun () ->
           let origin =
             match
               Topology.find_live_node ~b:0 tree holed ~start:(next_pid ())
             with
             | Some p -> p
             | None -> mid
           in
           Topology.route_path tree holed ~origin));
    Test.make ~name:"naive/route_path(30% dead)"
      (Staged.stage (fun () ->
           let origin =
             match
               Topology.find_live_node ~b:0 tree holed ~start:(next_pid ())
             with
             | Some p -> p
             | None -> mid
           in
           Topology.Naive.route_path tree holed ~origin));
    Test.make ~name:"lookup/psi"
      (Staged.stage (fun () -> Lesslog_hash.Psi.target psi "http://example.com/some/object.bin"));
    Test.make ~name:"lookup/chord"
      (Staged.stage (fun () ->
           Lesslog_chord.Chord.lookup chord ~from:(next_pid ()) ~target:512));
    Test.make ~name:"lookup/pastry"
      (Staged.stage (fun () ->
           Lesslog_pastry.Pastry.lookup pastry ~from:(next_pid ()) ~target:512));
    Test.make ~name:"lookup/can(d=2)"
      (Staged.stage (fun () ->
           Lesslog_can.Can.random_lookup can ~rng:can_rng));
    Test.make ~name:"fs/read(4KiB blob)"
      (Staged.stage (fun () ->
           Lesslog_fs.Fs.read fs ~origin:(next_pid ()) ~key:"bench/blob"));
    Test.make ~name:"core/get(1024 nodes)"
      (Staged.stage (fun () -> Ops.get cluster ~origin:(next_pid ()) ~key));
    Test.make ~name:"core/replica_decision"
      (Staged.stage (fun () ->
           Ops.choose_replica_target ~rng cluster
             ~overloaded:(Cluster.target_of_key cluster key)
             ~key));
    Test.make ~name:"flow/serve_rates(1024 nodes, 64 copies)"
      (Staged.stage (fun () -> Flow.serve_rates flow ~holders ~demand));
  ]

let run_micro () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let tests = Test.make_grouped ~name:"lesslog" (micro_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> x
          | _ -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  print_endline "Micro-benchmarks (monotonic clock, ns/op)";
  print_endline "-----------------------------------------";
  List.iter
    (fun (name, ns) -> Printf.printf "%-44s %12.1f ns\n" name ns)
    rows;
  print_newline ();
  Bench_json.write ~path:(out_file "BENCH_micro.json") rows;
  Printf.printf "wrote %s\n\n" (out_file "BENCH_micro.json")

(* --- Part 2: paper figures and ablations -------------------------------- *)

let figure_times : (string * float) list ref = ref []

let timed name f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  figure_times := (name, Unix.gettimeofday () -. t0) :: !figure_times;
  result

let show ~title ~x_label series =
  print_endline title;
  print_endline (String.make (String.length title) '-');
  print_endline (Lesslog_report.Table.of_series ~x_label series);
  print_newline ()

let run_figures () =
  let quick = Sys.getenv_opt "LESSLOG_BENCH_QUICK" = Some "1" in
  let config = if quick then E.quick else E.default in
  Printf.printf
    "Paper evaluation: m = %d (%d slots), capacity = %.0f req/s, %d trials\n\n"
    config.E.m (1 lsl config.E.m) config.E.capacity config.E.trials;
  show ~title:"Figure 5: replicas to balance vs demand (even load)"
    ~x_label:"req/s"
    (timed "fig5" (fun () -> E.fig5 ~config ()));
  show ~title:"Figure 6: LessLog with 10/20/30% dead nodes (even load)"
    ~x_label:"req/s"
    (timed "fig6" (fun () -> E.fig6 ~config ()));
  show ~title:"Figure 7: replicas to balance vs demand (locality 80/20)"
    ~x_label:"req/s"
    (timed "fig7" (fun () -> E.fig7 ~config ()));
  show ~title:"Figure 8: LessLog with 10/20/30% dead nodes (locality)"
    ~x_label:"req/s"
    (timed "fig8" (fun () -> E.fig8 ~config ()));
  show ~title:"A1: mean lookup hops vs m = log2 N (lesslog, chord, pastry, CAN)"
    ~x_label:"m"
    (timed "A1" (fun () -> A.hops ~samples:(if quick then 500 else 2000) ()));
  show ~title:"A2: counter-based eviction after 10x demand decay"
    ~x_label:"peak req/s"
    (timed "A2" (fun () -> A.eviction ~config ()));
  show ~title:"A3: read-fault rate vs simultaneously failed fraction"
    ~x_label:"failed"
    (timed "A3" (fun () -> A.fault_tolerance ()));
  show ~title:"A5: proportional choice vs biased placements (locality, 30% dead)"
    ~x_label:"req/s"
    (timed "A5" (fun () -> A.proportional_choice ~config ()));
  let lifecycle =
    timed "A2_lifecycle" (fun () ->
        A.eviction_lifecycle
          ~peak_duration:(if quick then 15.0 else 40.0)
          ~calm_duration:(if quick then 30.0 else 80.0)
          ())
  in
  print_endline "A2 (message-level): flash-crowd replica lifecycle";
  print_endline "--------------------------------------------------";
  Printf.printf
    "created %d, evicted %d, peak concurrent %.0f, final copies %d, faults %d\n\n"
    lifecycle.A.created lifecycle.A.evicted lifecycle.A.peak_copies
    lifecycle.A.final_copies lifecycle.A.lifecycle_faults;
  show ~title:"A6: UPDATEFILE messages vs replica population (m = 10)"
    ~x_label:"copies"
    (timed "A6" (fun () -> A.update_cost ()));
  show ~title:"V1: fluid solver vs event-driven simulator"
    ~x_label:"req/s"
    (timed "V1" (fun () ->
         A.fluid_vs_des ~duration:(if quick then 10.0 else 30.0) ()));
  let sessions =
    timed "A7" (fun () ->
        A.session_churn ~duration:(if quick then 30.0 else 120.0) ())
  in
  print_endline "A7: availability under session-based churn (event-driven)";
  print_endline "----------------------------------------------------------";
  print_endline
    (Lesslog_report.Table.render
       ~header:
         [ "session(s)"; "availability"; "served"; "faults"; "joins";
           "leaves"; "fails"; "replicas"; "ctrl msgs"; "transfers" ]
       (List.map
          (fun o ->
            [
              Printf.sprintf "%.0f" o.A.mean_session;
              Printf.sprintf "%.4f" o.A.availability;
              string_of_int o.A.served;
              string_of_int o.A.faults;
              string_of_int o.A.joins;
              string_of_int o.A.leaves;
              string_of_int o.A.fails;
              string_of_int o.A.replicas_created;
              string_of_int o.A.control_messages;
              string_of_int o.A.file_transfers;
            ])
          sessions));
  print_newline ();
  let outcomes =
    timed "A4" (fun () -> A.churn ~duration:(if quick then 20.0 else 60.0) ())
  in
  print_endline "A4: availability under membership churn (event-driven)";
  print_endline "------------------------------------------------------";
  print_endline
    (Lesslog_report.Table.render
       ~header:[ "events/min"; "availability"; "served"; "faults"; "replicas" ]
       (List.map
          (fun o ->
            [
              Printf.sprintf "%.0f" o.A.events_per_min;
              Printf.sprintf "%.4f" o.A.availability;
              string_of_int o.A.served;
              string_of_int o.A.faults;
              string_of_int o.A.replicas_created;
            ])
          outcomes));
  Bench_json.write
    ~path:(out_file "BENCH_figures.json")
    (List.rev !figure_times);
  Printf.printf "\nwrote %s\n" (out_file "BENCH_figures.json")

let () =
  if Array.exists (( = ) "obs") Sys.argv then Obs_bench.run ()
  else if Array.exists (( = ) "sparse") Sys.argv then Sparse_bench.run ()
  else begin
    run_micro ();
    if Sys.getenv_opt "LESSLOG_BENCH_MICRO_ONLY" <> Some "1" then run_figures ()
  end
