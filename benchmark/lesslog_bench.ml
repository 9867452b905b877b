(* lesslog_bench: the layered benchmark.

   Without --workload, runs every workload in turn, each in a child
   process of this executable (so peak heap and GC state stay per
   workload), then merges their files into benchmark-results.json and
   benchmark-trace.json. With --workload, runs that one workload:

   - set-up and one discarded warm-up run;
   - timed runs until at least 5 are done and --seconds have passed;
     the end-to-end metrics are their medians;
   - correctness checks, which make the exit code non-zero;
   - with --trace 1, one more run with the simulator's observability
     attached, then one probe per layer, then the per-layer metrics.

   The last line of standard output is one JSON object: correct,
   attempted and failed (simulator runs, and those that failed a check)
   and metrics: the end-to-end ones with --trace 0, the per-layer ones
   with --trace 1. See benchmark/README.md. *)

module W = Workload
module J = Exact_json
module Obs = Lesslog_obs.Obs
module Histogram = Lesslog_metrics.Histogram
module Pdes_sim = Lesslog_des.Pdes_sim
module Fault_sim = Lesslog_des.Fault_sim
module Des_sim = Lesslog_des.Des_sim

let min_reps = 5

type sample = {
  setup_s : float;
  cluster_s : float;
  inputs_s : float;
  run_s : float;
  cpu_s : float;
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  stats : W.stats;
}

(* A forced minor collection makes every running domain publish its
   allocation counters, so the snapshot covers the worker pool too. *)
let gc_snapshot () =
  Gc.minor ();
  Gc.quick_stat ()

(* A full major collection before each run keeps one run's garbage out of
   the next run's timing; compaction would also hand the heap back to the
   kernel and make every run pay its page faults again. Callers drop the
   outcome (it holds the whole cluster) once checked, so every run starts
   from the same live heap. *)
let one_run spans (w : W.t) ~quick ~seed ?obs () =
  Gc.full_major ();
  let prepared, setup_s =
    Spans.record spans "setup" (fun () -> w.W.setup spans ~quick ~seed)
  in
  let g0 = gc_snapshot () and c0 = Sys.time () in
  let outcome, run_s = Spans.record spans "run" (fun () -> prepared.W.simulate ?obs ()) in
  let c1 = Sys.time () and g1 = gc_snapshot () in
  let stats = W.stats ~initial_copies:prepared.W.initial_copies outcome in
  ( prepared,
    outcome,
    {
      setup_s;
      cluster_s = Spans.last spans "setup.cluster";
      inputs_s = Spans.last spans "setup.inputs";
      run_s;
      cpu_s = c1 -. c0;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
      stats;
    } )

let median l =
  match List.sort Float.compare l with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted and n = List.length sorted in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let perf a b = if b = 0 then 0.0 else a /. float_of_int b

(* --- Metrics ------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float; spread : float list }

let metric ?(spread = []) name unit_ value = { name; unit_; value; spread }

let host_metric name unit_ f samples =
  let vs = List.map f samples in
  metric ~spread:vs name unit_ (median vs)

let end_to_end samples ~peak_heap_mb =
  let s = (List.hd samples).stats in
  [
    host_metric "setup_s" "s" (fun x -> x.setup_s) samples;
    host_metric "sim_req_per_s" "req/s"
      (fun x -> float_of_int x.stats.W.resolved /. x.run_s)
      samples;
    host_metric "alloc_words_per_req" "words"
      (fun x -> perf x.minor_words x.stats.W.resolved)
      samples;
    metric "peak_heap_mb" "MB" peak_heap_mb;
    metric "served_frac" "ratio" (1.0 -. s.W.fail_frac);
    metric "deadline_frac" "ratio" (per s.W.within_deadline s.W.resolved);
    metric "lat_p50_ms" "sim_ms" (1000.0 *. W.quantile s.W.latencies 0.5);
    metric "lat_p99_ms" "sim_ms" (1000.0 *. W.quantile s.W.latencies 0.99);
    metric "mean_hops" "hops" (Histogram.mean s.W.hops);
    metric "replicas_created" "count" (float_of_int s.W.replicas_created);
    metric "msgs_per_req" "msgs" (per s.W.messages s.W.resolved);
  ]

(* --- Checks ------------------------------------------------------------- *)

let check = W.check

(* Every check one timed run must pass: the conservation identities, the
   first run's digest, the workload's fail_frac ceiling and, where the
   workload asks for it, end-of-run copies within [1, 4] of the oracle. *)
let run_checks (w : W.t) ~prepared ~first outcome (s : W.stats) =
  let ratio = float_of_int s.W.copies_end /. prepared.W.oracle in
  W.conservation ~prepared outcome s
  @ [
      check "sim_digest_repeats" (s.W.digest = first.W.digest)
        (Printf.sprintf "sim_digest %d" s.W.digest);
      check "fail_frac_ceiling"
        (s.W.fail_frac <= w.W.fail_ceiling)
        (Printf.sprintf "fail_frac %.6f, ceiling %.6f" s.W.fail_frac w.W.fail_ceiling);
    ]
  @
  if w.W.oracle_band then
    [
      check "replicas_oracle_band"
        (ratio >= 1.0 && ratio <= 4.0)
        (Printf.sprintf "copies %d / oracle %.2f = %.3f, band [1, 4]" s.W.copies_end
           prepared.W.oracle ratio);
    ]
  else []

(* One line per check label over all timed runs: failed if any run failed
   it, with that run's detail. *)
let summarize per_run =
  match per_run with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (c : W.check) ->
          let all = List.concat_map (List.filter (fun (d : W.check) -> d.W.label = c.W.label)) per_run in
          match List.find_opt (fun (d : W.check) -> not d.W.ok) all with
          | Some bad -> bad
          | None -> c)
        first

(* --- Per-layer metrics (traced run) ------------------------------------ *)

let probe_sizes ~quick =
  if quick then (100_000, 5_000, 200) else (2_000_000, 100_000, 2_000)

let per_layer (w : W.t) spans ~quick ~seed ~samples ~prepared ~domains1_s ~run_id =
  let hold_events, probe_n, replay_cap = probe_sizes ~quick in
  let plain_run_s = median (List.map (fun x -> x.run_s) samples) in
  Spans.set_run spans run_id;
  let obs = Obs.create () in
  let _, traced_outcome, traced = one_run spans w ~quick ~seed ~obs () in
  let run_span = Spans.last_span spans "run" in
  let run_self =
    List.find_map
      (fun (sp, self) -> if sp == run_span then Some self else None)
      (Spans.self_seconds spans)
    |> Option.value ~default:traced.run_s
  in
  let registry = Obs.Registry.to_json_pairs obs.Obs.registry in
  let rng = (W.streams ~seed ~name:(w.W.name ^ "|probes") 1).(0) in
  let params = prepared.W.params in
  let probe name f = fst (Spans.record spans name f) in
  let hold_ns, hold_words =
    probe "engine.hold" (fun () ->
        Probes.engine_hold ~rng ~chains:(Lesslog_id.Params.space params)
          ~events:hold_events)
  in
  (* The end state the workload left behind; the sharded simulator keeps
     its own, so its probes read a fresh cluster of the same shape. *)
  let end_cluster =
    match traced_outcome with
    | W.Des (_, c) | W.Fsim (_, c) -> c
    | W.Pdes _ -> fst (W.fresh_cluster params)
  in
  let route_ns = probe "topology.route" (fun () -> Probes.route ~rng ~cluster:end_cluster ~n:probe_n) in
  let get_ns, get_words, decide_ns =
    probe "ops.get" (fun () -> Probes.ops ~rng ~cluster:end_cluster ~n:probe_n)
  in
  let membership =
    if prepared.W.membership <> [] then prepared.W.membership
    else Probes.synthetic_membership ~rng ~params ~horizon:5.0
  in
  let replay =
    probe "self_org.replay" (fun () ->
        Probes.replay ~params ~events:membership ~cap:replay_cap)
  in
  let detector_s =
    Option.map
      (fun f -> snd (Spans.record spans "fsim.detector_only" (fun () -> f spans)))
      prepared.W.detector_only
  in
  let s = traced.stats in
  let res = s.W.resolved in
  let q = Probes.quantile in
  let pdes f = match traced_outcome with W.Pdes r -> f r | _ -> 0.0 in
  let fsim f = match traced_outcome with W.Fsim (r, _) -> f r | _ -> 0.0 in
  let med f = median (List.map f samples) in
  let cpu = List.fold_left (fun a x -> a +. x.cpu_s) 0.0 samples
  and wall = List.fold_left (fun a x -> a +. x.run_s) 0.0 samples in
  let metrics =
    [
      metric "setup.cluster_s" "s" (med (fun x -> x.cluster_s));
      metric "setup.inputs_s" "s" (med (fun x -> x.inputs_s));
      metric "des.run_self_s" "s" run_self;
      metric "des.events_per_req" "events" (per s.W.events res);
      metric "des.events_per_s" "1/s" (float_of_int s.W.events /. plain_run_s);
      metric "engine.hold_ns_per_event" "ns" hold_ns;
      metric "engine.hold_words_per_event" "words" hold_words;
      metric "topology.route_ns" "ns" route_ns;
      metric "topology.rebuild_us_p50" "us" (q replay.Probes.rebuild_us 0.5);
      metric "topology.rebuild_us_p99" "us" (q replay.Probes.rebuild_us 0.99);
      metric "topology.rebuilds" "count" (float_of_int replay.Probes.applied);
      metric "ops.get_ns" "ns" get_ns;
      metric "ops.get_words" "words" get_words;
      metric "ops.replica_decision_ns" "ns" decide_ns;
      metric "ops.replicas_evicted" "count" (float_of_int s.W.replicas_evicted);
      metric "ops.replica_keep_frac" "ratio" (per s.W.replicas_end s.W.replicas_created);
      metric "ops.replica_oracle_ratio" "ratio"
        (float_of_int s.W.copies_end /. prepared.W.oracle);
      metric "self_org.event_us_p50" "us" (q replay.Probes.self_org_us 0.5);
      metric "self_org.event_us_p99" "us" (q replay.Probes.self_org_us 0.99);
      metric "self_org.file_transfers" "count" (float_of_int replay.Probes.transfers);
      metric "sharded_engine.epochs" "count" (pdes (fun r -> float_of_int r.Pdes_sim.epochs));
      metric "sharded_engine.phases" "count" (pdes (fun r -> float_of_int r.Pdes_sim.phases));
      metric "sharded_engine.epochs_per_phase" "ratio"
        (pdes (fun r -> per r.Pdes_sim.epochs r.Pdes_sim.phases));
      metric "sharded_engine.cross_sends" "count"
        (pdes (fun r -> float_of_int r.Pdes_sim.cross_sends));
      metric "pdes.migrations" "count" (pdes (fun r -> float_of_int r.Pdes_sim.migrations));
      metric "par.speedup_2d" "x"
        (match domains1_s with Some t1 -> t1 /. plain_run_s | None -> 0.0);
      metric "par.cpu_per_wall" "ratio" (if wall > 0.0 then cpu /. wall else 0.0);
      metric "rpc.retransmits_per_req" "msgs"
        (fsim (fun r -> per r.Fault_sim.retransmissions r.Fault_sim.issued));
      metric "rpc.timeouts_per_req" "count"
        (fsim (fun r -> per r.Fault_sim.timeouts r.Fault_sim.issued));
      metric "rpc.dup_serve_frac" "ratio"
        (fsim (fun r -> per r.Fault_sim.duplicate_serves r.Fault_sim.served));
      metric "heartbeat.suspicions" "count"
        (fsim (fun r -> float_of_int r.Fault_sim.suspicions));
      metric "heartbeat.spurious_frac" "ratio"
        (fsim (fun r -> per r.Fault_sim.spurious_suspicions r.Fault_sim.suspicions));
      metric "heartbeat.convergence_s" "sim_s"
        (fsim (fun r -> Option.value ~default:(-1.0) r.Fault_sim.convergence));
      metric "fsim.detector_only_frac" "ratio"
        (match detector_s with Some secs -> secs /. plain_run_s | None -> 0.0);
      metric "gc.minor_collections" "count" (med (fun x -> float_of_int x.minor_gcs));
      metric "gc.major_collections" "count" (med (fun x -> float_of_int x.major_gcs));
      metric "gc.promoted_words_per_req" "words"
        (med (fun x -> perf x.promoted_words x.stats.W.resolved));
      metric "obs.overhead_frac" "ratio" ((traced.run_s -. plain_run_s) /. plain_run_s);
      metric "obs.spans" "count" (float_of_int (Obs.Span.completed obs.Obs.spans));
    ]
  in
  let plain = (List.hd samples).stats in
  let extra_checks =
    check "traced_digest_equal"
      (s.W.digest = plain.W.digest)
      (Printf.sprintf "traced %d plain %d" s.W.digest plain.W.digest)
    :: (match traced_outcome with
       | W.Des (r, _) ->
           let requests = List.assoc_opt "des/requests" registry in
           [
             check "des.requests_cover_resolved"
               (match requests with
               | Some n -> int_of_float n >= r.Des_sim.served + r.Des_sim.faults
               | None -> false)
               (Printf.sprintf "des/requests %s, resolved %d"
                  (match requests with Some n -> Printf.sprintf "%.0f" n | None -> "missing")
                  (r.Des_sim.served + r.Des_sim.faults));
           ]
       | W.Pdes r ->
           [
             check "pdes.registry_requests"
               (List.assoc_opt "pdes/requests" registry
               = Some (float_of_int r.Pdes_sim.requests))
               "pdes/requests equals result.requests";
           ]
       | W.Fsim (r, _) ->
           [
             check "rpc.registry_issued"
               (List.assoc_opt "rpc/issued" registry = Some (float_of_int r.Fault_sim.issued))
               "rpc/issued equals result.issued";
           ])
  in
  (metrics, registry, extra_checks)

(* --- Output ------------------------------------------------------------- *)

let print_metric m =
  match m.spread with
  | [] -> Printf.printf "  %-34s %20.6f %s\n" m.name m.value m.unit_
  | vs ->
      Printf.printf "  %-34s %20.6f %-8s (median of %d, min %.6f, max %.6f)\n" m.name
        m.value m.unit_ (List.length vs)
        (List.fold_left Float.min Float.infinity vs)
        (List.fold_left Float.max Float.neg_infinity vs)

let metric_json m =
  ( m.name,
    J.Obj
      ([ ("value", J.Float m.value); ("unit", J.String m.unit_) ]
      @
      match m.spread with
      | [] -> []
      | vs ->
          [
            ("min", J.Float (List.fold_left Float.min Float.infinity vs));
            ("max", J.Float (List.fold_left Float.max Float.neg_infinity vs));
            ("n", J.Int (List.length vs));
            ("runs", J.List (List.map (fun v -> J.Float v) vs));
          ]) )

let result_line ~correct ~attempted ~failed metrics =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun m -> (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.String m.unit_) ]))
                metrics) );
       ])

(* --- Provenance --------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* HEAD of the enclosing git checkout, read from .git without running
   git; "unknown" outside a checkout. *)
let git_commit () =
  let rec find dir depth =
    let git = Filename.concat dir ".git" in
    if Sys.file_exists git && Sys.is_directory git then Some git
    else if depth = 0 || Filename.dirname dir = dir then None
    else find (Filename.dirname dir) (depth - 1)
  in
  match find (Sys.getcwd ()) 6 with
  | None -> "unknown"
  | Some git -> (
      try
        let head = String.trim (read_file (Filename.concat git "HEAD")) in
        if String.length head > 5 && String.sub head 0 5 = "ref: " then
          let ref_ = String.sub head 5 (String.length head - 5) in
          let loose = Filename.concat git ref_ in
          if Sys.file_exists loose then String.trim (read_file loose)
          else
            String.split_on_char '\n' (read_file (Filename.concat git "packed-refs"))
            |> List.find_map (fun line ->
                   match String.split_on_char ' ' line with
                   | [ sha; r ] when r = ref_ -> Some sha
                   | _ -> None)
            |> Option.value ~default:"unknown"
        else head
      with Sys_error _ -> "unknown")

let stamp ~seed ~seconds ~quick =
  [
    ("host", J.String (Unix.gethostname ()));
    ("nproc", J.Int (Domain.recommended_domain_count ()));
    ("ocaml_version", J.String Sys.ocaml_version);
    ("build_profile", J.String Build_info.profile);
    ("git_commit", J.String (git_commit ()));
    ("seed", J.Int seed);
    ("min_repetitions", J.Int min_reps);
    ("seconds", J.Float seconds);
    ("quick", J.Bool quick);
  ]

let warn_profile () =
  if Build_info.profile <> "release" then
    prerr_endline
      (Printf.sprintf
         "WARNING: lesslog_bench was built with profile %S, not release. Its \
          timings and allocation counts are not comparable with release runs; \
          build with --profile release."
         Build_info.profile)

(* --- One workload ------------------------------------------------------- *)

let run_workload (w : W.t) ~track ~seed ~seconds ~trace ~quick ~out =
  let spans = Spans.create () in
  Printf.printf "== %s (seed %d%s)\n  %s\n%!" w.W.name seed
    (if quick then ", quick" else "")
    w.W.why;
  Spans.set_run spans 0;
  let prepared, warmup_outcome, warmup = one_run spans w ~quick ~seed () in
  (* The peak of one set-up plus run in a fresh process: later runs reuse
     the heap the warm-up grew. *)
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let judge = run_checks w ~prepared ~first:warmup.stats in
  let warmup_checks = judge warmup_outcome warmup.stats in
  let start = Spans.now_ns () in
  let rec timed acc i =
    let elapsed = float_of_int (Spans.now_ns () - start) *. 1e-9 in
    if i > min_reps && elapsed >= seconds then List.rev acc
    else begin
      Spans.set_run spans i;
      let _, outcome, s = one_run spans w ~quick ~seed () in
      timed ((s, judge outcome s.stats) :: acc) (i + 1)
    end
  in
  let timed_runs = timed [] 1 in
  let samples = List.map fst timed_runs in
  let e2e = end_to_end samples ~peak_heap_mb in
  let per_run = warmup_checks :: List.map snd timed_runs in
  (* Runs beyond the warm-up and the timed ones, each with its checks. *)
  let next_run = ref (List.length samples) in
  let extra_run label f =
    incr next_run;
    Spans.set_run spans !next_run;
    Gc.full_major ();
    Spans.record spans label f
  in
  let domains1 = Option.map (extra_run "run.domains1") prepared.W.domains1 in
  (* sim_digest folds in Pdes_sim's own event digest. *)
  let domain_checks =
    match domains1 with
    | Some (outcome, _) ->
        let d1 = (W.stats ~initial_copies:prepared.W.initial_copies outcome).W.digest in
        [
          check "sim_digest_domain_invariant" (d1 = warmup.stats.W.digest)
            (Printf.sprintf "1 domain %d, 2 domains %d" d1 warmup.stats.W.digest);
        ]
    | None -> []
  in
  let layer, registry, traced_checks =
    if trace then begin
      incr next_run;
      let run_id = !next_run in
      if prepared.W.detector_only <> None then incr next_run;
      per_layer w spans ~quick ~seed ~samples ~prepared ~run_id
        ~domains1_s:(Option.map snd domains1)
    end
    else ([], [], [])
  in
  let checks = summarize per_run @ domain_checks @ traced_checks in
  let correct = List.for_all (fun (c : W.check) -> c.W.ok) checks in
  let failing l = List.exists (fun (c : W.check) -> not c.W.ok) l in
  let failed =
    List.length (List.filter failing per_run)
    + Bool.to_int (failing domain_checks)
    + Bool.to_int (failing traced_checks)
  in
  let digest = (List.hd samples).stats.W.digest in
  let latency_samples = Histogram.count (List.hd samples).stats.W.latencies in
  Printf.printf "  sim_digest %d over %d timed runs; %d latency samples per run\n" digest
    (List.length samples) latency_samples;
  print_endline " end-to-end (host-time metrics are medians of the timed runs):";
  List.iter print_metric e2e;
  if trace then begin
    print_endline " per layer:";
    List.iter print_metric layer;
    print_endline " self time by span:";
    Spans.print_table spans
  end;
  List.iter
    (fun (c : W.check) ->
      Printf.printf "  check %-32s %s  %s\n" c.W.label (if c.W.ok then "ok" else "FAIL")
        c.W.detail)
    checks;
  let results =
    J.Obj
      [
        ("workload", J.String w.W.name);
        ("why", J.String w.W.why);
        ("stamp", J.Obj (stamp ~seed ~seconds ~quick));
        ("shape", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) (w.W.shape ~quick)));
        ("timed_runs", J.Int (List.length samples));
        ("sim_digest", J.Int digest);
        ("latency_samples", J.Int latency_samples);
        ("correct", J.Bool correct);
        ("end_to_end", J.Obj (List.map metric_json e2e));
        ("per_layer", J.Obj (List.map metric_json layer));
        ("registry", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) registry));
        ( "checks",
          J.List
            (List.map
               (fun (c : W.check) ->
                 J.Obj
                   [ ("check", J.String c.W.label); ("ok", J.Bool c.W.ok);
                     ("detail", J.String c.W.detail) ])
               checks) );
      ]
  in
  J.write ~path:(out ^ "results.json") results;
  if trace then
    Spans.write_chrome ~path:(out ^ "trace.json")
      (Spans.chrome_lines spans ~pid:track ~workload:w.W.name);
  print_endline
    (result_line ~correct ~attempted:(!next_run + 1) ~failed (if trace then layer else e2e));
  correct

(* --- All workloads, one child process each ------------------------------ *)

let run_all ~seed ~seconds ~quick =
  let exe = Sys.executable_name in
  let outcomes =
    List.map
      (fun (w : W.t) ->
        let prefix = Printf.sprintf "benchmark-%s." w.W.name in
        let args =
          [ exe; "--workload"; w.W.name; "--seed"; string_of_int seed; "--seconds";
            Printf.sprintf "%g" seconds; "--trace"; "1"; "--out"; prefix ]
          @ if quick then [ "--quick" ] else []
        in
        let pid =
          Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr
        in
        let _, status = Unix.waitpid [] pid in
        (w, prefix, status = Unix.WEXITED 0))
      W.all
  in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"stamp\": ";
  Buffer.add_string buf (J.to_string (J.Obj (stamp ~seed ~seconds ~quick)));
  Buffer.add_string buf ", \"workloads\": {";
  let lines = ref [] in
  List.iteri
    (fun i ((w : W.t), prefix, _) ->
      let results = prefix ^ "results.json" and trace = prefix ^ "trace.json" in
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (J.to_string (J.String w.W.name));
      Buffer.add_string buf ": ";
      Buffer.add_string buf
        (if Sys.file_exists results then String.trim (read_file results) else "null");
      if Sys.file_exists trace then begin
        lines := !lines @ Spans.read_chrome_lines trace;
        Sys.remove trace
      end;
      if Sys.file_exists results then Sys.remove results)
    outcomes;
  Buffer.add_string buf "}}\n";
  let oc = open_out "benchmark-results.json" in
  Buffer.output_buffer oc buf;
  close_out oc;
  Spans.write_chrome ~path:"benchmark-trace.json" !lines;
  let failed = List.filter (fun (_, _, ok) -> not ok) outcomes in
  Printf.printf "wrote benchmark-results.json and benchmark-trace.json\n";
  if failed = [] then true
  else begin
    List.iter (fun ((w : W.t), _, _) -> Printf.printf "FAILED: %s\n" w.W.name) failed;
    false
  end

let () =
  let workload = ref None
  and seed = ref 42
  and seconds = ref 0.0
  and trace = ref 0
  and quick = ref false
  and out = ref "benchmark-" in
  let spec =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload");
      ("--seed", Arg.Set_int seed, "N seed every input derives from (default 42)");
      ("--seconds", Arg.Set_float seconds, "S keep timing runs until S seconds have passed");
      ("--trace", Arg.Set_int trace, "0|1 add the traced run and the layer probes");
      ("--quick", Arg.Set quick, " tiny sizes, for the smoke test");
      ("--out", Arg.Set_string out, "PREFIX output file prefix (default benchmark-)");
    ]
  in
  let usage = "lesslog_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seconds < 0.0 then (prerr_endline "--seconds must be >= 0"; exit 2);
  warn_profile ();
  let ok =
    match !workload with
    | None -> run_all ~seed:!seed ~seconds:!seconds ~quick:!quick
    | Some name -> (
        match List.find_opt (fun (w : W.t) -> w.W.name = name) W.all with
        | None ->
            Printf.eprintf "unknown workload %S (known: %s)\n" name
              (String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all));
            exit 2
        | Some w ->
            let track =
              Option.value ~default:0
                (List.find_index (fun (x : W.t) -> x.W.name = name) W.all)
            in
            let trace =
              match !trace with
              | 0 -> false
              | 1 -> true
              | _ -> (prerr_endline "--trace must be 0 or 1"; exit 2)
            in
            run_workload w ~track ~seed:!seed ~seconds:!seconds ~trace ~quick:!quick ~out:!out)
  in
  exit (if ok then 0 else 1)
