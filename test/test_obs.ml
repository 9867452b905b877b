module Obs = Lesslog_obs.Obs
module Registry = Obs.Registry
module Span = Obs.Span
module Histogram = Lesslog_metrics.Histogram
module Trace = Lesslog_trace.Trace
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Demand = Lesslog_workload.Demand
module Des_sim = Lesslog_des.Des_sim
module Fault_sim = Lesslog_des.Fault_sim
module Faults = Lesslog_workload.Faults
module Retry = Lesslog_net.Retry
module Status_word = Lesslog_membership.Status_word
module Timeseries = Lesslog_metrics.Timeseries
module Rng = Lesslog_prng.Rng
module Params = Lesslog_id.Params

(* Span timestamps are stored as integer nanoseconds; any time that is
   exact in ns round-trips exactly, so the float checks below can use a
   tight epsilon. *)
let flt = Alcotest.float 1e-9

(* --- Registry --- *)

let test_counter_basics () =
  let r = Registry.create () in
  let c = Registry.counter r "requests" in
  Registry.add c 1;
  Registry.add c 1;
  Registry.add c 40;
  Alcotest.(check int) "value" 42 (Registry.value c);
  (* Re-registering the same name hands back the same live cell. *)
  Alcotest.(check int) "idempotent" 42 (Registry.value (Registry.counter r "requests"))

let test_gauge_basics () =
  let r = Registry.create () in
  let g = Registry.gauge r "load" in
  Registry.set g 0.75;
  Alcotest.(check flt) "read" 0.75 (Registry.read g)

let test_timer_snapshot () =
  let r = Registry.create () in
  let hist = Histogram.create () in
  List.iter (Histogram.add hist) [ 1.0; 2.0; 3.0; 4.0 ];
  ignore (Registry.timer_backed r "latency" hist);
  match Registry.snapshot r with
  | [ s ] ->
      Alcotest.(check string) "name" "latency" s.Registry.name;
      Alcotest.(check bool) "kind" true (s.Registry.kind = `Timer);
      Alcotest.(check int) "count" 4 s.Registry.count;
      Alcotest.(check flt) "mean" 2.5 s.Registry.value;
      Alcotest.(check flt) "max" 4.0 s.Registry.max_v
  | l -> Alcotest.failf "expected one snapshot row, got %d" (List.length l)

let test_timer_backed_shares_histogram () =
  let r = Registry.create () in
  let hist = Histogram.create () in
  Histogram.add hist 1.0;
  ignore (Registry.timer_backed r "lat" hist);
  (* Inserts into the backing histogram show up with no copy... *)
  Histogram.add hist 2.0;
  let count () =
    match Registry.snapshot r with [ s ] -> s.Registry.count | _ -> -1
  in
  Alcotest.(check int) "shared" 2 (count ());
  (* ...and reset detaches the sharing: the timer gets a fresh sketch,
     so later inserts into the old histogram no longer show. *)
  Registry.reset r;
  Alcotest.(check int) "reset empties" 0 (count ());
  Histogram.add hist 3.0;
  Alcotest.(check int) "detached" 0 (count ());
  (* Re-registering re-points the timer at the live histogram. *)
  ignore (Registry.timer_backed r "lat" hist);
  Alcotest.(check int) "re-pointed" 3 (count ())

let test_kind_clash_raises () =
  let r = Registry.create () in
  ignore (Registry.counter r "x");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Obs.Registry: \"x\" already registered as another kind")
    (fun () -> ignore (Registry.gauge r "x"))

let test_snapshot_sorted_and_reset () =
  let r = Registry.create () in
  let c = Registry.counter r "zeta" in
  let g = Registry.gauge r "alpha" in
  Registry.add c 7;
  Registry.set g 1.5;
  Alcotest.(check (list string)) "sorted by name" [ "alpha"; "zeta" ]
    (List.map (fun s -> s.Registry.name) (Registry.snapshot r));
  Registry.reset r;
  Alcotest.(check int) "counter zeroed" 0 (Registry.value c);
  Alcotest.(check flt) "gauge zeroed" 0.0 (Registry.read g)

let test_json_pairs_expand_timers () =
  let r = Registry.create () in
  Registry.add (Registry.counter r "served") 3;
  let hist = Histogram.create () in
  Histogram.add hist 2.0;
  ignore (Registry.timer_backed r "lat" hist);
  Alcotest.(check (list string)) "keys"
    [ "lat/count"; "lat/mean"; "lat/p50"; "lat/p99"; "lat/max"; "served" ]
    (List.map fst (Registry.to_json_pairs r))

(* --- Span sink --- *)

(* A span's fields, unpacked — the [Span] payload is an inlined record,
   so it cannot escape its match. *)
type span_fields = {
  at : float;
  dur : float;
  name : string;
  id : int;
  origin : int;
  server : int option;
  hops : int;
  attempt : int;
}

let one_span sink =
  match Span.to_events sink with
  | [ Trace.Event.Span { at; dur; name; id; origin; server; hops; attempt } ] ->
      { at; dur; name; id; origin; server; hops; attempt }
  | l -> Alcotest.failf "expected exactly one span, got %d events" (List.length l)

let test_fault_span_has_no_server () =
  let sink = Span.create_sink () in
  let lookup = Span.intern sink "lookup" in
  Span.emit sink ~name:lookup ~id:1 ~origin:0 ~at:0.5 ~dur:0.5 ~server:(-1)
    ~hops:6 ~attempt:0;
  let s = one_span sink in
  Alcotest.(check (option int)) "fault = no server" None s.server;
  let sink = Span.create_sink () in
  let lookup = Span.intern sink "lookup" in
  Span.emit sink ~name:lookup ~id:1 ~origin:0 ~at:0.5 ~dur:0.5 ~server:0
    ~hops:0 ~attempt:0;
  Alcotest.(check (option int)) "server 0 distinct from fault" (Some 0)
    (one_span sink).server

let test_emit_fields () =
  let sink = Span.create_sink () in
  let mark = Span.intern sink "replicate" in
  Span.emit sink ~name:mark ~id:11 ~origin:4 ~at:2.0 ~dur:0.0 ~server:6
    ~hops:0 ~attempt:0;
  Alcotest.(check int) "completed directly" 1 (Span.completed sink);
  let s = one_span sink in
  Alcotest.(check flt) "instant" 0.0 s.dur;
  Alcotest.(check int) "origin" 4 s.origin

(* A lookup span's begin ([at]) and end ([at + dur]) and the fields set
   with them, on a sink whose second interned name is the one used. *)
let test_begin_end_fields () =
  let sink = Span.create_sink () in
  ignore (Span.intern sink "replicate");
  let lookup = Span.intern sink "lookup" in
  Span.emit sink ~name:lookup ~id:7 ~origin:3 ~at:1.5 ~dur:0.75 ~server:5
    ~hops:4 ~attempt:2;
  let s = one_span sink in
  Alcotest.(check string) "name" "lookup" s.name;
  Alcotest.(check int) "id" 7 s.id;
  Alcotest.(check int) "origin" 3 s.origin;
  Alcotest.(check (option int)) "server" (Some 5) s.server;
  Alcotest.(check int) "hops" 4 s.hops;
  Alcotest.(check int) "attempt" 2 s.attempt;
  Alcotest.(check flt) "at" 1.5 s.at;
  Alcotest.(check flt) "dur" 0.75 s.dur;
  Alcotest.(check flt) "end" 2.25 (s.at +. s.dur)

let test_ring_wraparound () =
  let sink = Span.create_sink ~capacity:8 () in
  let lookup = Span.intern sink "lookup" in
  for id = 0 to 19 do
    Span.emit sink ~name:lookup ~id ~origin:0 ~at:(float_of_int id)
      ~dur:0.125 ~server:0 ~hops:1 ~attempt:0
  done;
  Alcotest.(check int) "completed counts all" 20 (Span.completed sink);
  Alcotest.(check int) "retained = capacity" 8 (Span.retained sink);
  let ids =
    List.map
      (function
        | Trace.Event.Span { id; _ } -> id
        | _ -> Alcotest.fail "not a span")
      (Span.to_events sink)
  in
  Alcotest.(check (list int)) "newest retained, oldest first"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ] ids

(* Merging keeps lifetime counts: a source whose ring wrapped adds every
   span it recorded to [completed], while only its retained spans reach
   the merged ring, oldest first, source by source. *)
let test_merge_counts_lifetime () =
  let source ~first_id ~n =
    let sink = Span.create_sink ~capacity:4 () in
    let lookup = Span.intern sink "lookup" in
    for k = 0 to n - 1 do
      Span.emit sink ~name:lookup ~id:(first_id + k) ~origin:1
        ~at:(float_of_int k) ~dur:0.5 ~server:2 ~hops:1 ~attempt:0
    done;
    sink
  in
  let a = source ~first_id:0 ~n:10 and b = source ~first_id:100 ~n:6 in
  let into = Span.create_sink ~capacity:16 () in
  let mark = Span.intern into "replicate" in
  Span.emit into ~name:mark ~id:50 ~origin:0 ~at:0.0 ~dur:0.0 ~server:3
    ~hops:0 ~attempt:0;
  Span.merge_into ~into a;
  Span.merge_into ~into b;
  Alcotest.(check int) "lifetime: own + every source span" (1 + 10 + 6)
    (Span.completed into);
  Alcotest.(check int) "retained: own + the sources' rings" (1 + 4 + 4)
    (Span.retained into);
  Alcotest.(check int) "sources untouched" 10 (Span.completed a);
  let ids =
    List.map
      (function
        | Trace.Event.Span { id; _ } -> id
        | _ -> Alcotest.fail "not a span")
      (Span.to_events into)
  in
  Alcotest.(check (list int)) "retained spans in merge order"
    [ 50; 6; 7; 8; 9; 102; 103; 104; 105 ] ids

let test_intern_idempotent () =
  let sink = Span.create_sink () in
  let a = Span.intern sink "lookup" in
  let b = Span.intern sink "replicate" in
  Alcotest.(check int) "same name, same index" a (Span.intern sink "lookup");
  Alcotest.(check bool) "distinct names, distinct indices" true (a <> b)

let test_trace_line_round_trip () =
  let sink = Span.create_sink () in
  (* A name needing percent-encoding exercises the codec's totality. *)
  let slow = Span.intern sink "slow lookup" in
  let lookup = Span.intern sink "lookup" in
  Span.emit sink ~name:slow ~id:42 ~origin:7 ~at:1.25 ~dur:0.5 ~server:3
    ~hops:2 ~attempt:1;
  Span.emit sink ~name:lookup ~id:43 ~origin:0 ~at:2.0 ~dur:0.25 ~server:(-1)
    ~hops:6 ~attempt:0;
  Span.iter sink (fun e ->
      match Trace.Event.of_line (Trace.Event.to_line e) with
      | Ok e' ->
          Alcotest.(check bool)
            (Printf.sprintf "round-trip %s" (Trace.Event.to_line e))
            true (Trace.Event.equal e e')
      | Error msg -> Alcotest.failf "of_line failed: %s" msg)

let prop_span_line_round_trip =
  Test_support.qcheck_case ~count:200 ~name:"span -> SPN line -> span"
    QCheck2.Gen.(
      tup6 (int_range 0 1_000_000) (int_range 0 4095)
        (opt (int_range 0 4095))
        (int_range 0 63) (int_range 0 255)
        (pair (int_range 0 1_000_000) (int_range 0 1_000_000)))
    (fun (id, origin, server, hops, attempt, (at_us, dur_us)) ->
      let sink = Span.create_sink () in
      let name = Span.intern sink "lookup" in
      (* Microsecond-grained times are exact in the sink's integer-ns
         storage, so equality is exact. *)
      Span.emit sink ~name ~id ~origin ~at:(float_of_int at_us *. 1e-6)
        ~dur:(float_of_int dur_us *. 1e-6)
        ~server:(Option.value ~default:(-1) server)
        ~hops ~attempt;
      match Span.to_events sink with
      | [ e ] -> (
          match Trace.Event.of_line (Trace.Event.to_line e) with
          | Ok e' -> Trace.Event.equal e e'
          | Error _ -> false)
      | _ -> false)

let test_chrome_json_shape () =
  let sink = Span.create_sink () in
  let lookup = Span.intern sink "lookup" in
  Span.emit sink ~name:lookup ~id:1 ~origin:2 ~at:1.0 ~dur:0.5 ~server:4
    ~hops:3 ~attempt:0;
  Span.emit sink ~name:lookup ~id:2 ~origin:5 ~at:2.0 ~dur:0.25 ~server:(-1)
    ~hops:6 ~attempt:1;
  let json = Span.to_chrome_json sink in
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "object form" true
    (String.length json > 16 && String.sub json 0 16 = "{\"traceEvents\":[");
  Alcotest.(check bool) "complete events" true (contains "\"ph\":\"X\"");
  (* ns -> trace_event microseconds: at = 1.0 s is ts = 1e6 us. *)
  Alcotest.(check bool) "us timestamps" true (contains "\"ts\":1000000.000");
  Alcotest.(check bool) "fault is null server" true (contains "\"server\":null");
  Alcotest.(check bool) "one track per origin" true (contains "\"tid\":5")

(* --- Des_sim integration --- *)

let test_des_sim_instrumented_run () =
  let params = Params.create ~m:6 () in
  let cluster = Cluster.create params in
  let key = "obs/test-object" in
  ignore (Ops.insert cluster ~key);
  let demand = Demand.uniform (Cluster.status cluster) ~total:2000.0 in
  let obs = Obs.create () in
  let r =
    Des_sim.run ~obs ~rng:(Rng.create ~seed:11) ~cluster ~key ~demand
      ~duration:10.0 ()
  in
  let v name = Registry.value (Registry.counter obs.Obs.registry name) in
  Alcotest.(check int) "served counter" r.Des_sim.served (v "des/served");
  Alcotest.(check int) "fault counter" r.Des_sim.faults (v "des/faults");
  Alcotest.(check int) "replication counter" r.Des_sim.replicas_created
    (v "des/replications");
  Alcotest.(check bool) "requests counted" true (v "des/requests" > 0);
  (* The latency timer is backed by the result histogram itself. *)
  let lat =
    List.find (fun s -> s.Registry.name = "des/latency_s")
      (Registry.snapshot obs.Obs.registry)
  in
  Alcotest.(check int) "timer backed by result histogram"
    (Histogram.count r.Des_sim.latencies) lat.Registry.count;
  (* Spans: one lookup per request resolved *at its origin* (a request
     served remotely counts in [served] when the server acts, but its
     span only lands when the reply arrives — in step with the latency
     histogram) plus one instant replicate marker per push. Requests
     still in flight at engine stop leave none. *)
  Alcotest.(check int) "one span per resolution"
    (Histogram.count r.Des_sim.latencies
    + r.Des_sim.faults + r.Des_sim.replicas_created)
    (Span.completed obs.Obs.spans);
  Span.iter obs.Obs.spans (fun e ->
      match e with
      | Trace.Event.Span { name; hops; _ } ->
          if name = "lookup" then
            Alcotest.(check bool) "hops within m" true (hops <= 6)
      | _ -> Alcotest.fail "sink yields only spans")

(* --- Fault_sim integration --- *)

(* A Fault_sim result as named fields, histograms and the agreement
   timeline by value, for field-by-field comparison. *)
let fault_fields (r : Fault_sim.result) =
  let i = string_of_int and f = Printf.sprintf "%h" in
  let hist name h =
    [
      (name ^ " count", i (Histogram.count h));
      (name ^ " mean", f (Histogram.mean h));
      (name ^ " p50", f (Histogram.quantile h 0.5));
      (name ^ " p99", f (Histogram.quantile h 0.99));
      (name ^ " max", f (Histogram.max_value h));
    ]
  in
  [
    ("issued", i r.Fault_sim.issued);
    ("served", i r.Fault_sim.served);
    ("faulted", i r.Fault_sim.faulted);
    ("pending", i r.Fault_sim.pending_at_end);
    ("within deadline", i r.Fault_sim.within_deadline);
    ("duplicate serves", i r.Fault_sim.duplicate_serves);
    ("retransmissions", i r.Fault_sim.retransmissions);
    ("timeouts", i r.Fault_sim.timeouts);
    ("replicas created", i r.Fault_sim.replicas_created);
    ("suspicions", i r.Fault_sim.suspicions);
    ("recoveries", i r.Fault_sim.recoveries);
    ("spurious suspicions", i r.Fault_sim.spurious_suspicions);
    ("migrations", i r.Fault_sim.migrations);
    ("spurious migrations", i r.Fault_sim.spurious_migrations);
    ("crashes", i r.Fault_sim.crashes);
    ("restarts", i r.Fault_sim.restarts);
    ("lost keys", i r.Fault_sim.lost_keys);
    ("agreement", f r.Fault_sim.detector_agreement);
    ( "convergence",
      match r.Fault_sim.convergence with None -> "none" | Some c -> f c );
    ("messages", i r.Fault_sim.messages);
    ( "agreement timeline",
      String.concat " "
        (Array.to_list
           (Array.map
              (fun (t, a) -> f t ^ ":" ^ f a)
              (Timeseries.points r.Fault_sim.agreement_timeline))) );
  ]
  @ hist "latency" r.Fault_sim.latencies
  @ hist "hops" r.Fault_sim.hops

(* Fault_sim under crashes, loss, loss bursts and a partition, with two
   retries per request so that some requests exhaust, once plain and once
   with obs attached (a ring large enough to keep every span). Every
   settled request — served, at its origin or elsewhere, or faulted — has
   exactly one lookup span carrying the attempt it settled on; the rpc
   counters equal the result's tallies; and instrumenting the run
   changes no field of its result. *)
let test_fault_sim_instrumented_run () =
  let max_retries = 2 in
  let run ?obs () =
    let params = Params.create ~m:6 () in
    let cluster = Cluster.create params in
    let key = "obs/fault-object" in
    ignore (Ops.insert cluster ~key);
    let rng = Rng.create ~seed:13 in
    let plan =
      Faults.generate ~rng
        ~live:(Status_word.live_pids (Cluster.status cluster))
        ~duration:30.0 ~crash_fraction:0.3 ~restart_fraction:0.5 ~bursts:2
        ~partitions:1 ()
    in
    let config =
      {
        Fault_sim.default_config with
        loss = 0.1;
        rpc =
          { Fault_sim.default_config.rpc with
            policy = Retry.create ~max_retries () };
      }
    in
    Fault_sim.run ~config ~plan ?obs ~rng ~cluster ~key
      ~demand:(Demand.uniform (Cluster.status cluster) ~total:300.0)
      ~duration:30.0 ()
  in
  let plain = run () in
  let obs = Obs.create ~span_capacity:(1 lsl 16) () in
  let r = run ~obs () in
  Alcotest.(check (list (pair string string)))
    "traced result = plain result" (fault_fields plain) (fault_fields r);
  Alcotest.(check int) "drained" 0 r.Fault_sim.pending_at_end;
  Alcotest.(check bool) "some requests faulted" true (r.Fault_sim.faulted > 0);
  let spans = obs.Obs.spans in
  Alcotest.(check int) "ring kept every span" (Span.completed spans)
    (Span.retained spans);
  let seen = Hashtbl.create 4096 in
  let served = ref 0 and faulted = ref 0 and at_origin = ref 0 in
  let retried = ref 0 in
  Span.iter spans (function
    | Trace.Event.Span { name = "lookup"; id; origin; server; attempt; _ } ->
        if Hashtbl.mem seen id then Alcotest.failf "request %d: two spans" id;
        Hashtbl.add seen id ();
        if attempt > max_retries then
          Alcotest.failf "request %d: attempt %d" id attempt;
        if attempt > 0 then incr retried;
        (match server with
        | None ->
            incr faulted;
            Alcotest.(check int) "exhausted on the last attempt" max_retries
              attempt
        | Some s ->
            incr served;
            if s = origin then incr at_origin)
    | Trace.Event.Span _ -> ()
    | _ -> Alcotest.fail "sink yields only spans");
  Alcotest.(check int) "one lookup span per served request"
    r.Fault_sim.served !served;
  Alcotest.(check int) "one lookup span per faulted request"
    r.Fault_sim.faulted !faulted;
  Alcotest.(check bool) "requests served at their origin have spans" true
    (!at_origin > 0);
  Alcotest.(check bool) "some served on a retry" true (!retried > !faulted);
  Alcotest.(check int) "lookups + marks + replicas"
    (r.Fault_sim.served + r.Fault_sim.faulted + r.Fault_sim.timeouts
    + r.Fault_sim.retransmissions + r.Fault_sim.replicas_created)
    (Span.completed spans);
  let v name = Registry.value (Registry.counter obs.Obs.registry name) in
  Alcotest.(check int) "rpc/issued" r.Fault_sim.issued (v "rpc/issued");
  Alcotest.(check int) "rpc/completed" r.Fault_sim.served (v "rpc/completed");
  Alcotest.(check int) "rpc/timeouts" r.Fault_sim.timeouts (v "rpc/timeouts");
  Alcotest.(check int) "rpc/retransmissions" r.Fault_sim.retransmissions
    (v "rpc/retransmissions");
  Alcotest.(check int) "rpc/exhausted" r.Fault_sim.faulted (v "rpc/exhausted");
  Alcotest.(check int) "fsim/served" r.Fault_sim.served (v "fsim/served");
  let timer name =
    List.find (fun s -> s.Registry.name = name) (Registry.snapshot obs.Obs.registry)
  in
  Alcotest.(check int) "rpc/request_s holds the served latencies"
    (Histogram.count r.Fault_sim.latencies) (timer "rpc/request_s").Registry.count

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter" `Quick test_counter_basics;
          Alcotest.test_case "gauge" `Quick test_gauge_basics;
          Alcotest.test_case "timer snapshot" `Quick test_timer_snapshot;
          Alcotest.test_case "timer_backed sharing" `Quick
            test_timer_backed_shares_histogram;
          Alcotest.test_case "kind clash" `Quick test_kind_clash_raises;
          Alcotest.test_case "snapshot order + reset" `Quick
            test_snapshot_sorted_and_reset;
          Alcotest.test_case "json pairs" `Quick test_json_pairs_expand_timers;
        ] );
      ( "span",
        [
          Alcotest.test_case "begin/end fields" `Quick test_begin_end_fields;
          Alcotest.test_case "fault span" `Quick test_fault_span_has_no_server;
          Alcotest.test_case "emit" `Quick test_emit_fields;
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "merge counts wrapped sources" `Quick
            test_merge_counts_lifetime;
          Alcotest.test_case "intern" `Quick test_intern_idempotent;
          Alcotest.test_case "SPN line round-trip" `Quick
            test_trace_line_round_trip;
          Alcotest.test_case "chrome json shape" `Quick test_chrome_json_shape;
        ] );
      ( "integration",
        [
          Alcotest.test_case "instrumented des run" `Slow
            test_des_sim_instrumented_run;
          Alcotest.test_case "instrumented fault_sim run" `Slow
            test_fault_sim_instrumented_run;
        ] );
      ("properties", [ prop_span_line_round_trip ]);
    ]
