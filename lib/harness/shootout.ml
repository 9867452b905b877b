open Lesslog_id
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Substrate_native = Lesslog.Substrate_native
module Substrate = Lesslog_substrate.Substrate
module Chord_sub = Lesslog_substrate.Chord_sub
module Pastry_sub = Lesslog_substrate.Pastry_sub
module Can_sub = Lesslog_substrate.Can_sub
module Schedule = Lesslog_check.Schedule
module Des_sim = Lesslog_des.Des_sim
module Fault_sim = Lesslog_des.Fault_sim
module Histogram = Lesslog_metrics.Histogram
module Trace = Lesslog_trace.Trace
module Rng = Lesslog_prng.Rng
module Fnv = Lesslog_hash.Fnv

type row = {
  name : string;
  served : int;
  faults : int;
  availability : float;
  mean_hops : float;
  p50_latency : float;
  p99_latency : float;
  replicas_created : int;
  messages : int;
  file_transfers : int;
  digest : int;
  f_issued : int;
  f_served : int;
  f_faulted : int;
  f_lost_keys : int;
  f_availability : float;
}

type report = {
  m : int;
  seed : int;
  des_schedule : Schedule.t;
  fault_schedule : Schedule.t;
  rows : row list;
}

let substrates : (string * (Cluster.t -> Substrate.t)) list =
  [
    ("lesslog", Substrate_native.of_cluster);
    ( "chord",
      fun cluster ->
        Chord_sub.make (Cluster.params cluster) (Cluster.status cluster)
          (Cluster.psi cluster) );
    ( "pastry",
      fun cluster ->
        Pastry_sub.make (Cluster.params cluster) (Cluster.status cluster)
          (Cluster.psi cluster) );
    ( "can",
      fun cluster ->
        Can_sub.make (Cluster.params cluster) (Cluster.status cluster) );
  ]

let fresh_cluster (sch : Schedule.t) make_sub =
  let params = Params.create ~m:sch.m () in
  let cluster = Cluster.create params in
  let sub = make_sub cluster in
  for i = 0 to sch.keys - 1 do
    ignore (Ops.insert_via sub cluster ~key:(Schedule.key_of_index i))
  done;
  (cluster, sub)

let run_des (sch : Schedule.t) make_sub =
  let cluster, sub = fresh_cluster sch make_sub in
  let rng = Rng.create ~seed:sch.seed in
  let demand = Schedule.demand sch (Cluster.status cluster) in
  let churn = Schedule.to_churn sch in
  let config = { Des_sim.default_config with capacity = sch.capacity } in
  let buf = Buffer.create 65536 in
  let writer = Trace.Writer.to_buffer buf in
  let r =
    Des_sim.run ~config ~churn
      ~sink:(Trace.Writer.emit writer)
      ~substrate:sub ~rng ~cluster
      ~key:(Schedule.key_of_index 0)
      ~demand ~duration:sch.duration ()
  in
  (r, Fnv.hash63 (Buffer.contents buf))

let run_faults (sch : Schedule.t) make_sub =
  let cluster, sub = fresh_cluster sch make_sub in
  let rng = Rng.create ~seed:sch.seed in
  let demand = Schedule.demand sch (Cluster.status cluster) in
  let plan = Schedule.to_plan sch in
  let config = { Fault_sim.default_config with capacity = sch.capacity } in
  Fault_sim.run ~config ~plan ~substrate:sub ~rng ~cluster
    ~key:(Schedule.key_of_index 0)
    ~demand ~duration:sch.duration ()

let quantile_or_zero h q =
  if Histogram.count h = 0 then 0.0 else Histogram.quantile h q

let make_row name (des : Des_sim.result) digest (f : Fault_sim.result) =
  let resolved = des.Des_sim.served + des.Des_sim.faults in
  {
    name;
    served = des.Des_sim.served;
    faults = des.Des_sim.faults;
    availability =
      (if resolved = 0 then 1.0
       else float_of_int des.Des_sim.served /. float_of_int resolved);
    mean_hops = Histogram.mean des.Des_sim.hops;
    p50_latency = quantile_or_zero des.Des_sim.latencies 0.5;
    p99_latency = quantile_or_zero des.Des_sim.latencies 0.99;
    replicas_created = des.Des_sim.replicas_created;
    messages = des.Des_sim.messages;
    file_transfers = des.Des_sim.file_transfers;
    digest;
    f_issued = f.Fault_sim.issued;
    f_served = f.Fault_sim.served;
    f_faulted = f.Fault_sim.faulted;
    f_lost_keys = f.Fault_sim.lost_keys;
    f_availability =
      (if f.Fault_sim.issued = 0 then 1.0
       else float_of_int f.Fault_sim.served /. float_of_int f.Fault_sim.issued);
  }

let run ?(quick = false) ~seed ~m () =
  let scale (sch : Schedule.t) =
    if quick then { sch with duration = Float.min sch.duration 5.0 } else sch
  in
  let des_schedule = scale (Schedule.generate ~seed ~m ~sim:Schedule.Des) in
  let fault_schedule =
    scale (Schedule.generate ~seed ~m ~sim:Schedule.Faults)
  in
  let rows =
    List.map
      (fun (name, make_sub) ->
        let des, digest = run_des des_schedule make_sub in
        let f = run_faults fault_schedule make_sub in
        make_row name des digest f)
      substrates
  in
  { m; seed; des_schedule; fault_schedule; rows }

let to_bench report =
  let per_row r =
    let p metric v = (Printf.sprintf "substrates/%s/%s" r.name metric, v) in
    [
      p "served" (float_of_int r.served);
      p "faults" (float_of_int r.faults);
      p "availability" r.availability;
      p "mean_hops" r.mean_hops;
      p "p50_latency_s" r.p50_latency;
      p "p99_latency_s" r.p99_latency;
      p "replicas" (float_of_int r.replicas_created);
      p "messages" (float_of_int r.messages);
      p "file_transfers" (float_of_int r.file_transfers);
      p "fault_issued" (float_of_int r.f_issued);
      p "fault_served" (float_of_int r.f_served);
      p "fault_faulted" (float_of_int r.f_faulted);
      p "fault_lost_keys" (float_of_int r.f_lost_keys);
      p "fault_availability" r.f_availability;
    ]
  in
  [
    ("substrates/m", float_of_int report.m);
    ("substrates/seed", float_of_int report.seed);
  ]
  @ List.concat_map per_row report.rows

let render report =
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "substrate shootout: m=%d seed=%d  (des %.0fs churn / faults %.0fs \
     detector)\n"
    report.m report.seed report.des_schedule.Schedule.duration
    report.fault_schedule.Schedule.duration;
  Printf.bprintf b
    "%-8s %7s %6s %6s %6s %8s %8s %5s %7s %5s | %7s %7s %6s %5s\n" "overlay"
    "served" "fault" "avail" "hops" "p50(ms)" "p99(ms)" "repl" "msgs" "xfer"
    "f.srvd" "f.fault" "f.avl" "lost";
  List.iter
    (fun r ->
      Printf.bprintf b
        "%-8s %7d %6d %5.1f%% %6.2f %8.2f %8.2f %5d %7d %5d | %7d %7d %5.1f%% \
         %5d\n"
        r.name r.served r.faults (100.0 *. r.availability) r.mean_hops
        (1e3 *. r.p50_latency) (1e3 *. r.p99_latency) r.replicas_created
        r.messages r.file_transfers r.f_served r.f_faulted
        (100.0 *. r.f_availability) r.f_lost_keys)
    report.rows;
  Buffer.contents b
