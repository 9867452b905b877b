(* The four benchmark workloads. Each builds its inputs from the seed
   alone, calls one simulator's public entry point directly, and reduces
   the result to the statistics every workload reports. *)

open Lesslog_id
module Des_sim = Lesslog_des.Des_sim
module Pdes_sim = Lesslog_des.Pdes_sim
module Fault_sim = Lesslog_des.Fault_sim
module Churn_trace = Lesslog_des.Churn_trace
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Status_word = Lesslog_membership.Status_word
module Demand = Lesslog_workload.Demand
module Scenario = Lesslog_workload.Scenario
module Faults = Lesslog_workload.Faults
module Rng = Lesslog_prng.Rng
module Fnv = Lesslog_hash.Fnv
module Histogram = Lesslog_metrics.Histogram
module Obs = Lesslog_obs.Obs

let key = "hot/popular-object"
let capacity = Des_sim.default_config.Des_sim.capacity

(* The reliability testbed's delivery deadline, applied to every
   simulator so [deadline_frac] means the same thing everywhere. *)
let deadline = Fault_sim.default_config.Fault_sim.deadline

type outcome =
  | Des of Des_sim.result * Cluster.t
  | Pdes of Pdes_sim.result
  | Fsim of Fault_sim.result * Cluster.t

type prepared = {
  params : Params.t;
  oracle : float;
      (** Mean-field replica count for the demand in force at the end of
          the run: [max 1 (total_rate / capacity)]. *)
  initial_copies : int;
  simulate : ?obs:Obs.t -> unit -> outcome;
  domains1 : (unit -> outcome) option;
      (** The same inputs at one worker domain (sharded workload only). *)
  detector_only : (Spans.t -> outcome) option;
      (** The same fault plan with no demand, on a fresh cluster
          (Fault_sim workload only). *)
  membership : Des_sim.churn_event list;
      (** The membership events the workload applies; [] when it has
          none. *)
}

type t = {
  name : string;
  why : string;
  fail_ceiling : float;
      (** Highest fail_frac a correct run reaches on any seed, with
          margin. *)
  oracle_band : bool;
      (** Check end-of-run copies / oracle within [1, 4]. *)
  shape : quick:bool -> (string * float) list;
      (** The workload's sizes, stamped into the results. *)
  setup : Spans.t -> quick:bool -> seed:int -> prepared;
      (** Builds every input. Records the spans [setup.cluster] and
          [setup.inputs]. *)
}

(* All inputs of one workload run descend from [hash63 "<seed>|<name>"];
   each input takes its own split stream, in a fixed order. *)
let streams ~seed ~name n =
  let root = Rng.create ~seed:(Fnv.hash63 (Printf.sprintf "%d|%s" seed name) land 0x3FFFFFFF) in
  Array.init n (fun _ -> Rng.split root)

let fresh_cluster params =
  let cluster = Cluster.create params in
  let copies = List.length (Ops.insert cluster ~key) in
  if copies = 0 then failwith "benchmark: empty system";
  (cluster, copies)

let oracle ~total_rate = Float.max 1.0 (total_rate /. capacity)

let param shape ~quick name =
  match List.assoc_opt name (shape ~quick) with
  | Some v -> v
  | None -> invalid_arg ("benchmark: no parameter " ^ name)

(* A fault plan whose loss bursts (and partition) sit in fixed windows of
   the run: [0.2, 0.3) and [0.5, 0.6) of [duration] for the bursts,
   [0.35, 0.45) for the partition. The seed still picks which nodes crash,
   when, and who is cut off; with Faults.generate's random windows one
   seed's run did several times the work of another's. *)
let windowed_plan ~rng ~live ~duration ~crash_fraction ~burst_loss ~partition_fraction =
  let crashes =
    (Faults.generate ~rng ~live ~duration ~crash_fraction ~restart_fraction:0.5
       ~bursts:0 ~partitions:0 ())
      .Faults.crashes
  in
  let window a b = (a *. duration, b *. duration) in
  let burst (from_, until) = { Faults.from_; until; loss = burst_loss } in
  let partitions =
    if partition_fraction <= 0.0 then []
    else
      let pool = Array.of_list live in
      let k = int_of_float (partition_fraction *. float_of_int (Array.length pool)) in
      let from_, until = window 0.35 0.45 in
      [
        {
          Faults.from_;
          until;
          group = Array.to_list (Rng.sample_without_replacement rng ~k pool);
          direction = Faults.Both;
        };
      ]
  in
  {
    Faults.crashes;
    bursts = [ burst (window 0.2 0.3); burst (window 0.5 0.6) ];
    partitions;
  }

(* Crashes of a fault plan as the membership events they amount to. *)
let plan_membership (plan : Faults.plan) =
  List.concat_map
    (fun (c : Faults.crash) ->
      { Des_sim.at = c.Faults.at; action = Des_sim.Fail c.Faults.node }
      :: (match c.Faults.restart_at with
         | Some at -> [ { Des_sim.at; action = Des_sim.Join c.Faults.node } ]
         | None -> []))
    plan.Faults.crashes
  |> List.stable_sort (fun a b -> Float.compare a.Des_sim.at b.Des_sim.at)

let steady_shape ~quick =
  if quick then [ ("m", 10.); ("rate_per_node", 2.); ("duration_s", 4.) ]
  else [ ("m", 16.); ("rate_per_node", 2.); ("duration_s", 6.) ]

let steady =
  let name = "steady_m16" in
  {
    name;
    why =
      "largest pending-event population, no churn: the event core and the \
       request climb over the topology router do almost all the work";
    fail_ceiling = 0.0;
    oracle_band = true;
    shape = steady_shape;
    setup =
      (fun spans ~quick ~seed ->
        let p = param steady_shape ~quick in
        let (params, cluster, copies), _ =
          Spans.record spans "setup.cluster" (fun () ->
              let params = Params.create ~m:(int_of_float (p "m")) () in
              let cluster, copies = fresh_cluster params in
              (params, cluster, copies))
        in
        let (demand, rng), _ =
          Spans.record spans "setup.inputs" (fun () ->
              let s = streams ~seed ~name 1 in
              let status = Cluster.status cluster in
              let total =
                p "rate_per_node" *. float_of_int (Status_word.live_count status)
              in
              (Demand.uniform status ~total, s.(0)))
        in
        {
          params;
          oracle = oracle ~total_rate:(Demand.total demand);
          initial_copies = copies;
          simulate =
            (fun ?obs () ->
              Des (Des_sim.run ?obs ~rng ~cluster ~key ~demand ~duration:(p "duration_s") (), cluster));
          domains1 = None;
          detector_only = None;
          membership = [];
        });
  }

let churn_shape ~quick =
  if quick then
    [ ("m", 8.); ("peak_rate", 2000.); ("calm_rate", 100.); ("phase_s", 5.);
      ("mean_session_s", 30.); ("mean_downtime_s", 15.); ("fail_fraction", 0.2);
      ("evict_period_s", 5.); ("evict_min_rate", 5.) ]
  else
    [ ("m", 13.); ("peak_rate", 12000.); ("calm_rate", 600.); ("phase_s", 10.);
      ("mean_session_s", 30.); ("mean_downtime_s", 15.); ("fail_fraction", 0.2);
      ("evict_period_s", 5.); ("evict_min_rate", 5.) ]

let churn_flash =
  let name = "churn_flash_m13" in
  {
    name;
    why =
      "flash crowd then calm under session churn with eviction: every \
       membership event rebuilds the router, replicas grow and are evicted";
    fail_ceiling = 0.01;
    oracle_band = false;
    shape = churn_shape;
    setup =
      (fun spans ~quick ~seed ->
        let p = param churn_shape ~quick in
        let (params, cluster, copies), _ =
          Spans.record spans "setup.cluster" (fun () ->
              let params = Params.create ~m:(int_of_float (p "m")) () in
              let cluster, copies = fresh_cluster params in
              (params, cluster, copies))
        in
        let (scenario, churn, rng), _ =
          Spans.record spans "setup.inputs" (fun () ->
              let s = streams ~seed ~name 3 in
              let status = Cluster.status cluster in
              let scenario =
                Scenario.flash_crowd status ~rng:s.(0) ~peak:(p "peak_rate")
                  ~calm:(p "calm_rate") ~peak_duration:(p "phase_s")
                  ~calm_duration:(p "phase_s")
              in
              let churn =
                Churn_trace.generate ~rng:s.(1) ~live:(Status_word.live_pids status)
                  {
                    Churn_trace.mean_session = p "mean_session_s";
                    mean_downtime = p "mean_downtime_s";
                    fail_fraction = p "fail_fraction";
                    duration = Scenario.total_duration scenario;
                  }
              in
              (scenario, churn, s.(2)))
        in
        let config =
          {
            Des_sim.default_config with
            eviction =
              Some { Des_sim.period = p "evict_period_s"; min_rate = p "evict_min_rate" };
          }
        in
        {
          params;
          oracle = oracle ~total_rate:(p "calm_rate");
          initial_copies = copies;
          simulate =
            (fun ?obs () ->
              Des (Des_sim.run_scenario ~config ~churn ?obs ~rng ~cluster ~key ~scenario (), cluster));
          domains1 = None;
          detector_only = None;
          membership = churn;
        });
  }

let sharded_shape ~quick =
  if quick then
    [ ("m", 10.); ("b", 2.); ("domains", 2.); ("rate_per_node", 2.); ("duration_s", 4.);
      ("crash_fraction", 0.01); ("burst_loss", 0.3) ]
  else
    [ ("m", 16.); ("b", 2.); ("domains", 2.); ("rate_per_node", 2.); ("duration_s", 8.);
      ("crash_fraction", 0.01); ("burst_loss", 0.3) ]

let sharded_faults =
  let name = "sharded_faults_m16" in
  {
    name;
    why =
      "the only workload on the sharded engine and the domain pool, with \
       barrier globals from crashes and loss bursts that break epoch fusion";
    fail_ceiling = 0.2;
    oracle_band = true;
    shape = sharded_shape;
    setup =
      (fun spans ~quick ~seed ->
        let p = param sharded_shape ~quick in
        let duration = p "duration_s" in
        let (params, status), _ =
          Spans.record spans "setup.cluster" (fun () ->
              let params =
                Params.create ~b:(int_of_float (p "b")) ~m:(int_of_float (p "m")) ()
              in
              (params, Status_word.create params ~initially_live:true))
        in
        let (demand, faults, sim_seed), _ =
          Spans.record spans "setup.inputs" (fun () ->
              let s = streams ~seed ~name 2 in
              let total =
                p "rate_per_node" *. float_of_int (Status_word.live_count status)
              in
              let faults =
                windowed_plan ~rng:s.(0) ~live:(Status_word.live_pids status) ~duration
                  ~crash_fraction:(p "crash_fraction") ~burst_loss:(p "burst_loss")
                  ~partition_fraction:0.0
              in
              (Demand.uniform status ~total, faults, Rng.int s.(1) 0x3FFFFFFF))
        in
        let run ?obs domains =
          Pdes (Pdes_sim.run ?obs ~faults ~domains ~seed:sim_seed ~params ~key ~demand ~duration ())
        in
        {
          params;
          oracle = oracle ~total_rate:(Demand.total demand);
          initial_copies = Params.subtree_count params;
          simulate = (fun ?obs () -> run ?obs (int_of_float (p "domains")));
          domains1 = Some (fun () -> run 1);
          detector_only = None;
          membership = plan_membership faults;
        });
  }

let rpc_shape ~quick =
  if quick then
    [ ("m", 8.); ("rate", 1000.); ("duration_s", 30.); ("crash_fraction", 0.05);
      ("burst_loss", 0.5); ("partition_fraction", 0.25) ]
  else
    [ ("m", 12.); ("rate", 8000.); ("duration_s", 30.); ("crash_fraction", 0.05);
      ("burst_loss", 0.5); ("partition_fraction", 0.25) ]

let rpc_lossy =
  let name = "rpc_lossy_m12" in
  let build ~p ~seed ~idle spans =
    let duration = p "duration_s" in
    let (cluster, copies), _ =
      Spans.record spans "setup.cluster" (fun () ->
          fresh_cluster (Params.create ~m:(int_of_float (p "m")) ()))
    in
    let (demand, plan, rng), _ =
      Spans.record spans "setup.inputs" (fun () ->
          let s = streams ~seed ~name 2 in
          let status = Cluster.status cluster in
          let plan =
            windowed_plan ~rng:s.(0) ~live:(Status_word.live_pids status) ~duration
              ~crash_fraction:(p "crash_fraction") ~burst_loss:(p "burst_loss")
              ~partition_fraction:(p "partition_fraction")
          in
          (Demand.uniform status ~total:(if idle then 0.0 else p "rate"), plan, s.(1)))
    in
    let simulate ?obs () =
      Fsim (Fault_sim.run ?obs ~plan ~rng ~cluster ~key ~demand ~duration (), cluster)
    in
    (cluster, copies, demand, plan, simulate)
  in
  {
    name;
    why =
      "the only workload through rpc retransmission, server dedup and the \
       heartbeat detector, with no membership oracle and a heavy allocation profile";
    fail_ceiling = 0.05;
    oracle_band = false;
    shape = rpc_shape;
    setup =
      (fun spans ~quick ~seed ->
        let p = param rpc_shape ~quick in
        let cluster, copies, demand, plan, simulate = build ~p ~seed ~idle:false spans in
        {
          params = Cluster.params cluster;
          oracle = oracle ~total_rate:(Demand.total demand);
          initial_copies = copies;
          simulate;
          domains1 = None;
          detector_only =
            Some
              (fun spans ->
                let _, _, _, _, idle = build ~p ~seed ~idle:true spans in
                idle ());
          membership = plan_membership plan;
        });
  }

let all = [ steady; churn_flash; sharded_faults; rpc_lossy ]

(* --- Reduction to common statistics ------------------------------------ *)

type stats = {
  resolved : int;  (** Requests served or failed. *)
  served : int;
  fail_frac : float;
  within_deadline : int;
  latencies : Histogram.t;  (** Simulated seconds, served requests. *)
  hops : Histogram.t;
  replicas_created : int;
  replicas_evicted : int;
  copies_end : int;
  replicas_end : int;  (** Copies beyond the inserted ones at the end. *)
  messages : int;
  events : int;
  digest : int;  (** FNV over every simulated statistic above. *)
}

(* Served requests whose latency is below [deadline], from the sketch's
   bucket representatives. *)
let under_deadline h =
  List.fold_left
    (fun acc (lo, n) -> if lo < deadline then acc + n else acc)
    0
    (Histogram.buckets h ~width:deadline)

(* Histogram.quantile answers with the representative of the bucket
   holding the rank, so a stable distribution reads the same value on
   every seed. Interpolating by rank inside that bucket (bucket ratio
   1.005, as Histogram documents) lets the quantile move with the data. *)
let bucket_ratio = 1.005

let quantile h q =
  let n = Histogram.count h in
  if n = 0 then 0.0
  else begin
    let rank = q *. float_of_int n in
    let clamp v = Float.min (Histogram.max_value h) (Float.max (Histogram.min_value h) v) in
    let rec find below = function
      | [] -> Histogram.max_value h
      | (rep, c) :: rest ->
          let upto = below +. float_of_int c in
          if upto < rank || c = 0 then find upto rest
          else if rep <= 0.0 then clamp 0.0
          else begin
            let lo = rep /. sqrt bucket_ratio and hi = rep *. sqrt bucket_ratio in
            clamp (lo +. ((rank -. below) /. float_of_int c *. (hi -. lo)))
          end
    in
    (* A width far below the bucket spacing keeps one entry per bucket. *)
    find 0.0 (Histogram.buckets h ~width:1e-9)
  end

let digest_of fields = Fnv.hash63 (String.concat "|" fields)

let stats ~initial_copies outcome =
  let hist_fields h =
    [ string_of_int (Histogram.count h); Printf.sprintf "%h" (Histogram.mean h);
      Printf.sprintf "%h" (quantile h 0.5); Printf.sprintf "%h" (quantile h 0.99) ]
  in
  let base ~served ~failed ~fail_frac ~within ~latencies ~hops ~created ~evicted
      ~copies_end ~messages ~events ~extra =
    let fields =
      List.map string_of_int
        [ served; failed; within; created; evicted; copies_end; messages; events ]
      @ hist_fields latencies @ hist_fields hops @ extra
    in
    {
      resolved = served + failed;
      served;
      fail_frac;
      within_deadline = within;
      latencies;
      hops;
      replicas_created = created;
      replicas_evicted = evicted;
      copies_end;
      replicas_end = max 0 (copies_end - initial_copies);
      messages;
      events;
      digest = digest_of fields;
    }
  in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  match outcome with
  | Des (r, cluster) ->
      base ~served:r.Des_sim.served ~failed:r.Des_sim.faults
        ~fail_frac:(ratio r.Des_sim.faults (r.Des_sim.served + r.Des_sim.faults))
        ~within:(under_deadline r.Des_sim.latencies) ~latencies:r.Des_sim.latencies
        ~hops:r.Des_sim.hops ~created:r.Des_sim.replicas_created
        ~evicted:r.Des_sim.replicas_evicted
        ~copies_end:(Cluster.total_copies cluster ~key)
        ~messages:r.Des_sim.messages ~events:r.Des_sim.events
        ~extra:
          (List.map string_of_int
             [ r.Des_sim.control_messages; r.Des_sim.file_transfers;
               r.Des_sim.overloaded_at_end ])
  | Pdes r ->
      base ~served:r.Pdes_sim.served ~failed:r.Pdes_sim.faults
        ~fail_frac:(1.0 -. ratio r.Pdes_sim.served r.Pdes_sim.requests)
        ~within:(under_deadline r.Pdes_sim.latencies) ~latencies:r.Pdes_sim.latencies
        ~hops:r.Pdes_sim.hops ~created:r.Pdes_sim.replicas_created ~evicted:0
        ~copies_end:r.Pdes_sim.replicas_end ~messages:r.Pdes_sim.messages
        ~events:r.Pdes_sim.events
        ~extra:
          (List.map string_of_int
             [ r.Pdes_sim.requests; r.Pdes_sim.migrations; r.Pdes_sim.digest;
               r.Pdes_sim.control_messages; r.Pdes_sim.file_transfers ])
  | Fsim (r, cluster) ->
      let failed = r.Fault_sim.faulted + r.Fault_sim.pending_at_end in
      base ~served:r.Fault_sim.served ~failed
        ~fail_frac:(ratio failed r.Fault_sim.issued)
        ~within:r.Fault_sim.within_deadline ~latencies:r.Fault_sim.latencies
        ~hops:r.Fault_sim.hops ~created:r.Fault_sim.replicas_created ~evicted:0
        ~copies_end:(Cluster.total_copies cluster ~key)
        ~messages:r.Fault_sim.messages ~events:0
        ~extra:
          (List.map string_of_int
             [ r.Fault_sim.issued; r.Fault_sim.duplicate_serves;
               r.Fault_sim.retransmissions; r.Fault_sim.timeouts;
               r.Fault_sim.suspicions; r.Fault_sim.spurious_suspicions;
               r.Fault_sim.migrations; r.Fault_sim.crashes; r.Fault_sim.restarts ]
          @ [ Printf.sprintf "%h" r.Fault_sim.detector_agreement ])

type check = { label : string; ok : bool; detail : string }

let check label ok detail = { label; ok; detail }

(* The conservation identities of one run. *)
let conservation ~prepared outcome (s : stats) =
  let counts =
    Printf.sprintf "served %d resolved %d hops %d latencies %d" s.served s.resolved
      (Histogram.count s.hops) (Histogram.count s.latencies)
  in
  match outcome with
  | Des (r, _) ->
      [
        check "des.hops_per_served" (Histogram.count s.hops = s.served) counts;
        check "des.latency_le_served" (Histogram.count s.latencies <= s.served) counts;
        check "des.copies_balance"
          (prepared.membership <> []
          || s.copies_end
             = prepared.initial_copies + r.Des_sim.replicas_created
               - r.Des_sim.replicas_evicted)
          (Printf.sprintf "copies %d, initial %d + created %d - evicted %d%s"
             s.copies_end prepared.initial_copies r.Des_sim.replicas_created
             r.Des_sim.replicas_evicted
             (if prepared.membership <> [] then " (not checked under churn)" else ""));
      ]
  | Pdes r ->
      [
        check "pdes.hops_per_served" (Histogram.count s.hops = s.served) counts;
        check "pdes.resolved_le_requests"
          (s.resolved <= r.Pdes_sim.requests)
          (Printf.sprintf "resolved %d, requests %d" s.resolved r.Pdes_sim.requests);
      ]
  | Fsim (r, _) ->
      [
        check "fsim.issued_balance"
          (r.Fault_sim.issued
          = r.Fault_sim.served + r.Fault_sim.faulted + r.Fault_sim.pending_at_end)
          (Printf.sprintf "issued %d = served %d + faulted %d + pending %d"
             r.Fault_sim.issued r.Fault_sim.served r.Fault_sim.faulted
             r.Fault_sim.pending_at_end);
        check "fsim.pending_zero" (r.Fault_sim.pending_at_end = 0)
          (Printf.sprintf "pending %d" r.Fault_sim.pending_at_end);
        check "fsim.deadline_le_served"
          (r.Fault_sim.within_deadline <= r.Fault_sim.served)
          (Printf.sprintf "within deadline %d, served %d" r.Fault_sim.within_deadline
             r.Fault_sim.served);
      ]
