open Lesslog_id
module Series = Lesslog_report.Series
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Status_word = Lesslog_membership.Status_word
module Demand = Lesslog_workload.Demand
module Balance = Lesslog_flow.Balance
module Policy = Lesslog_flow.Policy
module Rng = Lesslog_prng.Rng
module Par = Lesslog_parallel.Par

type config = {
  m : int;
  capacity : float;
  rates : float list;
  trials : int;
  seed : int;
  hot_fraction : float;
  hot_share : float;
  domains : int;
}

let sweep ~from ~until ~step =
  let rec go acc x = if x > until then List.rev acc else go (x :: acc) (x +. step) in
  go [] from

let default =
  {
    m = 10;
    capacity = 100.0;
    rates = sweep ~from:1000.0 ~until:20000.0 ~step:1000.0;
    trials = 3;
    seed = 42;
    hot_fraction = 0.2;
    hot_share = 0.8;
    domains = 1;
  }

let quick =
  {
    default with
    m = 7;
    rates = sweep ~from:500.0 ~until:2500.0 ~step:500.0;
    trials = 1;
  }

type demand_model = Even | Locality

let hot_file = "hot/popular-object"

(* Every experiment point gets an independent deterministic RNG, so sweeps
   give identical results sequentially and in parallel. *)
let point_rng config ~label ~rate ~trial =
  let tag = Printf.sprintf "%d|%s|%g|%d" config.seed label rate trial in
  Rng.create ~seed:(Lesslog_hash.Fnv.hash63 tag land 0x3FFFFFFF)

let one_trial config ~rng ~dead_fraction ~demand_model ~policy ~rate =
  let params = Params.create ~m:config.m () in
  let cluster =
    if dead_fraction > 0.0 then
      Cluster.create_with_dead_fraction params ~rng ~fraction:dead_fraction
    else Cluster.create params
  in
  (match Ops.insert cluster ~key:hot_file with
  | [] -> invalid_arg "Experiments.one_trial: empty system"
  | _ -> ());
  let status = Cluster.status cluster in
  let demand =
    match demand_model with
    | Even -> Demand.uniform status ~total:rate
    | Locality ->
        Demand.locality ~hot_fraction:config.hot_fraction
          ~hot_share:config.hot_share status ~rng ~total:rate
  in
  let outcome =
    Balance.run ~rng ~cluster ~key:hot_file ~demand ~capacity:config.capacity
      ~policy ()
  in
  float_of_int outcome.Balance.replicas

let averaged_point config ~label ~dead_fraction ~demand_model ~policy ~rate =
  let total = ref 0.0 in
  for trial = 1 to config.trials do
    let rng = point_rng config ~label ~rate ~trial in
    total :=
      !total
      +. one_trial config ~rng ~dead_fraction ~demand_model ~policy ~rate
  done;
  (rate, !total /. float_of_int config.trials)

let series_for config ~label ~dead_fraction ~demand_model ~policy =
  let points =
    Par.map_list ~domains:config.domains
      ~f:(fun rate ->
        averaged_point config ~label ~dead_fraction ~demand_model ~policy ~rate)
      config.rates
  in
  Series.make ~label points

let policy_series config ~demand_model =
  List.map
    (fun policy ->
      series_for config ~label:(Policy.name policy) ~dead_fraction:0.0
        ~demand_model ~policy)
    Policy.all

let dead_series config ~demand_model =
  List.map
    (fun dead_fraction ->
      let label =
        Printf.sprintf "%d%% dead" (int_of_float (dead_fraction *. 100.))
      in
      series_for config ~label ~dead_fraction ~demand_model
        ~policy:Policy.Lesslog)
    [ 0.1; 0.2; 0.3 ]

let fig5 ?(config = default) () = policy_series config ~demand_model:Even
let fig6 ?(config = default) () = dead_series config ~demand_model:Even
let fig7 ?(config = default) () = policy_series config ~demand_model:Locality
let fig8 ?(config = default) () = dead_series config ~demand_model:Locality

(* --- DES m-sweep --------------------------------------------------------- *)

module Des_sim = Lesslog_des.Des_sim
module Control_plane = Lesslog_des.Control_plane
module Histogram = Lesslog_metrics.Histogram

type des_point = {
  des_m : int;
  nodes : int;
  events : int;
  secs : float;
  events_per_sec : float;
  served : int;
  faults : int;
  replicas : int;
  messages : int;
  p50_latency : float;
  p99_latency : float;
  mean_hops : float;
}

let des_point ~m ~rate_per_node ~duration ~capacity ~seed =
  let params = Params.create ~m () in
  let cluster = Cluster.create params in
  (match Ops.insert cluster ~key:hot_file with
  | [] -> invalid_arg "Experiments.des_point: empty system"
  | _ -> ());
  let status = Cluster.status cluster in
  let nodes = Status_word.live_count status in
  let total = rate_per_node *. float_of_int nodes in
  let demand = Demand.uniform status ~total in
  let tag = Printf.sprintf "%d|des|%d" seed m in
  let rng = Rng.create ~seed:(Lesslog_hash.Fnv.hash63 tag land 0x3FFFFFFF) in
  let config = { Des_sim.default_config with capacity } in
  let t0 = Sys.time () in
  let r = Des_sim.run ~config ~rng ~cluster ~key:hot_file ~demand ~duration () in
  let secs = Sys.time () -. t0 in
  let q h p = if Histogram.count h = 0 then 0.0 else Histogram.quantile h p in
  {
    des_m = m;
    nodes;
    events = r.Des_sim.events;
    secs;
    events_per_sec =
      (if secs > 0.0 then float_of_int r.Des_sim.events /. secs else 0.0);
    served = r.Des_sim.served;
    faults = r.Des_sim.faults;
    replicas = r.Des_sim.replicas_created;
    messages = r.Des_sim.messages;
    p50_latency = q r.Des_sim.latencies 0.5;
    p99_latency = q r.Des_sim.latencies 0.99;
    mean_hops = Histogram.mean r.Des_sim.hops;
  }

let des_sweep ?(ms = [ 10; 11; 12; 13; 14; 15; 16 ]) ?(rate_per_node = 2.0)
    ?(duration = 5.0) ?(capacity = 100.0) ?(seed = 42) () =
  List.map
    (fun m -> des_point ~m ~rate_per_node ~duration ~capacity ~seed)
    ms

let render_des_sweep points =
  let header =
    [ "m"; "nodes"; "events"; "ev/s"; "served"; "faults"; "replicas";
      "p50 lat"; "p99 lat"; "hops" ]
  in
  let rows =
    List.map
      (fun p ->
        [
          string_of_int p.des_m;
          string_of_int p.nodes;
          string_of_int p.events;
          Printf.sprintf "%.3g" p.events_per_sec;
          string_of_int p.served;
          string_of_int p.faults;
          string_of_int p.replicas;
          Printf.sprintf "%.4f" p.p50_latency;
          Printf.sprintf "%.4f" p.p99_latency;
          Printf.sprintf "%.2f" p.mean_hops;
        ])
      points
  in
  Lesslog_report.Table.render ~header rows

let render ~title ~x_label ~y_label series =
  String.concat "\n"
    [
      title;
      String.make (String.length title) '=';
      Lesslog_report.Table.of_series ~x_label series;
      "";
      Lesslog_report.Ascii_plot.render ~x_label ~y_label series;
    ]

(* --- S2: domain-parallel sharded DES (Pdes_sim) ------------------------ *)

module Pdes_sim = Lesslog_des.Pdes_sim

type pdes_point = {
  pdes_m : int;
  pdes_b : int;
  pdes_domains : int;
  pdes_nodes : int;
  pdes_events : int;
  pdes_secs : float;
  pdes_events_per_sec : float;
  pdes_served : int;
  pdes_faults : int;
  pdes_migrations : int;
  pdes_replicas_end : int;
  pdes_oracle_replicas : float;
  pdes_messages : int;
  pdes_cross_sends : int;
  pdes_epochs : int;
  pdes_digest : int;
  pdes_p50_latency : float;
  pdes_p99_latency : float;
}

let pdes_oracle_replicas ~total_rate ~capacity =
  if capacity <= 0.0 then
    invalid_arg "Experiments.pdes_oracle_replicas: capacity must be positive";
  Float.max 1.0 (total_rate /. capacity)

let pdes_point ~b ~domains ~m ~rate_per_node ~duration ~capacity ~seed =
  let params = Params.create ~b ~m () in
  let status = Status_word.create params ~initially_live:true in
  let nodes = Status_word.live_count status in
  let total = rate_per_node *. float_of_int nodes in
  let demand = Demand.uniform status ~total in
  let tag = Printf.sprintf "%d|pdes|%d" seed m in
  let run_seed = Lesslog_hash.Fnv.hash63 tag land 0x3FFFFFFF in
  let config = { Pdes_sim.default_config with capacity } in
  let t0 = Sys.time () in
  let r =
    Pdes_sim.run ~config ~domains ~seed:run_seed ~params ~key:hot_file ~demand
      ~duration ()
  in
  let secs = Sys.time () -. t0 in
  let q h p = if Histogram.count h = 0 then 0.0 else Histogram.quantile h p in
  {
    pdes_m = m;
    pdes_b = b;
    pdes_domains = domains;
    pdes_nodes = nodes;
    pdes_events = r.Pdes_sim.events;
    pdes_secs = secs;
    pdes_events_per_sec =
      (if secs > 0.0 then float_of_int r.Pdes_sim.events /. secs else 0.0);
    pdes_served = r.Pdes_sim.served;
    pdes_faults = r.Pdes_sim.faults;
    pdes_migrations = r.Pdes_sim.migrations;
    pdes_replicas_end = r.Pdes_sim.replicas_end;
    pdes_oracle_replicas = pdes_oracle_replicas ~total_rate:total ~capacity;
    pdes_messages = r.Pdes_sim.messages;
    pdes_cross_sends = r.Pdes_sim.cross_sends;
    pdes_epochs = r.Pdes_sim.epochs;
    pdes_digest = r.Pdes_sim.digest;
    pdes_p50_latency = q r.Pdes_sim.latencies 0.5;
    pdes_p99_latency = q r.Pdes_sim.latencies 0.99;
  }

let pdes_sweep ?(ms = [ 10; 11; 12; 13; 14; 15; 16 ]) ?(b = 2) ?(domains = 1)
    ?(rate_per_node = 2.0) ?(duration = 5.0) ?(capacity = 100.0) ?(seed = 42)
    () =
  List.map
    (fun m -> pdes_point ~b ~domains ~m ~rate_per_node ~duration ~capacity ~seed)
    ms

(* --- Adaptive replication under time-varying demand --------------------- *)

module Rf_policy = Lesslog_policy.Rf_policy
module Catalog = Lesslog_workload.Catalog
module Multi_balance = Lesslog_flow.Multi_balance

type demand_class = { class_files : int; class_rate : float }

(* Per-class mean-field steady state: each of a class's [m_c] files needs
   enough copies to absorb its share [R_c /. m_c] at [capacity] per copy,
   never below the one copy insertion guarantees — so the population
   settles near [sum_c m_c *. max 1 (R_c /. (m_c *. capacity))]. The
   single-class instance with m_c = 1 degenerates to the PR 7 oracle
   [max 1 (R /. capacity)]. *)
let adaptive_oracle_replicas ~classes ~capacity =
  if capacity <= 0.0 then
    invalid_arg "Experiments.adaptive_oracle_replicas: capacity must be positive";
  List.fold_left
    (fun acc { class_files; class_rate } ->
      if class_files <= 0 then acc
      else
        let files = float_of_int class_files in
        acc +. (files *. Float.max 1.0 (class_rate /. (files *. capacity))))
    0.0 classes

(* Fluid loss bound: [replicas] copies serve at most [replicas *.
   capacity] requests/s, so at least [1 - replicas *. capacity /. rate]
   of the offered load overflows. An upper bound on the steady-state
   loss fraction — zero once the population reaches the oracle. *)
let adaptive_oracle_loss ~total_rate ~replicas ~capacity =
  if total_rate <= 0.0 then 0.0
  else Float.max 0.0 (1.0 -. (replicas *. capacity /. total_rate))

type adaptive_point = {
  ad_label : string;
  ad_m : int;
  ad_rate : float;
  ad_requests : int;
  ad_served : int;
  ad_faults : int;
  ad_loss : float;
  ad_replicas_end : int;
  ad_rf_end : int;
  ad_oracle_replicas : float;
  ad_oracle_loss : float;
}

let adaptive_point ~b ~dynamic ~m ~rate ~duration ~capacity ~seed =
  let params = Params.create ~b ~m () in
  let cluster = Cluster.create params in
  ignore (Ops.insert cluster ~key:hot_file);
  let demand = Demand.uniform (Cluster.status cluster) ~total:rate in
  let tag = Printf.sprintf "%d|adaptive|%d|%g|%b" seed m rate dynamic in
  let rng = Rng.create ~seed:(Lesslog_hash.Fnv.hash63 tag land 0x3FFFFFFF) in
  (* 0.25 s intervals, capacity-aware classification, RF capped at the
     slot count, starting from the per-subtree insertion population. *)
  let policy =
    if not dynamic then None
    else
      let space = Params.space params in
      let config =
        {
          Rf_policy.default_config with
          Rf_policy.interval = 0.25;
          rf_max = space;
          capacity = Some capacity;
        }
      in
      Some
        (Rf_policy.create ~config
           ~rf0:(min (Params.subtree_count params) space)
           ~nodes:space ~files:1 ())
  in
  let config = { Des_sim.default_config with capacity } in
  let r =
    Des_sim.run ~config ?policy ~rng ~cluster ~key:hot_file ~demand ~duration ()
  in
  let requests = r.Des_sim.served + r.Des_sim.faults in
  let replicas_end = Cluster.total_copies cluster ~key:hot_file in
  {
    ad_label = (if dynamic then "dynamic-rf" else "lesslog");
    ad_m = m;
    ad_rate = rate;
    ad_requests = requests;
    ad_served = r.Des_sim.served;
    ad_faults = r.Des_sim.faults;
    ad_loss =
      (if requests = 0 then 0.0
       else float_of_int r.Des_sim.faults /. float_of_int requests);
    ad_replicas_end = replicas_end;
    ad_rf_end =
      (match policy with Some p -> Rf_policy.rf p ~file:0 | None -> 0);
    ad_oracle_replicas =
      adaptive_oracle_replicas
        ~classes:[ { class_files = 1; class_rate = rate } ]
        ~capacity;
    ad_oracle_loss =
      adaptive_oracle_loss ~total_rate:rate
        ~replicas:(float_of_int replicas_end) ~capacity;
  }

let adaptive_sweep ?(b = 2) ?(m = 10) ?(duration = 8.0) ?(capacity = 100.0)
    ?(seed = 42) ?(rates = [ 500.0; 1000.0; 2000.0 ]) () =
  List.concat_map
    (fun rate ->
      [
        adaptive_point ~b ~dynamic:false ~m ~rate ~duration ~capacity ~seed;
        adaptive_point ~b ~dynamic:true ~m ~rate ~duration ~capacity ~seed;
      ])
    rates

let render_adaptive points =
  let header =
    [ "policy"; "req/s"; "requests"; "served"; "loss"; "repl"; "rf";
      "oracle"; "oracle loss" ]
  in
  let rows =
    List.map
      (fun p ->
        [
          p.ad_label;
          Printf.sprintf "%.0f" p.ad_rate;
          string_of_int p.ad_requests;
          string_of_int p.ad_served;
          Printf.sprintf "%.4f" p.ad_loss;
          string_of_int p.ad_replicas_end;
          string_of_int p.ad_rf_end;
          Printf.sprintf "%.1f" p.ad_oracle_replicas;
          Printf.sprintf "%.4f" p.ad_oracle_loss;
        ])
      points
  in
  Lesslog_report.Table.render ~header rows

(* --- Adaptive timeline: multi-file hot/warm/cold vs the fluid solver --- *)

type adaptive_step = {
  st_i : int;
  st_total : float;
  st_hot : string;
  st_fluid_replicas : int;
  st_rf_replicas : int;
  st_oracle : float;
}

let adaptive_timeline ?(m = 8) ?(capacity = 100.0) ?(seed = 42) ?(files = 8)
    ?(intervals = 12) ?(shift_every = 4) () =
  let params = Params.create ~m () in
  let status = Status_word.create params ~initially_live:true in
  let tag s = Lesslog_hash.Fnv.hash63 s land 0x3FFFFFFF in
  let rng = Rng.create ~seed:(tag (Printf.sprintf "%d|adtl" seed)) in
  let total = 4.0 *. capacity in
  let flash =
    {
      Catalog.rank = files - 1;
      (* A cold file's demand must clear one node's capacity to force
         replicas. *)
      factor = 25.0;
      from_i = intervals / 2;
      until_i = min intervals ((intervals / 2) + 2);
    }
  in
  let tl =
    Catalog.timeline ~classes:Catalog.default_classes ~shift_every
      ~flashes:[ flash ] status ~rng ~files ~total ~spread:Catalog.Uniform
      ~intervals ~interval:1.0
  in
  (* Stable file identity for the policy: the catalogue re-deals demand
     over the same names at a popularity shift, so index by name, not by
     the entry's position in the current step. *)
  let name_idx = Hashtbl.create files in
  List.iteri
    (fun f (name, _) -> Hashtbl.replace name_idx name f)
    (Catalog.files (Catalog.step tl ~i:0));
  let pconfig =
    {
      Rf_policy.default_config with
      Rf_policy.interval = Catalog.interval tl;
      rf_max = Params.space params;
      capacity = Some capacity;
    }
  in
  let policy =
    Rf_policy.create ~config:pconfig ~nodes:(Params.space params) ~files ()
  in
  List.init intervals (fun i ->
      let entries = Catalog.files (Catalog.step tl ~i) in
      (* Fluid side: a fresh cluster balanced against this interval's
         catalogue — the steady state an omniscient balancer reaches. *)
      let cluster = Cluster.create params in
      List.iter (fun (k, _) -> ignore (Ops.insert cluster ~key:k)) entries;
      let frng = Rng.create ~seed:(tag (Printf.sprintf "%d|adtl|%d" seed i)) in
      let _ =
        Multi_balance.run ~rng:frng ~cluster ~catalog:entries ~capacity
          ~policy:Policy.Lesslog ()
      in
      let fluid =
        List.fold_left
          (fun acc (k, _) -> acc + Cluster.total_copies cluster ~key:k)
          0 entries
      in
      (* Policy side: synthesize the interval's access log from the
         demand (expected accesses and accessing-origin counts), close
         the window, read off the replica factors. *)
      List.iter
        (fun (name, d) ->
          let f = Hashtbl.find name_idx name in
          let ac =
            int_of_float
              (Float.round (Demand.total d *. Catalog.interval tl))
          in
          let dnc =
            Status_word.fold_live status ~init:0 ~f:(fun acc p ->
                if Demand.rate d p > 0.0 then acc + 1 else acc)
          in
          Rf_policy.note policy ~file:f ~ac ~dnc)
        entries;
      ignore (Rf_policy.end_interval policy);
      let rf_total = ref 0 in
      for f = 0 to files - 1 do
        rf_total := !rf_total + Rf_policy.rf policy ~file:f
      done;
      let hot =
        List.fold_left
          (fun (bk, br) (k, d) ->
            if Demand.total d > br then (k, Demand.total d) else (bk, br))
          ("", neg_infinity) entries
        |> fst
      in
      {
        st_i = i;
        st_total = Catalog.total_demand (Catalog.step tl ~i);
        st_hot = hot;
        st_fluid_replicas = fluid;
        st_rf_replicas = !rf_total;
        st_oracle =
          adaptive_oracle_replicas
            ~classes:
              (List.map
                 (fun (_, d) ->
                   { class_files = 1; class_rate = Demand.total d })
                 entries)
            ~capacity;
      })

let render_adaptive_timeline steps =
  let header =
    [ "interval"; "total req/s"; "hot file"; "fluid repl"; "rf repl";
      "oracle" ]
  in
  let rows =
    List.map
      (fun s ->
        [
          string_of_int s.st_i;
          Printf.sprintf "%.0f" s.st_total;
          s.st_hot;
          string_of_int s.st_fluid_replicas;
          string_of_int s.st_rf_replicas;
          Printf.sprintf "%.1f" s.st_oracle;
        ])
      steps
  in
  Lesslog_report.Table.render ~header rows

let render_pdes_sweep points =
  let header =
    [ "m"; "shards"; "nodes"; "events"; "ev/s"; "served"; "faults"; "migr";
      "repl"; "oracle"; "x-send"; "epochs"; "p99 lat" ]
  in
  let rows =
    List.map
      (fun p ->
        [
          string_of_int p.pdes_m;
          string_of_int (1 lsl p.pdes_b);
          string_of_int p.pdes_nodes;
          string_of_int p.pdes_events;
          Printf.sprintf "%.3g" p.pdes_events_per_sec;
          string_of_int p.pdes_served;
          string_of_int p.pdes_faults;
          string_of_int p.pdes_migrations;
          string_of_int p.pdes_replicas_end;
          Printf.sprintf "%.1f" p.pdes_oracle_replicas;
          string_of_int p.pdes_cross_sends;
          string_of_int p.pdes_epochs;
          Printf.sprintf "%.4f" p.pdes_p99_latency;
        ])
      points
  in
  Lesslog_report.Table.render ~header rows

(* --- Erasure-coded cold tier: storage amplification vs full replication --- *)

module Scenario = Lesslog_workload.Scenario

type coldtier_point = {
  ct_label : string;
  ct_requests : int;
  ct_served : int;
  ct_faults : int;
  ct_loss : float;
  ct_demotions : int;
  ct_promotions : int;
  ct_fragment_repairs : int;
  ct_coded_serves : int;
  ct_mean_bytes : float;
  ct_amplification : float;
  ct_bytes_moved : int;
  ct_repair_bytes : int;
  ct_bytes_end : int;
  ct_lost : bool;
  ct_secs : float;
}

let coldtier_point ?(m = 10) ?(capacity = 100.0) ?(seed = 42) ?(peak = 500.0)
    ?(peak_duration = 1.5) ?(calm_duration = 12.0) ?(code_k = 10)
    ?(code_r = 4) ?(file_bytes = 1 lsl 20) ?(rf_min = 3) ~hybrid () =
  let params = Params.create ~m () in
  let cluster = Cluster.create params in
  let inserted =
    match Ops.insert cluster ~key:hot_file with
    | [] -> invalid_arg "Experiments.coldtier_point: empty system"
    | ps -> List.map Pid.to_int ps
  in
  let status = Cluster.status cluster in
  (* The adaptive lifecycle: a flash crowd, a long idle stretch in which
     the key goes Cold, then a re-heat that must be served back out of
     whatever the tier kept. *)
  let scenario =
    Scenario.of_phases
      [
        {
          Scenario.demand = Demand.uniform status ~total:peak;
          duration = peak_duration;
        };
        {
          Scenario.demand = Demand.uniform status ~total:0.0;
          duration = calm_duration;
        };
        {
          Scenario.demand = Demand.uniform status ~total:peak;
          duration = peak_duration;
        };
      ]
  in
  let tag = Printf.sprintf "%d|coldtier|%d|%b" seed m hybrid in
  let rng = Rng.create ~seed:(Lesslog_hash.Fnv.hash63 tag land 0x3FFFFFFF) in
  let pconfig =
    {
      Rf_policy.default_config with
      Rf_policy.interval = 0.25;
      rf_min;
      rf_max = Params.space params;
      capacity = Some capacity;
    }
  in
  let policy =
    Rf_policy.create ~config:pconfig ~rf0:rf_min
      ~nodes:(Params.space params) ~files:1 ()
  in
  let cold_tier =
    {
      Control_plane.code_k;
      code_r;
      file_bytes;
      (* The full-replication baseline runs the identical policy and
         byte ledger with demotion disarmed — the same accounting, so
         the amplification ratio compares like with like. *)
      demote_after = (if hybrid then 2 else max_int);
    }
  in
  (* Fail two fragment-holding nodes mid-calm: low ascending PIDs carry
     fragments (and, in the baseline, policy-filled copies), so both
     runs pay a failure-triggered repair — the hybrid's in fragment
     rebuilds, the baseline's in relocated full copies. *)
  let fail_at = peak_duration +. (0.6 *. calm_duration) in
  let victims =
    List.filteri
      (fun i _ -> i < 2)
      (List.filter (fun i -> not (List.mem i inserted)) [ 0; 1; 2; 3 ])
  in
  let churn =
    List.mapi
      (fun i v ->
        {
          Des_sim.at = fail_at +. (0.1 *. float_of_int i);
          action = Des_sim.Fail (Pid.unsafe_of_int v);
        })
      victims
  in
  let config = { Des_sim.default_config with capacity } in
  let t0 = Sys.time () in
  let r =
    Des_sim.run_scenario ~config ~churn ~policy ~cold_tier ~rng ~cluster
      ~key:hot_file ~scenario ()
  in
  let secs = Sys.time () -. t0 in
  let c =
    match r.Des_sim.cold with
    | Some c -> c
    | None -> invalid_arg "Experiments.coldtier_point: no cold ledger"
  in
  let requests = r.Des_sim.served + r.Des_sim.faults in
  {
    ct_label = (if hybrid then "hybrid" else "full");
    ct_requests = requests;
    ct_served = r.Des_sim.served;
    ct_faults = r.Des_sim.faults;
    ct_loss =
      (if requests = 0 then 0.0
       else float_of_int r.Des_sim.faults /. float_of_int requests);
    ct_demotions = c.Control_plane.demotions;
    ct_promotions = c.Control_plane.promotions;
    ct_fragment_repairs = c.Control_plane.fragment_repairs;
    ct_coded_serves = c.Control_plane.coded_serves;
    ct_mean_bytes = c.Control_plane.mean_bytes_stored;
    ct_amplification = c.Control_plane.mean_bytes_stored /. float_of_int file_bytes;
    ct_bytes_moved = c.Control_plane.bytes_moved;
    ct_repair_bytes = c.Control_plane.repair_bytes;
    ct_bytes_end = c.Control_plane.bytes_stored_end;
    ct_lost = c.Control_plane.lost_cold;
    ct_secs = secs;
  }

let coldtier_run ?m ?capacity ?seed ?peak ?peak_duration ?calm_duration
    ?code_k ?code_r ?file_bytes ?rf_min () =
  [
    coldtier_point ?m ?capacity ?seed ?peak ?peak_duration ?calm_duration
      ?code_k ?code_r ?file_bytes ?rf_min ~hybrid:false ();
    coldtier_point ?m ?capacity ?seed ?peak ?peak_duration ?calm_duration
      ?code_k ?code_r ?file_bytes ?rf_min ~hybrid:true ();
  ]

let render_coldtier points =
  let header =
    [ "tier"; "requests"; "served"; "loss"; "demote"; "promote"; "repairs";
      "coded srv"; "mean MiB"; "amp"; "moved MiB"; "repair MiB" ]
  in
  let mib b = float_of_int b /. (1024.0 *. 1024.0) in
  let rows =
    List.map
      (fun p ->
        [
          p.ct_label;
          string_of_int p.ct_requests;
          string_of_int p.ct_served;
          Printf.sprintf "%.4f" p.ct_loss;
          string_of_int p.ct_demotions;
          string_of_int p.ct_promotions;
          string_of_int p.ct_fragment_repairs;
          string_of_int p.ct_coded_serves;
          Printf.sprintf "%.2f" (p.ct_mean_bytes /. (1024.0 *. 1024.0));
          Printf.sprintf "%.2f" p.ct_amplification;
          Printf.sprintf "%.2f" (mib p.ct_bytes_moved);
          Printf.sprintf "%.2f" (mib p.ct_repair_bytes);
        ])
      points
  in
  Lesslog_report.Table.render ~header rows
