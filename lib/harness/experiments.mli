(** One entry point per figure of the paper's evaluation (Section 6).

    The setup mirrors the paper: [m = 10] (a 1024-slot identifier space),
    [b = 0], per-node capacity 100 requests/s, a single hot file, and
    total demand swept from 1,000 to 20,000 requests/s. Each experiment
    returns one {!Lesslog_report.Series.t} per curve of the figure; y is
    the number of replicas created to reach a load-balanced system.

    Every point carries an independently seeded RNG, so sweeps are
    reproducible and safe to parallelize over domains. *)

module Series = Lesslog_report.Series

type config = {
  m : int;
  capacity : float;  (** Max requests/s a node may serve. *)
  rates : float list;  (** Total-demand sweep (requests/s). *)
  trials : int;  (** Runs averaged per point (fresh seeds). *)
  seed : int;
  hot_fraction : float;  (** Locality model: fraction of hot nodes. *)
  hot_share : float;  (** Locality model: demand share of hot nodes. *)
  domains : int;  (** Worker domains for the sweep (1 = sequential). *)
}

val default : config
(** The paper's parameters: m = 10, capacity = 100, rates
    1,000–20,000 step 1,000, 3 trials, hot 20%/80%. *)

val quick : config
(** A scaled-down configuration (m = 7, 5 sweep points, 1 trial) for smoke
    tests and CI. *)

type demand_model = Even | Locality

val hot_file : string
(** The key used for the single hot file in every figure. *)

val fig5 : ?config:config -> unit -> Series.t list
(** Figure 5: evenly-distributed load; one series per policy
    (log-based, LessLog, random). *)

val fig6 : ?config:config -> unit -> Series.t list
(** Figure 6: evenly-distributed load on LessLog with 10%, 20% and 30%
    dead nodes. *)

val fig7 : ?config:config -> unit -> Series.t list
(** Figure 7: the locality model (80% of requests from 20% of nodes);
    one series per policy. *)

val fig8 : ?config:config -> unit -> Series.t list
(** Figure 8: the locality model on LessLog with dead nodes. *)

val render :
  title:string -> x_label:string -> y_label:string -> Series.t list -> string
(** Table plus ASCII plot, ready to print. *)

(** {1 DES m-sweep}

    Scale-up runs of the full discrete-event simulation on the packed
    event core, from the paper's m = 10 (1,024 slots) up to m = 16
    (65,536 slots). Demand is uniform and scales with the number of live
    nodes, so events per simulated second grow with the identifier
    space. *)

type des_point = {
  des_m : int;  (** Identifier-space exponent for this row. *)
  nodes : int;  (** Live nodes at the start of the run. *)
  events : int;  (** Engine events executed. *)
  secs : float;  (** CPU seconds ([Sys.time]) for the run. *)
  events_per_sec : float;  (** [events /. secs]; the headline number. *)
  served : int;
  faults : int;
  replicas : int;  (** Replicas created by flow balancing. *)
  messages : int;
  p50_latency : float;  (** Sketch-histogram quantiles (0 if unserved). *)
  p99_latency : float;
  mean_hops : float;
}

val des_sweep :
  ?ms:int list ->
  ?rate_per_node:float ->
  ?duration:float ->
  ?capacity:float ->
  ?seed:int ->
  unit ->
  des_point list
(** One {!Lesslog_des.Des_sim} run per exponent in [ms] (default 10–16)
    with total demand [rate_per_node * live_nodes] (default 2 req/s per
    node), 5 simulated seconds, capacity 100, seed 42; each run is timed
    with [Sys.time]. *)

val render_des_sweep : des_point list -> string
(** One table row per sweep point, ready to print. *)

(** {1 S2: domain-parallel sharded DES}

    The same scale-up protocol on {!Lesslog_des.Pdes_sim}: one shard per
    binomial subtree, deterministic at any domain count. The point
    carries the run digest so sweeps can double as determinism checks,
    plus the mean-field replica oracle for steady-state validation. *)

type pdes_point = {
  pdes_m : int;  (** Identifier-space exponent for this row. *)
  pdes_b : int;  (** Subtree exponent; [2^b] shards. *)
  pdes_domains : int;  (** Worker domains the run used (speed only). *)
  pdes_nodes : int;  (** Live nodes at the start of the run. *)
  pdes_events : int;  (** Engine events executed, summed over shards. *)
  pdes_secs : float;  (** Wall CPU seconds ([Sys.time]) for the run. *)
  pdes_events_per_sec : float;
  pdes_served : int;
  pdes_faults : int;
  pdes_migrations : int;  (** Requests handed to a sibling subtree. *)
  pdes_replicas_end : int;  (** Copies held across subtrees at the end. *)
  pdes_oracle_replicas : float;
      (** Mean-field steady-state prediction, {!pdes_oracle_replicas}. *)
  pdes_messages : int;
  pdes_cross_sends : int;  (** Mailbox messages between shards. *)
  pdes_epochs : int;  (** Epoch windows of the sharded engine. *)
  pdes_digest : int;  (** Domain-count-invariant run digest. *)
  pdes_p50_latency : float;
  pdes_p99_latency : float;
}

val pdes_oracle_replicas : total_rate:float -> capacity:float -> float
(** Mean-field steady-state replica count for one hot file under Poisson
    demand: flow balancing spawns copies until per-copy load fits under
    [capacity], so the population settles near [total_rate /. capacity]
    (never below the 1 copy insertion guarantees per subtree's worth of
    demand). The simulated end-state should land within a small constant
    factor — checks compare the ratio, not equality, because
    cooldowns and discrete copies quantise the approach.
    @raise Invalid_argument if [capacity <= 0]. *)

val pdes_sweep :
  ?ms:int list ->
  ?b:int ->
  ?domains:int ->
  ?rate_per_node:float ->
  ?duration:float ->
  ?capacity:float ->
  ?seed:int ->
  unit ->
  pdes_point list
(** One {!Lesslog_des.Pdes_sim} run per exponent in [ms] with [2^b]
    subtrees (default 2, i.e. 4 shards) on [domains] worker domains
    (default 1), total demand [rate_per_node * live_nodes], timed with
    [Sys.time]; the other defaults mirror {!des_sweep}. Each run's seed
    is derived as [hash63 "seed|pdes|m"], so rows are independent and
    reproducible point-wise. *)

val render_pdes_sweep : pdes_point list -> string
(** One table row per sweep point, ready to print. *)

(** {1 Adaptive replication under time-varying demand}

    The dynamic-RF competitor ({!Lesslog_policy.Rf_policy}) against
    LessLog's native logless placement, on {!Lesslog_des.Des_sim}, with a
    per-class mean-field oracle to validate steady states. *)

type demand_class = {
  class_files : int;  (** Files in the class. *)
  class_rate : float;  (** Aggregate demand of the class, requests/s. *)
}

val adaptive_oracle_replicas :
  classes:demand_class list -> capacity:float -> float
(** Per-class mean-field steady-state replica count:
    [sum_c m_c *. max 1 (R_c /. (m_c *. capacity))] — each file needs
    enough copies to absorb its class share at [capacity] per copy,
    never below the one copy insertion guarantees. One class with one
    file degenerates to {!pdes_oracle_replicas}. Empty classes
    contribute nothing.
    @raise Invalid_argument if [capacity <= 0]. *)

val adaptive_oracle_loss :
  total_rate:float -> replicas:float -> capacity:float -> float
(** Fluid upper bound on the steady-state loss fraction:
    [max 0 (1 - replicas *. capacity /. total_rate)] — zero once the
    population reaches the oracle. *)

type adaptive_point = {
  ad_label : string;  (** ["lesslog"] or ["dynamic-rf"]. *)
  ad_m : int;
  ad_rate : float;  (** Total offered demand, requests/s. *)
  ad_requests : int;  (** Resolved requests: [ad_served + ad_faults]. *)
  ad_served : int;
  ad_faults : int;
  ad_loss : float;  (** [faults /. requests] (0 when no requests). *)
  ad_replicas_end : int;
  ad_rf_end : int;  (** Final replica factor (0 for the native policy). *)
  ad_oracle_replicas : float;
  ad_oracle_loss : float;  (** The fluid bound at [ad_replicas_end]. *)
}

val adaptive_sweep :
  ?b:int ->
  ?m:int ->
  ?duration:float ->
  ?capacity:float ->
  ?seed:int ->
  ?rates:float list ->
  unit ->
  adaptive_point list
(** The replicas-vs-request-rate curve family: for each rate (default
    500/1,000/2,000 requests/s at m = 10, 8 simulated seconds), one
    {!Lesslog_des.Des_sim} run over a cluster of [2^b] subtrees with the
    key inserted per ADVANCEDINSERTFILE, once with native logless
    placement and once with the dynamic-RF policy (0.25 s intervals,
    capacity-aware classification, RF capped at the slot count,
    starting from the per-subtree insertion population), in that order.
    Each run's seed is derived from [seed], [m], the rate and the
    policy, so points are independent and reproducible. *)

val render_adaptive : adaptive_point list -> string
(** One table row per point, ready to print. *)

type adaptive_step = {
  st_i : int;  (** Interval index. *)
  st_total : float;  (** Catalogue demand in force, requests/s. *)
  st_hot : string;  (** Most-demanded file this interval. *)
  st_fluid_replicas : int;
      (** Total copies after {!Lesslog_flow.Multi_balance} on a fresh
          cluster — the omniscient balancer's steady state. *)
  st_rf_replicas : int;
      (** Total copies the dynamic-RF policy prescribes after closing
          this interval (replica factors summed over the catalogue). *)
  st_oracle : float;  (** {!adaptive_oracle_replicas}, one class/file. *)
}

val adaptive_timeline :
  ?m:int ->
  ?capacity:float ->
  ?seed:int ->
  ?files:int ->
  ?intervals:int ->
  ?shift_every:int ->
  unit ->
  adaptive_step list
(** The multi-file experiment: a hot/warm/cold
    {!Lesslog_workload.Catalog.timeline} (popularity re-dealt every
    [shift_every] intervals, one 25x flash crowd in the middle) played against both sides — per interval, the fluid
    multi-file balancer's replica population versus the total the
    dynamic-RF policy prescribes from the same demand (file identity
    tracked by name across popularity shifts). Defaults: m = 8, 8
    files, 12 one-second intervals, shift every 4. *)

val render_adaptive_timeline : adaptive_step list -> string
(** One table row per interval, ready to print. *)

(** {1 Erasure-coded cold tier}

    Storage amplification and repair traffic of the hybrid
    replicated/coded storage stack against full replication, on the
    adaptive-lifecycle timeline (flash crowd, long idle stretch, a
    mid-calm double node failure, re-heat). Both sides run the same
    dynamic-RF policy and the same {!Lesslog_des.Des_sim} byte ledger;
    the baseline simply never demotes ([demote_after = max_int]). *)

type coldtier_point = {
  ct_label : string;  (** ["full"] or ["hybrid"]. *)
  ct_requests : int;
  ct_served : int;
  ct_faults : int;
  ct_loss : float;  (** [faults /. requests] (0 when no requests). *)
  ct_demotions : int;
  ct_promotions : int;
  ct_fragment_repairs : int;
  ct_coded_serves : int;
  ct_mean_bytes : float;  (** Time-averaged stored bytes over the run. *)
  ct_amplification : float;  (** [ct_mean_bytes /. file_bytes]. *)
  ct_bytes_moved : int;
  ct_repair_bytes : int;
  ct_bytes_end : int;
  ct_lost : bool;  (** The coded payload became unrecoverable. *)
  ct_secs : float;
}

val coldtier_point :
  ?m:int ->
  ?capacity:float ->
  ?seed:int ->
  ?peak:float ->
  ?peak_duration:float ->
  ?calm_duration:float ->
  ?code_k:int ->
  ?code_r:int ->
  ?file_bytes:int ->
  ?rf_min:int ->
  hybrid:bool ->
  unit ->
  coldtier_point
(** One {!Lesslog_des.Des_sim.run_scenario} pass over the three-phase
    lifecycle (peak [peak_duration] at [peak] req/s, idle
    [calm_duration], peak again) with the capacity-aware dynamic-RF
    policy at a durability floor of [rf_min] copies (default 3): the
    hybrid side arms the [(code_k, code_r)] cold tier with
    [demote_after = 2], the baseline runs the identical configuration
    with demotion disarmed. Two fragment-holding nodes fail mid-calm so
    both sides pay a failure-triggered repair. Defaults: m = 10, 500
    req/s peaks of 1.5 s, 12 s of calm, a (10, 4) code over 1 MiB. *)

val coldtier_run :
  ?m:int ->
  ?capacity:float ->
  ?seed:int ->
  ?peak:float ->
  ?peak_duration:float ->
  ?calm_duration:float ->
  ?code_k:int ->
  ?code_r:int ->
  ?file_bytes:int ->
  ?rf_min:int ->
  unit ->
  coldtier_point list
(** The pair [[full; hybrid]] at identical parameters and run seed. *)

val render_coldtier : coldtier_point list -> string
(** One table row per point, ready to print. *)
