open Lesslog_id
module Engine = Lesslog_sim.Engine
module Overlay = Lesslog_net.Overlay
module Latency = Lesslog_net.Latency
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Status_word = Lesslog_membership.Status_word
module File_store = Lesslog_storage.File_store
module Demand = Lesslog_workload.Demand
module Histogram = Lesslog_metrics.Histogram
module Timeseries = Lesslog_metrics.Timeseries
module Rng = Lesslog_prng.Rng
module Trace = Lesslog_trace.Trace
module Obs = Lesslog_obs.Obs
module Rf_policy = Lesslog_policy.Rf_policy
module Packed_bits = Lesslog_bits.Packed_bits

include Churn

type eviction = { period : float; min_rate : float }

type config = {
  capacity : float;
  detection_tau : float;
  cooldown : float;
  latency : Latency.t;
  loss : float;
  eviction : eviction option;
}

let default_config =
  {
    capacity = 100.0;
    detection_tau = 2.0;
    cooldown = 0.5;
    latency = Latency.default;
    loss = 0.0;
    eviction = None;
  }

type result = {
  served : int;
  faults : int;
  latencies : Histogram.t;
  hops : Histogram.t;
  replicas_created : int;
  replicas_evicted : int;
  replica_timeline : Timeseries.t;
  last_replication : float option;
  messages : int;
  control_messages : int;
  file_transfers : int;
  overloaded_at_end : int;
  events : int;
  cold : Control_plane.cold_stats option;
}

(* Observability handles, resolved once per run. Only the span sink is
   touched per event — the des/* counters duplicate tallies the simulator
   keeps anyway, so they are filled in once at end of run
   ({!finalize_obs}), and the latency and hop timers are backed by the
   run's own result histograms ({!Obs.Registry.timer_backed}): per-request
   attribution costs exactly one {!Obs.Span.emit}. *)
type instruments = { spans : Obs.Span.sink; sp_lookup : int }

let make_instruments (obs : Obs.t) =
  { spans = obs.Obs.spans; sp_lookup = Obs.Span.intern obs.Obs.spans "lookup" }

type state = {
  config : config;
  p : Protocol.t;
  (* one demand/deadline pair per workload phase, indexed by the arrival
     event's [b] word *)
  phase_demand : Demand.t array;
  phase_until : float array;
  mutable h_arrival : int;
  mutable served : int;
  mutable faults : int;
  latencies : Histogram.t;
  hops : Histogram.t;
  mutable replicas_created : int;
  mutable replicas_evicted : int;
  replica_timeline : Timeseries.t;
  mutable last_replication : float option;
  mutable control_messages : int;
  mutable file_transfers : int;
  mutable next_req : int;
  obs : instruments option;
  plane : Control_plane.t option;
      (* [Some] swaps the native overload-driven replication for the
         log-driven dynamic-RF competitor (plus, with a ledger, the
         erasure-coded cold tier): accesses are logged at request issue,
         and an interval tick runs the control plane. [None] (the
         default) leaves the event stream and the RNG draw sequence
         untouched — the golden digest path. *)
  cold : (Control_plane.ledger * Packed_bits.t) option;
      (* The plane's cold-tier ledger, plus the fragment holders over
         the PID space for the O(1) per-hop serve check, rebuilt by
         [refresh_frags] whenever fragment placement may have changed. *)
  mutable coded_serves : int;
}

let now st = Protocol.now st.p

let record_copies st =
  Timeseries.record st.replica_timeline ~time:(now st)
    (float_of_int (Cluster.total_copies st.p.cluster ~key:st.p.key))

(* --- Cold tier: fragment placement is [Ops]'s, the flags and the byte
   ledger are the control plane's; this simulator keeps the fragment
   bitset in step and reports stored bytes at every event that can
   change them. --- *)

let sample_bytes st ~t (l, _) =
  Control_plane.sample l ~t
    ~copies:(Cluster.total_copies st.p.cluster ~key:st.p.key)
    ~fragments:(Ops.live_fragment_count st.p.cluster ~key:st.p.key)

let refresh_frags st (l, frag_holders) =
  Packed_bits.clear_all frag_holders;
  match Cluster.coded_params st.p.cluster ~key:st.p.key with
  | None -> Control_plane.fragments_live l 0
  | Some (k, r) ->
      for i = 0 to k + r - 1 do
        List.iter
          (fun p -> Packed_bits.set frag_holders (Pid.to_int p))
          (Cluster.holders st.p.cluster ~key:(Ops.frag_key st.p.key i))
      done;
      Control_plane.fragments_live l
        (Ops.live_fragment_count st.p.cluster ~key:st.p.key)

(* A request resolved at [origin] ([server < 0] = fault): record its
   whole span in one call. The wire already carries the issue timestamp
   on every GET and REPLY, and a reply's destination is the origin, so
   nothing is kept per open request — requests in flight when the engine
   stops simply leave no span. Outcome counts and latency/hop
   quantiles flow into the registry at end of run, through the
   simulator's own tallies and the backing histograms — not here. *)
let obs_resolved st ~id ~origin ~server ~hops ~issued_at =
  match st.obs with
  | None -> ()
  | Some i ->
      Obs.Span.emit i.spans ~name:i.sp_lookup ~id ~origin
        ~at:issued_at
        ~dur:(now st -. issued_at)
        ~server ~hops ~attempt:0

let[@inline] serve st ~server ~id ~origin ~issued_at ~hops =
  let i = Pid.to_int server in
  Protocol.record_serve st.p ~server;
  st.served <- st.served + 1;
  Histogram.add_int st.hops hops;
  Protocol.emit_request st.p ~origin:(Pid.to_int origin) ~server:i ~hops;
  if Pid.equal server origin then begin
    (* Served locally: the reply needs no network hop. *)
    Histogram.add st.latencies (now st -. issued_at);
    obs_resolved st ~id ~origin:(Pid.to_int origin) ~server:i ~hops ~issued_at
  end
  else
    Overlay.send_packed st.p.overlay ~src:server ~dst:origin
      ~b:(Wire.reply ~id ~server:i ~hops) ~x:issued_at;
  (* Under the dynamic-RF policy the interval tick owns replica
     management; the native overload trigger stays off. *)
  match st.plane with
  | None -> Protocol.maybe_replicate st.p ~overloaded:server
  | Some _ -> ()

let fault st ~id ~origin ~hops ~issued_at =
  st.faults <- st.faults + 1;
  Protocol.emit_request st.p ~origin:(Pid.to_int origin) ~server:(-1) ~hops;
  obs_resolved st ~id ~origin:(Pid.to_int origin) ~server:(-1) ~hops
    ~issued_at

(* One GET step at [me], for a request issued at [origin] ([hops = 0]
   when [me] is the origin itself): serve from a full copy, or from
   fragments at a fragment holder, or forward along the route. Inlined
   into both callers: out of line it adds allocation on the request
   path. *)
let[@inline] get_step st ~me ~id ~origin ~hops ~issued_at =
  if Cluster.holds st.p.cluster me ~key:st.p.key then
    serve st ~server:me ~id ~origin ~issued_at ~hops
  else
    match st.cold with
    | Some (l, frag_holders)
      when l.coded && Packed_bits.get frag_holders (Pid.to_int me) ->
        (* A fragment holder on the route: with >= k fragments live it
           gathers and decodes (the fan-in is byte accounting, not
           simulated messages); below k the payload is unrecoverable and
           the request degrades to a reported fault. *)
        if l.servable then begin
          st.coded_serves <- st.coded_serves + 1;
          serve st ~server:me ~id ~origin ~issued_at ~hops
        end
        else fault st ~id ~origin ~hops ~issued_at
    | _ ->
        (* A dead end (or a hop-field overflow) is a routing fault. *)
        if not (Protocol.forward st.p ~me ~id ~origin ~hops ~issued_at) then
          fault st ~id ~origin ~hops ~issued_at

(* Inlined into the overlay's receive closure, so the message's [x],
   read there from the engine, stays unboxed down to the histogram and
   the next send. *)
let[@inline] handle st ~me ~src b x =
  match Wire.kind b with
  | Wire.Get ->
      get_step st ~me ~id:(Wire.id b)
        ~origin:(Pid.unsafe_of_int (Wire.get_origin b))
        ~hops:(Wire.get_hops b) ~issued_at:x
  | Wire.Reply ->
      (* A reply's destination is the request's origin. *)
      Histogram.add st.latencies (now st -. x);
      obs_resolved st ~id:(Wire.id b) ~origin:(Pid.to_int me)
        ~server:(Wire.reply_server b) ~hops:(Wire.reply_hops b) ~issued_at:x
  | Wire.Push ->
      if Protocol.apply_push st.p ~me ~src ~version:(Wire.payload b) then begin
        st.replicas_created <- st.replicas_created + 1;
        st.last_replication <- Some (now st);
        record_copies st
      end
  | Wire.Ping | Wire.Pong | Wire.Other -> ()

let issue_request st ~origin =
  let id = st.next_req land Wire.id_mask in
  st.next_req <- st.next_req + 1;
  (* The access log the weighted dynamic-RF scheme needs and LessLog
     forgoes: every issued request, keyed by the accessing node. *)
  (match st.plane with
  | None -> ()
  | Some pl ->
      Rf_policy.record pl.Control_plane.policy ~file:0 ~node:(Pid.to_int origin));
  (* The client contacts its node directly; local service costs no hop. *)
  get_step st ~me:origin ~id ~origin ~hops:0 ~issued_at:(now st)

(* One Poisson arrival at a node: serve/forward the request, then draw the
   next inter-arrival gap — a self-rescheduling packed event, no closure
   chain. A node that died since stops its chain (and a later rejoin does
   not restart it, matching the documented semantics). *)
let on_arrival st origin_i phase =
  let origin = Pid.unsafe_of_int origin_i in
  if Status_word.is_live (Cluster.status st.p.cluster) origin then begin
    issue_request st ~origin;
    let rate = Demand.rate st.phase_demand.(phase) origin in
    let t = now st +. Rng.exponential st.p.rng ~rate in
    if t < st.phase_until.(phase) then
      Engine.post_at st.p.engine ~time:t ~h:st.h_arrival ~a:origin_i ~b:phase
        ~x:0.0
  end

(* Poisson arrivals for one demand phase: per origin, events on
   [from_time, until). *)
let start_arrivals st ~phase ~from_time =
  let demand = st.phase_demand.(phase) and until = st.phase_until.(phase) in
  Status_word.iter_live (Cluster.status st.p.cluster) (fun origin ->
      let rate = Demand.rate demand origin in
      if rate > 0.0 then begin
        let t = from_time +. Rng.exponential st.p.rng ~rate in
        if t < until then
          Engine.post_at st.p.engine ~time:t ~h:st.h_arrival
            ~a:(Pid.to_int origin) ~b:phase ~x:0.0
      end)

(* The counter-based mechanism of Section 2.2, for the simulated key:
   each live holder drops its replicated copy once the copy's
   locally-observed access rate fell below the threshold — a purely
   local decision, still logless. The tick walks the key's live holders
   in ascending PID order, so it costs the copies it looks at, not the
   population. Removing a copy clears only the current holder's bit,
   which [iter_inter] has already read.

   The survivor floor: when every live holder is a below-rate replica
   (the inserted copy's node is down), unguarded eviction would drop
   the last live copy cluster-wide. The live copy count is re-read
   immediately before each removal, so the sweep stops at one copy. *)
let evict_holder st ~min_rate i =
  let cluster = st.p.cluster and key = st.p.key in
  let store = Cluster.store cluster (Pid.unsafe_of_int i) in
  if
    File_store.is_cold_replica store ~key ~now:(now st) ~min_rate
    && Cluster.total_copies cluster ~key > 1
  then begin
    File_store.remove store ~key;
    Protocol.emit_evict st.p ~node:i;
    st.replicas_evicted <- st.replicas_evicted + 1
  end

(* One tick, [visit] being [evict_holder] applied once per run: the
   tick builds no closure and boxes no float. *)
let evict st visit =
  let cluster = st.p.cluster and before = st.replicas_evicted in
  Packed_bits.iter_inter
    (Status_word.live_bits (Cluster.status cluster))
    (Cluster.holder_bitset cluster ~key:st.p.key)
    visit;
  if st.replicas_evicted > before then record_copies st

(* Eviction ticks every [period] up to [duration], each posting the
   next after it ran. *)
let start_eviction st ~duration =
  match st.config.eviction with
  | None -> ()
  | Some { period; min_rate } ->
      let visit = evict_holder st ~min_rate in
      let h = ref (-1) in
      let arm () =
        let t = now st +. period in
        if t <= duration then
          Engine.post_at st.p.engine ~time:t ~h:!h ~a:0 ~b:0 ~x:0.0
      in
      h :=
        Engine.register st.p.engine (fun _ _ ->
            evict st visit;
            arm ());
      arm ()

(* Bring the key's live copy count to the policy's replica factor:
   deficits fill at the first live non-holders in ascending PID order,
   surpluses shed replicated copies from the highest-PID holders down —
   the inserted original is never evicted, so the count never drops
   below one. Deliberately instantaneous (no push latency): the policy
   models a coordinator that already holds the access log, and the
   comparison against LessLog should not charge it the simulator's
   network model twice. *)
let policy_enforce st p =
  let key = st.p.key in
  let rf = Rf_policy.rf p ~file:0 in
  let before = Cluster.total_copies st.p.cluster ~key in
  if before < rf then begin
    let src, version =
      match Cluster.holders st.p.cluster ~key with
      | h :: _ ->
          ( Pid.to_int h,
            Option.value ~default:0
              (File_store.version (Cluster.store st.p.cluster h) ~key) )
      | [] -> (-1, 0)
    in
    let deficit = ref (rf - before) in
    Status_word.iter_live (Cluster.status st.p.cluster) (fun q ->
        if !deficit > 0 && not (Cluster.holds st.p.cluster q ~key) then begin
          Cluster.add st.p.cluster q ~key
            ~origin:File_store.Replicated ~version ~now:(now st);
          st.replicas_created <- st.replicas_created + 1;
          st.last_replication <- Some (now st);
          (match st.p.sink with
          | None -> ()
          | Some f ->
              f
                (Trace.Event.Replicate
                   { at = now st; src; dst = Pid.to_int q; key }));
          decr deficit
        end)
  end
  else if before > rf then begin
    let surplus = ref (before - rf) in
    List.iter
      (fun q ->
        if
          !surplus > 0
          && File_store.origin (Cluster.store st.p.cluster q) ~key
             = Some File_store.Replicated
        then begin
          File_store.remove (Cluster.store st.p.cluster q) ~key;
          st.replicas_evicted <- st.replicas_evicted + 1;
          Protocol.emit_evict st.p ~node:(Pid.to_int q);
          decr surplus
        end)
      (List.rev (Cluster.holders st.p.cluster ~key))
  end;
  let after = Cluster.total_copies st.p.cluster ~key in
  if after <> before then
    Timeseries.record st.replica_timeline ~time:(now st) (float_of_int after)

(* The control plane's tier transitions, placed through [Ops]: a
   demotion trades the full copies for [k + r] fragments at distinct
   live nodes, a promotion rebuilds the policy's replica factor from the
   fragments. *)
let demote st (tier : Control_plane.cold_tier) =
  Ops.demote_to_coded ~now:(now st) ?substrate:(Protocol.placement st.p)
    st.p.cluster
    ~key:st.p.key ~k:tier.code_k ~r:tier.code_r
  |> Option.map (fun holders ->
         record_copies st;
         List.length holders)

let promote st ~copies =
  Ops.promote_from_coded ~now:(now st) ?substrate:(Protocol.placement st.p)
    st.p.cluster
    ~key:st.p.key ~copies
  |> Option.map (fun placed ->
         record_copies st;
         List.length placed)

(* The policy's analysis-interval ticks, each posting the next (the
   shape of {!start_eviction}); the event's [a] word indexes the tick
   times. Every request already went into the policy's log at issue. *)
let start_policy st ~duration =
  match st.plane with
  | None -> ()
  | Some pl ->
      let ticks = Array.of_list (Control_plane.ticks pl ~duration) in
      let h = ref (-1) in
      let arm i =
        if i < Array.length ticks then
          Engine.post_at st.p.engine ~time:ticks.(i) ~h:!h ~a:i ~b:0 ~x:0.0
      in
      h :=
        Engine.register st.p.engine (fun i _ ->
            Control_plane.tick pl ~demote:(demote st) ~promote:(promote st)
              ~enforce:(fun () -> policy_enforce st pl.policy);
            Option.iter
              (fun c ->
                refresh_frags st c;
                sample_bytes st ~t:ticks.(i) c)
              st.cold;
            arm (i + 1));
      arm 0

(* Registry attribution, once per run: counters from the simulator's own
   tallies (so the hot path never touches them), timers backed by the
   result histograms the run filled anyway. [des/served] counts requests
   served at a server; spans close at the origin when the reply lands, so
   at engine stop the difference is the replies still in flight. *)
let finalize_obs st (obs : Obs.t) =
  let r = obs.Obs.registry in
  let count name v = Obs.Registry.add (Obs.Registry.counter r name) v in
  count "des/requests" st.next_req;
  count "des/served" st.served;
  count "des/faults" st.faults;
  count "des/replications" st.replicas_created;
  count "des/evictions" st.replicas_evicted;
  ignore (Obs.Registry.timer_backed r "des/latency_s" st.latencies);
  ignore (Obs.Registry.timer_backed r "des/hops" st.hops)

(* A membership event: the trace mark, the repair ({!Protocol.repair})
   with the cold tier's fragment bitset and byte sample on top, and the
   control-traffic model — the status word is broadcast to every live
   node (Section 5), and each relocated file costs one transfer. *)
let churn st p change =
  Protocol.emit_membership st.p ~node:(Pid.to_int p) ~change;
  let relocated =
    Protocol.repair st.p p ~change
      ~ledger:(match st.plane with Some pl -> pl.ledger | None -> None)
  in
  (match st.cold with
  | Some c ->
      refresh_frags st c;
      sample_bytes st ~t:(now st) c
  | None -> ());
  st.control_messages <-
    st.control_messages + Status_word.live_count (Cluster.status st.p.cluster);
  st.file_transfers <- st.file_transfers + relocated;
  if change = `Join then Overlay.attach st.p.overlay p
  else Overlay.detach st.p.overlay p

(* Every churn event is posted at setup; the event's [a] word indexes
   the list. *)
let apply_churn st events =
  let events = Array.of_list events in
  let h =
    Engine.register st.p.engine (fun i _ ->
        let status = Cluster.status st.p.cluster in
        match events.(i).action with
        | Join p -> if Status_word.is_dead status p then churn st p `Join
        | Leave p -> if Status_word.is_live status p then churn st p `Leave
        | Fail p -> if Status_word.is_live status p then churn st p `Fail)
  in
  Array.iteri
    (fun i { at; _ } -> Engine.post_at st.p.engine ~time:at ~h ~a:i ~b:0 ~x:0.0)
    events

let run_internal ~config ~churn ~sink ~obs ~substrate ~policy ~cold_tier ~rng
    ~cluster ~key ~phases ~duration =
  (match config.eviction with
  | Some { period; _ } when not (period > 0.0) ->
      invalid_arg "Des_sim: eviction period must be > 0"
  | Some _ | None -> ());
  Overlay.check_loss ~who:"Des_sim" config.loss;
  let params = Cluster.params cluster in
  let plane =
    Control_plane.create ~nodes:(Params.space params) policy cold_tier
  in
  let engine = Engine.create () in
  let overlay =
    Overlay.create ~engine ~rng ~latency:config.latency ~loss:config.loss params
  in
  let nphases = List.length phases in
  let phase_demand = Array.make (max 1 nphases) (Demand.of_rates [||]) in
  let phase_until = Array.make (max 1 nphases) 0.0 in
  let offset = ref 0.0 in
  List.iteri
    (fun i (demand, phase_duration) ->
      phase_demand.(i) <- demand;
      offset := !offset +. phase_duration;
      phase_until.(i) <- !offset)
    phases;
  let latencies = Histogram.create () and hops = Histogram.create () in
  (* "lookup" is interned before the protocol's "replicate". *)
  let instruments = Option.map make_instruments obs in
  let trigger =
    Protocol.Trigger.create ~capacity:config.capacity ~tau:config.detection_tau
      ~cooldown:config.cooldown (Params.space params)
  in
  let st =
    {
      config;
      p =
        Protocol.create ~rng ~cluster ~key ~engine ~overlay ~trigger ~substrate
          ~sink ~obs;
      phase_demand;
      phase_until;
      h_arrival = -1;
      served = 0;
      faults = 0;
      latencies;
      hops;
      replicas_created = 0;
      replicas_evicted = 0;
      replica_timeline = Timeseries.create ~label:"copies" ();
      last_replication = None;
      control_messages = 0;
      file_transfers = 0;
      next_req = 0;
      obs = instruments;
      plane;
      cold =
        (match plane with
        | Some { Control_plane.ledger = Some l; _ } ->
            Some (l, Packed_bits.create (Params.space params))
        | Some _ | None -> None);
      coded_serves = 0;
    }
  in
  (match st.cold with Some c -> sample_bytes st ~t:0.0 c | None -> ());
  st.h_arrival <- Engine.register engine (on_arrival st);
  Overlay.set_packed_recv overlay
    (Some (fun ~src ~dst b -> handle st ~me:dst ~src b (Engine.x engine)));
  Status_word.iter_live (Cluster.status cluster) (fun p ->
      Overlay.attach overlay p);
  Timeseries.record st.replica_timeline ~time:0.0
    (float_of_int (Cluster.total_copies cluster ~key));
  apply_churn st churn;
  List.iteri
    (fun i (_, _) ->
      start_arrivals st ~phase:i
        ~from_time:(if i = 0 then 0.0 else st.phase_until.(i - 1)))
    phases;
  start_eviction st ~duration;
  start_policy st ~duration;
  Engine.run ~until:duration engine;
  (* Close the byte integral at the horizon. *)
  (match st.cold with Some c -> sample_bytes st ~t:duration c | None -> ());
  Option.iter (finalize_obs st) obs;
  let overloaded_at_end =
    Status_word.fold_live (Cluster.status cluster) ~init:0 ~f:(fun acc p ->
        if Protocol.Trigger.overloaded trigger (Pid.to_int p) ~now:duration
        then acc + 1
        else acc)
  in
  {
    served = st.served;
    faults = st.faults;
    latencies = st.latencies;
    hops = st.hops;
    replicas_created = st.replicas_created;
    replicas_evicted = st.replicas_evicted;
    replica_timeline = st.replica_timeline;
    last_replication = st.last_replication;
    messages = Overlay.messages_sent overlay;
    control_messages = st.control_messages;
    file_transfers = st.file_transfers;
    overloaded_at_end;
    events = Engine.events_executed engine;
    cold =
      Option.map
        (fun (l, _) ->
          Control_plane.stats l ~copies_moved:st.replicas_created
            ~relocated:st.file_transfers ~coded_serves:st.coded_serves
            ~duration)
        st.cold;
  }

let run ?(config = default_config) ?(churn = []) ?sink ?obs ?substrate
    ?policy ?cold_tier ~rng ~cluster ~key ~demand ~duration () =
  run_internal ~config ~churn ~sink ~obs ~substrate ~policy ~cold_tier ~rng
    ~cluster ~key
    ~phases:[ (demand, duration) ] ~duration

let run_scenario ?(config = default_config) ?(churn = []) ?sink ?obs
    ?substrate ?policy ?cold_tier ~rng ~cluster ~key ~scenario () =
  let phases =
    List.map
      (fun p ->
        (p.Lesslog_workload.Scenario.demand, p.Lesslog_workload.Scenario.duration))
      (Lesslog_workload.Scenario.phases scenario)
  in
  run_internal ~config ~churn ~sink ~obs ~substrate ~policy ~cold_tier ~rng
    ~cluster ~key ~phases
    ~duration:(Lesslog_workload.Scenario.total_duration scenario)
