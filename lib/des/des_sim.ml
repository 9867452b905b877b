open Lesslog_id
module Engine = Lesslog_sim.Engine
module Overlay = Lesslog_net.Overlay
module Latency = Lesslog_net.Latency
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Self_org = Lesslog.Self_org
module Status_word = Lesslog_membership.Status_word
module Topology = Lesslog_topology.Topology
module File_store = Lesslog_storage.File_store
module Access_counter = Lesslog_storage.Access_counter
module Demand = Lesslog_workload.Demand
module Histogram = Lesslog_metrics.Histogram
module Timeseries = Lesslog_metrics.Timeseries
module Rng = Lesslog_prng.Rng
module Trace = Lesslog_trace.Trace
module Obs = Lesslog_obs.Obs
module Substrate = Lesslog_substrate.Substrate
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
   attribution costs exactly one span open and one span close. *)
type instruments = {
  spans : Obs.Span.sink;
  sp_lookup : int;
  sp_replicate : int;
}

let make_instruments (obs : Obs.t) =
  {
    spans = obs.Obs.spans;
    sp_lookup = Obs.Span.intern obs.Obs.spans "lookup";
    sp_replicate = Obs.Span.intern obs.Obs.spans "replicate";
  }

type state = {
  config : config;
  rng : Rng.t;
  cluster : Cluster.t;
  key : string;
  tree : Lesslog_ptree.Ptree.t;
      (* the key's lookup tree, fixed for the whole run *)
  engine : Engine.t;
  overlay : unit Overlay.t;
  estimators : Access_counter.t array;
  cooldown_until : float array;
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
  sink : (Trace.Event.t -> unit) option;
  obs : instruments option;
  substrate : Substrate.t option;
      (* [None] = the native direct path (the default, digest-pinned);
         [Some] routes, places replicas and repairs churn through the
         substrate contract instead *)
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

let now st = Engine.now st.engine

let record_copies st =
  Timeseries.record st.replica_timeline ~time:(now st)
    (float_of_int (Cluster.total_copies st.cluster ~key:st.key))

(* --- Cold tier: fragment placement is [Ops]'s, the flags and the byte
   ledger are the control plane's; this simulator keeps the fragment
   bitset in step and reports stored bytes at every event that can
   change them. --- *)

let sample_bytes st ~t (l, _) =
  Control_plane.sample l ~t
    ~copies:(Cluster.total_copies st.cluster ~key:st.key)
    ~fragments:(Ops.live_fragment_count st.cluster ~key:st.key)

let refresh_frags st (l, frag_holders) =
  Packed_bits.clear_all frag_holders;
  match Cluster.coded_params st.cluster ~key:st.key with
  | None -> Control_plane.fragments_live l 0
  | Some (k, r) ->
      for i = 0 to k + r - 1 do
        List.iter
          (fun p -> Packed_bits.set frag_holders (Pid.to_int p))
          (Cluster.holders st.cluster ~key:(Ops.frag_key st.key i))
      done;
      Control_plane.fragments_live l
        (Ops.live_fragment_count st.cluster ~key:st.key)

let route_next st me =
  match st.substrate with
  | None -> Topology.route_next st.tree (Cluster.status st.cluster) me
  | Some sub -> sub.Substrate.next_hop ~key:st.key me

let emit st event = match st.sink with None -> () | Some f -> f event

(* A request resolved at [origin] ([server < 0] = fault): record its
   whole span in one call. The wire already carries the issue timestamp
   on every GET and REPLY, and a reply's destination is the origin, so
   the sink's open-span table is never touched — requests in flight when
   the engine stops simply leave no span. Outcome counts and latency/hop
   quantiles flow into the registry at end of run, through the
   simulator's own tallies and the backing histograms — not here. *)
let obs_resolved st ~id ~origin ~server ~hops ~issued_at =
  match st.obs with
  | None -> ()
  | Some i ->
      Obs.Span.emit_int i.spans ~name:i.sp_lookup ~id ~origin
        ~at:issued_at
        ~dur:(now st -. issued_at)
        ~server ~hops ~attempt:0

(* Trigger a replication from [overloaded] when its estimated serve rate
   exceeds capacity and its cooldown has expired. The copy travels the
   network: it only becomes servable when the push arrives. *)
let maybe_replicate st ~overloaded =
  let i = Pid.to_int overloaded in
  let rate = Access_counter.rate st.estimators.(i) ~now:(now st) in
  if rate > st.config.capacity && now st >= st.cooldown_until.(i) then begin
    let target =
      match st.substrate with
      | None ->
          Ops.choose_replica_target ~rng:st.rng st.cluster ~overloaded
            ~key:st.key
      | Some sub ->
          Ops.choose_replica_target_via ~rng:st.rng sub st.cluster ~overloaded
            ~key:st.key
    in
    match target with
    | None -> ()
    | Some dest ->
        st.cooldown_until.(i) <- now st +. st.config.cooldown;
        let version =
          Option.value ~default:0
            (File_store.version (Cluster.store st.cluster overloaded) ~key:st.key)
        in
        Overlay.send_packed st.overlay ~src:overloaded ~dst:dest
          ~b:(Wire.push ~version) ~x:0.0
  end

let serve st ~server ~id ~origin ~issued_at ~hops =
  let i = Pid.to_int server in
  File_store.record_access (Cluster.store st.cluster server) ~key:st.key
    ~now:(now st);
  Access_counter.record st.estimators.(i) ~now:(now st);
  st.served <- st.served + 1;
  Histogram.add_int st.hops hops;
  emit st
    (Trace.Event.Request
       { at = now st; origin = Pid.to_int origin; server = Some i; hops });
  if Pid.equal server origin then begin
    (* Served locally: the reply needs no network hop. *)
    Histogram.add st.latencies (now st -. issued_at);
    obs_resolved st ~id ~origin:(Pid.to_int origin) ~server:i ~hops ~issued_at
  end
  else
    Overlay.send_packed st.overlay ~src:server ~dst:origin
      ~b:(Wire.reply ~id ~server:i ~hops) ~x:issued_at;
  (* Under the dynamic-RF policy the interval tick owns replica
     management; the native overload trigger stays off. *)
  match st.plane with
  | None -> maybe_replicate st ~overloaded:server
  | Some _ -> ()

let fault st ~id ~origin ~hops ~issued_at =
  st.faults <- st.faults + 1;
  emit st
    (Trace.Event.Request
       { at = now st; origin = Pid.to_int origin; server = None; hops });
  obs_resolved st ~id ~origin:(Pid.to_int origin) ~server:(-1) ~hops
    ~issued_at

(* One GET step at [me], for a request issued at [origin] ([hops = 0]
   when [me] is the origin itself): serve from a full copy, or from
   fragments at a fragment holder, or forward along the route. Inlined
   into both callers: out of line it adds allocation on the request
   path. *)
let[@inline] get_step st ~me ~id ~origin ~hops ~issued_at =
  if Cluster.holds st.cluster me ~key:st.key then
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
    | _ -> (
        (* The [hops < hops_max] guard keeps a (non-conforming) substrate
           route from wrapping the packed hop field: overflow is a
           routing fault. Native routes are bounded by the tree depth
           (≤ m) and never reach it. *)
        match route_next st me with
        | Some next when hops < Wire.hops_max ->
            Overlay.send_packed st.overlay ~src:me ~dst:next
              ~b:(Wire.get ~id ~origin:(Pid.to_int origin) ~hops:(hops + 1))
              ~x:issued_at
        | Some _ | None -> fault st ~id ~origin ~hops ~issued_at)

let handle st ~me ~src b x =
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
      if not (Cluster.holds st.cluster me ~key:st.key) then begin
        File_store.add (Cluster.store st.cluster me) ~key:st.key
          ~origin:File_store.Replicated ~version:(Wire.payload b) ~now:(now st);
        st.replicas_created <- st.replicas_created + 1;
        st.last_replication <- Some (now st);
        emit st
          (Trace.Event.Replicate
             { at = now st; src = Pid.to_int src; dst = Pid.to_int me;
               key = st.key });
        (match st.obs with
        | None -> ()
        | Some i ->
            Obs.Span.emit i.spans ~name:i.sp_replicate ~id:(Pid.to_int src)
              ~origin:(Pid.to_int src) ~at:(now st) ~dur:0.0
              ~server:(Some (Pid.to_int me)) ~hops:0 ~attempt:0);
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
let on_arrival st origin_i phase _x =
  let origin = Pid.unsafe_of_int origin_i in
  if Status_word.is_live (Cluster.status st.cluster) origin then begin
    issue_request st ~origin;
    let rate = Demand.rate st.phase_demand.(phase) origin in
    let t = now st +. Rng.exponential st.rng ~rate in
    if t < st.phase_until.(phase) then
      Engine.post_at st.engine ~time:t ~h:st.h_arrival ~a:origin_i ~b:phase
        ~x:0.0
  end

(* Poisson arrivals for one demand phase: per origin, events on
   [from_time, until). *)
let start_arrivals st ~phase ~from_time =
  let demand = st.phase_demand.(phase) and until = st.phase_until.(phase) in
  Status_word.iter_live (Cluster.status st.cluster) (fun origin ->
      let rate = Demand.rate demand origin in
      if rate > 0.0 then begin
        let t = from_time +. Rng.exponential st.rng ~rate in
        if t < until then
          Engine.post_at st.engine ~time:t ~h:st.h_arrival
            ~a:(Pid.to_int origin) ~b:phase ~x:0.0
      end)

(* The counter-based mechanism of Section 2.2: each node periodically
   drops replicated copies whose locally-observed access rate fell below
   the threshold — a purely local decision, still logless. *)
let start_eviction st ~duration =
  match st.config.eviction with
  | None -> ()
  | Some { period; min_rate } ->
      let rec tick () =
        let t = now st +. period in
        if t <= duration then
          Engine.schedule_at st.engine ~time:t (fun () ->
              let removed = ref 0 in
              Status_word.iter_live (Cluster.status st.cluster) (fun p ->
                  let dropped =
                    (* The survivor floor: when every live holder is a
                       below-rate replica (the inserted copy's node is
                       down), unguarded local eviction would drop the
                       last live copy cluster-wide. *)
                    File_store.evict_cold_replicas
                      ~survivors:(fun key ->
                        Cluster.total_copies st.cluster ~key)
                      ~min_survivors:1
                      (Cluster.store st.cluster p)
                      ~now:(now st) ~min_rate
                  in
                  let mine =
                    List.length (List.filter (String.equal st.key) dropped)
                  in
                  if mine > 0 then
                    emit st
                      (Trace.Event.Evict
                         { at = now st; node = Pid.to_int p; key = st.key });
                  removed := !removed + mine);
              if !removed > 0 then begin
                st.replicas_evicted <- st.replicas_evicted + !removed;
                record_copies st
              end;
              tick ())
      in
      tick ()

(* Bring the key's live copy count to the policy's replica factor:
   deficits fill at the first live non-holders in ascending PID order,
   surpluses shed replicated copies from the highest-PID holders down —
   the inserted original is never evicted, so the count never drops
   below one. Deliberately instantaneous (no push latency): the policy
   models a coordinator that already holds the access log, and the
   comparison against LessLog should not charge it the simulator's
   network model twice. *)
let policy_enforce st p =
  let key = st.key in
  let rf = Rf_policy.rf p ~file:0 in
  let before = Cluster.total_copies st.cluster ~key in
  if before < rf then begin
    let src, version =
      match Cluster.holders st.cluster ~key with
      | h :: _ ->
          ( Pid.to_int h,
            Option.value ~default:0
              (File_store.version (Cluster.store st.cluster h) ~key) )
      | [] -> (-1, 0)
    in
    let deficit = ref (rf - before) in
    Status_word.iter_live (Cluster.status st.cluster) (fun q ->
        if !deficit > 0 && not (Cluster.holds st.cluster q ~key) then begin
          File_store.add (Cluster.store st.cluster q) ~key
            ~origin:File_store.Replicated ~version ~now:(now st);
          st.replicas_created <- st.replicas_created + 1;
          st.last_replication <- Some (now st);
          emit st
            (Trace.Event.Replicate
               { at = now st; src; dst = Pid.to_int q; key });
          decr deficit
        end)
  end
  else if before > rf then begin
    let surplus = ref (before - rf) in
    List.iter
      (fun q ->
        if
          !surplus > 0
          && File_store.origin (Cluster.store st.cluster q) ~key
             = Some File_store.Replicated
        then begin
          File_store.remove (Cluster.store st.cluster q) ~key;
          st.replicas_evicted <- st.replicas_evicted + 1;
          emit st (Trace.Event.Evict { at = now st; node = Pid.to_int q; key });
          decr surplus
        end)
      (List.rev (Cluster.holders st.cluster ~key))
  end;
  let after = Cluster.total_copies st.cluster ~key in
  if after <> before then
    Timeseries.record st.replica_timeline ~time:(now st) (float_of_int after)

(* The control plane's tier transitions, placed through [Ops]: a
   demotion trades the full copies for [k + r] fragments at distinct
   live nodes, a promotion rebuilds the policy's replica factor from the
   fragments. *)
let demote st (tier : Control_plane.cold_tier) =
  Ops.demote_to_coded ~now:(now st) ?substrate:st.substrate st.cluster
    ~key:st.key ~k:tier.code_k ~r:tier.code_r
  |> Option.map (fun holders ->
         record_copies st;
         List.length holders)

let promote st ~copies =
  Ops.promote_from_coded ~now:(now st) ?substrate:st.substrate st.cluster
    ~key:st.key ~copies
  |> Option.map (fun placed ->
         record_copies st;
         List.length placed)

(* The policy's analysis-interval ticks, each scheduling the next (the
   shape of {!start_eviction}); every request already went into the
   policy's log at issue. *)
let start_policy st ~duration =
  match st.plane with
  | None -> ()
  | Some pl ->
      let rec chain = function
        | [] -> ()
        | t :: later ->
            Engine.schedule_at st.engine ~time:t (fun () ->
                Control_plane.tick pl ~demote:(demote st) ~promote:(promote st)
                  ~enforce:(fun () -> policy_enforce st pl.policy);
                Option.iter
                  (fun c ->
                    refresh_frags st c;
                    sample_bytes st ~t c)
                  st.cold;
                chain later)
      in
      chain (Control_plane.ticks pl ~duration)

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

(* Control-traffic model for a membership event: the status word is
   broadcast to every live node (Section 5), and each relocated file costs
   one transfer. *)
let account_churn st ~relocated =
  st.control_messages <-
    st.control_messages + Status_word.live_count (Cluster.status st.cluster);
  st.file_transfers <- st.file_transfers + relocated

(* Membership repair dispatch: Generic substrates run the overlay-agnostic
   registry repair, which repairs a coded key too (reported through
   [on_coded_repair]); everything else (the direct path and the native
   adapter, whose membership is Self_organized) runs the paper's Section 5
   mechanism verbatim, then [Ops.repair_coded]. Returns the relocation
   count for {!account_churn}. *)
let repair_membership st action =
  let relocated =
    match st.substrate with
    | Some sub when sub.Substrate.membership = Substrate.Generic ->
        Ops.on_membership_via ~now:(now st)
          ?on_coded_repair:
            (Option.map
               (fun (l, _) ~key:_ ~rebuilt ~lost ->
                 Control_plane.repaired l ~rebuilt ~lost)
               st.cold)
          sub st.cluster
          ~event:
            (match action with
            | Join p -> `Join p
            | Leave p -> `Leave p
            | Fail p -> `Fail p)
    | _ ->
        let relocated =
          match action with
          | Join p ->
              List.length (Self_org.join ~now:(now st) st.cluster p).took_over
          | Leave p ->
              List.length (Self_org.leave ~now:(now st) st.cluster p).reinserted
          | Fail p ->
              List.length (Self_org.fail ~now:(now st) st.cluster p).recovered
        in
        (match st.cold with
        | Some (l, _) when l.coded -> (
            match
              Ops.repair_coded ~now:(now st) ?substrate:st.substrate
                st.cluster ~key:st.key
            with
            | `Intact -> ()
            | `Repaired n -> Control_plane.repaired l ~rebuilt:n ~lost:false
            | `Lost -> Control_plane.repaired l ~rebuilt:0 ~lost:true)
        | Some _ | None -> ());
        relocated
  in
  (match st.cold with
  | Some c ->
      refresh_frags st c;
      sample_bytes st ~t:(now st) c
  | None -> ());
  relocated

let churn st p change action =
  emit st (Trace.Event.Membership { at = now st; node = Pid.to_int p; change });
  account_churn st ~relocated:(repair_membership st action);
  if change = `Join then Overlay.attach st.overlay p
  else Overlay.detach st.overlay p

let apply_churn st events =
  List.iter
    (fun { at; action } ->
      Engine.schedule_at st.engine ~time:at (fun () ->
          let status = Cluster.status st.cluster in
          match action with
          | Join p -> if Status_word.is_dead status p then churn st p `Join action
          | Leave p ->
              if Status_word.is_live status p then churn st p `Leave action
          | Fail p -> if Status_word.is_live status p then churn st p `Fail action))
    events

let run_internal ~config ~churn ~sink ~obs ~substrate ~policy ~cold_tier ~rng
    ~cluster ~key ~phases ~duration =
  let params = Cluster.params cluster in
  let plane =
    Control_plane.create ~who:"Des_sim" ~nodes:(Params.space params) policy
      cold_tier
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
  let st =
    {
      config;
      rng;
      cluster;
      key;
      tree = Cluster.tree_of_key cluster key;
      engine;
      overlay;
      estimators =
        Array.init (Params.space params) (fun _ ->
            Access_counter.create ~tau:config.detection_tau ~now:0.0 ());
      cooldown_until = Array.make (Params.space params) 0.0;
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
      sink;
      obs = Option.map make_instruments obs;
      substrate;
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
  st.h_arrival <- Engine.register_handler engine (on_arrival st);
  Overlay.set_packed_recv overlay
    (Some (fun ~src ~dst b x -> handle st ~me:dst ~src b x));
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
        let rate =
          Access_counter.rate st.estimators.(Pid.to_int p) ~now:duration
        in
        if rate > config.capacity then acc + 1 else acc)
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
