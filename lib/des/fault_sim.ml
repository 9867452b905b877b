open Lesslog_id
module Engine = Lesslog_sim.Engine
module Overlay = Lesslog_net.Overlay
module Latency = Lesslog_net.Latency
module Rpc = Lesslog_net.Rpc
module Heartbeat = Lesslog_net.Heartbeat
module Cluster = Lesslog.Cluster
module Status_word = Lesslog_membership.Status_word
module Demand = Lesslog_workload.Demand
module Faults = Lesslog_workload.Faults
module Histogram = Lesslog_metrics.Histogram
module Timeseries = Lesslog_metrics.Timeseries
module Rng = Lesslog_prng.Rng
module Trace = Lesslog_trace.Trace
module Obs = Lesslog_obs.Obs

type config = {
  capacity : float;
  detection_tau : float;
  cooldown : float;
  latency : Latency.t;
  loss : float;
  rpc : Rpc.config;
  heartbeat : Heartbeat.config;
  deadline : float;
  arrival_stop : float;
  agreement_target : float;
  sample_period : float;
}

let default_config =
  {
    capacity = 100.0;
    detection_tau = 2.0;
    cooldown = 0.5;
    latency = Latency.default;
    loss = 0.0;
    rpc = Rpc.default_config;
    heartbeat = Heartbeat.default_config;
    deadline = 2.0;
    arrival_stop = 0.65;
    agreement_target = 0.95;
    sample_period = 0.25;
  }

type result = {
  issued : int;
  served : int;
  faulted : int;
  pending_at_end : int;
  within_deadline : int;
  duplicate_serves : int;
  retransmissions : int;
  timeouts : int;
  latencies : Histogram.t;
  hops : Histogram.t;
  replicas_created : int;
  suspicions : int;
  recoveries : int;
  spurious_suspicions : int;
  migrations : int;
  spurious_migrations : int;
  crashes : int;
  restarts : int;
  lost_keys : int;
  detector_agreement : float;
  convergence : float option;
  agreement_timeline : Timeseries.t;
  messages : int;
}

(* Observability handles, resolved once per run (see {!Des_sim}). The
   [rpc/]* counters live in the tracker itself (it is created with the
   registry); here we keep the spans — one ["lookup"] span per request id,
   instant marks for timeouts/retries — and the serve-side attribution. *)
type instruments = {
  spans : Obs.Span.sink;
  sp_lookup : int;
  sp_timeout : int;
  sp_retry : int;
  ob_served : Obs.Registry.counter;
}

let make_instruments ~latencies ~hops (obs : Obs.t) =
  let r = obs.Obs.registry in
  ignore (Obs.Registry.timer_backed r "fsim/latency_s" latencies);
  ignore (Obs.Registry.timer_backed r "fsim/hops" hops);
  {
    spans = obs.Obs.spans;
    sp_lookup = Obs.Span.intern obs.Obs.spans "lookup";
    sp_timeout = Obs.Span.intern obs.Obs.spans "rpc/timeout";
    sp_retry = Obs.Span.intern obs.Obs.spans "rpc/retry";
    ob_served = Obs.Registry.counter r "fsim/served";
  }

type state = {
  config : config;
  p : Protocol.t;
  (* Injected ground truth: which processes are actually up. It runs the
     physical world — handlers, who can act — and scores the detector; it
     is never consulted for routing or placement. *)
  truth : bool array;
  monitored : Pid.t array;
  mutable rpc : Pid.t Rpc.t option;
      (* built after the state: transmit closes over it; a request's
         metadata is its origin, its issue time is {!Rpc.issued_at} *)
  mutable detector : Heartbeat.t option;
  dedup : Rpc.Dedup.t;
  mutable served : int;
  mutable within_deadline : int;
  latencies : Histogram.t;
  hops : Histogram.t;
  mutable replicas_created : int;
  mutable spurious_suspicions : int;
  mutable migrations : int;
  mutable spurious_migrations : int;
  mutable crashes : int;
  mutable restarts : int;
  mutable convergence : float option;
  agreement_timeline : Timeseries.t;
  obs : instruments option;
}

let now st = Protocol.now st.p
let emit st event = Protocol.emit st.p event

(* A request served at its origin: close its span and count it. Faults
   are closed from the Exhausted rpc event; latency and hops flow into
   the registry through the backing histograms. *)
let obs_completed st ~id ~server ~hops =
  match st.obs with
  | None -> ()
  | Some i ->
      Obs.Span.end_span_int i.spans ~id ~at:(now st) ~server ~hops;
      Obs.Registry.incr i.ob_served
let truth_live st p = st.truth.(Pid.to_int p)
let rpc st = Option.get st.rpc
let detector st = Option.get st.detector

(* --- Serving ({!Protocol}'s node steps, minus oracle faults) ------------ *)

(* The reply for [id] reached its origin: count it served unless the
   tracker already settled the request (duplicate reply, or exhausted). *)
let[@inline] completed st ~id ~server ~hops ~issued_at =
  if Rpc.complete (rpc st) ~id then begin
    st.served <- st.served + 1;
    let latency = now st -. issued_at in
    Histogram.add st.latencies latency;
    Histogram.add_int st.hops hops;
    if latency <= st.config.deadline then
      st.within_deadline <- st.within_deadline + 1;
    obs_completed st ~id ~server ~hops
  end

(* First delivery of a request ID does the work; duplicates only re-send
   the reply, so retransmission is idempotent at the server. *)
let[@inline] serve st ~server ~id ~origin ~issued_at ~hops =
  if Rpc.Dedup.first st.dedup ~id then begin
    Protocol.record_serve st.p ~server;
    Protocol.emit_request st.p ~origin:(Pid.to_int origin)
      ~server:(Pid.to_int server) ~hops;
    Protocol.maybe_replicate st.p ~overloaded:server
  end;
  if Pid.equal server origin then
    completed st ~id ~server:(Pid.to_int server) ~hops ~issued_at
  else
    Overlay.send_packed st.p.overlay ~src:server ~dst:origin
      ~b:(Wire.reply ~id ~server:(Pid.to_int server) ~hops)
      ~x:issued_at

(* One GET step at [me]: serve from a copy, or forward along the route.
   A dead end sends nothing — the rpc layer, not the router, reports the
   fault: the attempt times out and the retry may find a route once the
   detector has migrated the subtree. *)
let[@inline] get_step st ~me ~id ~origin ~hops ~issued_at =
  if Cluster.holds st.p.cluster me ~key:st.p.key then
    serve st ~server:me ~id ~origin ~issued_at ~hops
  else ignore (Protocol.forward st.p ~me ~id ~origin ~hops ~issued_at)

(* One transmission attempt, from the request's origin. *)
let transmit st ~id ~attempt:_ origin =
  if truth_live st origin then
    get_step st ~me:origin ~id ~origin ~hops:0
      ~issued_at:(Rpc.issued_at (rpc st) ~id)

(* Inlined into the overlay's receive closure, like {!Des_sim}'s, so the
   message's [x] stays unboxed. *)
let[@inline] handle st ~me ~src b x =
  match Wire.kind b with
  | Wire.Get ->
      get_step st ~me ~id:(Wire.id b)
        ~origin:(Pid.unsafe_of_int (Wire.get_origin b))
        ~hops:(Wire.get_hops b) ~issued_at:x
  | Wire.Reply ->
      completed st ~id:(Wire.id b) ~server:(Wire.reply_server b)
        ~hops:(Wire.reply_hops b) ~issued_at:x
  | Wire.Push ->
      if Protocol.apply_push st.p ~me ~src ~version:(Wire.payload b) then
        st.replicas_created <- st.replicas_created + 1
  | Wire.Ping ->
      Overlay.send_packed st.p.overlay ~src:me ~dst:src
        ~b:(Wire.pong ~seq:(Wire.payload b)) ~x:0.0
  | Wire.Pong -> Heartbeat.pong (detector st) ~peer:src ~seq:(Wire.payload b)
  | Wire.Other -> ()

(* --- The detector drives membership -------------------------------------- *)

(* Pings originate from some node that is actually up (only live
   processes act); picking it needs no oracle because a process trivially
   knows whether it itself is running. Up to [k] random draws, then a
   scan from a random offset (dense failure); [-1] when no node is up. *)
let rec scan_live truth ~off i =
  let space = Array.length truth in
  if i = space then -1
  else
    let j = (off + i) mod space in
    if truth.(j) then j else scan_live truth ~off (i + 1)

let rec pick_live truth rng k =
  let space = Array.length truth in
  if k = 0 then scan_live truth ~off:(Rng.int rng space) 0
  else
    let i = Rng.int rng space in
    if truth.(i) then i else pick_live truth rng (k - 1)

let send_ping st ~seq peer =
  let monitor = pick_live st.truth st.p.rng 16 in
  if monitor >= 0 then
    Overlay.send_packed st.p.overlay ~src:(Pid.unsafe_of_int monitor) ~dst:peer
      ~b:(Wire.ping ~seq) ~x:0.0

let repair st p change = ignore (Protocol.repair st.p p ~change ~ledger:None)

(* A verdict change is what a real deployment would act on: mark the
   status word and run the Section 5 self-organized migration. This is
   the only writer of the status word after t = 0. *)
let on_verdict st p verdict =
  let status = Cluster.status st.p.cluster in
  match verdict with
  | `Suspect ->
      emit st (Trace.Event.Suspect { at = now st; node = Pid.to_int p });
      if Status_word.is_live status p then begin
        st.migrations <- st.migrations + 1;
        if truth_live st p then begin
          (* False suspicion: the node is up, but the system routes and
             re-homes as if it departed. *)
          st.spurious_suspicions <- st.spurious_suspicions + 1;
          st.spurious_migrations <- st.spurious_migrations + 1;
          repair st p `Leave
        end
        else repair st p `Fail
      end
  | `Trust ->
      emit st (Trace.Event.Trust { at = now st; node = Pid.to_int p });
      if Status_word.is_dead status p then repair st p `Join

(* --- Fault injection ------------------------------------------------------ *)

let crash st p =
  if truth_live st p then begin
    st.truth.(Pid.to_int p) <- false;
    Overlay.detach st.p.overlay p;
    st.crashes <- st.crashes + 1;
    emit st
      (Trace.Event.Membership
         { at = now st; node = Pid.to_int p; change = `Fail })
  end

let restart st p =
  if not (truth_live st p) then begin
    st.truth.(Pid.to_int p) <- true;
    Overlay.attach st.p.overlay p;
    st.restarts <- st.restarts + 1;
    emit st
      (Trace.Event.Membership
         { at = now st; node = Pid.to_int p; change = `Join })
  end

(* The plan is posted at setup, one handler per kind of disturbance;
   an event's [a] word is the crashed node, or the burst's or the
   partition's index in the plan. *)
let schedule_plan st (plan : Faults.plan) =
  let engine = st.p.engine in
  let on f = Engine.register engine (fun a _ -> f a) in
  let at time h a = Engine.post_at engine ~time ~h ~a ~b:0 ~x:0.0 in
  let h_crash = on (fun node -> crash st (Pid.unsafe_of_int node)) in
  let h_restart = on (fun node -> restart st (Pid.unsafe_of_int node)) in
  List.iter
    (fun (c : Faults.crash) ->
      at c.at h_crash (Pid.to_int c.node);
      Option.iter (fun r -> at r h_restart (Pid.to_int c.node)) c.restart_at)
    plan.crashes;
  (* Loss bursts stack: the effective loss is the max of the baseline and
     every active burst. *)
  let bursts = Array.of_list plan.bursts in
  let active_losses = ref [] in
  let apply_loss () =
    let eff = List.fold_left Float.max st.config.loss !active_losses in
    Overlay.set_loss st.p.overlay eff
  in
  let h_burst =
    on (fun i ->
        active_losses := bursts.(i).loss :: !active_losses;
        apply_loss ())
  in
  let h_burst_end =
    on (fun i ->
        (* Remove one occurrence. *)
        let rec drop = function
          | [] -> []
          | x :: rest -> if x = bursts.(i).loss then rest else x :: drop rest
        in
        active_losses := drop !active_losses;
        apply_loss ())
  in
  Array.iteri
    (fun i (b : Faults.burst) ->
      at b.from_ h_burst i;
      at b.until h_burst_end i)
    bursts;
  (* Partitions: a send is dropped when any active cut blocks the link.
     A plan without partitions installs no filter at all. *)
  if plan.partitions <> [] then begin
    let cuts =
      Faults.Cuts.create ~space:(Array.length st.truth) plan.partitions
    in
    Overlay.set_filter st.p.overlay (Some (Faults.Cuts.allows cuts));
    let h_cut = on (Faults.Cuts.cut cuts) in
    let h_heal = on (Faults.Cuts.heal cuts) in
    List.iteri
      (fun i (p : Faults.partition) ->
        at p.from_ h_cut i;
        at p.until h_heal i)
      plan.partitions
  end

(* --- Detector accuracy ---------------------------------------------------- *)

let agreement st =
  let status = Cluster.status st.p.cluster in
  let agree =
    Array.fold_left
      (fun acc p ->
        if Status_word.is_live status p = truth_live st p then acc + 1
        else acc)
      0 st.monitored
  in
  float_of_int agree /. float_of_int (Array.length st.monitored)

(* Agreement samples every [sample_period] up to [duration]. Sample
   times are accumulated, not read back from the clock: the event's
   float word carries its own time and the next is that plus the
   period. *)
let start_sampling st ~quiet_from ~duration =
  let h = ref (-1) in
  let arm time =
    if time <= duration then
      Engine.post_at st.p.engine ~time ~h:!h ~a:0 ~b:0 ~x:time
  in
  h :=
    Engine.register st.p.engine (fun _ _ ->
        let time = Engine.x st.p.engine in
        let a = agreement st in
        Timeseries.record st.agreement_timeline ~time a;
        if
          st.convergence = None && time >= quiet_from
          && a >= st.config.agreement_target
        then st.convergence <- Some (time -. quiet_from);
        arm (time +. st.config.sample_period));
  arm st.config.sample_period

(* --- Arrivals ------------------------------------------------------------- *)

(* Per origin, a Poisson chain of arrivals on [0, until): each event
   ([a] = origin, [x] = its rate) issues a request when the origin is up
   and draws the next gap either way, so a crashed origin resumes issuing
   once it restarts. *)
let start_arrivals st ~demand ~until =
  let h = ref (-1) in
  let arm origin ~rate ~from =
    let t = from +. Rng.exponential st.p.rng ~rate in
    if t < until then
      Engine.post_at st.p.engine ~time:t ~h:!h ~a:origin ~b:0 ~x:rate
  in
  h :=
    Engine.register st.p.engine (fun origin_i _ ->
        let rate = Engine.x st.p.engine in
        let origin = Pid.unsafe_of_int origin_i in
        if truth_live st origin then begin
          (* Ids are packed unwrapped into a GET's id field. *)
          if Rpc.issued (rpc st) > Wire.id_mask then
            invalid_arg "Fault_sim: rpc id exceeds Wire.id_mask";
          let id = Rpc.issue (rpc st) origin in
          match st.obs with
          | None -> ()
          | Some i ->
              Obs.Span.begin_span i.spans ~name:i.sp_lookup ~id ~origin:origin_i
                ~at:(now st)
        end;
        arm origin_i ~rate ~from:(now st));
  Status_word.iter_live (Cluster.status st.p.cluster) (fun origin ->
      let rate = Demand.rate demand origin in
      if rate > 0.0 then arm (Pid.to_int origin) ~rate ~from:0.0)

(* --- Entry point ----------------------------------------------------------- *)

let run ?(config = default_config) ?(plan = Faults.empty) ?sink ?obs
    ?substrate ~rng ~cluster ~key ~demand ~duration () =
  if not (config.sample_period > 0.0) then
    invalid_arg "Fault_sim: sample_period must be > 0";
  Overlay.check_loss ~who:"Fault_sim" config.loss;
  List.iter
    (fun (b : Faults.burst) -> Overlay.check_loss ~who:"Fault_sim" b.loss)
    plan.Faults.bursts;
  let params = Cluster.params cluster in
  let engine = Engine.create () in
  let overlay =
    Overlay.create ~engine ~rng ~latency:config.latency ~loss:config.loss
      params
  in
  let space = Params.space params in
  let truth = Array.make space false in
  Status_word.iter_live (Cluster.status cluster) (fun p ->
      truth.(Pid.to_int p) <- true);
  let monitored = Status_word.live_array (Cluster.status cluster) in
  let latencies = Histogram.create () and hops = Histogram.create () in
  (* The simulator's span names are interned before the protocol's. *)
  let instruments = Option.map (make_instruments ~latencies ~hops) obs in
  let trigger =
    Protocol.Trigger.create ~capacity:config.capacity ~tau:config.detection_tau
      ~cooldown:config.cooldown space
  in
  let st =
    {
      config;
      p =
        Protocol.create ~rng ~cluster ~key ~engine ~overlay ~trigger ~substrate
          ~sink ~obs;
      truth;
      monitored;
      rpc = None;
      detector = None;
      dedup = Rpc.Dedup.create ();
      served = 0;
      within_deadline = 0;
      latencies;
      hops;
      replicas_created = 0;
      spurious_suspicions = 0;
      migrations = 0;
      spurious_migrations = 0;
      crashes = 0;
      restarts = 0;
      convergence = None;
      agreement_timeline = Timeseries.create ~label:"agreement" ();
      obs = instruments;
    }
  in
  let mark name ~id ~origin ~attempt =
    match st.obs with
    | None -> ()
    | Some i ->
        Obs.Span.emit i.spans ~name:(name i) ~id ~origin ~at:(now st) ~dur:0.0
          ~server:None ~hops:0 ~attempt
  in
  (* Trace records are built only under a sink, as in {!Protocol}; with
     neither a sink nor obs the tracker gets no callback and builds no
     event records either. *)
  let rpc_events = function
    | Rpc.Timeout { id; attempt; meta = origin } ->
        (match st.p.sink with
        | None -> ()
        | Some f ->
            f
              (Trace.Event.Timeout
                 { at = now st; id; origin = Pid.to_int origin; attempt }));
        mark (fun i -> i.sp_timeout) ~id ~origin:(Pid.to_int origin) ~attempt
    | Rpc.Retransmit { id; attempt; meta = origin } ->
        (match st.p.sink with
        | None -> ()
        | Some f ->
            f
              (Trace.Event.Retry
                 { at = now st; id; origin = Pid.to_int origin; attempt }));
        (match st.obs with
        | None -> ()
        | Some i -> Obs.Span.set_attempt i.spans ~id ~attempt);
        mark (fun i -> i.sp_retry) ~id ~origin:(Pid.to_int origin) ~attempt
    | Rpc.Exhausted { id; attempts = _; meta = origin } ->
        Protocol.emit_request st.p ~origin:(Pid.to_int origin) ~server:(-1)
          ~hops:0;
        (match st.obs with
        | None -> ()
        | Some i ->
            Obs.Span.end_span i.spans ~id ~at:(now st) ~server:None ~hops:0)
  in
  st.rpc <-
    Some
      (Rpc.create ~engine ~rng ~config:config.rpc
         ?on_event:
           (if Option.is_none st.p.sink && Option.is_none obs then None
            else Some rpc_events)
         ?registry:(Option.map (fun (o : Obs.t) -> o.Obs.registry) obs)
         ~transmit:(fun ~id ~attempt meta -> transmit st ~id ~attempt meta)
         ());
  st.detector <-
    Some
      (Heartbeat.create ~engine ~config:config.heartbeat ~peers:monitored
         ~ping:(fun ~seq peer -> send_ping st ~seq peer)
         ~on_change:(fun p verdict -> on_verdict st p verdict)
         ());
  Overlay.set_packed_recv overlay
    (Some (fun ~src ~dst b -> handle st ~me:dst ~src b (Engine.x engine)));
  Array.iter (fun p -> Overlay.attach st.p.overlay p) monitored;
  schedule_plan st plan;
  Heartbeat.start (detector st) ~until:duration;
  let quiet_from = Faults.last_disturbance plan in
  start_sampling st ~quiet_from ~duration;
  start_arrivals st ~demand ~until:(config.arrival_stop *. duration);
  Engine.run ~until:duration engine;
  let r = rpc st in
  let d = detector st in
  {
    issued = Rpc.issued r;
    served = st.served;
    faulted = Rpc.exhausted r;
    pending_at_end = Rpc.in_flight r;
    within_deadline = st.within_deadline;
    duplicate_serves = Rpc.Dedup.duplicates st.dedup;
    retransmissions = Rpc.retransmissions r;
    timeouts = Rpc.timeouts r;
    latencies = st.latencies;
    hops = st.hops;
    replicas_created = st.replicas_created;
    suspicions = Heartbeat.suspicions d;
    recoveries = Heartbeat.recoveries d;
    spurious_suspicions = st.spurious_suspicions;
    migrations = st.migrations;
    spurious_migrations = st.spurious_migrations;
    crashes = st.crashes;
    restarts = st.restarts;
    lost_keys = st.p.lost_keys;
    detector_agreement = agreement st;
    convergence = st.convergence;
    agreement_timeline = st.agreement_timeline;
    messages = Overlay.messages_sent overlay;
  }
