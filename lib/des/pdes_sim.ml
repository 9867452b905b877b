(* Domain-parallel event-driven simulator of the fault-tolerant model
   (paper Section 4): the 2^b binomial subtrees are the shards of a
   {!Lesslog_sim.Sharded_engine}, one packed-core engine per subtree.

   The decomposition works because the Section 4 protocol is already
   subtree-local: ADVANCEDINSERTFILE places one copy per subtree, a GET
   resolves by climbing alive ancestors {e within} the origin's subtree,
   and replica placement picks among the overloaded node's subtree
   children — so the only cross-subtree traffic is a faulting request
   migrating to a sibling subtree (plus the reply it eventually earns),
   and every such hop rides the network with latency at least the
   distribution's minimum, which is exactly the lookahead a conservative
   epoch scheme needs.

   All mutable per-node state is owned by the node's shard and indexed
   by subtree VID: holder bits ({!Lesslog_bits.Packed_bits} over the
   2^(m-b) subtree slots — never the global PID space, whose packed
   words would be shared across shards), the overload trigger's
   access-rate estimators and cooldowns ({!Protocol.Trigger}), result
   histograms, the span sink and an FNV digest accumulator. The status
   word and lookup tree are shared but only read during an epoch;
   membership churn runs as sequential barrier globals. Each shard draws
   from its own seeded RNG stream, so the full run — event order, RNG
   draws, digest — is bit-identical at any domain count, including 1. *)

open Lesslog_id
module Engine = Lesslog_sim.Engine
module Sharded_engine = Lesslog_sim.Sharded_engine
module Latency = Lesslog_net.Latency
module Overlay = Lesslog_net.Overlay
module Status_word = Lesslog_membership.Status_word
module Subtrees = Lesslog_topology.Subtrees
module Topology = Lesslog_topology.Topology
module Ptree = Lesslog_ptree.Ptree
module Demand = Lesslog_workload.Demand
module Histogram = Lesslog_metrics.Histogram
module Packed_bits = Lesslog_bits.Packed_bits
module Rng = Lesslog_prng.Rng
module Faults = Lesslog_workload.Faults
module Psi = Lesslog_hash.Psi
module Fnv = Lesslog_hash.Fnv
module Obs = Lesslog_obs.Obs

include Churn

type config = {
  capacity : float;
  detection_tau : float;
  cooldown : float;
  latency : Latency.t;
  loss : float;
}

let default_config =
  {
    capacity = 100.0;
    detection_tau = 2.0;
    cooldown = 0.5;
    latency = Latency.default;
    loss = 0.0;
  }

(* FNV-1a folded over native ints, 63-bit wrap — the per-shard event
   digest. Cheap enough to run on every handled event, and combining
   the per-shard accumulators in shard order gives one run fingerprint
   that any scheduling or RNG reordering perturbs. *)
let fnv_prime = 0x100000001B3
let mix d k = (d lxor k) * fnv_prime land max_int
let mix_time d t = mix d (Int64.to_int (Int64.bits_of_float t) land max_int)

type shard = {
  sid : int;
  eng : Engine.t;
  rng : Rng.t;
  holders : Packed_bits.t;  (* subtree-VID indexed *)
  trigger : Protocol.Trigger.t;  (* subtree-VID indexed *)
  latencies : Histogram.t;
  hops_h : Histogram.t;
  spans : Obs.Span.sink option;
  sp_lookup : int;
  mutable digest : int;
  mutable served : int;
  mutable faults : int;
  mutable migrations : int;
  mutable replicas_created : int;
  mutable messages : int;
  mutable requests : int;
  mutable h_msg : int;
  mutable h_arrival : int;
}

type state = {
  config : config;
  mutable loss : float;
      (* current drop probability: [config.loss] raised by active loss
         bursts; only written by barrier globals *)
  params : Params.t;
  tree : Ptree.t;
  status : Status_word.t;
  demand : Demand.t;
  duration : float;
  se : Sharded_engine.t;
  shards : shard array;
  mutable control_messages : int;
  mutable file_transfers : int;
}

type result = {
  served : int;
  faults : int;
  migrations : int;
  requests : int;
  latencies : Histogram.t;
  hops : Histogram.t;
  replicas_created : int;
  replicas_end : int;
  messages : int;
  control_messages : int;
  file_transfers : int;
  events : int;
  epochs : int;
  phases : int;
  cross_sends : int;
  worker_times : Sharded_engine.worker_time array;
  digest : int;
}

let sid_of (st : state) p = Subtrees.subtree_id_of_pid st.tree p

let svid_of (st : state) p =
  Subtrees.subtree_vid_of_vid st.params (Ptree.vid_of_pid st.tree p)

let holds (st : state) p = Packed_bits.get st.shards.(sid_of st p).holders (svid_of st p)

let total_copies (st : state) =
  Array.fold_left (fun acc sh -> acc + Packed_bits.count sh.holders) 0 st.shards

(* One overlay message. The loss coin and the latency draw come from the
   {e sending} shard's stream; a cross-subtree delivery goes through the
   sharded engine's mailboxes (its latency is >= the distribution
   minimum, i.e. the lookahead, by construction). *)
let[@inline] send_msg st (sh : shard) ~dst ~b ~x =
  sh.messages <- sh.messages + 1;
  if not (st.loss > 0.0 && Rng.bernoulli sh.rng ~p:st.loss) then begin
    let delay = Latency.sample st.config.latency sh.rng in
    let dsid = sid_of st dst in
    Sharded_engine.send st.se ~src:sh.sid ~dst:dsid ~delay
      ~h:st.shards.(dsid).h_msg ~a:(Pid.to_int dst) ~b ~x
  end

let obs_resolved (sh : shard) ~id ~origin ~server ~hops ~issued_at ~at =
  match sh.spans with
  | None -> ()
  | Some spans ->
      Obs.Span.emit spans ~name:sh.sp_lookup ~id ~origin ~at:issued_at
        ~dur:(at -. issued_at) ~server ~hops ~attempt:0

(* Overload replication: every candidate is in the overloaded node's
   subtree, so the chosen target is always on its own shard. *)
let maybe_replicate st (sh : shard) ~overloaded =
  let sv = svid_of st overloaded in
  let now = Engine.now sh.eng in
  if Protocol.Trigger.due sh.trigger sv ~now then
    match
      Lesslog.Ops.choose ~rng:sh.rng ~holds:(holds st) ~b:(Params.b st.params)
        st.tree st.status ~overloaded
    with
    | None -> ()
    | Some dest ->
        Protocol.Trigger.arm sh.trigger sv ~now;
        send_msg st sh ~dst:dest ~b:(Wire.push ~version:0) ~x:0.0

let[@inline] serve st (sh : shard) ~server ~id ~origin ~issued_at ~hops =
  let sv = svid_of st server in
  let now = Engine.now sh.eng in
  Protocol.Trigger.record sh.trigger sv ~now;
  sh.served <- sh.served + 1;
  Histogram.add_int sh.hops_h hops;
  if Pid.equal server origin then begin
    Histogram.add sh.latencies (now -. issued_at);
    obs_resolved sh ~id ~origin:(Pid.to_int origin)
      ~server:(Pid.to_int server) ~hops ~issued_at ~at:now
  end
  else
    send_msg st sh ~dst:origin
      ~b:(Wire.reply ~id ~server:(Pid.to_int server) ~hops)
      ~x:issued_at;
  maybe_replicate st sh ~overloaded:server

(* A request that cannot be served or routed: a reported fault. *)
let fault (sh : shard) ~id ~origin ~hops ~issued_at =
  sh.faults <- sh.faults + 1;
  obs_resolved sh ~id ~origin:(Pid.to_int origin) ~server:(-1) ~hops
    ~issued_at ~at:(Engine.now sh.eng)

(* Route one GET standing at [me]: serve at a holder, else forward by the
   one request step, {!Topology.route}: the climb within the subtree or,
   at its dead end, the migration to the next subtree ([migrations]
   counts the crossings). A request whose hop count has reached the
   packed field's maximum faults instead of wrapping it. *)
let[@inline] route_get st (sh : shard) ~me ~id ~origin ~hops ~issued_at =
  if holds st me then serve st sh ~server:me ~id ~origin ~issued_at ~hops
  else if hops >= Wire.hops_max then fault sh ~id ~origin ~hops ~issued_at
  else
    match
      Topology.route ~b:(Params.b st.params) st.tree st.status
        ~origin:(Pid.to_int origin) (Pid.to_int me)
    with
    | -1 -> fault sh ~id ~origin ~hops ~issued_at
    | next ->
        let next = Pid.unsafe_of_int next in
        if sid_of st next <> sh.sid then sh.migrations <- sh.migrations + 1;
        send_msg st sh ~dst:next
          ~b:(Wire.get ~id ~origin:(Pid.to_int origin) ~hops:(hops + 1))
          ~x:issued_at

let issue_request st (sh : shard) ~origin =
  let id = ((sh.requests * Array.length st.shards) + sh.sid) land Wire.id_mask in
  sh.requests <- sh.requests + 1;
  route_get st sh ~me:origin ~id ~origin ~hops:0
    ~issued_at:(Engine.now sh.eng)

(* Inlined into the closure registered for it, so the message's [x],
   read there from the engine, is not boxed for the call. *)
let[@inline] handle_msg st (sh : shard) a b x =
  sh.digest <- mix (mix (mix_time sh.digest (Engine.now sh.eng)) a) b;
  let me = Pid.unsafe_of_int a in
  if Status_word.is_live st.status me then begin
    match Wire.kind b with
    | Wire.Get ->
        route_get st sh ~me ~id:(Wire.id b)
          ~origin:(Pid.unsafe_of_int (Wire.get_origin b))
          ~hops:(Wire.get_hops b) ~issued_at:x
    | Wire.Reply ->
        Histogram.add sh.latencies (Engine.now sh.eng -. x);
        obs_resolved sh ~id:(Wire.id b) ~origin:a ~server:(Wire.reply_server b)
          ~hops:(Wire.reply_hops b) ~issued_at:x ~at:(Engine.now sh.eng)
    | Wire.Push ->
        let sv = svid_of st me in
        if not (Packed_bits.get sh.holders sv) then begin
          Packed_bits.set sh.holders sv;
          sh.replicas_created <- sh.replicas_created + 1
        end
    | Wire.Ping | Wire.Pong | Wire.Other -> ()
  end

(* One Poisson arrival: issue the request, then draw the next gap — the
   same self-rescheduling chain as {!Des_sim.on_arrival}, per shard. A
   chain stops when its node dies and a rejoin does not restart it. *)
let on_arrival st (sh : shard) a _b =
  sh.digest <- mix (mix_time sh.digest (Engine.now sh.eng)) a;
  let origin = Pid.unsafe_of_int a in
  if Status_word.is_live st.status origin then begin
    issue_request st sh ~origin;
    let rate = Demand.rate st.demand origin in
    let t = Engine.now sh.eng +. Rng.exponential sh.rng ~rate in
    if t < st.duration then
      Engine.post_at sh.eng ~time:t ~h:sh.h_arrival ~a ~b:0 ~x:0.0
  end

(* Membership churn, run as sequential barrier globals. The status word
   is broadcast (Section 5: one control message per live node); a copy
   held by the departing node relocates to the subtree's insertion
   target on a graceful leave, is lost on a failure and re-fetched from
   a sibling subtree while one survives, and a joiner that becomes its
   subtree's insertion target takes the local copy over. *)
let account_churn (st : state) ~relocated =
  st.control_messages <-
    st.control_messages + Status_word.live_count st.status;
  st.file_transfers <- st.file_transfers + relocated

let highest_holder (sh : shard) =
  Packed_bits.fold_set sh.holders ~init:(-1) ~f:(fun _ sv -> sv)

let reinsert (st : state) ~subtree_id =
  match
    Topology.insertion_target ~b:(Params.b st.params) st.tree st.status
      ~subtree_id
  with
  | None -> 0
  | Some t ->
      let sh = st.shards.(subtree_id) in
      let sv = svid_of st t in
      if Packed_bits.get sh.holders sv then 0
      else begin
        Packed_bits.set sh.holders sv;
        1
      end

let churn_join (st : state) p =
  Status_word.set_live st.status p;
  let s = sid_of st p in
  let sh = st.shards.(s) in
  match
    Topology.insertion_target ~b:(Params.b st.params) st.tree st.status
      ~subtree_id:s
  with
  | Some t when Pid.equal t p && not (Packed_bits.get sh.holders (svid_of st p))
    -> (
      match highest_holder sh with
      | -1 -> 0
      | old_sv ->
          Packed_bits.clear sh.holders old_sv;
          Packed_bits.set sh.holders (svid_of st p);
          1)
  | _ -> 0

(* A leaver's copy relocates to the subtree's insertion target; a failed
   node's copy died with it and is recovered from a sibling subtree while
   any copy survives (Section 4's whole point). *)
let churn_depart (st : state) p ~failed =
  Status_word.set_dead st.status p;
  let s = sid_of st p in
  let sh = st.shards.(s) in
  let sv = svid_of st p in
  if Packed_bits.get sh.holders sv then begin
    Packed_bits.clear sh.holders sv;
    if failed && total_copies st = 0 then 0 else reinsert st ~subtree_id:s
  end
  else 0

let churn_globals (st : state) churn =
  List.stable_sort (fun a b -> Float.compare a.at b.at) churn
  |> List.map (fun { at; action } ->
         ( at,
           fun () ->
             let applies =
               match action with
               | Join p -> Status_word.is_dead st.status p
               | Leave p | Fail p -> Status_word.is_live st.status p
             in
             if applies then begin
               let relocated =
                 match action with
                 | Join p -> churn_join st p
                 | Leave p -> churn_depart st p ~failed:false
                 | Fail p -> churn_depart st p ~failed:true
               in
               account_churn st ~relocated
             end ))

(* A {!Faults.plan} lowered onto the same barrier-global machinery:
   crashes become [Fail]/[Join] churn, loss bursts become boundary
   globals that recompute the current drop probability. Partitions have
   no subtree-local interpretation here and are rejected. *)
let fault_churn (plan : Faults.plan) =
  List.concat_map
    (fun (c : Faults.crash) ->
      let fail = { at = c.Faults.at; action = Fail c.Faults.node } in
      match c.Faults.restart_at with
      | None -> [ fail ]
      | Some r -> [ fail; { at = r; action = Join c.Faults.node } ])
    plan.Faults.crashes

let burst_globals (st : state) (plan : Faults.plan) =
  let bounds =
    List.sort_uniq Float.compare
      (List.concat_map
         (fun (b : Faults.burst) -> [ b.Faults.from_; b.Faults.until ])
         plan.Faults.bursts)
  in
  List.map
    (fun t ->
      ( t,
        fun () ->
          st.loss <-
            List.fold_left
              (fun acc (b : Faults.burst) ->
                if b.Faults.from_ <= t && t < b.Faults.until then
                  Float.max acc b.Faults.loss
                else acc)
              st.config.loss plan.Faults.bursts ))
    bounds

let start_arrivals (st : state) =
  Array.iter
    (fun (sh : shard) ->
      (* Descending subtree VID — a fixed order so the first-gap draws
         from the shard stream are position-independent. *)
      for sv = Packed_bits.length sh.holders - 1 downto 0 do
        let p =
          Ptree.pid_of_vid st.tree
            (Subtrees.compose_vid st.params ~subtree_vid:sv ~subtree_id:sh.sid)
        in
        if Status_word.is_live st.status p then begin
          let rate = Demand.rate st.demand p in
          if rate > 0.0 then begin
            let t = Rng.exponential sh.rng ~rate in
            if t < st.duration then
              Engine.post_at sh.eng ~time:t ~h:sh.h_arrival
                ~a:(Pid.to_int p) ~b:0 ~x:0.0
          end
        end
      done)
    st.shards

let finalize_obs (st : state) (obs : Obs.t) ~latencies ~hops ~worker_times =
  Array.iter
    (fun (sh : shard) ->
      match sh.spans with
      | None -> ()
      | Some s -> Obs.Span.merge_into ~into:obs.Obs.spans s)
    st.shards;
  let r = obs.Obs.registry in
  let count name v = Obs.Registry.add (Obs.Registry.counter r name) v in
  count "pdes/requests"
    (Array.fold_left (fun a (sh : shard) -> a + sh.requests) 0 st.shards);
  count "pdes/served" (Array.fold_left (fun a (sh : shard) -> a + sh.served) 0 st.shards);
  count "pdes/faults" (Array.fold_left (fun a (sh : shard) -> a + sh.faults) 0 st.shards);
  count "pdes/migrations"
    (Array.fold_left (fun a (sh : shard) -> a + sh.migrations) 0 st.shards);
  count "pdes/replications"
    (Array.fold_left (fun a (sh : shard) -> a + sh.replicas_created) 0 st.shards);
  ignore (Obs.Registry.timer_backed r "pdes/latency_s" latencies);
  ignore (Obs.Registry.timer_backed r "pdes/hops" hops);
  (* Host wall time per worker: registry only, never in the digest. *)
  Array.iteri
    (fun w (wt : Sharded_engine.worker_time) ->
      let gauge field v =
        Obs.Registry.set
          (Obs.Registry.gauge r (Printf.sprintf "pdes/worker%d/%s" w field))
          v
      in
      gauge "drain_s" wt.drain_s;
      gauge "deliver_s" wt.deliver_s;
      gauge "barrier_spin_s" wt.barrier_spin_s;
      gauge "barrier_block_s" wt.barrier_block_s)
    worker_times

let run ?(config = default_config) ?(churn = []) ?(faults = Faults.empty) ?obs
    ?(domains = 1) ~seed ~params ~key ~demand ~duration () =
  if Params.m params > Wire.origin_bits then
    invalid_arg "Pdes_sim.run: m exceeds the packed origin field";
  if faults.Faults.partitions <> [] then
    invalid_arg "Pdes_sim.run: partitions are not supported";
  Overlay.check_loss ~who:"Pdes_sim.run" config.loss;
  List.iter
    (fun (b : Faults.burst) -> Overlay.check_loss ~who:"Pdes_sim.run" b.loss)
    faults.Faults.bursts;
  Latency.validate ~who:"Pdes_sim.run" config.latency;
  let nshards = Params.subtree_count params in
  let lmin = Latency.min config.latency in
  if nshards > 1 && not (lmin > 0.0) then
    invalid_arg "Pdes_sim.run: latency minimum must be positive (lookahead)";
  (* With a single subtree there is no cross-shard traffic, so the epoch
     width is free — take something comfortably coarse. *)
  let lookahead = if nshards = 1 then Float.max lmin 1.0 else lmin in
  let psi = Psi.create ~m:(Params.m params) in
  let tree = Ptree.make params ~root:(Pid.unsafe_of_int (Psi.target psi key)) in
  let status = Status_word.create params ~initially_live:true in
  let sspace = Params.subtree_space params in
  (* Every record a shard writes per event is built here, on the worker
     that will drain the shard (see {!Sharded_engine.create}). *)
  let se, shards =
    Sharded_engine.create ~domains ~shards:nshards ~lookahead
      ~init:(fun sid eng ->
        let spans =
          match obs with
          | None -> None
          | Some _ -> Some (Obs.Span.create_sink ())
        in
        {
          sid;
          eng;
          rng =
            Rng.create
              ~seed:
                (Fnv.hash63 (Printf.sprintf "%d|pdes|%d" seed sid)
                land 0x3FFFFFFF);
          holders = Packed_bits.create sspace;
          trigger =
            Protocol.Trigger.create ~capacity:config.capacity
              ~tau:config.detection_tau ~cooldown:config.cooldown sspace;
          latencies = Histogram.create ();
          hops_h = Histogram.create ();
          spans;
          sp_lookup =
            (match spans with
            | None -> 0
            | Some s -> Obs.Span.intern s "lookup");
          digest = 0;
          served = 0;
          faults = 0;
          migrations = 0;
          replicas_created = 0;
          messages = 0;
          requests = 0;
          h_msg = -1;
          h_arrival = -1;
        })
      ()
  in
  let st =
    {
      config;
      loss = config.loss;
      params;
      tree;
      status;
      demand;
      duration;
      se;
      shards;
      control_messages = 0;
      file_transfers = 0;
    }
  in
  Array.iter
    (fun (sh : shard) ->
      sh.h_msg <-
        Engine.register sh.eng (fun a b ->
            handle_msg st sh a b (Engine.x sh.eng));
      sh.h_arrival <- Engine.register sh.eng (on_arrival st sh))
    shards;
  (* ADVANCEDINSERTFILE: one copy per subtree (Section 4). *)
  List.iter
    (fun p -> Packed_bits.set shards.(sid_of st p).holders (svid_of st p))
    (Topology.insertion_targets ~b:(Params.b params) tree status);
  start_arrivals st;
  (* Both lists are time-sorted; concat + stable sort is a stable merge,
     so at equal times churn (user first, then crash-derived) precedes
     loss-boundary recomputes — a fixed, domain-count-free order. *)
  let globals =
    List.stable_sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (churn_globals st (churn @ fault_churn faults) @ burst_globals st faults)
  in
  Sharded_engine.run ~until:duration ~globals se;
  let worker_times = Sharded_engine.worker_times se in
  let latencies = Histogram.create () and hops = Histogram.create () in
  Array.iter
    (fun (sh : shard) ->
      Histogram.merge latencies ~from:sh.latencies;
      Histogram.merge hops ~from:sh.hops_h)
    shards;
  Option.iter (fun o -> finalize_obs st o ~latencies ~hops ~worker_times) obs;
  let sum f = Array.fold_left (fun a (sh : shard) -> a + f sh) 0 shards in
  {
    served = sum (fun sh -> sh.served);
    faults = sum (fun sh -> sh.faults);
    migrations = sum (fun sh -> sh.migrations);
    requests = sum (fun sh -> sh.requests);
    latencies;
    hops;
    replicas_created = sum (fun sh -> sh.replicas_created);
    replicas_end = total_copies st;
    messages = sum (fun sh -> sh.messages);
    control_messages = st.control_messages;
    file_transfers = st.file_transfers;
    events = Sharded_engine.events_executed se;
    epochs = Sharded_engine.epoch se;
    phases = Sharded_engine.phases se;
    cross_sends = Sharded_engine.cross_sends se;
    worker_times;
    digest =
      Array.fold_left (fun d (sh : shard) -> mix d sh.digest) 0x1505 shards;
  }
