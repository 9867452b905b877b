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
module Ptree = Lesslog_ptree.Ptree
module Demand = Lesslog_workload.Demand
module Histogram = Lesslog_metrics.Histogram
module Packed_bits = Lesslog_bits.Packed_bits
module Rng = Lesslog_prng.Rng
module Faults = Lesslog_workload.Faults
module Psi = Lesslog_hash.Psi
module Fnv = Lesslog_hash.Fnv
module Obs = Lesslog_obs.Obs
module Rf_policy = Lesslog_policy.Rf_policy

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
  frags : Packed_bits.t;
      (* subtree-VID indexed fragment holders of the cold tier — each
         node carries at most one (distinct) fragment, so the bit count
         is the shard's live-fragment count; mutated only at barriers *)
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
  (* Dynamic-RF policy tallies for the current analysis interval, owned
     by the shard: request count and the accessing-origin bitset over
     this subtree's VID slots. Subtrees partition the PID space, so
     summing the per-shard distinct counts at the barrier is exact. *)
  p_seen : Packed_bits.t;
  mutable p_ac : int;
  mutable p_dnc : int;
  mutable c_serves : int;  (* requests served by fragment gather+decode *)
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
  plane : Control_plane.t option;
      (* [Some] = the log-driven dynamic-RF competitor (and, with a
         ledger, the cold tier) runs in sequential barrier globals
         (interval close, tier transitions, holder-bit reconciliation, no
         RNG); shard handlers only read the ledger's [coded]/[servable]
         flags, frozen during an epoch, so the digest stays bit-identical
         at any domain count. [None] keeps the golden-digest default path
         untouched. *)
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
  digest : int;
  cold : Control_plane.cold_stats option;
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
      Obs.Span.emit_int spans ~name:sh.sp_lookup ~id ~origin ~at:issued_at
        ~dur:(at -. issued_at) ~server ~hops ~attempt:0

(* Overload replication: every candidate is in the overloaded node's
   subtree, so the chosen target is always on its own shard. *)
let maybe_replicate st (sh : shard) ~overloaded =
  let sv = svid_of st overloaded in
  let now = Engine.now sh.eng in
  if Protocol.Trigger.due sh.trigger sv ~now then
    match
      Lesslog.Ops.choose_in_subtree ~rng:sh.rng ~holds:(holds st) st.tree
        st.status ~overloaded
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
  (* With the dynamic-RF policy active the barrier global owns replica
     management; the native overload trigger stays off. *)
  match st.plane with
  | None -> maybe_replicate st sh ~overloaded:server
  | Some _ -> ()

(* A request that cannot be served or routed: a reported fault. *)
let fault (sh : shard) ~id ~origin ~hops ~issued_at =
  sh.faults <- sh.faults + 1;
  obs_resolved sh ~id ~origin:(Pid.to_int origin) ~server:(-1) ~hops
    ~issued_at ~at:(Engine.now sh.eng)

(* A GET that dead-ends in its subtree migrates to the sibling subtree
   by rewriting the VID's identifier bits (Section 4). It lands on the
   rewritten slot when that is alive, else on the nearest live stand-in
   of the sibling subtree. Returns the landing PID, or [-1] when there
   is none (or no sibling). *)
let migrate st (sh : shard) ~me =
  let n = Array.length st.shards in
  if n = 1 then -1
  else begin
    let to_subtree = (sh.sid + 1) mod n in
    let landing =
      Ptree.pid_of_vid st.tree
        (Subtrees.migrate_vid st.params (Ptree.vid_of_pid st.tree me)
           ~to_subtree)
    in
    let landing =
      if Status_word.is_live st.status landing then Some landing
      else
        match
          Subtrees.first_alive_ancestor_in_subtree st.tree st.status landing
        with
        | Some _ as a -> a
        | None ->
            Subtrees.insertion_target_in_subtree st.tree st.status
              ~subtree_id:to_subtree
    in
    match landing with
    | None -> -1
    | Some next ->
        sh.migrations <- sh.migrations + 1;
        Pid.to_int next
  end

(* Forward one GET from [me] within its subtree, or migrate it when the
   subtree dead-ends. Each hop burns the packed hop budget, so a request
   circling through dead subtrees faults instead of looping. *)
let[@inline] route_get_replicated st (sh : shard) ~me ~id ~origin ~hops
    ~issued_at =
  if hops >= Wire.hops_max then fault sh ~id ~origin ~hops ~issued_at
  else begin
    let next =
      match
        Subtrees.route_next_in_subtree st.tree st.status (Pid.to_int me)
      with
      | -1 -> migrate st sh ~me
      | q -> q
    in
    if next < 0 then fault sh ~id ~origin ~hops ~issued_at
    else
      send_msg st sh ~dst:(Pid.unsafe_of_int next)
        ~b:(Wire.get ~id ~origin:(Pid.to_int origin) ~hops:(hops + 1))
        ~x:issued_at
  end

(* Route one GET standing at [me]: serve, serve from fragments, or
   forward ({!route_get_replicated}). *)
let[@inline] route_get st (sh : shard) ~me ~id ~origin ~hops ~issued_at =
  if holds st me then serve st sh ~server:me ~id ~origin ~issued_at ~hops
  else begin
    match st.plane with
    | Some { Control_plane.ledger = Some l; _ }
      when l.coded && Packed_bits.get sh.frags (svid_of st me) ->
        (* A fragment holder: gather [k] fragments and decode when
           enough survive (the fan-in is byte accounting, not simulated
           messages), a reported fault below [k] — no panic. *)
        if l.servable then begin
          sh.c_serves <- sh.c_serves + 1;
          serve st sh ~server:me ~id ~origin ~issued_at ~hops
        end
        else fault sh ~id ~origin ~hops ~issued_at
    | _ -> route_get_replicated st sh ~me ~id ~origin ~hops ~issued_at
  end

let issue_request st (sh : shard) ~origin =
  let id = ((sh.requests * Array.length st.shards) + sh.sid) land Wire.id_mask in
  sh.requests <- sh.requests + 1;
  (* Policy access log: tally on the origin's own shard — arrivals run
     on it, so this touches no cross-shard state. *)
  (match st.plane with
  | None -> ()
  | Some _ ->
      sh.p_ac <- sh.p_ac + 1;
      let sv = svid_of st origin in
      if not (Packed_bits.get sh.p_seen sv) then begin
        Packed_bits.set sh.p_seen sv;
        sh.p_dnc <- sh.p_dnc + 1
      end);
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
    Subtrees.insertion_target_in_subtree st.tree st.status ~subtree_id
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

(* Erasure-coded cold tier, barrier-global half. Fragments are one more
   per-shard bitset over the subtree-VID slots; each node carries at
   most one (distinct) fragment, so the global live-fragment count is
   the sum of bit counts and {!Lesslog.Ops.repair_coded} reduces to
   re-seating the missing difference — no per-index bookkeeping. *)

let frag_total (st : state) =
  Array.fold_left (fun a (sh : shard) -> a + Packed_bits.count sh.frags) 0
    st.shards

let cold (st : state) =
  match st.plane with
  | Some { Control_plane.ledger = Some l; _ } -> Some l
  | Some _ | None -> None

(* Stored bytes, reported at every barrier global and at [duration] —
   copies created between barriers count from the next barrier on. *)
let sample_bytes (st : state) ~t l =
  Control_plane.sample l ~t ~copies:(total_copies st) ~fragments:(frag_total st)

(* Seat one fragment in [sh]: the subtree's insertion target when free —
   so in-subtree request climbs terminate on a fragment holder — else
   the first live member without one. *)
let place_fragment_in st (sh : shard) =
  let free q =
    Status_word.is_live st.status q
    && not (Packed_bits.get sh.frags (svid_of st q))
  in
  let target =
    match
      Subtrees.insertion_target_in_subtree st.tree st.status
        ~subtree_id:sh.sid
    with
    | Some t when free t -> Some t
    | Some _ | None ->
        List.find_opt free (Subtrees.members st.tree ~subtree_id:sh.sid)
  in
  match target with
  | None -> false
  | Some q ->
      Packed_bits.set sh.frags (svid_of st q);
      true

let place_fragment st ~preferred =
  let n = Array.length st.shards in
  let rec go i =
    i < n && (place_fragment_in st st.shards.((preferred + i) mod n) || go (i + 1))
  in
  go 0

(* Re-seat every fragment lost to churn while [>= k] survive; below [k]
   the payload is unrecoverable — flag it, keep the survivors, and stop
   serving (requests meeting a fragment holder degrade to faults). *)
let cold_churn_repair (st : state) =
  match cold st with
  | Some l when l.coded ->
      let k = l.tier.code_k in
      let total = frag_total st in
      if total < k then Control_plane.repaired l ~rebuilt:0 ~lost:true
      else begin
        let rebuilt = ref 0 in
        for i = 0 to k + l.tier.code_r - total - 1 do
          if place_fragment st ~preferred:(i mod Array.length st.shards) then
            incr rebuilt
        done;
        Control_plane.repaired l ~rebuilt:!rebuilt ~lost:false
      end;
      Control_plane.fragments_live l (frag_total st)
  | Some _ | None -> ()

let churn_join (st : state) p =
  Status_word.set_live st.status p;
  let s = sid_of st p in
  let sh = st.shards.(s) in
  match Subtrees.insertion_target_in_subtree st.tree st.status ~subtree_id:s with
  | Some t when Pid.equal t p && not (Packed_bits.get sh.holders (svid_of st p))
    -> (
      match highest_holder sh with
      | -1 -> 0
      | old_sv ->
          Packed_bits.clear sh.holders old_sv;
          Packed_bits.set sh.holders (svid_of st p);
          1)
  | _ -> 0

(* A departure drops the node's fragment (fragments are rebuilt, never
   handed off — same contract as {!Lesslog.Self_org}). A leaver's copy
   relocates to the subtree's insertion target; a failed node's copy
   died with it and is recovered from a sibling subtree while any copy
   survives (Section 4's whole point). *)
let churn_depart (st : state) p ~failed =
  Status_word.set_dead st.status p;
  let s = sid_of st p in
  let sh = st.shards.(s) in
  let sv = svid_of st p in
  Packed_bits.clear sh.frags sv;
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
               account_churn st ~relocated;
               cold_churn_repair st
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

(* Reconcile the holder bitsets with the policy's replica factor, run
   inside a barrier global: deficits fill round-robin across shards
   (first live non-holder member per shard per round — the spread
   ADVANCEDINSERTFILE would pick), surpluses shed the highest holder
   VID per shard in reverse shard order, draining multi-holder shards
   before emptying a subtree. Entirely deterministic and RNG-free, so
   the event stream downstream of the barrier is bit-identical at any
   domain count. *)
let policy_enforce (st : state) p =
  let rf = Rf_policy.rf p ~file:0 in
  let copies = total_copies st in
  if copies < rf then begin
    let deficit = ref (rf - copies) and progress = ref true in
    while !deficit > 0 && !progress do
      progress := false;
      Array.iter
        (fun (sh : shard) ->
          if !deficit > 0 then
            match
              List.find_opt
                (fun q ->
                  Status_word.is_live st.status q
                  && not (Packed_bits.get sh.holders (svid_of st q)))
                (Subtrees.members st.tree ~subtree_id:sh.sid)
            with
            | None -> ()
            | Some q ->
                Packed_bits.set sh.holders (svid_of st q);
                sh.replicas_created <- sh.replicas_created + 1;
                decr deficit;
                progress := true)
        st.shards
    done
  end
  else if copies > rf then begin
    let surplus = ref (copies - rf) and progress = ref true in
    while !surplus > 0 && !progress do
      progress := false;
      (* First pass per round: only shards keeping another copy. *)
      for i = Array.length st.shards - 1 downto 0 do
        let sh = st.shards.(i) in
        if !surplus > 0 && Packed_bits.count sh.holders > 1 then begin
          Packed_bits.clear sh.holders (highest_holder sh);
          decr surplus;
          progress := true
        end
      done;
      if !surplus > 0 && not !progress then
        for i = Array.length st.shards - 1 downto 0 do
          let sh = st.shards.(i) in
          if !surplus > 0 && Packed_bits.count sh.holders = 1 then begin
            Packed_bits.clear sh.holders (highest_holder sh);
            decr surplus;
            progress := true
          end
        done
    done
  end

(* The control plane's tier transitions, placed on the shard bitsets:
   a demotion seats [k + r] fragments one per shard round-robin,
   preferring insertion targets, and drops the full copies; a promotion
   drops the fragments and hands the copy count to the RF enforcer,
   whose fills count as [replicas_created] like any other. *)
let demote (st : state) (tier : Control_plane.cold_tier) =
  let n = tier.code_k + tier.code_r in
  if Status_word.live_count st.status < n then None
  else begin
    let seated = ref true in
    for idx = 0 to n - 1 do
      if !seated then
        seated := place_fragment st ~preferred:(idx mod Array.length st.shards)
    done;
    Array.iter
      (fun (sh : shard) ->
        (* Could not seat every fragment: abort, keep the full copies. *)
        Packed_bits.clear_all (if !seated then sh.holders else sh.frags))
      st.shards;
    if !seated then Some n else None
  end

let promote (st : state) p ~copies:_ =
  match cold st with
  | Some l when frag_total st >= l.tier.code_k ->
      Array.iter (fun (sh : shard) -> Packed_bits.clear_all sh.frags) st.shards;
      policy_enforce st p;
      if total_copies st = 0 then
        (* RF floor safety: never promote into zero copies. *)
        if reinsert st ~subtree_id:0 = 1 then
          st.shards.(0).replicas_created <- st.shards.(0).replicas_created + 1;
      Some 0
  | Some _ | None -> None

(* The policy's analysis intervals, lowered onto the barrier-global
   machinery: at each boundary, merge every shard's access tallies into
   the policy (shard order — deterministic), then run the control
   plane's tick. *)
let policy_globals (st : state) =
  match st.plane with
  | None -> []
  | Some pl ->
      let p = pl.Control_plane.policy in
      List.map
        (fun t ->
          ( t,
            fun () ->
              Array.iter
                (fun (sh : shard) ->
                  Rf_policy.note p ~file:0 ~ac:sh.p_ac ~dnc:sh.p_dnc;
                  sh.p_ac <- 0;
                  sh.p_dnc <- 0;
                  Packed_bits.clear_all sh.p_seen)
                st.shards;
              Control_plane.tick pl ~demote:(demote st) ~promote:(promote st p)
                ~enforce:(fun () -> policy_enforce st p) ))
        (Control_plane.ticks pl ~duration:st.duration)

let start_arrivals (st : state) =
  Array.iter
    (fun (sh : shard) ->
      (* Descending subtree VID — a fixed order so the first-gap draws
         from the shard stream are position-independent. *)
      List.iter
        (fun p ->
          if Status_word.is_live st.status p then begin
            let rate = Demand.rate st.demand p in
            if rate > 0.0 then begin
              let t = Rng.exponential sh.rng ~rate in
              if t < st.duration then
                Engine.post_at sh.eng ~time:t ~h:sh.h_arrival
                  ~a:(Pid.to_int p) ~b:0 ~x:0.0
            end
          end)
        (Subtrees.members st.tree ~subtree_id:sh.sid))
    st.shards

let finalize_obs (st : state) (obs : Obs.t) ~latencies ~hops =
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
  ignore (Obs.Registry.timer_backed r "pdes/hops" hops)

let run ?(config = default_config) ?(churn = []) ?(faults = Faults.empty) ?obs
    ?policy ?cold_tier ?(domains = 1) ?(fuse = true) ~seed ~params ~key ~demand
    ~duration () =
  if Params.m params > Wire.origin_bits then
    invalid_arg "Pdes_sim.run: m exceeds the packed origin field";
  let plane =
    Control_plane.create ~who:"Pdes_sim.run" ~nodes:(Params.space params)
      policy cold_tier
  in
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
  let se = Sharded_engine.create ~shards:nshards ~lookahead () in
  let psi = Psi.create ~m:(Params.m params) in
  let tree = Ptree.make params ~root:(Pid.unsafe_of_int (Psi.target psi key)) in
  let status = Status_word.create params ~initially_live:true in
  let sspace = Params.subtree_space params in
  let shards =
    Array.init nshards (fun sid ->
        let spans =
          match obs with
          | None -> None
          | Some _ -> Some (Obs.Span.create_sink ())
        in
        {
          sid;
          eng = Sharded_engine.engine se sid;
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
          p_seen = Packed_bits.create sspace;
          p_ac = 0;
          p_dnc = 0;
          frags = Packed_bits.create sspace;
          c_serves = 0;
        })
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
      plane;
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
    (Subtrees.insertion_targets tree status);
  (match cold st with Some l -> sample_bytes st ~t:0.0 l | None -> ());
  start_arrivals st;
  (* All lists are time-sorted; concat + stable sort is a stable merge,
     so at equal times churn (user first, then crash-derived) precedes
     loss-boundary recomputes, which precede policy-interval closes — a
     fixed, domain-count-free order. *)
  let globals =
    List.stable_sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (churn_globals st (churn @ fault_churn faults)
      @ burst_globals st faults @ policy_globals st)
  in
  (* Sample the byte step-integral at every barrier — the only points
     where stored bytes change outside the shard-local PUSH path. *)
  let globals =
    match cold st with
    | None -> globals
    | Some l ->
        List.map
          (fun (t, f) ->
            ( t,
              fun () ->
                f ();
                sample_bytes st ~t l ))
          globals
  in
  Sharded_engine.run ~until:duration ~globals ~domains ~fuse se;
  (match cold st with Some l -> sample_bytes st ~t:duration l | None -> ());
  let latencies = Histogram.create () and hops = Histogram.create () in
  Array.iter
    (fun (sh : shard) ->
      Histogram.merge latencies ~from:sh.latencies;
      Histogram.merge hops ~from:sh.hops_h)
    shards;
  Option.iter (fun o -> finalize_obs st o ~latencies ~hops) obs;
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
    digest =
      Array.fold_left (fun d (sh : shard) -> mix d sh.digest) 0x1505 shards;
    cold =
      Option.map
        (fun l ->
          Control_plane.stats l
            ~copies_moved:(sum (fun sh -> sh.replicas_created))
            ~relocated:st.file_transfers
            ~coded_serves:(sum (fun sh -> sh.c_serves))
            ~duration)
        (cold st);
  }
