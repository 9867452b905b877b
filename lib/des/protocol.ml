open Lesslog_id
module Overlay = Lesslog_net.Overlay
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Self_org = Lesslog.Self_org
module File_store = Lesslog_storage.File_store
module Access_counter = Lesslog_storage.Access_counter
module Trace = Lesslog_trace.Trace
module Obs = Lesslog_obs.Obs
module Substrate = Lesslog_substrate.Substrate

module Trigger = struct
  type t = {
    capacity : float;
    cooldown : float;
    estimators : Access_counter.Slots.t;
    cooldown_until : Float.Array.t;
  }

  let create ~capacity ~tau ~cooldown n =
    {
      capacity;
      cooldown;
      estimators = Access_counter.Slots.create ~tau ~now:0.0 n;
      cooldown_until = Float.Array.make n 0.0;
    }

  let[@inline] record t i ~now = Access_counter.Slots.record t.estimators i ~now
  let[@inline] rate t i ~now = Access_counter.Slots.rate t.estimators i ~now
  let[@inline] overloaded t i ~now = rate t i ~now > t.capacity

  let[@inline] due t i ~now =
    overloaded t i ~now && now >= Float.Array.get t.cooldown_until i

  let[@inline] arm t i ~now =
    Float.Array.set t.cooldown_until i (now +. t.cooldown)
end

type t = {
  rng : Lesslog_prng.Rng.t;
  cluster : Cluster.t;
  key : string;
  engine : Lesslog_sim.Engine.t;
  overlay : Overlay.t;
  trigger : Trigger.t;
  substrate : Substrate.t;
  holds : Pid.t -> bool;
  clock : unit -> float;
  sink : (Trace.Event.t -> unit) option;
  spans : Obs.Span.sink option;
  sp_replicate : int;
  mutable lost_keys : int;
}

let create ~rng ~cluster ~key ~engine ~overlay ~trigger ~substrate ~sink ~obs
    =
  let spans = Option.map (fun (o : Obs.t) -> o.Obs.spans) obs in
  let substrate =
    match substrate with
    | Some sub -> sub
    | None -> Lesslog.Substrate_native.of_cluster cluster
  in
  { rng; cluster; key; engine; overlay; trigger; substrate; sink; spans;
    holds = (fun p -> Cluster.holds cluster p ~key);
    clock = (fun () -> Lesslog_sim.Engine.now engine);
    lost_keys = 0;
    sp_replicate =
      Option.fold ~none:0 ~some:(fun s -> Obs.Span.intern s "replicate") spans }

let[@inline] now t = Lesslog_sim.Engine.now t.engine

(* Trace records are built inside the sink match: with no sink attached
   the request path allocates none. *)
let[@inline] emit_request t ~origin ~server ~hops =
  match t.sink with
  | None -> ()
  | Some f ->
      f
        (Trace.Event.Request
           { at = now t; origin;
             server = (if server < 0 then None else Some server); hops })

(* Membership and eviction records too: a churn event or an eviction
   tick with no sink builds no record and boxes no [at]. *)
let emit_membership t ~node ~change =
  match t.sink with
  | None -> ()
  | Some f -> f (Trace.Event.Membership { at = now t; node; change })

let emit_evict t ~node =
  match t.sink with
  | None -> ()
  | Some f -> f (Trace.Event.Evict { at = now t; node; key = t.key })

(* The [hops < hops_max] guard keeps a route from wrapping the packed hop
   field: a native route at b > 0 can be longer than the field holds
   ({!Lesslog_topology.Topology.route}'s hop budget), and a request that
   reaches it is a fault. *)
let[@inline] forward t ~me ~id ~origin ~hops ~issued_at =
  let next =
    t.substrate.Substrate.next_hop ~key:t.key ~origin:(Pid.to_int origin)
      (Pid.to_int me)
  in
  next >= 0 && hops < Wire.hops_max
  && begin
       Overlay.send_packed t.overlay ~src:me ~dst:(Pid.unsafe_of_int next)
         ~b:(Wire.get ~id ~origin:(Pid.to_int origin) ~hops:(hops + 1))
         ~x:issued_at;
       true
     end

let[@inline] record_serve t ~server =
  let now = now t in
  File_store.record_access (Cluster.store t.cluster server) ~key:t.key ~now;
  Trigger.record t.trigger (Pid.to_int server) ~now

(* The copy travels the network: it only becomes servable when the push
   arrives ({!apply_push}). *)
let maybe_replicate t ~overloaded =
  let i = Pid.to_int overloaded in
  if Trigger.due t.trigger i ~now:(now t) then
    match
      t.substrate.Substrate.replica_target ~rng:t.rng ~holds:t.holds
        ~overloaded ~key:t.key
    with
    | None -> ()
    | Some dest ->
        Trigger.arm t.trigger i ~now:(now t);
        let version =
          Option.value ~default:0
            (File_store.version (Cluster.store t.cluster overloaded) ~key:t.key)
        in
        Overlay.send_packed t.overlay ~src:overloaded ~dst:dest
          ~b:(Wire.push ~version) ~x:0.0

let apply_push t ~me ~src ~version =
  (not (Cluster.holds t.cluster me ~key:t.key))
  && begin
       Cluster.add t.cluster me ~key:t.key
         ~origin:File_store.Replicated ~version ~now:(now t);
       (match t.sink with
       | None -> ()
       | Some f ->
           f
             (Trace.Event.Replicate
                { at = now t; src = Pid.to_int src; dst = Pid.to_int me;
                  key = t.key }));
       (match t.spans with
       | None -> ()
       | Some spans ->
           Obs.Span.emit spans ~name:t.sp_replicate ~id:(Pid.to_int src)
             ~origin:(Pid.to_int src) ~at:(now t) ~dur:0.0
             ~server:(Pid.to_int me) ~hops:0 ~attempt:0);
       true
     end

(* --- Membership repair ---------------------------------------------- *)

let placement t =
  let sub = t.substrate in
  if sub.Substrate.membership = Substrate.Generic then Some sub else None

let repair t p ~change ~ledger =
  match placement t with
  | Some sub ->
      (* Keys whose only live copy dies with [p], counted before the
         registry re-creates them: Self_org's [fail_stats.lost]. *)
      if change = `Fail then
        List.iter
          (fun key ->
            match Cluster.holders t.cluster ~key with
            | [ q ] when Pid.equal q p -> t.lost_keys <- t.lost_keys + 1
            | _ -> ())
          (Cluster.registered_keys t.cluster);
      Ops.on_membership_via ~now:(now t)
        ?on_coded_repair:
          (Option.map (fun l ~key:_ -> Control_plane.repaired l) ledger)
        sub t.cluster
        ~event:
          (match change with
          | `Join -> `Join p
          | `Leave -> `Leave p
          | `Fail -> `Fail p)
  | None -> (
      (* Self_org reads the clock only for a copy it places: a change
         that places none boxes no time, and allocates nothing. *)
      let clock = t.clock in
      let relocated =
        match change with
        | `Join -> List.length (Self_org.join_clocked ~clock t.cluster p).took_over
        | `Leave ->
            List.length (Self_org.leave_clocked ~clock t.cluster p).reinserted
        | `Fail ->
            let s = Self_org.fail_clocked ~clock t.cluster p in
            t.lost_keys <- t.lost_keys + List.length s.lost;
            List.length s.recovered
      in
      match ledger with
      | Some (l : Control_plane.ledger) when l.coded ->
          (match Ops.repair_coded ~now:(now t) t.cluster ~key:t.key with
          | `Intact -> ()
          | `Repaired n -> Control_plane.repaired l ~rebuilt:n ~lost:false
          | `Lost -> Control_plane.repaired l ~rebuilt:0 ~lost:true);
          relocated
      | Some _ | None -> relocated)
