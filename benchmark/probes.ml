(* Layer probes for the traced run: each isolates one layer's public
   functions on the workload's own sizes and end state, so a per-layer
   number can be set beside the end-to-end one it should move. *)

module Engine = Lesslog_sim.Engine
module Topology = Lesslog_topology.Topology
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Self_org = Lesslog.Self_org
module Status_word = Lesslog_membership.Status_word
module Rng = Lesslog_prng.Rng
module Des_sim = Lesslog_des.Des_sim
module Churn_trace = Lesslog_des.Churn_trace

let key = Workload.key
let elapsed_ns t0 = Spans.now_ns () - t0

(* Exact nearest-rank quantile of a sample. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let a = Array.copy a in
    Array.sort Float.compare a;
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))
  end

let live_origins status rng n =
  Array.init n (fun _ ->
      match Status_word.random_live status rng with
      | Some p -> p
      | None -> failwith "benchmark: no live node")

(* The event core alone: one self-rescheduling message chain per live
   node, packed events, a pre-drawn delay stream. Returns (ns, words)
   per event. *)
let engine_hold ~rng ~chains ~events =
  let eng = Engine.create () in
  let delays = Array.init 65536 (fun _ -> Rng.exponential rng ~rate:1.0) in
  let di = ref 0 in
  let h = ref 0 in
  h :=
    Engine.register_handler eng (fun a b x ->
        di := (!di + 1) land 65535;
        Engine.post eng ~delay:(Array.unsafe_get delays !di) ~h:!h ~a ~b:(b + 1) ~x);
  for i = 0 to chains - 1 do
    Engine.post eng ~delay:delays.(i land 65535) ~h:!h ~a:i ~b:0 ~x:0.0
  done;
  let w0 = Gc.minor_words () and t0 = Spans.now_ns () in
  Engine.run ~max_events:events eng;
  let ns = elapsed_ns t0 and words = Gc.minor_words () -. w0 in
  let n = float_of_int (max 1 (Engine.events_executed eng)) in
  (float_of_int ns /. n, words /. n)

(* The topology router: complete resolution paths from seeded origins on
   the given cluster state, ns per path. *)
let route ~rng ~cluster ~n =
  let tree = Cluster.tree_of_key cluster key and status = Cluster.status cluster in
  let origins = live_origins status rng n in
  ignore (Topology.route_path tree status ~origin:origins.(0));
  let t0 = Spans.now_ns () in
  Array.iter (fun origin -> ignore (Topology.route_path tree status ~origin)) origins;
  float_of_int (elapsed_ns t0) /. float_of_int n

(* GETFILE from seeded origins, then REPLICATEFILE placement decisions at
   seeded holders: (get ns, get words, decision ns). *)
let ops ~rng ~cluster ~n =
  let status = Cluster.status cluster in
  let origins = live_origins status rng n in
  let w0 = Gc.minor_words () and t0 = Spans.now_ns () in
  Array.iter (fun origin -> ignore (Ops.get cluster ~origin ~key)) origins;
  let get_ns = elapsed_ns t0 and words = Gc.minor_words () -. w0 in
  let holders = Array.of_list (Cluster.holders cluster ~key) in
  let decisions = max 1 (n / 10) in
  let overloaded = Array.init decisions (fun _ -> Rng.pick rng holders) in
  let t0 = Spans.now_ns () in
  Array.iter
    (fun overloaded -> ignore (Ops.choose_replica_target ~rng cluster ~overloaded ~key))
    overloaded;
  let decide_ns = elapsed_ns t0 in
  ( float_of_int get_ns /. float_of_int n,
    words /. float_of_int n,
    float_of_int decide_ns /. float_of_int decisions )

type replay = {
  applied : int;  (** Membership events applied = router rebuilds. *)
  self_org_us : float array;
  rebuild_us : float array;
  transfers : int;  (** Files relocated by the Section 5 mechanism. *)
}

(* Section 5 self-organisation and the router it invalidates: replay up
   to [cap] membership events on a fresh cluster, timing each Self_org
   call and the Topology.router fetch that follows it. Events that do
   not apply (join of a live node, departure of a dead one) are skipped,
   as the simulators skip them. *)
let replay ~params ~events ~cap =
  let cluster, _ = Workload.fresh_cluster params in
  let tree = Cluster.tree_of_key cluster key and status = Cluster.status cluster in
  ignore (Topology.router tree status);
  let self_org = ref [] and rebuild = ref [] and transfers = ref 0 in
  List.iteri
    (fun i { Des_sim.action; _ } ->
      let apply =
        match action with
        | Des_sim.Join p when i < cap && Status_word.is_dead status p ->
            Some (fun () -> List.length (Self_org.join cluster p).Self_org.took_over)
        | Des_sim.Leave p when i < cap && Status_word.is_live status p ->
            Some (fun () -> List.length (Self_org.leave cluster p).Self_org.reinserted)
        | Des_sim.Fail p when i < cap && Status_word.is_live status p ->
            Some (fun () -> List.length (Self_org.fail cluster p).Self_org.recovered)
        | _ -> None
      in
      match apply with
      | None -> ()
      | Some f ->
          let t0 = Spans.now_ns () in
          transfers := !transfers + f ();
          let t1 = Spans.now_ns () in
          ignore (Topology.router tree status);
          let t2 = Spans.now_ns () in
          self_org := (float_of_int (t1 - t0) /. 1e3) :: !self_org;
          rebuild := (float_of_int (t2 - t1) /. 1e3) :: !rebuild)
    events;
  {
    applied = List.length !self_org;
    self_org_us = Array.of_list !self_org;
    rebuild_us = Array.of_list !rebuild;
    transfers = !transfers;
  }

(* Membership for a workload without any: a seeded session-churn trace
   over its population, so the probe still measures the same layer. *)
let synthetic_membership ~rng ~params ~horizon =
  let status = Status_word.create params ~initially_live:true in
  Churn_trace.generate ~rng ~live:(Status_word.live_pids status)
    { Churn_trace.default with duration = horizon }
