open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Packed_bits = Lesslog_bits.Packed_bits
module Bitops = Lesslog_bits.Bitops
module Ptree = Lesslog_ptree.Ptree
module Topology = Lesslog_topology.Topology
module Subtrees = Lesslog_topology.Subtrees
module Cluster = Lesslog.Cluster
module Self_org = Lesslog.Self_org
module Trace = Lesslog_trace.Trace
module Obs = Lesslog_obs.Obs
module Des_sim = Lesslog_des.Des_sim

exception Violation of { oracle : string; at : float; detail : string }

let violation ~oracle ~at detail = raise (Violation { oracle; at; detail })

type t = {
  cluster : Cluster.t;
  sim : Schedule.sim;
  mutable now : float;
  mutable last_epoch : int;
  mutable last_count : int;
  mutable last_bits : Packed_bits.t;
  mutable heavy_checks : int;
  mutable events_seen : int;
}

let create cluster ~sim =
  let status = Cluster.status cluster in
  {
    cluster;
    sim;
    now = 0.0;
    last_epoch = Status_word.epoch status;
    last_count = Status_word.live_count status;
    last_bits = Packed_bits.copy (Status_word.live_bits status);
    heavy_checks = 0;
    events_seen = 0;
  }

let heavy_checks t = t.heavy_checks
let events_seen t = t.events_seen

(* --- Cheap oracle: epoch monotonicity (every event) -------------------- *)

let check_epoch t =
  let status = Cluster.status t.cluster in
  let epoch = Status_word.epoch status in
  if epoch < t.last_epoch then
    violation ~oracle:"epoch-monotonic" ~at:t.now
      (Printf.sprintf "epoch went backwards: %d -> %d" t.last_epoch epoch);
  if epoch = t.last_epoch then begin
    if
      Status_word.live_count status <> t.last_count
      || not (Packed_bits.equal (Status_word.live_bits status) t.last_bits)
    then
      violation ~oracle:"epoch-stale" ~at:t.now
        (Printf.sprintf "membership changed but epoch stayed at %d" epoch)
  end
  else begin
    t.last_epoch <- epoch;
    t.last_count <- Status_word.live_count status;
    t.last_bits <- Packed_bits.copy (Status_word.live_bits status)
  end

(* --- Heavy oracles (membership changes + end of run) -------------------- *)

(* Deterministic PID sample: a stride over the space plus every dead
   node (dead sets are small here, and they are exactly where the
   bit-level and naive scans can disagree). With a [tree] and b > 0, the stride
   runs per subtree instead of over the flat PID space — a flat
   space/16 stride can land every sample in one subtree once 2^b
   divides it, leaving the per-subtree scans (insertion targets,
   alive-ancestor climbs) of the other subtrees unexercised. *)
let sample_pids ?tree status =
  let params = Status_word.params status in
  let space = Params.space params in
  let base =
    match tree with
    | Some tree when Params.b params > 0 ->
        let nsub = Params.subtree_count params in
        let per = max 2 (16 / nsub) in
        List.concat_map
          (fun sid ->
            let members = Subtrees.members tree ~subtree_id:sid in
            let stride = max 1 (List.length members / per) in
            List.filteri (fun i _ -> i mod stride = 0) members)
          (List.init nsub Fun.id)
    | _ ->
        let stride = max 1 (space / 16) in
        let acc = ref [] in
        let i = ref (space - 1) in
        while !i >= 0 do
          acc := Pid.unsafe_of_int !i :: !acc;
          i := !i - stride
        done;
        !acc
  in
  let dead = Status_word.dead_pids status in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  base @ take 32 dead

let pid_opt = function None -> "-" | Some p -> string_of_int (Pid.to_int p)

(* Every whole-tree query of [Topology] (b = 0) against the naive
   per-node scans of [Topology.Naive] on the sampled PIDs. *)
let check_topology t tree status samples =
  let fail query start expected got =
    violation ~oracle:"topology-naive" ~at:t.now
      (Printf.sprintf "%s(start=%d) topology=%s naive=%s (root=%d)" query
         (Pid.to_int start) got expected
         (Pid.to_int (Ptree.root tree)))
  in
  let check_pid_opt query start naive got =
    if naive <> got then fail query start (pid_opt naive) (pid_opt got)
  in
  let pids l =
    String.concat "," (List.map (fun p -> string_of_int (Pid.to_int p)) l)
  in
  check_pid_opt "insertion_target" (Ptree.root tree)
    (Topology.Naive.insertion_target tree status)
    (Topology.insertion_target ~b:0 tree status ~subtree_id:0);
  List.iteri
    (fun i p ->
      check_pid_opt "find_live_node" p
        (Topology.Naive.find_live_node tree status ~start:p)
        (Topology.find_live_node ~b:0 tree status ~start:p);
      check_pid_opt "first_alive_ancestor" p
        (Topology.Naive.first_alive_ancestor tree status p)
        (Topology.first_alive_ancestor ~b:0 tree status p);
      check_pid_opt "route_next" p
        (Topology.Naive.route_next tree status p)
        (Topology.route_next tree status p);
      let naive_children = Topology.Naive.children_list tree status p in
      let children = Topology.children_list ~b:0 tree status p in
      if not (List.equal Pid.equal naive_children children) then
        fail "children_list" p (pids naive_children) (pids children);
      let naive_greater =
        Topology.Naive.has_live_with_greater_vid tree status p
      in
      if naive_greater <> Topology.has_live_with_greater_vid ~b:0 tree status p
      then
        fail "has_live_with_greater_vid" p (string_of_bool naive_greater)
          (string_of_bool (not naive_greater));
      (* The offspring fold over every live node is the one genuinely
         expensive naive query; two samples per check keep trials fast. *)
      if i < 2 then begin
        let naive = Topology.Naive.live_offspring_count tree status p in
        let got = Topology.live_offspring_count ~b:0 tree status p in
        if naive <> got then
          fail "live_offspring_count" p (string_of_int naive)
            (string_of_int got)
      end)
    samples

let check_tree_properties t tree status samples =
  let params = Ptree.params tree in
  let m = Params.m params in
  let fail prop detail =
    violation ~oracle:"tree-properties" ~at:t.now
      (Printf.sprintf "%s: %s (root=%d)" prop detail
         (Pid.to_int (Ptree.root tree)))
  in
  let vid p = Vid.to_int (Ptree.vid_of_pid tree p) in
  List.iter
    (fun p ->
      (* P1/P4: the VID<->PID relabeling is an involution of the space. *)
      let v = Ptree.vid_of_pid tree p in
      if not (Pid.equal (Ptree.pid_of_vid tree v) p) then
        fail "vid-bijection"
          (Printf.sprintf "pid_of_vid(vid_of_pid %d) <> %d" (Pid.to_int p)
             (Pid.to_int p));
      (* P2: the parent sets the leftmost zero bit, so its VID is larger
         and the child count equals the number of leading one bits. *)
      (match Ptree.parent tree p with
      | None ->
          if not (Ptree.is_root tree p) then
            fail "parent" (Printf.sprintf "no parent for non-root %d" (Pid.to_int p))
      | Some q ->
          if vid q <= vid p then
            fail "parent-vid"
              (Printf.sprintf "vid(parent %d)=%d <= vid(%d)=%d" (Pid.to_int q)
                 (vid q) (Pid.to_int p) (vid p));
          if not (List.exists (Pid.equal p) (Ptree.children tree q)) then
            fail "parent-child" (Printf.sprintf "%d not a child of its parent" (Pid.to_int p)));
      (* P3: offspring count is 2^(leading ones) - 1, monotone in VID. *)
      let expected = (1 lsl Bitops.leading_ones ~width:m (vid p)) - 1 in
      if Ptree.offspring_count tree p <> expected then
        fail "offspring-count"
          (Printf.sprintf "offspring(%d) = %d, expected %d" (Pid.to_int p)
             (Ptree.offspring_count tree p) expected);
      (* Advanced-model children list: live only, strictly descending VID. *)
      let cl = Topology.Naive.children_list tree status p in
      List.iter
        (fun c ->
          if not (Status_word.is_live status c) then
            fail "children-live"
              (Printf.sprintf "dead node %d in children_list(%d)" (Pid.to_int c)
                 (Pid.to_int p)))
        cl;
      let rec descending = function
        | a :: (b :: _ as tl) -> vid a > vid b && descending tl
        | _ -> true
      in
      if not (descending cl) then
        fail "children-order"
          (Printf.sprintf "children_list(%d) not in descending VID order"
             (Pid.to_int p)))
    samples;
  (* Routing: from any live origin the path stays live, is bounded, and
     ends at the insertion target (the live node with the most offspring). *)
  let target = Topology.Naive.insertion_target tree status in
  List.iter
    (fun p ->
      if Status_word.is_live status p then begin
        let path = Topology.Naive.route_path tree status ~origin:p in
        if List.length path > m + 2 then
          fail "route-bounded"
            (Printf.sprintf "route from %d has %d hops (> m+2)" (Pid.to_int p)
               (List.length path));
        List.iter
          (fun q ->
            if not (Status_word.is_live status q) then
              fail "route-live"
                (Printf.sprintf "route from %d passes dead node %d"
                   (Pid.to_int p) (Pid.to_int q)))
          path;
        match (List.rev path, target) with
        | last :: _, Some g when not (Pid.equal last g) ->
            fail "route-terminus"
              (Printf.sprintf "route from %d ends at %d, insertion target is %d"
                 (Pid.to_int p) (Pid.to_int last) (Pid.to_int g))
        | _ -> ()
      end)
    samples

(* Replica availability (Des mode only: in Fault_sim the status word lags
   ground truth by design, so store/status relations are transient).
   Failures may legitimately lose or orphan keys (b = 0), so a reported
   integrity violation is only a bug when an inserted copy still exists
   somewhere; reachability is only demanded of keys whose inserted copy
   is in place. *)
let check_availability t status samples =
  let cluster = t.cluster in
  let violations = Self_org.integrity_violations cluster in
  List.iter
    (fun (key, target) ->
      let inserted =
        Cluster.total_copies cluster ~key - Cluster.replica_count cluster ~key
      in
      if inserted > 0 then
        violation ~oracle:"replica-availability" ~at:t.now
          (Printf.sprintf
             "key %S has %d inserted cop%s but none at expected target %d" key
             inserted
             (if inserted = 1 then "y" else "ies")
             (Pid.to_int target)))
    violations;
  List.iter
    (fun key ->
      if not (List.exists (fun (k, _) -> k = key) violations) then begin
        let tree = Cluster.tree_of_key cluster key in
        List.iter
          (fun p ->
            if Status_word.is_live status p then begin
              let path = Topology.Naive.route_path tree status ~origin:p in
              if not (List.exists (fun q -> Cluster.holds cluster q ~key) path)
              then
                violation ~oracle:"replica-availability" ~at:t.now
                  (Printf.sprintf
                     "live node %d cannot reach a copy of %S (path %s)"
                     (Pid.to_int p) key
                     (String.concat "->" (List.map (fun p -> string_of_int (Pid.to_int p)) path)))
            end)
          samples
      end)
    (Cluster.registered_keys cluster)

let heavy_check t =
  t.heavy_checks <- t.heavy_checks + 1;
  let status = Cluster.status t.cluster in
  List.iter
    (fun key ->
      let tree = Cluster.tree_of_key t.cluster key in
      let samples = sample_pids ~tree status in
      check_topology t tree status samples;
      check_tree_properties t tree status samples)
    (Cluster.registered_keys t.cluster);
  match t.sim with
  | Schedule.Des -> check_availability t status (sample_pids status)
  | Schedule.Faults -> ()

(* --- Event hook --------------------------------------------------------- *)

let on_event t event =
  t.events_seen <- t.events_seen + 1;
  t.now <- Trace.Event.time event;
  check_epoch t;
  match event with
  | Trace.Event.Membership _ | Trace.Event.Suspect _ | Trace.Event.Trust _ ->
      (* The simulators emit membership/verdict events around status-word
         mutations, so these are the only points where the heavy state
         checks can catch something new. *)
      heavy_check t
  | _ -> ()

(* --- End of run --------------------------------------------------------- *)

(* Span accounting: a lookup span is emitted when the request *resolves
   at its origin* (fault detected, local serve, or reply arrival), while
   [served] is tallied at the server when the reply is sent — so replies
   still in flight at engine stop are served-but-spanless. The exact
   identities are therefore: faults and replicate spans are instant
   (counted the moment they are tallied), served lookup spans equal the
   latency histogram's population (both are recorded at reply arrival),
   and the total is bounded by the tallies. The per-name counts read the
   ring, so the ring must have kept every span recorded. *)
let check_spans t ~(obs : Obs.t) ~(result : Des_sim.result) =
  let s = obs.Obs.spans in
  let fail detail = violation ~oracle:"span-consistency" ~at:t.now detail in
  if Obs.Span.retained s <> Obs.Span.completed s then
    fail
      (Printf.sprintf "retained %d <> completed %d: the ring overwrote spans"
         (Obs.Span.retained s) (Obs.Span.completed s));
  let upper =
    result.Des_sim.served + result.Des_sim.faults
    + result.Des_sim.replicas_created
  in
  let lower = result.Des_sim.faults + result.Des_sim.replicas_created in
  if Obs.Span.completed s > upper then
    fail
      (Printf.sprintf "completed %d spans > served+faults+replicas = %d"
         (Obs.Span.completed s) upper);
  if Obs.Span.completed s < lower then
    fail
      (Printf.sprintf "completed %d spans < faults+replicas = %d"
         (Obs.Span.completed s) lower);
  let lookup_served = ref 0 and lookup_faults = ref 0 and replicates = ref 0 in
  Obs.Span.iter s (fun e ->
      (match e with
      | Trace.Event.Span { dur; _ } when dur < 0.0 ->
          fail (Printf.sprintf "negative span duration: %s" (Trace.Event.to_line e))
      | Trace.Event.Span { name = "lookup"; server = Some _; _ } ->
          incr lookup_served
      | Trace.Event.Span { name = "lookup"; server = None; _ } ->
          incr lookup_faults
      | Trace.Event.Span { name = "replicate"; _ } -> incr replicates
      | Trace.Event.Span { name; _ } ->
          fail (Printf.sprintf "unexpected span name %S" name)
      | e -> fail (Printf.sprintf "non-span event exported: %s" (Trace.Event.to_line e)));
      match Trace.Event.of_line (Trace.Event.to_line e) with
      | Ok e' when Trace.Event.equal e e' -> ()
      | Ok _ ->
          fail (Printf.sprintf "span did not round-trip: %s" (Trace.Event.to_line e))
      | Error msg -> fail (Printf.sprintf "span line does not parse: %s" msg));
  if !replicates <> result.Des_sim.replicas_created then
    fail
      (Printf.sprintf "%d replicate spans, %d replicas created" !replicates
         result.Des_sim.replicas_created);
  if !lookup_faults <> result.Des_sim.faults then
    fail
      (Printf.sprintf "%d fault spans, %d faults tallied" !lookup_faults
         result.Des_sim.faults);
  let latency_population =
    Lesslog_metrics.Histogram.count result.Des_sim.latencies
  in
  if !lookup_served <> latency_population then
    fail
      (Printf.sprintf
         "%d served lookup spans, latency histogram holds %d samples"
         !lookup_served latency_population)

let at_end ?obs ?result t ~now =
  t.now <- now;
  check_epoch t;
  heavy_check t;
  match (t.sim, obs, result) with
  | Schedule.Des, Some obs, Some result -> check_spans t ~obs ~result
  | _ -> ()
