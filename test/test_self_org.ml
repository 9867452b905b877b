open Lesslog_id
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Self_org = Lesslog.Self_org
module Status_word = Lesslog_membership.Status_word
module File_store = Lesslog_storage.File_store
module Rng = Lesslog_prng.Rng

let pid = Pid.unsafe_of_int

let key_targeting cluster target =
  let rec search i =
    if i > 100_000 then failwith "no key found"
    else
      let key = Printf.sprintf "synthetic-%d" i in
      if Pid.equal (Cluster.target_of_key cluster key) target then key
      else search (i + 1)
  in
  search 0

let took_over stats =
  List.map (fun (k, p) -> (k, Pid.to_int p)) stats.Self_org.took_over

(* --- The paper's join example (Section 5.1) --------------------------- *)

let test_join_takes_over_example () =
  (* 14-node system, P(4) and P(5) dead, f targets P(4): stored at P(6).
     P(5) joins: in the tree of P(4), VID(P(5)) = 1110 > VID(P(6)) = 1101,
     so f must move to P(5). *)
  let params = Params.create ~m:4 () in
  let cluster = Cluster.create params in
  Status_word.set_dead (Cluster.status cluster) (pid 4);
  Status_word.set_dead (Cluster.status cluster) (pid 5);
  let key = key_targeting cluster (pid 4) in
  Alcotest.(check (list int)) "initially at P(6)" [ 6 ]
    (List.map Pid.to_int (Ops.insert cluster ~key));
  let stats = Self_org.join cluster (pid 5) in
  Alcotest.(check (list (pair string int))) "took over from P(6)"
    [ (key, 6) ] (took_over stats);
  Alcotest.(check bool) "P(5) now inserted holder" true
    (File_store.origin (Cluster.store cluster (pid 5)) ~key
    = Some File_store.Inserted);
  Alcotest.(check bool) "P(6) demoted" true
    (File_store.origin (Cluster.store cluster (pid 6)) ~key
    = Some File_store.Replicated);
  Alcotest.(check int) "integrity restored" 0
    (List.length (Self_org.integrity_violations cluster))

let test_join_root_reclaims () =
  let params = Params.create ~m:4 () in
  let cluster = Cluster.create params in
  Status_word.set_dead (Cluster.status cluster) (pid 4);
  Status_word.set_dead (Cluster.status cluster) (pid 5);
  let key = key_targeting cluster (pid 4) in
  ignore (Ops.insert cluster ~key);
  let stats = Self_org.join cluster (pid 4) in
  Alcotest.(check (list (pair string int))) "reclaimed" [ (key, 6) ]
    (took_over stats);
  let r = Ops.get cluster ~origin:(pid 9) ~key in
  Alcotest.(check (option int)) "served at root" (Some 4)
    (Option.map Pid.to_int r.Ops.server)

let test_join_irrelevant_node () =
  let params = Params.create ~m:4 () in
  let cluster = Cluster.create params in
  Status_word.set_dead (Cluster.status cluster) (pid 9);
  let key = key_targeting cluster (pid 4) in
  ignore (Ops.insert cluster ~key);
  let stats = Self_org.join cluster (pid 9) in
  Alcotest.(check int) "nothing copied" 0 (List.length stats.Self_org.took_over)

let test_join_already_live_rejected () =
  let cluster = Cluster.create (Params.create ~m:3 ()) in
  Alcotest.check_raises "already live"
    (Invalid_argument "Self_org.join: already live") (fun () ->
      ignore (Self_org.join cluster (pid 2)))

(* --- Leave (Section 5.2) ---------------------------------------------- *)

let test_leave_reinserts_and_drops () =
  let params = Params.create ~m:4 () in
  let cluster = Cluster.create params in
  let key = key_targeting cluster (pid 4) in
  ignore (Ops.insert cluster ~key);
  (* Plant a replica of another file on the leaver. *)
  let other = key_targeting cluster (pid 9) in
  ignore (Ops.insert cluster ~key:other);
  Cluster.add cluster (pid 4) ~key:other
    ~origin:File_store.Replicated ~version:0 ~now:0.0;
  let stats = Self_org.leave cluster (pid 4) in
  Alcotest.(check (list string)) "replica discarded" [ other ]
    stats.Self_org.dropped_replicas;
  (* Inserted file re-homed at the new FINDLIVENODE target: with P(4)
     dead, the max-VID live node in the tree of P(4) is P(5). *)
  Alcotest.(check (list (pair string int))) "reinserted at P(5)"
    [ (key, 5) ]
    (List.map (fun (k, p) -> (k, Pid.to_int p)) stats.Self_org.reinserted);
  Alcotest.(check bool) "leaver dead" true
    (Status_word.is_dead (Cluster.status cluster) (pid 4));
  Alcotest.(check int) "integrity kept" 0
    (List.length (Self_org.integrity_violations cluster));
  (* Requests still resolve. *)
  let r = Ops.get cluster ~origin:(pid 9) ~key in
  Alcotest.(check (option int)) "served at P(5)" (Some 5)
    (Option.map Pid.to_int r.Ops.server)

let test_leave_already_dead_rejected () =
  let cluster = Cluster.create (Params.create ~m:3 ()) in
  Status_word.set_dead (Cluster.status cluster) (pid 1);
  Alcotest.check_raises "already dead"
    (Invalid_argument "Self_org.leave: already dead") (fun () ->
      ignore (Self_org.leave cluster (pid 1)))

(* --- Fail (Section 5.3) ----------------------------------------------- *)

let test_fail_b0_loses_unreplicated_file () =
  let params = Params.create ~m:4 () in
  let cluster = Cluster.create params in
  let key = key_targeting cluster (pid 4) in
  ignore (Ops.insert cluster ~key);
  let stats = Self_org.fail cluster (pid 4) in
  Alcotest.(check (list string)) "lost" [ key ] stats.Self_org.lost;
  Alcotest.(check int) "nothing recovered" 0
    (List.length stats.Self_org.recovered);
  (* Requests now fault. *)
  let r = Ops.get cluster ~origin:(pid 9) ~key in
  Alcotest.(check (option int)) "fault" None
    (Option.map Pid.to_int r.Ops.server)

let test_fail_b0_survives_via_replica () =
  let params = Params.create ~m:4 () in
  let cluster = Cluster.create params in
  let key = key_targeting cluster (pid 4) in
  ignore (Ops.insert cluster ~key);
  let rng = Rng.create ~seed:1 in
  (* One replica at the top child P(5) before the crash. *)
  ignore (Ops.replicate ~rng cluster ~overloaded:(pid 4) ~key);
  let stats = Self_org.fail cluster (pid 4) in
  Alcotest.(check (list string)) "orphaned, not lost" [ key ]
    stats.Self_org.orphaned;
  (* The replica still serves every origin: P(5) is now the max-VID live
     node of the tree of P(4), where all routes converge. *)
  List.iter
    (fun origin ->
      if Status_word.is_live (Cluster.status cluster) origin then
        let r = Ops.get cluster ~origin ~key in
        Alcotest.(check (option int))
          (Printf.sprintf "origin %d" (Pid.to_int origin))
          (Some 5)
          (Option.map Pid.to_int r.Ops.server))
    (Pid.all params)

let test_fail_ft_recovers_from_sibling_subtree () =
  let params = Params.create ~m:6 ~b:2 () in
  let cluster = Cluster.create params in
  let key = "precious" in
  let targets = Ops.insert cluster ~key in
  Alcotest.(check int) "4 copies" 4 (List.length targets);
  let victim = List.hd targets in
  let stats = Self_org.fail cluster victim in
  Alcotest.(check int) "nothing lost" 0 (List.length stats.Self_org.lost);
  Alcotest.(check int) "one recovery" 1 (List.length stats.Self_org.recovered);
  Alcotest.(check int) "4 copies again" 4 (Cluster.total_copies cluster ~key);
  Alcotest.(check int) "integrity kept" 0
    (List.length (Self_org.integrity_violations cluster));
  (* Every live origin can still read the file. *)
  List.iter
    (fun origin ->
      if Status_word.is_live (Cluster.status cluster) origin then
        let r = Ops.get cluster ~origin ~key in
        Alcotest.(check bool)
          (Printf.sprintf "origin %d served" (Pid.to_int origin))
          true (r.Ops.server <> None))
    (Pid.all params)

let test_fail_ft_simultaneous_loss () =
  (* Killing all 2^b targets at once loses the file, as the paper's
     guarantee requires non-simultaneous failures. *)
  let params = Params.create ~m:6 ~b:1 () in
  let cluster = Cluster.create params in
  let key = "doomed" in
  let targets = Ops.insert cluster ~key in
  Alcotest.(check int) "2 copies" 2 (List.length targets);
  (match targets with
  | [ a; b ] ->
      (* Remove b's copy behind the recovery mechanism's back, then crash
         a: no donor remains. *)
      File_store.remove (Cluster.store cluster b) ~key;
      let stats = Self_org.fail cluster a in
      Alcotest.(check (list string)) "lost" [ key ] stats.Self_org.lost
  | _ -> Alcotest.fail "expected two targets")

(* --- Churn properties -------------------------------------------------- *)

let gen_churn =
  QCheck2.Gen.(
    int_range 3 7 >>= fun m ->
    int_range 0 1_000_000 >>= fun seed ->
    int_range 1 12 >>= fun files ->
    int_range 1 25 >>= fun steps -> return (m, seed, files, steps))

(* Random join/leave churn (no failures) preserves integrity: every key's
   inserted copy sits at its current FINDLIVENODE target. *)
let prop_churn_preserves_integrity =
  Test_support.qcheck_case ~count:120 ~name:"join/leave churn keeps integrity"
    gen_churn (fun (m, seed, files, steps) ->
      let params = Params.create ~m () in
      let cluster = Cluster.create params in
      let rng = Rng.create ~seed in
      for i = 1 to files do
        ignore (Ops.insert cluster ~key:(Printf.sprintf "f-%d-%d" seed i))
      done;
      let ok = ref true in
      for _ = 1 to steps do
        let status = Cluster.status cluster in
        let flip = Rng.bool rng in
        (if flip && Status_word.live_count status > 1 then
           match Status_word.random_live status rng with
           | Some p -> ignore (Self_org.leave cluster p)
           | None -> ()
         else
           match Status_word.random_dead status rng with
           | Some p -> ignore (Self_org.join cluster p)
           | None -> ());
        if Self_org.integrity_violations cluster <> [] then ok := false
      done;
      !ok)

(* After churn every file is still readable from every live node. *)
let prop_churn_preserves_availability =
  Test_support.qcheck_case ~count:80 ~name:"churn keeps files readable"
    gen_churn (fun (m, seed, files, steps) ->
      let params = Params.create ~m () in
      let cluster = Cluster.create params in
      let rng = Rng.create ~seed in
      let keys = List.init files (fun i -> Printf.sprintf "f-%d-%d" seed i) in
      List.iter (fun key -> ignore (Ops.insert cluster ~key)) keys;
      for _ = 1 to steps do
        let status = Cluster.status cluster in
        if Rng.bool rng && Status_word.live_count status > 1 then
          match Status_word.random_live status rng with
          | Some p -> ignore (Self_org.leave cluster p)
          | None -> ()
        else
          match Status_word.random_dead status rng with
          | Some p -> ignore (Self_org.join cluster p)
          | None -> ()
      done;
      let status = Cluster.status cluster in
      List.for_all
        (fun key ->
          List.for_all
            (fun origin -> (Ops.get cluster ~origin ~key).Ops.server <> None)
            (Status_word.live_pids status))
        keys)

(* Fault-tolerant churn with crashes: as long as we only crash one node at
   a time (and 2^b targets never die simultaneously), no file is lost. *)
let prop_ft_single_crashes_never_lose =
  Test_support.qcheck_case ~count:80 ~name:"FT: isolated crashes lose nothing"
    QCheck2.Gen.(
      int_range 4 7 >>= fun m ->
      int_range 1 2 >>= fun b ->
      int_range 0 1_000_000 >>= fun seed ->
      int_range 1 8 >>= fun files ->
      int_range 1 10 >>= fun crashes -> return (m, b, seed, files, crashes))
    (fun (m, b, seed, files, crashes) ->
      let params = Params.create ~m ~b () in
      let cluster = Cluster.create params in
      let rng = Rng.create ~seed in
      let keys = List.init files (fun i -> Printf.sprintf "f-%d-%d" seed i) in
      List.iter (fun key -> ignore (Ops.insert cluster ~key)) keys;
      let lost = ref [] in
      for _ = 1 to crashes do
        let status = Cluster.status cluster in
        (* Keep at least one live node per subtree population. *)
        if Status_word.live_count status > Params.subtree_count params then
          match Status_word.random_live status rng with
          | Some p ->
              let stats = Self_org.fail cluster p in
              lost := stats.Self_org.lost @ !lost
          | None -> ()
      done;
      !lost = []
      && List.for_all (fun key -> Cluster.holders cluster ~key <> []) keys)

(* The clocked entry points against [?now], over random joins, leaves
   and crashes at b = 0 and b > 0, on two copies of one cluster whose
   files sit at their targets and, as replicas, at random nodes. Event i
   runs at time i: one copy takes [~now], the other a clock that counts
   its reads. Their stats must agree, the clock must be read once per
   copy placed (so never by an event that places none), and every store
   of the two must hold the same entries, access counter stamps
   included — a placed copy stamped with any other time would show. *)
let entries_of store =
  let l = ref [] in
  File_store.iter store (fun e -> l := e :: !l);
  List.sort (fun (a : File_store.entry) b -> String.compare a.key b.key) !l

let prop_clocked_matches_now =
  Test_support.qcheck_case ~count:150
    ~name:"clocked = ?now; clock read per copy placed"
    QCheck2.Gen.(
      int_range 3 6 >>= fun m ->
      int_range 0 2 >>= fun b ->
      int_range 0 1_000_000 >>= fun seed ->
      int_range 1 8 >>= fun files ->
      int_range 1 30 >>= fun steps -> return (m, b, seed, files, steps))
    (fun (m, b, seed, files, steps) ->
      let params = Params.create ~m ~b () in
      let keys = List.init files (fun i -> Printf.sprintf "f-%d-%d" seed i) in
      let build () =
        let cluster = Cluster.create params in
        let rng = Rng.create ~seed in
        List.iter
          (fun key ->
            ignore (Ops.insert cluster ~key);
            Cluster.add cluster
              (pid (Rng.int rng (Params.space params)))
              ~key ~origin:File_store.Replicated ~version:0 ~now:0.0)
          keys;
        cluster
      in
      let a = build () and c = build () in
      let rng = Rng.create ~seed:(seed + 1) in
      let reads = ref 0 in
      let ok = ref true in
      for i = 1 to steps do
        let now = float_of_int i in
        let clock () =
          incr reads;
          now
        in
        reads := 0;
        let status = Cluster.status a in
        let placed, same =
          match Rng.int rng 3 with
          | 0 when Status_word.live_count status > 1 -> (
              match Status_word.random_live status rng with
              | Some p ->
                  let x = Self_org.leave ~now a p
                  and y = Self_org.leave_clocked ~clock c p in
                  (List.length y.reinserted, x = y)
              | None -> (0, true))
          | 1 when Status_word.live_count status > 1 -> (
              match Status_word.random_live status rng with
              | Some p ->
                  let x = Self_org.fail ~now a p
                  and y = Self_org.fail_clocked ~clock c p in
                  (List.length y.recovered, x = y)
              | None -> (0, true))
          | _ -> (
              match Status_word.random_dead status rng with
              | Some p ->
                  let x = Self_org.join ~now a p
                  and y = Self_org.join_clocked ~clock c p in
                  (List.length y.took_over, x = y)
              | None -> (0, true))
        in
        if (not same) || !reads <> placed then ok := false;
        for q = 0 to Params.space params - 1 do
          if
            entries_of (Cluster.store a (pid q))
            <> entries_of (Cluster.store c (pid q))
          then ok := false
        done
      done;
      !ok)

(* --- Allocation gates --------------------------------------------------- *)

(* A membership change on a node that holds nothing and becomes no
   insertion target moves no file, and allocates nothing: the join's
   target test scans the key registry in place, the departure walks an
   empty store, and the stats are the shared empty record. Each cycle
   runs over a cluster of one key and of three (where the target test
   moves the lookup-tree memo from key to key). All read 0 words under
   the release and the dev profile alike (no float crosses a module
   boundary on the way); with one key, 14 when the join's test folded
   the registry hash table through two closures, and 173 (leave + join)
   and 147 (fail + join) when every event built its key and target
   lists. *)
let bystander_cycle_words ~keys depart =
  let cluster = Cluster.create (Params.create ~m:8 ()) in
  let targets =
    List.init keys (fun i ->
        let key = Printf.sprintf "self-org/alloc-%d" i in
        ignore (Ops.insert cluster ~key);
        Cluster.target_of_key cluster key)
  in
  (* A node that is no key's target: with the targets live, no joiner
     outranks them, and no copy sits anywhere else. *)
  let rec bystander i =
    let k = pid (i land 255) in
    if List.exists (Pid.equal k) targets then bystander (i + 1) else k
  in
  let k = bystander (Pid.to_int (List.hd targets) + 1) in
  Test_support.words_per_cycle ~n:1000 (fun () ->
      depart cluster k;
      let s = Self_org.join ~now:1.0 cluster k in
      assert (s.Self_org.took_over = []))

let check_cycle name depart =
  List.iter
    (fun keys ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s words, %d key(s)" name keys)
        0.0
        (bystander_cycle_words ~keys depart))
    [ 1; 3 ]

let test_leave_join_allocation () =
  check_cycle "leave + join" (fun cluster k ->
      let s = Self_org.leave ~now:1.0 cluster k in
      assert (s.Self_org.reinserted = []))

let test_fail_join_allocation () =
  check_cycle "fail + join" (fun cluster k ->
      let s = Self_org.fail ~now:1.0 cluster k in
      assert (s.Self_org.lost = []))

(* A replica holder's leave drops its copy and re-inserts nothing: it
   allocates what its stats name, one [dropped_replicas] cell and the
   stats record (3 words each), and nothing for the store walk or the
   log line. Each leave is measured alone; the replica is put back, and
   the node rejoined, outside the window. 6 words under both profiles,
   against 122 when the departure folded and sorted the store's key
   lists and built its log line's closure. *)
let test_replica_holder_leave_allocation () =
  let cluster = Cluster.create (Params.create ~m:8 ()) in
  let key = "self-org/holder" in
  ignore (Ops.insert cluster ~key);
  let target = Cluster.target_of_key cluster key in
  let k = pid ((Pid.to_int target + 1) land 255) in
  let n = 1000 in
  let words = ref 0.0 in
  for _ = 1 to n do
    Cluster.add cluster k ~key ~origin:File_store.Replicated ~version:0
      ~now:1.0;
    let w0 = Gc.minor_words () in
    let s = Self_org.leave ~now:1.0 cluster k in
    words := !words +. (Gc.minor_words () -. w0);
    Alcotest.(check (list string)) "dropped" [ key ] s.Self_org.dropped_replicas;
    Alcotest.(check int) "nothing re-inserted" 0
      (List.length s.Self_org.reinserted);
    ignore (Self_org.join ~now:1.0 cluster k)
  done;
  let per_leave = !words /. float_of_int n in
  if per_leave > 6.0 then
    Alcotest.failf "%.1f words per replica holder's leave (at most 6)"
      per_leave

(* Membership events of slots that hold no file read their stores and
   find the shared empty one: none of them may create a store, nor
   allocate anything else. Every bystander of a one-file m = 12 cluster
   leaves, rejoins, fails and rejoins; afterwards each still has the
   shared store, and the events allocated 0 words (under both
   profiles; 7 per event when the join's test folded the registry
   through closures). *)
let test_empty_slot_events_create_no_store () =
  let cluster = Cluster.create (Params.create ~m:12 ()) in
  let key = "self-org/sparse" in
  ignore (Ops.insert cluster ~key);
  let target = Cluster.target_of_key cluster key in
  let bystanders =
    Array.of_list
      (List.filter (fun k -> not (Pid.equal k target)) (List.init 4096 pid))
  in
  let w0 = Gc.minor_words () in
  for i = 0 to Array.length bystanders - 1 do
    let k = bystanders.(i) in
    ignore (Self_org.leave ~now:1.0 cluster k);
    ignore (Self_org.join ~now:1.0 cluster k);
    ignore (Self_org.fail ~now:1.0 cluster k);
    ignore (Self_org.join ~now:1.0 cluster k)
  done;
  let words = Gc.minor_words () -. w0 in
  Array.iter
    (fun k ->
      if Cluster.store cluster k != File_store.empty then
        Alcotest.failf "P(%d) got a store of its own" (Pid.to_int k))
    bystanders;
  Alcotest.(check (float 0.0)) "words over 4 x 4095 events" 0.0 words

let () =
  Alcotest.run "self_org"
    [
      ( "join",
        [
          Alcotest.test_case "paper example (P(5) joins)" `Quick
            test_join_takes_over_example;
          Alcotest.test_case "root reclaims" `Quick test_join_root_reclaims;
          Alcotest.test_case "irrelevant joiner" `Quick test_join_irrelevant_node;
          Alcotest.test_case "already live rejected" `Quick
            test_join_already_live_rejected;
        ] );
      ( "leave",
        [
          Alcotest.test_case "reinsert + drop replicas" `Quick
            test_leave_reinserts_and_drops;
          Alcotest.test_case "already dead rejected" `Quick
            test_leave_already_dead_rejected;
        ] );
      ( "fail",
        [
          Alcotest.test_case "b=0 loses unreplicated file" `Quick
            test_fail_b0_loses_unreplicated_file;
          Alcotest.test_case "b=0 survives via replica" `Quick
            test_fail_b0_survives_via_replica;
          Alcotest.test_case "b>0 recovers from sibling" `Quick
            test_fail_ft_recovers_from_sibling_subtree;
          Alcotest.test_case "b>0 simultaneous loss" `Quick
            test_fail_ft_simultaneous_loss;
        ] );
      ( "churn properties",
        [
          prop_churn_preserves_integrity;
          prop_churn_preserves_availability;
          prop_ft_single_crashes_never_lose;
          prop_clocked_matches_now;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "bystander leave + join: at most 0 words" `Quick
            test_leave_join_allocation;
          Alcotest.test_case "bystander fail + join: at most 0 words" `Quick
            test_fail_join_allocation;
          Alcotest.test_case "empty-slot events create no store" `Quick
            test_empty_slot_events_create_no_store;
          Alcotest.test_case "holder leave allocates only what moves" `Quick
            test_replica_holder_leave_allocation;
        ] );
    ]
