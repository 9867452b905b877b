(* The shared Substrate conformance suite.

   Part 1 applies the same properties to all four adapters — native
   LessLog trees, Chord, Pastry, CAN — exactly as promised by the
   contract in lib/substrate/substrate.mli: routes terminate at the
   responsible node, every [next_hop] answer is [-1] or a live PID (from
   a live node and from a stale sender), neighbor sets are symmetric
   where the adapter guarantees it, and routing stays consistent across
   kill/revive cycles (epoch semantics). A pinned digest holds every
   adapter's route paths over a fixed draw of the generator.

   Part 2 holds the native adapter to the cost of the decision it wraps,
   and the shootout to its four rows. The simulators have one request
   path, over a substrate (the native adapter when a run names none);
   the seed-matrix pins in test_seed_matrix.ml hold its behaviour. *)

open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Substrate_native = Lesslog.Substrate_native
module Substrate = Lesslog_substrate.Substrate
module Chord_sub = Lesslog_substrate.Chord_sub
module Pastry_sub = Lesslog_substrate.Pastry_sub
module Can_sub = Lesslog_substrate.Can_sub
module Subtrees = Lesslog_topology.Subtrees
module Topology = Lesslog_topology.Topology
module File_store = Lesslog_storage.File_store
module Rng = Lesslog_prng.Rng

(* --- Part 1: conformance ----------------------------------------------- *)

(* All four adapters over one cluster, so a Status_word mutation plus
   [notify] is visible to every substrate at once. *)
let adapters cluster =
  let params = Cluster.params cluster in
  let status = Cluster.status cluster in
  let psi = Cluster.psi cluster in
  [
    Substrate_native.of_cluster cluster;
    Chord_sub.make params status psi;
    Pastry_sub.make params status psi;
    Can_sub.make params status;
  ]

let hop_cap params = 8 * Params.space params

let check_route sub params status ~key ~origin =
  let name = sub.Substrate.name in
  let path, terminated =
    Substrate.route_path sub ~key ~origin ~max_hops:(hop_cap params)
  in
  let finite =
    terminated
    || QCheck2.Test.fail_reportf "%s: route exceeded %d hops" name
         (hop_cap params)
  in
  let all_live =
    List.for_all (Status_word.is_live status) path
    || QCheck2.Test.fail_reportf "%s: route passed through a dead node" name
  in
  let at_owner =
    match sub.Substrate.owner ~key with
    | None -> QCheck2.Test.fail_reportf "%s: live nodes but no owner" name
    | Some o ->
        let last = List.nth path (List.length path - 1) in
        Pid.equal last o
        (* A terminated route not at the owner is a greedy dead end:
           allowed only on best-effort substrates, and only when some
           node is dead. *)
        || (not sub.Substrate.guaranteed_delivery)
           && Status_word.dead_count status > 0
        || QCheck2.Test.fail_reportf "%s: route ended at %d, owner is %d"
             name (Pid.to_int last) (Pid.to_int o)
  in
  finite && all_live && at_owner

(* m, key index, origin slot, kill list (slot indices into the live
   population, dedup'd at use). *)
let gen_case =
  QCheck2.Gen.(
    int_range 3 7 >>= fun m ->
    let space = 1 lsl m in
    quad (return m) (int_range 0 99)
      (int_range 0 (space - 1))
      (list_size (int_range 0 (space / 2)) (int_range 0 (space - 1))))

let print_case (m, k, origin, kills) =
  Printf.sprintf "m=%d key=k%d origin=%d kills=[%s]" m k origin
    (String.concat ";" (List.map string_of_int kills))

let prop_route_terminates =
  QCheck2.Test.make ~count:150 ~name:"route terminates at responsible node"
    ~print:print_case gen_case (fun (m, k, origin, _) ->
      let cluster = Cluster.create (Params.create ~m ()) in
      let params = Cluster.params cluster in
      let status = Cluster.status cluster in
      let key = Printf.sprintf "sub/k%d" k in
      List.for_all
        (fun sub ->
          check_route sub params status ~key ~origin:(Pid.of_int params origin))
        (adapters cluster))

let prop_neighbor_symmetry =
  QCheck2.Test.make ~count:100
    ~name:"neighbor symmetry where guaranteed" ~print:print_case gen_case
    (fun (m, k, _, kills) ->
      let cluster = Cluster.create (Params.create ~m ()) in
      let params = Cluster.params cluster in
      let status = Cluster.status cluster in
      let key = Printf.sprintf "sub/k%d" k in
      let subs = adapters cluster in
      (* Symmetry must hold on any population, not just the full one. *)
      List.iter
        (fun s ->
          if Status_word.live_count status > 1 then
            Status_word.set_dead status (Pid.of_int params s))
        kills;
      List.iter (fun sub -> sub.Substrate.notify ()) subs;
      List.for_all
        (fun sub ->
          (not sub.Substrate.symmetric_neighbors)
          || Status_word.fold_live status ~init:true ~f:(fun ok p ->
                 ok
                 && List.for_all
                      (fun q ->
                        List.exists (Pid.equal p)
                          (sub.Substrate.neighbors ~key q)
                        || QCheck2.Test.fail_reportf
                             "%s: %d lists %d but not vice versa"
                             sub.Substrate.name (Pid.to_int p) (Pid.to_int q))
                      (sub.Substrate.neighbors ~key p)))
        subs)

let prop_kill_revive_consistency =
  QCheck2.Test.make ~count:100
    ~name:"routing consistent under kill/revive" ~print:print_case gen_case
    (fun (m, k, origin, kills) ->
      let cluster = Cluster.create (Params.create ~m ()) in
      let params = Cluster.params cluster in
      let status = Cluster.status cluster in
      let key = Printf.sprintf "sub/k%d" k in
      let subs = adapters cluster in
      let owner0 =
        List.map (fun sub -> sub.Substrate.owner ~key) subs
      in
      (* Kill a subset (keeping at least two nodes live), notify, and
         check every adapter routes in the shrunken system. *)
      List.iter
        (fun s ->
          if Status_word.live_count status > 2 then
            Status_word.set_dead status (Pid.of_int params s))
        kills;
      List.iter (fun sub -> sub.Substrate.notify ()) subs;
      let origin =
        let p = Pid.of_int params origin in
        if Status_word.is_live status p then p
        else List.hd (Status_word.live_pids status)
      in
      let shrunken_ok =
        List.for_all
          (fun sub ->
            (match sub.Substrate.owner ~key with
            | None ->
                QCheck2.Test.fail_reportf "%s: no owner with live nodes"
                  sub.Substrate.name
            | Some o ->
                Status_word.is_live status o
                || QCheck2.Test.fail_reportf "%s: dead owner %d"
                     sub.Substrate.name (Pid.to_int o))
            && check_route sub params status ~key ~origin)
          subs
      in
      (* Revive everything: every adapter must return to its original
         all-live answer (no stale epoch state). *)
      List.iter
        (fun p -> Status_word.set_live status p)
        (Status_word.dead_pids status);
      List.iter (fun sub -> sub.Substrate.notify ()) subs;
      shrunken_ok
      && List.for_all2
           (fun sub o0 ->
             sub.Substrate.owner ~key = o0
             || QCheck2.Test.fail_reportf "%s: owner drifted after revive"
                  sub.Substrate.name)
           subs owner0)

let prop_replica_target_fresh =
  QCheck2.Test.make ~count:80
    ~name:"replica target is live and not a holder" ~print:print_case
    gen_case (fun (m, k, origin, _) ->
      let cluster = Cluster.create (Params.create ~m ()) in
      let params = Cluster.params cluster in
      let status = Cluster.status cluster in
      let key = Printf.sprintf "sub/k%d" k in
      let overloaded = Pid.of_int params origin in
      let rng = Rng.create ~seed:(m + k) in
      let holds p = Pid.equal p overloaded in
      List.for_all
        (fun sub ->
          match
            sub.Substrate.replica_target ~rng ~holds ~overloaded ~key
          with
          | None -> true
          | Some p ->
              Status_word.is_live status p
              && (not (holds p))
              || QCheck2.Test.fail_reportf "%s: bad replica target %d"
                   sub.Substrate.name (Pid.to_int p))
        (adapters cluster))

(* The int convention, from both sides of a death: every node, live or
   killed after the hop toward it was sent, answers [-1] or a live PID of
   the space. [k mod 3] picks [b], so the native adapter's Section 4
   migration runs too (the overlay adapters ignore [b]). *)
let prop_next_hop_int =
  QCheck2.Test.make ~count:100
    ~name:"next_hop is -1 or a live PID, also from a stale sender"
    ~print:print_case gen_case (fun (m, k, origin, kills) ->
      let cluster = Cluster.create (Params.create ~m ~b:(k mod 3) ()) in
      let params = Cluster.params cluster in
      let status = Cluster.status cluster in
      let space = Params.space params in
      let key = Printf.sprintf "sub/k%d" k in
      let subs = adapters cluster in
      List.iter (fun s -> Status_word.set_dead status (Pid.of_int params s)) kills;
      List.iter (fun sub -> sub.Substrate.notify ()) subs;
      List.for_all
        (fun sub ->
          let ok = ref true in
          for p = 0 to space - 1 do
            let q = sub.Substrate.next_hop ~key ~origin p in
            if
              q <> -1
              && (q < 0 || q >= space
                 || Status_word.is_dead status (Pid.unsafe_of_int q))
            then
              ok :=
                QCheck2.Test.fail_reportf "%s: next_hop from %s %d is %d"
                  sub.Substrate.name
                  (if Status_word.is_live status (Pid.unsafe_of_int p) then
                     "live"
                   else "stale")
                  p q
          done;
          !ok)
        subs)

(* Every adapter's route from every live origin, over a fixed draw of
   [gen_case] with its kills applied (at least two nodes left live), as
   one digest, taken when [next_hop] still answered [Pid.t option]: the
   int convention must walk the same paths. *)
let route_paths_digest () =
  let cases =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 0x5ab |]) ~n:60 gen_case
  in
  let buf = Buffer.create 65536 in
  List.iter
    (fun (m, k, _, kills) ->
      let cluster = Cluster.create (Params.create ~m ()) in
      let params = Cluster.params cluster in
      let status = Cluster.status cluster in
      let key = Printf.sprintf "sub/k%d" k in
      let subs = adapters cluster in
      List.iter
        (fun s ->
          if Status_word.live_count status > 2 then
            Status_word.set_dead status (Pid.of_int params s))
        kills;
      List.iter (fun sub -> sub.Substrate.notify ()) subs;
      List.iter
        (fun sub ->
          Status_word.iter_live status (fun origin ->
              let path, terminated =
                Substrate.route_path sub ~key ~origin
                  ~max_hops:(hop_cap params)
              in
              Printf.bprintf buf "%s %s:%s %b\n" sub.Substrate.name key
                (String.concat ","
                   (List.map (fun p -> string_of_int (Pid.to_int p)) path))
                terminated))
        subs)
    cases;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_route_paths_pinned () =
  Alcotest.(check string)
    "route paths digest" "f5b3b6b9ea1ef93de5b568ee82eddc6a"
    (route_paths_digest ())

(* --- Part 2: the native adapter's cost, and the shootout -------------- *)

(* A replica decision through the native adapter, made as [Protocol]
   makes it (one [holds] closure over the cluster's holder set), costs
   what [Ops.choose_replica_target] costs for the same decision: the
   closure and the [Some]. An adapter that ignored the given [holds] and
   built its own would pay a second closure. The cycle is
   test_core_ops.ml's: kill a child of the target and decide at the
   target, revive it and decide again, at m = 12 with one extra copy in
   the target's children list. *)
let decision_words ~b =
  let params = Params.create ~m:12 ~b () in
  let cluster = Cluster.create params in
  let key = "choice/alloc" in
  let status = Cluster.status cluster in
  let tree = Cluster.tree_of_key cluster key in
  let overloaded = Subtrees.subtree_root tree ~subtree_id:0 in
  ignore (Ops.insert cluster ~key);
  let child = List.hd (Topology.children_list ~b tree status overloaded) in
  Cluster.add cluster child ~key
    ~origin:File_store.Replicated ~version:0 ~now:0.0;
  (* Opaque, as in [Protocol.t]: the compiler must not inline the
     adapter's closure into the call and drop an unused argument. *)
  let sub = Sys.opaque_identity (Substrate_native.of_cluster cluster) in
  let rng = Rng.create ~seed:5 in
  let per_decision decide =
    Test_support.words_per_cycle ~n:1000 (fun () ->
        Status_word.set_dead status child;
        decide ();
        Status_word.set_live status child;
        decide ())
    /. 2.0
  in
  let native =
    per_decision (fun () ->
        ignore
          (sub.Substrate.replica_target ~rng
             ~holds:(fun p -> Cluster.holds cluster p ~key)
             ~overloaded ~key))
  in
  let direct =
    per_decision (fun () ->
        ignore (Ops.choose_replica_target ~rng cluster ~overloaded ~key))
  in
  (native, direct)

let test_decision_allocation () =
  List.iter
    (fun b ->
      let native, direct = decision_words ~b in
      if native > direct then
        Alcotest.failf
          "b = %d: %.1f words per decision through the native adapter, \
           more than the %.1f of Ops.choose_replica_target"
          b native direct)
    [ 0; 2 ]

let test_shootout_rows () =
  let report = Lesslog_harness.Shootout.run ~quick:true ~seed:9 ~m:5 () in
  Alcotest.(check (list string))
    "four rows" [ "lesslog"; "chord"; "pastry"; "can" ]
    (List.map
       (fun (r : Lesslog_harness.Shootout.row) -> r.name)
       report.Lesslog_harness.Shootout.rows)

(* [Ops.insert_via] refuses a self-organized substrate at b > 0, whose
   single [owner] would stand in for ADVANCEDINSERTFILE's one copy per
   subtree, and leaves the cluster untouched; a Generic overlay (Chord)
   places its one copy at any b. *)
let insert_via_error =
  Invalid_argument
    "Ops.insert_via: a Self_organized substrate at b > 0 places one copy \
     per subtree; use Ops.insert"

let test_insert_via_native_b2_raises () =
  let params = Params.create ~m:6 ~b:2 () in
  let cluster = Cluster.create params in
  let key = "insert-via" in
  Alcotest.check_raises "native, m = 6, b = 2" insert_via_error (fun () ->
      ignore
        (Ops.insert_via (Substrate_native.of_cluster cluster) cluster ~key));
  Alcotest.(check (list int)) "no copy placed" []
    (List.map Pid.to_int (Cluster.holders cluster ~key));
  Alcotest.(check int) "Ops.insert: one copy per subtree" 4
    (List.length (Ops.insert cluster ~key))

let test_insert_via_generic_places () =
  List.iter
    (fun b ->
      let params = Params.create ~m:6 ~b () in
      let native = Cluster.create params and chord = Cluster.create params in
      let key = "insert-via" in
      let sub =
        Chord_sub.make params (Cluster.status chord) (Cluster.psi chord)
      in
      let owner = Option.get (sub.Substrate.owner ~key) in
      let placed = Ops.insert_via sub chord ~key in
      Alcotest.(check (list int))
        (Printf.sprintf "chord b = %d: the owner" b)
        [ Pid.to_int owner ] (List.map Pid.to_int placed);
      Alcotest.(check (list int))
        (Printf.sprintf "chord b = %d: held" b)
        [ Pid.to_int owner ]
        (List.map Pid.to_int (Cluster.holders chord ~key));
      if b = 0 then
        Alcotest.(check (list int)) "native b = 0 = Ops.insert"
          (List.map Pid.to_int (Ops.insert native ~key))
          (List.map Pid.to_int
             (Ops.insert_via
                (Substrate_native.of_cluster (Cluster.create params))
                (Cluster.create params) ~key)))
    [ 0; 2 ]

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "substrate"
    [
      ( "conformance",
        to_alcotest
          [
            prop_route_terminates;
            prop_next_hop_int;
            prop_neighbor_symmetry;
            prop_kill_revive_consistency;
            prop_replica_target_fresh;
          ]
        @ [
            Alcotest.test_case "route paths pinned" `Quick
              test_route_paths_pinned;
          ] );
      ( "adapter cost",
        [
          Alcotest.test_case "replica decision allocation" `Quick
            test_decision_allocation;
        ] );
      ( "shootout",
        [ Alcotest.test_case "four rows" `Quick test_shootout_rows ] );
      ( "insert via",
        [
          Alcotest.test_case "native b=2 raises" `Quick
            test_insert_via_native_b2_raises;
          Alcotest.test_case "chord places at b=0 and 2" `Quick
            test_insert_via_generic_places;
        ] );
    ]
