open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Ptree = Lesslog_ptree.Ptree
module Vtree = Lesslog_vtree.Vtree
module Topology = Lesslog_topology.Topology
module Subtrees = Lesslog_topology.Subtrees
module Rng = Lesslog_prng.Rng

let params4 = Params.create ~m:4 ()
let pid = Pid.unsafe_of_int

(* The paper's running example: a 14-node system, lookup tree of P(4),
   with P(0) and P(5) dead (Figure 3). *)
let figure3 () =
  let status = Status_word.create params4 ~initially_live:true in
  Status_word.set_dead status (pid 0);
  Status_word.set_dead status (pid 5);
  (status, Ptree.make params4 ~root:(pid 4))

let test_figure3_children_list () =
  let status, tree = figure3 () in
  (* Paper: the children list of P(4) is (P(6), P(7), P(1), P(12), P(13),
     P(8)), sorted by VID. *)
  Alcotest.(check (list int)) "children list of P(4)" [ 6; 7; 1; 12; 13; 8 ]
    (List.map Pid.to_int (Topology.children_list tree status (pid 4)))

let test_figure3_findlivenode () =
  (* Paper (Section 3 / 5.1): with P(4) and P(5) dead, files targeting
     P(4) are stored at P(6), the live node with the most offspring. *)
  let status = Status_word.create params4 ~initially_live:true in
  Status_word.set_dead status (pid 4);
  Status_word.set_dead status (pid 5);
  let tree = Ptree.make params4 ~root:(pid 4) in
  Alcotest.(check (option int)) "insertion target" (Some 6)
    (Option.map Pid.to_int (Topology.insertion_target tree status))

let test_findlivenode_live_start () =
  let status, tree = figure3 () in
  Alcotest.(check (option int)) "live start returned" (Some 8)
    (Option.map Pid.to_int (Topology.find_live_node tree status ~start:(pid 8)))

let test_findlivenode_all_dead () =
  let status = Status_word.create params4 ~initially_live:false in
  let tree = Ptree.make params4 ~root:(pid 4) in
  Alcotest.(check (option int)) "no live node" None
    (Option.map Pid.to_int (Topology.insertion_target tree status))

let test_first_alive_ancestor () =
  let status, tree = figure3 () in
  (* P(13) has VID 0110; parent VID 1110 = P(5), dead; grandparent VID
     1111 = P(4), live. *)
  Alcotest.(check (option int)) "skips dead parent" (Some 4)
    (Option.map Pid.to_int (Topology.first_alive_ancestor tree status (pid 13)));
  (* Live root has no ancestor. *)
  Alcotest.(check (option int)) "root" None
    (Option.map Pid.to_int (Topology.first_alive_ancestor tree status (pid 4)))

let test_max_live () =
  let status = Status_word.create params4 ~initially_live:true in
  Status_word.set_dead status (pid 4);
  Status_word.set_dead status (pid 5);
  let tree = Ptree.make params4 ~root:(pid 4) in
  Alcotest.(check (option int)) "max live = P(6)" (Some 6)
    (Option.map Pid.to_int (Topology.max_live tree status));
  Alcotest.(check bool) "P(6) has no greater live VID" false
    (Topology.has_live_with_greater_vid tree status (pid 6));
  Alcotest.(check bool) "P(8) has greater live VID" true
    (Topology.has_live_with_greater_vid tree status (pid 8))

let test_route_path_complete_tree () =
  let status = Status_word.create params4 ~initially_live:true in
  let tree = Ptree.make params4 ~root:(pid 4) in
  Alcotest.(check (list int)) "P(8) path" [ 8; 0; 4 ]
    (List.map Pid.to_int (Topology.route_path tree status ~origin:(pid 8)))

let test_route_path_with_dead_root () =
  let status = Status_word.create params4 ~initially_live:true in
  Status_word.set_dead status (pid 4);
  Status_word.set_dead status (pid 5);
  let tree = Ptree.make params4 ~root:(pid 4) in
  (* From P(8): P(0) live, P(4) dead; chain P(8) -> P(0); P(0)'s only
     strict ancestor P(4) is dead, so the request migrates to P(6). *)
  Alcotest.(check (list int)) "migrating path" [ 8; 0; 6 ]
    (List.map Pid.to_int (Topology.route_path tree status ~origin:(pid 8)))

let test_live_offspring_count () =
  let status, tree = figure3 () in
  (* P(4) is the root: all other 13 live nodes are its offspring. *)
  Alcotest.(check int) "root offspring" 13
    (Topology.live_offspring_count tree status (pid 4));
  (* P(8) (VID 0011) has one child 0001=P(10)... VID 0011 children:
     leading ones of 0011 is 0, so P(8) is a leaf in this tree. *)
  Alcotest.(check int) "leaf" 0 (Topology.live_offspring_count tree status (pid 8))

(* --- Fault-tolerant subtrees (Figure 4: m = 4, b = 2) ---------------- *)

let params_ft = Params.create ~m:4 ~b:2 ()

let test_subtree_decomposition () =
  let tree = Ptree.make params_ft ~root:(pid 4) in
  (* 4 subtrees of 4 slots each. *)
  Alcotest.(check int) "count" 4 (Params.subtree_count params_ft);
  Alcotest.(check int) "space" 4 (Params.subtree_space params_ft);
  (* Subtree ids partition the slots. *)
  let ids = List.map (fun p -> Subtrees.subtree_id_of_pid tree (pid p))
      (List.init 16 (fun i -> i)) in
  List.iter (fun sid -> Alcotest.(check bool) "sid in range" true (sid >= 0 && sid < 4)) ids;
  let count_sid s = List.length (List.filter (( = ) s) ids) in
  List.iter (fun s -> Alcotest.(check int) "4 members" 4 (count_sid s)) [ 0; 1; 2; 3 ]

let test_subtree_vid_split () =
  (* VID 1110: subtree id = 10, subtree VID = 11 (paper Figure 4 text). *)
  let v = Vid.unsafe_of_int 0b1110 in
  Alcotest.(check int) "sid" 0b10 (Subtrees.subtree_id_of_vid params_ft v);
  Alcotest.(check int) "svid" 0b11 (Subtrees.subtree_vid_of_vid params_ft v);
  Alcotest.(check int) "compose"
    0b1110
    (Vid.to_int (Subtrees.compose_vid params_ft ~subtree_vid:0b11 ~subtree_id:0b10))

let test_subtree_roots () =
  let tree = Ptree.make params_ft ~root:(pid 4) in
  (* The subtree root has subtree VID 11; with comp(4)=1011 its PID is
     (11 ++ sid) xor 1011. *)
  List.iter
    (fun sid ->
      let root = Subtrees.subtree_root tree ~subtree_id:sid in
      Alcotest.(check int) "root svid" 0b11
        (Subtrees.subtree_vid_of_vid params_ft (Ptree.vid_of_pid tree root));
      Alcotest.(check int) "root sid" sid (Subtrees.subtree_id_of_pid tree root))
    [ 0; 1; 2; 3 ]

let test_subtree_navigation_stays_inside () =
  let tree = Ptree.make params_ft ~root:(pid 4) in
  List.iter
    (fun p ->
      let p = pid p in
      let sid = Subtrees.subtree_id_of_pid tree p in
      (match Subtrees.parent_in_subtree tree p with
      | Some q ->
          Alcotest.(check int) "parent same subtree" sid
            (Subtrees.subtree_id_of_pid tree q)
      | None -> ());
      List.iter
        (fun c ->
          Alcotest.(check int) "child same subtree" sid
            (Subtrees.subtree_id_of_pid tree c))
        (Subtrees.children_in_subtree tree p))
    (List.init 16 (fun i -> i))

let test_insertion_targets_ft () =
  let status = Status_word.create params_ft ~initially_live:true in
  let tree = Ptree.make params_ft ~root:(pid 4) in
  let targets = Subtrees.insertion_targets tree status in
  Alcotest.(check int) "2^b targets" 4 (List.length targets);
  (* All targets distinct and in distinct subtrees. *)
  let sids = List.map (Subtrees.subtree_id_of_pid tree) targets in
  Alcotest.(check int) "distinct subtrees" 4
    (List.length (List.sort_uniq compare sids))

let test_migrate_vid () =
  let v = Vid.unsafe_of_int 0b1110 in
  let v' = Subtrees.migrate_vid params_ft v ~to_subtree:0b01 in
  Alcotest.(check int) "migrated" 0b1101 (Vid.to_int v')

(* --- Properties ------------------------------------------------------ *)

(* Brute-force reference: max-VID live node with VID <= start's VID. *)
let brute_find_live tree status ~start =
  let rec scan vid =
    if vid < 0 then None
    else
      let p = Ptree.pid_of_vid tree (Vid.unsafe_of_int vid) in
      if Status_word.is_live status p then Some p else scan (vid - 1)
  in
  scan (Vid.to_int (Ptree.vid_of_pid tree start))

let prop_find_live_node_matches_brute =
  Test_support.qcheck_case ~name:"find_live_node = brute force"
    QCheck2.Gen.(
      Test_support.gen_tree_setup >>= fun (params, status, tree) ->
      Test_support.gen_pid params >>= fun start ->
      return (status, tree, start))
    (fun (status, tree, start) ->
      Topology.find_live_node tree status ~start
      = brute_find_live tree status ~start)

(* Brute-force reference for the dead-aware children list: the live
   strict descendants whose intermediate ancestors are all dead. *)
let brute_children_list tree status p =
  let result = ref [] in
  Ptree.iter_subtree tree p (fun q ->
      if (not (Pid.equal q p)) && Status_word.is_live status q then begin
        let rec intermediate_dead x =
          match Ptree.parent tree x with
          | None -> false
          | Some parent ->
              if Pid.equal parent p then true
              else Status_word.is_dead status parent && intermediate_dead parent
        in
        if intermediate_dead q then result := q :: !result
      end);
  List.sort
    (fun a b -> Vid.compare (Ptree.vid_of_pid tree b) (Ptree.vid_of_pid tree a))
    !result

let prop_children_list_matches_brute =
  Test_support.qcheck_case ~name:"children_list = brute force"
    QCheck2.Gen.(
      Test_support.gen_tree_setup >>= fun (params, status, tree) ->
      Test_support.gen_pid params >>= fun p -> return (status, tree, p))
    (fun (status, tree, p) ->
      Topology.children_list tree status p = brute_children_list tree status p)

let prop_children_list_all_live =
  Test_support.qcheck_case ~name:"children_list members are live"
    QCheck2.Gen.(
      Test_support.gen_tree_setup >>= fun (params, status, tree) ->
      Test_support.gen_pid params >>= fun p -> return (status, tree, p))
    (fun (status, tree, p) ->
      List.for_all (Status_word.is_live status)
        (Topology.children_list tree status p))

let prop_route_terminates_at_holder_location =
  Test_support.qcheck_case ~name:"route ends at live root or migration target"
    QCheck2.Gen.(
      Test_support.gen_tree_setup >>= fun (params, status, tree) ->
      Test_support.gen_pid params >>= fun origin ->
      return (params, status, tree, origin))
    (fun (_, status, tree, origin) ->
      (not (Status_word.is_live status origin))
      ||
      let path = Topology.route_path tree status ~origin in
      match List.rev path with
      | [] -> false
      | last :: _ ->
          let root = Ptree.root tree in
          if Status_word.is_live status root then Pid.equal last root
          else Topology.insertion_target tree status = Some last)

let prop_route_all_live =
  Test_support.qcheck_case ~name:"route visits only live nodes"
    QCheck2.Gen.(
      Test_support.gen_tree_setup >>= fun (params, status, tree) ->
      Test_support.gen_pid params >>= fun origin ->
      return (status, tree, origin))
    (fun (status, tree, origin) ->
      (not (Status_word.is_live status origin))
      || List.for_all (Status_word.is_live status)
           (Topology.route_path tree status ~origin))

let prop_route_length_bounded =
  Test_support.qcheck_case ~name:"route length <= m + 2"
    QCheck2.Gen.(
      Test_support.gen_tree_setup >>= fun (params, status, tree) ->
      Test_support.gen_pid params >>= fun origin ->
      return (params, status, tree, origin))
    (fun (params, status, tree, origin) ->
      (not (Status_word.is_live status origin))
      || List.length (Topology.route_path tree status ~origin)
         <= Params.m params + 2)

let prop_subtree_route_stays_in_subtree =
  Test_support.qcheck_case ~name:"FT subtree route stays in origin's subtree"
    QCheck2.Gen.(
      Test_support.gen_params_ft >>= fun params ->
      Test_support.gen_status params >>= fun status ->
      Test_support.gen_pid params >>= fun root ->
      Test_support.gen_pid params >>= fun origin ->
      return (status, Ptree.make params ~root, origin))
    (fun (status, tree, origin) ->
      (not (Status_word.is_live status origin))
      ||
      let sid = Subtrees.subtree_id_of_pid tree origin in
      List.for_all
        (fun p -> Subtrees.subtree_id_of_pid tree p = sid)
        (Subtrees.route_path_in_subtree tree status ~origin))

(* Brute-force references for the fault-tolerant subtree layer. *)

let gen_ft_setup =
  QCheck2.Gen.(
    Test_support.gen_params_ft >>= fun params ->
    Test_support.gen_status params >>= fun status ->
    Test_support.gen_pid params >>= fun root ->
    Test_support.gen_pid params >>= fun p ->
    return (params, status, Ptree.make params ~root, p))

let prop_subtree_find_live_matches_brute =
  Test_support.qcheck_case ~name:"FT find_live_node = brute force"
    gen_ft_setup (fun (params, status, tree, start) ->
      let sid = Subtrees.subtree_id_of_pid tree start in
      let svid p =
        Subtrees.subtree_vid_of_vid params (Ptree.vid_of_pid tree p)
      in
      let brute =
        (* Max-subtree-VID live member at or below start's subtree VID. *)
        List.filter
          (fun p -> Status_word.is_live status p && svid p <= svid start)
          (Subtrees.members tree ~subtree_id:sid)
        |> List.sort (fun a b -> compare (svid b) (svid a))
        |> function
        | [] -> None
        | p :: _ -> Some p
      in
      Subtrees.find_live_node_in_subtree tree status ~subtree_id:sid ~start
      = brute)

let prop_subtree_children_list_matches_brute =
  Test_support.qcheck_case ~name:"FT children_list = brute force"
    gen_ft_setup (fun (params, status, tree, p) ->
      let reduced = Subtrees.reduced_params params in
      let sid = Subtrees.subtree_id_of_pid tree p in
      let svid q =
        Subtrees.subtree_vid_of_vid params (Ptree.vid_of_pid tree q)
      in
      (* Live members of p's subtree that are strict descendants of p in
         the reduced tree, whose intermediate ancestors are all dead. *)
      let is_reduced_ancestor a d =
        Lesslog_vtree.Vtree.is_ancestor reduced
          ~ancestor:(Vid.unsafe_of_int (svid a))
          (Vid.unsafe_of_int (svid d))
      in
      let parent_in q = Subtrees.parent_in_subtree tree q in
      let rec intermediates_dead q =
        match parent_in q with
        | None -> false
        | Some parent ->
            if Pid.equal parent p then true
            else Status_word.is_dead status parent && intermediates_dead parent
      in
      let brute =
        List.filter
          (fun q ->
            (not (Pid.equal q p))
            && Status_word.is_live status q
            && is_reduced_ancestor p q && intermediates_dead q)
          (Subtrees.members tree ~subtree_id:sid)
        |> List.sort (fun a b -> compare (svid b) (svid a))
      in
      Subtrees.children_list_in_subtree tree status p = brute)

let prop_subtree_insertion_target_is_max_live =
  Test_support.qcheck_case ~name:"FT insertion target = max live svid"
    gen_ft_setup (fun (params, status, tree, p) ->
      let sid = Subtrees.subtree_id_of_pid tree p in
      let svid q =
        Subtrees.subtree_vid_of_vid params (Ptree.vid_of_pid tree q)
      in
      let brute =
        List.filter (Status_word.is_live status)
          (Subtrees.members tree ~subtree_id:sid)
        |> List.sort (fun a b -> compare (svid b) (svid a))
        |> function
        | [] -> None
        | q :: _ -> Some q
      in
      Subtrees.insertion_target_in_subtree tree status ~subtree_id:sid = brute)

let prop_live_offspring_bounded =
  Test_support.qcheck_case ~name:"live offspring <= offspring"
    QCheck2.Gen.(
      Test_support.gen_tree_setup >>= fun (params, status, tree) ->
      Test_support.gen_pid params >>= fun p -> return (status, tree, p))
    (fun (status, tree, p) ->
      let live = Topology.live_offspring_count tree status p in
      live >= 0 && live <= Ptree.offspring_count tree p)

(* --- Differential tests: cached layer vs. the naive oracle ----------- *)

(* Every cached query must return bit-identical answers to the naive
   reference implementations in [Topology.Naive], across a randomized
   kill/revive sequence. Checking after every mutation exercises the
   epoch-invalidation machinery: each effective [set_live]/[set_dead]
   must force a cache rebuild, and a stale answer shows up as a
   divergence from the oracle here. *)
let all_queries_agree params tree status =
  let module T = Topology in
  let module N = Topology.Naive in
  let space = Params.space params in
  T.max_live tree status = N.max_live tree status
  && T.insertion_target tree status = N.insertion_target tree status
  && List.for_all
       (fun i ->
         let p = pid i in
         T.find_live_node tree status ~start:p
         = N.find_live_node tree status ~start:p
         && T.children_list tree status p = N.children_list tree status p
         && T.first_alive_ancestor tree status p
            = N.first_alive_ancestor tree status p
         && T.has_live_with_greater_vid tree status p
            = N.has_live_with_greater_vid tree status p
         && T.live_offspring_count tree status p
            = N.live_offspring_count tree status p
         && T.route_next tree status p = N.route_next tree status p
         && T.route_path tree status ~origin:p
            = N.route_path tree status ~origin:p)
       (List.init space Fun.id)

let prop_cached_matches_naive =
  Test_support.qcheck_case ~name:"cached topology = naive oracle under churn"
    QCheck2.Gen.(
      Test_support.gen_params >>= fun params ->
      Test_support.gen_pid params >>= fun root ->
      bool >>= fun initially_live ->
      list_size (int_range 1 30)
        (pair bool (int_range 0 (Params.space params - 1)))
      >>= fun churn -> return (params, root, initially_live, churn))
    (fun (params, root, initially_live, churn) ->
      let status = Status_word.create params ~initially_live in
      let tree = Ptree.make params ~root in
      all_queries_agree params tree status
      && List.for_all
           (fun (revive, i) ->
             if revive then Status_word.set_live status (pid i)
             else Status_word.set_dead status (pid i);
             all_queries_agree params tree status)
           churn)

(* Mid-epoch differential: where [prop_cached_matches_naive] sweeps every
   query at quiescence after each mutation, this interleaves single
   queries *between* kill/revive/join mutations. Each query touches the
   cache in a different partial state — a children memo built this epoch,
   a VID view a few deltas behind — so a revalidation path that skips
   part of the catch-up (stale max-live VID, surviving memo entries)
   shows up as a single-query divergence from the oracle. *)
let prop_cached_mid_epoch =
  Test_support.qcheck_case ~name:"cached topology = naive oracle mid-epoch"
    QCheck2.Gen.(
      Test_support.gen_params >>= fun params ->
      Test_support.gen_pid params >>= fun root ->
      list_size (int_range 1 120)
        (pair (int_range 0 9) (int_range 0 (Params.space params - 1)))
      >>= fun ops -> return (params, root, ops))
    (fun (params, root, ops) ->
      let module T = Topology in
      let module N = Topology.Naive in
      let status = Status_word.create params ~initially_live:true in
      let tree = Ptree.make params ~root in
      List.for_all
        (fun (op, i) ->
          let p = pid i in
          match op with
          | 0 -> (* kill (join/leave semantics are the same bit flips) *)
              Status_word.set_dead status p;
              true
          | 1 ->
              Status_word.set_live status p;
              true
          | 2 ->
              T.find_live_node tree status ~start:p
              = N.find_live_node tree status ~start:p
          | 3 -> T.children_list tree status p = N.children_list tree status p
          | 4 ->
              T.first_alive_ancestor tree status p
              = N.first_alive_ancestor tree status p
          | 5 ->
              T.has_live_with_greater_vid tree status p
              = N.has_live_with_greater_vid tree status p
          | 6 ->
              T.live_offspring_count tree status p
              = N.live_offspring_count tree status p
          | 7 -> T.route_next tree status p = N.route_next tree status p
          | 8 ->
              T.route_path tree status ~origin:p
              = N.route_path tree status ~origin:p
          | _ -> T.max_live tree status = N.max_live tree status)
        ops)

(* Two trees sharing one status word must not poison each other's cache
   entries, and a copied status word must not alias the original's. *)
let test_cache_isolation () =
  let status, tree4 = figure3 () in
  let tree9 = Ptree.make params4 ~root:(pid 9) in
  let check_both () =
    List.iter
      (fun tree ->
        Alcotest.(check bool) "matches naive" true
          (all_queries_agree params4 tree status))
      [ tree4; tree9 ]
  in
  check_both ();
  Status_word.set_dead status (pid 6);
  check_both ();
  let snapshot = Status_word.copy status in
  Status_word.set_live status (pid 6);
  check_both ();
  Alcotest.(check bool) "copy unaffected" true
    (all_queries_agree params4 tree4 snapshot);
  Alcotest.(check bool) "copy still sees P(6) dead" true
    (Status_word.is_dead snapshot (pid 6))

(* Delta catch-up, deterministically: full query sweeps separated by
   windows of exactly 0, 1, 63, 64, 65 and 200 effective mutations, so an
   entry catches up from the ring (up to 64 deltas behind) or rebuilds
   (further behind). A window first flips a marker PID that nothing else
   in it touches, so a catch-up that loses its oldest delta leaves the
   marker's bit stale; then it re-flips PID 7 every fourth step, kills
   tree A's current max-live node and revives a node above it. Tree B is
   swept every second window, so its catch-ups span two windows (64 of
   them land exactly on the ring size), and a copy taken mid-sequence
   runs its own windows against its own ring. [prop_cached_mid_epoch]
   rarely leaves more than 64 epochs between queries, so it seldom
   reaches the overflow rebuild. *)
let test_catch_up_windows () =
  let params = Params.create ~m:6 () in
  let mask = Params.mask params in
  let tree_a = Ptree.make params ~root:(pid 0)
  and tree_b = Ptree.make params ~root:(pid 45) in
  let rng = Rng.create ~seed:23 in
  (* Reads only the status word and the naive scans, never the cache, so
     the entries see the whole window at their next query. *)
  let marker = pid 50 in
  let mutate status n =
    let toggle p =
      if Status_word.is_live status p then Status_word.set_dead status p
      else Status_word.set_live status p
    in
    let flip p = if not (Pid.equal p marker) then toggle p in
    let stop = Status_word.epoch status + n in
    if n > 0 then toggle marker;
    let step = ref 0 in
    while Status_word.epoch status < stop do
      (match !step mod 4 with
      | 0 -> flip (pid 7)
      | 1 -> (
          match Topology.Naive.max_live tree_a status with
          | Some g when not (Pid.equal g marker) -> Status_word.set_dead status g
          | Some _ | None -> ())
      | 2 ->
          let top =
            match Topology.Naive.max_live tree_a status with
            | Some g -> Vid.to_int (Ptree.vid_of_pid tree_a g)
            | None -> -1
          in
          if top < mask then
            flip
              (Ptree.pid_of_vid tree_a
                 (Vid.unsafe_of_int (top + 1 + Rng.int rng (mask - top))))
      | _ -> flip (pid (Rng.int rng (mask + 1))));
      incr step
    done
  in
  let agree label tree status =
    Alcotest.(check bool) label true (all_queries_agree params tree status)
  in
  let status = Status_word.create params ~initially_live:true in
  agree "A initially" tree_a status;
  agree "B initially" tree_b status;
  let copy = ref None in
  List.iteri
    (fun i n ->
      mutate status n;
      let label = Printf.sprintf "window %d (%d mutations)" i n in
      agree ("A, " ^ label) tree_a status;
      if i mod 2 = 1 then agree ("B, " ^ label) tree_b status;
      if i = 4 then begin
        let c = Status_word.copy status in
        agree "A on the copy" tree_a c;
        copy := Some c
      end;
      Option.iter
        (fun c ->
          mutate c n;
          agree ("A on the copy, " ^ label) tree_a c;
          agree ("B on the copy, " ^ label) tree_b c)
        !copy)
    [ 0; 1; 63; 64; 65; 200; 30; 34; 3; 61; 1 ]

(* The property tests stop at m = 8; this checks the climb on wider
   VIDs, m = 14 and m = 20. Sampled PIDs on a 40%-dead word, for a tree
   whose root is live and one whose root is dead (the migration hop). *)
let test_route_wide_m () =
  List.iter
    (fun m ->
      let params = Params.create ~m () in
      let space = Params.space params in
      let status = Status_word.create params ~initially_live:true in
      let rng = Rng.create ~seed:m in
      ignore (Status_word.kill_fraction status rng ~fraction:0.4);
      let live_root = Option.get (Status_word.random_live status rng)
      and dead_root = Option.get (Status_word.random_dead status rng) in
      List.iter
        (fun root ->
          let tree = Ptree.make params ~root in
          let check query naive cached p =
            Alcotest.(check (option int))
              (Printf.sprintf "m=%d root=%d %s %d" m (Pid.to_int root) query
                 (Pid.to_int p))
              (Option.map Pid.to_int (naive tree status p))
              (Option.map Pid.to_int (cached tree status p))
          in
          for _ = 1 to 300 do
            let p = pid (Rng.int rng space) in
            check "first_alive_ancestor" Topology.Naive.first_alive_ancestor
              Topology.first_alive_ancestor p;
            check "route_next" Topology.Naive.route_next Topology.route_next p
          done)
        [ live_root; dead_root ])
    [ 14; 20 ]

(* The option-based subtree climb routing used before the integer one:
   Property 2 on the subtree VID through [Vtree] and the reduced
   parameters, a [Some] per level, then FINDLIVENODE's downward scan
   when the subtree root is dead. The differential oracle for
   [Subtrees.route_next_in_subtree] and its option wrappers. *)
module Subtree_oracle = struct
  let first_alive_ancestor tree status p =
    let rec climb p =
      match Subtrees.parent_in_subtree tree p with
      | None -> None
      | Some q -> if Status_word.is_live status q then Some q else climb q
    in
    climb p

  let insertion_target tree status ~subtree_id =
    let params = Ptree.params tree in
    let rec scan sv =
      if sv < 0 then None
      else
        let p =
          Ptree.pid_of_vid tree
            (Subtrees.compose_vid params ~subtree_vid:sv ~subtree_id)
        in
        if Status_word.is_live status p then Some p else scan (sv - 1)
    in
    scan (Params.subtree_space params - 1)

  let route_next tree status p =
    match first_alive_ancestor tree status p with
    | Some _ as a -> a
    | None -> (
        let sid = Subtrees.subtree_id_of_pid tree p in
        if Status_word.is_live status (Subtrees.subtree_root tree ~subtree_id:sid)
        then None
        else
          match insertion_target tree status ~subtree_id:sid with
          | Some g when not (Pid.equal g p) -> Some g
          | Some _ | None -> None)

  let route_path tree status ~origin =
    let rec go acc p =
      match route_next tree status p with
      | None -> List.rev (p :: acc)
      | Some q -> go (p :: acc) q
    in
    go [] origin
end

(* m <= 12, b in {1, 2, 3}, a random live density from none to all, and
   on top: every subtree root killed, or one subtree killed whole. *)
let gen_subtree_climb_setup =
  QCheck2.Gen.(
    int_range 1 3 >>= fun b ->
    int_range (b + 1) 12 >>= fun m ->
    int_range 0 4 >>= fun density ->
    bool >>= fun kill_roots ->
    bool >>= fun kill_one ->
    int >>= fun seed ->
    let params = Params.create ~m ~b () in
    let rng = Rng.create ~seed in
    let tree = Ptree.make params ~root:(pid (Rng.int rng (Params.space params))) in
    let status = Status_word.create params ~initially_live:false in
    for i = 0 to Params.mask params do
      if Rng.float rng 4.0 < float_of_int density then
        Status_word.set_live status (pid i)
    done;
    for sid = 0 to Params.subtree_count params - 1 do
      if kill_roots then
        Status_word.set_dead status (Subtrees.subtree_root tree ~subtree_id:sid)
    done;
    if kill_one then
      List.iter (Status_word.set_dead status)
        (Subtrees.members tree
           ~subtree_id:(Rng.int rng (Params.subtree_count params)));
    return (params, status, tree))

let prop_subtree_climb_matches_oracle =
  Test_support.qcheck_case ~count:150
    ~name:"FT integer climb = option-based climb (every PID)"
    gen_subtree_climb_setup (fun (params, status, tree) ->
      let ok = ref true in
      for i = 0 to Params.mask params do
        let p = pid i in
        let expected =
          match Subtree_oracle.route_next tree status p with
          | None -> -1
          | Some q -> Pid.to_int q
        in
        if
          Subtrees.route_next_in_subtree tree status i <> expected
          || Subtrees.first_alive_ancestor_in_subtree tree status p
             <> Subtree_oracle.first_alive_ancestor tree status p
          || i land 7 = 0
             && Subtrees.route_path_in_subtree tree status ~origin:p
                <> Subtree_oracle.route_path tree status ~origin:p
        then ok := false
      done;
      for sid = 0 to Params.subtree_count params - 1 do
        if
          Subtrees.insertion_target_in_subtree tree status ~subtree_id:sid
          <> Subtree_oracle.insertion_target tree status ~subtree_id:sid
          || Subtrees.max_live_in_subtree tree status ~subtree_id:sid
             <> Subtree_oracle.insertion_target tree status ~subtree_id:sid
        then ok := false
      done;
      !ok)

let () =
  Alcotest.run "topology"
    [
      ( "figure 3 (advanced model)",
        [
          Alcotest.test_case "children list with dead nodes" `Quick
            test_figure3_children_list;
          Alcotest.test_case "FINDLIVENODE example" `Quick
            test_figure3_findlivenode;
          Alcotest.test_case "FINDLIVENODE live start" `Quick
            test_findlivenode_live_start;
          Alcotest.test_case "FINDLIVENODE empty system" `Quick
            test_findlivenode_all_dead;
          Alcotest.test_case "first alive ancestor" `Quick
            test_first_alive_ancestor;
          Alcotest.test_case "max live / greater VID" `Quick test_max_live;
          Alcotest.test_case "route in complete tree" `Quick
            test_route_path_complete_tree;
          Alcotest.test_case "route with dead root" `Quick
            test_route_path_with_dead_root;
          Alcotest.test_case "live offspring count" `Quick
            test_live_offspring_count;
        ] );
      ( "figure 4 (fault-tolerant subtrees)",
        [
          Alcotest.test_case "decomposition" `Quick test_subtree_decomposition;
          Alcotest.test_case "vid split" `Quick test_subtree_vid_split;
          Alcotest.test_case "subtree roots" `Quick test_subtree_roots;
          Alcotest.test_case "navigation confined" `Quick
            test_subtree_navigation_stays_inside;
          Alcotest.test_case "2^b insertion targets" `Quick
            test_insertion_targets_ft;
          Alcotest.test_case "migrate vid" `Quick test_migrate_vid;
        ] );
      ( "properties",
        [
          prop_find_live_node_matches_brute;
          prop_children_list_matches_brute;
          prop_children_list_all_live;
          prop_route_terminates_at_holder_location;
          prop_route_all_live;
          prop_route_length_bounded;
          prop_subtree_route_stays_in_subtree;
          prop_subtree_find_live_matches_brute;
          prop_subtree_children_list_matches_brute;
          prop_subtree_insertion_target_is_max_live;
          prop_live_offspring_bounded;
        ] );
      ( "differential (subtree climb)", [ prop_subtree_climb_matches_oracle ] );
      ( "differential (cached vs naive)",
        [
          prop_cached_matches_naive;
          prop_cached_mid_epoch;
          Alcotest.test_case "cache isolation across trees/copies" `Quick
            test_cache_isolation;
          Alcotest.test_case "catch-up windows vs naive" `Quick
            test_catch_up_windows;
          Alcotest.test_case "route climb at m = 14, 20 vs naive" `Quick
            test_route_wide_m;
        ] );
    ]
