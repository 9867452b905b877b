open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Ptree = Lesslog_ptree.Ptree
module Topology = Lesslog_topology.Topology
module Subtrees = Lesslog_topology.Subtrees
module File_store = Lesslog_storage.File_store
module Rng = Lesslog_prng.Rng

type get_result = {
  server : Pid.t option;
  hops : int;
  path : Pid.t list;
  subtree_migrations : int;
}

type update_result = { version : int; updated : int; messages : int }

(* The subtree exponent every dead-aware query of this cluster runs
   with: b = 0 is the whole tree, the one-subtree case. *)
let scope cluster = Params.b (Cluster.params cluster)

let insert ?(now = 0.0) cluster ~key =
  Cluster.register_key cluster key;
  let targets =
    Topology.insertion_targets ~b:(scope cluster)
      (Cluster.tree_of_key cluster key)
      (Cluster.status cluster)
  in
  List.iter
    (fun p ->
      Cluster.add cluster p ~key ~origin:File_store.Inserted
        ~version:0 ~now)
    targets;
  Log.debug (fun f ->
      f "insert %S -> [%s]" key
        (String.concat ";"
           (List.map (fun p -> string_of_int (Pid.to_int p)) targets)));
  targets

(* --- Erasure-coded cold tier ---

   A Cold-classified key trades its full copies for the k + r fragments
   of a systematic Reed-Solomon (k, r) code ({!Lesslog_erasure.Erasure}).
   The simulator's stores are metadata-only, so what moves here are
   fragment *entries* (key, index, version); the byte-level transform
   itself is the codec's, and the placement/repair logic below preserves
   exactly its precondition — any k surviving fragments rebuild the
   payload, fewer lose it. *)

module Erasure = Lesslog_erasure.Erasure

let frag_key key index = Printf.sprintf "%s#frag%d" key index

(* Fragment indices that still have at least one live holder. *)
let live_fragments cluster ~key ~k ~r =
  let acc = ref [] in
  for i = k + r - 1 downto 0 do
    if Cluster.holders cluster ~key:(frag_key key i) <> [] then acc := i :: !acc
  done;
  !acc

let live_fragment_count cluster ~key =
  match Cluster.coded_params cluster ~key with
  | None -> 0
  | Some (k, r) -> List.length (live_fragments cluster ~key ~k ~r)

let coded_servable cluster ~key =
  match Cluster.coded_params cluster ~key with
  | None -> false
  | Some (k, r) -> List.length (live_fragments cluster ~key ~k ~r) >= k

let holds_fragment cluster p ~key =
  match Cluster.coded_params cluster ~key with
  | None -> false
  | Some (k, r) ->
      let rec scan i =
        i < k + r
        && (Cluster.holds cluster p ~key:(frag_key key i) || scan (i + 1))
      in
      scan 0

(* The request walk, hop by hop: the common request is answered within a
   hop or two, so no route is computed ahead. Each hop is one
   {!Topology.route} step — the climb inside the current subtree and, at
   its dead end, the Section 4 migration to the next subtree, which
   counts as one hop. A route longer than [budget] hops breaks the
   step's bound ({!Topology.route}) and raises rather than cycling. *)
let rec walk cluster held tree status ~budget ~now ~key ~origin visited hops
    migrations p =
  if Lesslog_bits.Packed_bits.get held (Pid.to_int p) then begin
    File_store.record_access (Cluster.store cluster p) ~key ~now;
    { server = Some p; hops; path = List.rev (p :: visited);
      subtree_migrations = migrations }
  end
  else
    match
      Topology.route
        ~b:(Params.b (Ptree.params tree))
        tree status ~origin:(Pid.to_int origin) (Pid.to_int p)
    with
    | -1 ->
        { server = None; hops; path = List.rev (p :: visited);
          subtree_migrations = migrations }
    | q ->
        if hops >= budget then
          failwith
            (Printf.sprintf "Ops.get: route exceeds its %d-hop budget" budget);
        let q = Pid.unsafe_of_int q in
        let migrations =
          if
            Subtrees.subtree_id_of_pid tree q
            = Subtrees.subtree_id_of_pid tree p
          then migrations
          else migrations + 1
        in
        walk cluster held tree status ~budget ~now ~key ~origin (p :: visited)
          (hops + 1) migrations q

(* When the walk found no full copy but passed through a holder of a
   coded fragment, and at least k fragments are live somewhere, that
   node can gather k fragments and decode — the request is served. The
   fan-in traffic is cost accounting (Des_sim), not extra hops. *)
let coded_fallback cluster ~now ~key (r : get_result) =
  match r.server with
  | Some _ -> r
  | None -> (
      if not (coded_servable cluster ~key) then r
      else
        match
          List.find_opt (fun p -> holds_fragment cluster p ~key) r.path
        with
        | None -> r
        | Some p ->
            File_store.record_access (Cluster.store cluster p) ~key ~now;
            { r with server = Some p })

let get ?(now = 0.0) cluster ~origin ~key =
  if Status_word.is_dead (Cluster.status cluster) origin then
    invalid_arg "Ops.get: dead origin";
  let params = Cluster.params cluster in
  let b = Params.b params in
  let r =
    walk cluster
      (Cluster.holder_bitset cluster ~key)
      (Cluster.tree_of_key cluster key)
      (Cluster.status cluster)
      ~budget:(((1 lsl b) * (Params.m params - b + 1)) - 1)
      ~now ~key ~origin [] 0 0 origin
  in
  coded_fallback cluster ~now ~key r

let rec without holds = function
  | [] -> []
  | p :: rest -> if holds p then without holds rest else p :: without holds rest

(* The root of the overloaded node's scope: the tree's root when b = 0,
   its binomial subtree's root (Section 4) otherwise. *)
let scope_root tree p =
  Subtrees.subtree_root tree ~subtree_id:(Subtrees.subtree_id_of_pid tree p)

(* Whether REPLICATEFILE's attribution is ambiguous (Section 3): the
   overloaded node is not the root of its tree but the max-VID live node
   under a dead root, so the root's children list competes with its own. *)
let ambiguous ~b tree status ~overloaded =
  not
    (Pid.equal overloaded (scope_root tree overloaded)
    || Topology.has_live_with_greater_vid ~b tree status overloaded)

let replication_candidates cluster ~overloaded ~key =
  let b = scope cluster and tree = Cluster.tree_of_key cluster key in
  let status = Cluster.status cluster in
  let holds p = Cluster.holds cluster p ~key in
  let own = without holds (Topology.children_list ~b tree status overloaded) in
  if ambiguous ~b tree status ~overloaded then
    ( own,
      without holds
        (Topology.children_list ~b tree status (scope_root tree overloaded))
    )
  else (own, [])

(* REPLICATEFILE's target: the first non-holder of the overloaded node's
   children list and, when attribution is ambiguous, of the root's, each
   found by one list-free fold over the live children frontier. Between
   two candidates the proportional choice (Section 3) attributes the
   overload to the overloaded node's offspring vs. the rest of its
   subtree's live population in proportion to their sizes. *)
let choose ~rng ~holds ~b tree status ~overloaded =
  let own = Topology.first_child ~b tree status ~skip:holds overloaded in
  let root =
    if ambiguous ~b tree status ~overloaded then
      Topology.first_child ~b tree status ~skip:holds
        (scope_root tree overloaded)
    else -1
  in
  if own < 0 && root < 0 then None
  else if root < 0 then Some (Pid.unsafe_of_int own)
  else if own < 0 then Some (Pid.unsafe_of_int root)
  else begin
    let offspring = Topology.live_offspring_count ~b tree status overloaded in
    let population =
      Topology.live_population ~b tree status
        ~subtree_id:(Subtrees.subtree_id_of_pid tree overloaded)
    in
    let rest = max 0 (population - 1 - offspring) in
    let total = offspring + rest in
    let p =
      if total = 0 then 0.0 else float_of_int offspring /. float_of_int total
    in
    Some (Pid.unsafe_of_int (if Rng.bernoulli rng ~p then own else root))
  end

let current_version cluster ~key ~overloaded =
  match File_store.version (Cluster.store cluster overloaded) ~key with
  | Some v -> v
  | None -> (
      match Cluster.holders cluster ~key with
      | [] -> 0
      | p :: _ -> (
          match File_store.version (Cluster.store cluster p) ~key with
          | Some v -> v
          | None -> 0))

let choose_replica_target ~rng cluster ~overloaded ~key =
  choose ~rng
    ~holds:(fun p -> Cluster.holds cluster p ~key)
    ~b:(scope cluster)
    (Cluster.tree_of_key cluster key)
    (Cluster.status cluster) ~overloaded

let replicate ?(now = 0.0) ~rng cluster ~overloaded ~key =
  match choose_replica_target ~rng cluster ~overloaded ~key with
  | None ->
      Log.debug (fun f ->
          f "replicate %S: P(%d) has no candidate left" key
            (Pid.to_int overloaded));
      None
  | Some dest ->
      let version = current_version cluster ~key ~overloaded in
      Cluster.add cluster dest ~key
        ~origin:File_store.Replicated ~version ~now;
      Log.debug (fun f ->
          f "replicate %S: P(%d) -> P(%d) (v%d)" key (Pid.to_int overloaded)
            (Pid.to_int dest) version);
      Some dest

let max_holder_version cluster ~key =
  List.fold_left
    (fun acc p ->
      match File_store.version (Cluster.store cluster p) ~key with
      | Some v -> max acc v
      | None -> acc)
    0
    (Cluster.holders cluster ~key)

(* Top-down broadcast from a set of entry nodes: a live holder applies the
   action and forwards to its children list; a non-holder discards. *)
let broadcast cluster ~key ~on_holder ~children_list_of entries =
  let messages = ref 0 and updated = ref 0 in
  let rec visit p =
    if Cluster.holds cluster p ~key then begin
      on_holder p;
      incr updated;
      let children = children_list_of p in
      List.iter
        (fun c ->
          incr messages;
          visit c)
        children
    end
  in
  List.iter
    (fun p ->
      incr messages;
      visit p)
    entries;
  (!updated, !messages)

(* Run the top-down broadcast from the proper entry points: each
   subtree's root (the tree's root when b = 0), or its children list when
   it is dead. *)
let broadcast_all cluster ~tree ~status ~key ~on_holder =
  let b = scope cluster in
  let updated = ref 0 and messages = ref 0 in
  for subtree_id = 0 to (1 lsl b) - 1 do
    let root = Subtrees.subtree_root tree ~subtree_id in
    let entries =
      if Status_word.is_live status root then [ root ]
      else Topology.children_list ~b tree status root
    in
    let u, m =
      broadcast cluster ~key ~on_holder
        ~children_list_of:(Topology.children_list ~b tree status)
        entries
    in
    updated := !updated + u;
    messages := !messages + m
  done;
  (!updated, !messages)

let update ?now cluster ~key =
  ignore now;
  let tree = Cluster.tree_of_key cluster key in
  let status = Cluster.status cluster in
  let version = max_holder_version cluster ~key + 1 in
  let updated, messages =
    broadcast_all cluster ~tree ~status ~key
      ~on_holder:(fun p ->
        File_store.set_version (Cluster.store cluster p) ~key ~version)
  in
  Log.debug (fun f ->
      f "update %S: v%d to %d copies in %d messages" key version updated
        messages);
  { version; updated; messages }

let delete ?now cluster ~key =
  ignore now;
  let tree = Cluster.tree_of_key cluster key in
  let status = Cluster.status cluster in
  let updated, messages =
    broadcast_all cluster ~tree ~status ~key
      ~on_holder:(fun p -> File_store.remove (Cluster.store cluster p) ~key)
  in
  Cluster.unregister_key cluster key;
  { version = 0; updated; messages }

(* --- Substrate-parameterized operations (ARCHITECTURE.md, Substrate
   contract): the same protocol steps as above, but every routing and
   placement decision is delegated to a Substrate.t value, so the identical
   code runs over the native trees, Chord, Pastry or CAN. *)

module Substrate = Lesslog_substrate.Substrate

let insert_via ?(now = 0.0) sub cluster ~key =
  (* A self-organized substrate's [owner] is one node of the whole tree;
     ADVANCEDINSERTFILE wants one copy per subtree. *)
  if sub.Substrate.membership = Substrate.Self_organized && scope cluster > 0
  then
    invalid_arg
      "Ops.insert_via: a Self_organized substrate at b > 0 places one copy \
       per subtree; use Ops.insert";
  Cluster.register_key cluster key;
  match sub.Substrate.owner ~key with
  | None -> []
  | Some p ->
      Cluster.add cluster p ~key ~origin:File_store.Inserted
        ~version:0 ~now;
      Log.debug (fun f ->
          f "insert[%s] %S -> P(%d)" sub.Substrate.name key (Pid.to_int p));
      [ p ]

(* Placement of fragment [index], mirroring ADVANCEDINSERTFILE's
   one-copy-per-subtree spread: fragment i goes to subtree (i mod 2^b),
   preferably at that subtree's insertion target (the node every request
   walk in the subtree dead-ends at, so coded GETs terminate on a
   fragment holder), then at further live members of the subtree in
   climb-path order. [taken] holds the slots already carrying a fragment
   of this key — the code's whole point is distinct holders. *)
let fragment_candidates cluster ~key ~index =
  let tree = Cluster.tree_of_key cluster key in
  let status = Cluster.status cluster in
  let b = scope cluster in
  let sid = index mod (1 lsl b) in
  let target = Topology.insertion_target ~b tree status ~subtree_id:sid in
  let scoped =
    if b > 0 then
      let rest =
        List.filter (Status_word.is_live status)
          (Subtrees.members tree ~subtree_id:sid)
      in
      match target with Some p -> p :: rest | None -> rest
    else Option.to_list target
  in
  (* Global fallback: every live slot, ascending PID. *)
  let global =
    Lesslog_bits.Packed_bits.fold_set (Status_word.live_bits status) ~init:[]
      ~f:(fun acc i -> Pid.unsafe_of_int i :: acc)
    |> List.rev
  in
  scoped @ global

let pick_target ?substrate cluster ~key ~index ~taken =
  let rec first = function
    | [] -> None
    | p :: rest ->
        if
          Hashtbl.mem taken (Pid.to_int p)
          || Status_word.is_dead (Cluster.status cluster) p
        then first rest
        else begin
          Hashtbl.replace taken (Pid.to_int p) ();
          Some p
        end
  in
  (* Substrate placement first: the owner of the fragment key — distinct
     keys hash apart, spreading fragments — then its neighbors; the
     native scoped/global scan is the collision fallback either way. *)
  let sub_candidates =
    match substrate with
    | None -> []
    | Some sub -> (
        let fkey = frag_key key index in
        match sub.Substrate.owner ~key:fkey with
        | Some o -> o :: sub.Substrate.neighbors ~key:fkey o
        | None -> [])
  in
  first (sub_candidates @ fragment_candidates cluster ~key ~index)

(* Remove a key from every store whose slot bit is set in the holder
   index, live or dead — a stale full copy on a dead node would come
   back as authoritative data when the node rejoins. The set bits are
   collected first: removing mutates the very bitset being walked. *)
let remove_everywhere cluster ~key =
  let bits = Cluster.holder_bitset cluster ~key in
  let slots =
    Lesslog_bits.Packed_bits.fold_set bits ~init:[] ~f:(fun acc i -> i :: acc)
  in
  List.iter
    (fun i ->
      File_store.remove (Cluster.store cluster (Pid.unsafe_of_int i)) ~key)
    slots;
  List.length slots

let max_fragment_version cluster ~key ~k ~r =
  let v = ref 0 in
  for i = 0 to k + r - 1 do
    List.iter
      (fun p ->
        match File_store.version (Cluster.store cluster p) ~key:(frag_key key i)
        with
        | Some x -> v := max !v x
        | None -> ())
      (Cluster.holders cluster ~key:(frag_key key i))
  done;
  !v

let demote_to_coded ?(now = 0.0) ?substrate cluster ~key ~k ~r =
  if Cluster.coded_params cluster ~key <> None then None
  else begin
    (* Validates k >= 1, r >= 0, k + r <= 256. *)
    let (_ : Erasure.t) = Erasure.create ~k ~r in
    let n = k + r in
    let version = max_holder_version cluster ~key in
    let taken = Hashtbl.create n in
    let targets =
      List.init n (fun i ->
          Option.map
            (fun p -> (i, p))
            (pick_target ?substrate cluster ~key ~index:i ~taken))
      |> List.filter_map Fun.id
    in
    if List.length targets < n then None
    else begin
      List.iter
        (fun (i, p) ->
          Cluster.add
            ~tier:(File_store.Coded { index = i; k; r })
            cluster p ~key:(frag_key key i)
            ~origin:File_store.Inserted ~version ~now)
        targets;
      let (_ : int) = remove_everywhere cluster ~key in
      Cluster.register_coded cluster key ~k ~r;
      Log.debug (fun f ->
          f "demote %S -> (%d,%d) fragments at [%s]" key k r
            (String.concat ";"
               (List.map (fun (_, p) -> string_of_int (Pid.to_int p)) targets)));
      Some (List.map snd targets)
    end
  end

let promote_from_coded ?(now = 0.0) ?substrate cluster ~key ~copies =
  match Cluster.coded_params cluster ~key with
  | None -> None
  | Some (k, r) ->
      if List.length (live_fragments cluster ~key ~k ~r) < k then None
      else begin
        let version = max_fragment_version cluster ~key ~k ~r in
        (* Authoritative copies go back to the insertion targets; extras
           up to [copies] fill ascending live PIDs, as plain replicas. *)
        let tree = Cluster.tree_of_key cluster key in
        let status = Cluster.status cluster in
        let targets =
          match substrate with
          | Some sub -> (
              match sub.Substrate.owner ~key with Some p -> [ p ] | None -> [])
          | None -> Topology.insertion_targets ~b:(scope cluster) tree status
        in
        if targets = [] then None
        else begin
          (* Drop every fragment entry first (any slot, live or dead). *)
          for i = 0 to k + r - 1 do
            let (_ : int) = remove_everywhere cluster ~key:(frag_key key i) in
            ()
          done;
          Cluster.unregister_coded cluster key;
          List.iter
            (fun p ->
              Cluster.add cluster p ~key
                ~origin:File_store.Inserted ~version ~now)
            targets;
          let taken = Hashtbl.create copies in
          List.iter
            (fun p -> Hashtbl.replace taken (Pid.to_int p) ())
            targets;
          let placed = ref (List.rev targets) in
          let live = Status_word.live_bits status in
          (try
             Lesslog_bits.Packed_bits.iter_set live (fun i ->
                 if List.length !placed >= copies then raise Exit;
                 if not (Hashtbl.mem taken i) then begin
                   Hashtbl.replace taken i ();
                   let p = Pid.unsafe_of_int i in
                   Cluster.add cluster p ~key
                     ~origin:File_store.Replicated ~version ~now;
                   placed := p :: !placed
                 end)
           with Exit -> ());
          Log.debug (fun f ->
              f "promote %S: (%d,%d) -> %d full copies" key k r
                (List.length !placed));
          Some (List.rev !placed)
        end
      end

let repair_coded ?(now = 0.0) ?substrate cluster ~key =
  match Cluster.coded_params cluster ~key with
  | None -> `Intact
  | Some (k, r) ->
      let live = live_fragments cluster ~key ~k ~r in
      let missing =
        List.filter
          (fun i -> not (List.mem i live))
          (List.init (k + r) Fun.id)
      in
      if missing = [] then `Intact
      else if List.length live < k then `Lost
      else begin
        let version = max_fragment_version cluster ~key ~k ~r in
        (* Never co-locate the rebuilt fragment with a surviving one. *)
        let taken = Hashtbl.create (k + r) in
        List.iter
          (fun i ->
            List.iter
              (fun p -> Hashtbl.replace taken (Pid.to_int p) ())
              (Cluster.holders cluster ~key:(frag_key key i)))
          live;
        let rebuilt =
          List.filter
            (fun i ->
              match pick_target ?substrate cluster ~key ~index:i ~taken with
              | None -> false
              | Some p ->
                  Cluster.add
                    ~tier:(File_store.Coded { index = i; k; r })
                    cluster p ~key:(frag_key key i)
                    ~origin:File_store.Inserted ~version ~now;
                  true)
            missing
        in
        Log.debug (fun f ->
            f "repair %S: rebuilt %d of %d missing fragment(s)" key
              (List.length rebuilt) (List.length missing));
        `Repaired (List.length rebuilt)
      end

let on_membership_via ?(now = 0.0) ?on_coded_repair sub cluster ~event =
  let status = Cluster.status cluster in
  let relocated = ref 0 in
  (* Re-home a key whose current owner lacks a copy; versions survive
     through any live holder, and a fully lost key is re-created at
     version 0 from the registry (the same integrity registry that drives
     the native Self_org recovery). Keys demoted to the coded tier have
     no full copies by design — their repair is [repair_coded] below. *)
  let repair_key key =
    if Cluster.coded_params cluster ~key <> None then ()
    else
      match sub.Substrate.owner ~key with
      | None -> ()
      | Some o ->
          if not (Cluster.holds cluster o ~key) then begin
            let version = max_holder_version cluster ~key in
            Cluster.add cluster o ~key
              ~origin:File_store.Inserted ~version ~now;
            incr relocated
          end
  in
  (match event with
  | `Join p ->
      if Status_word.is_live status p then
        invalid_arg "Ops.on_membership_via: join of a live node";
      Status_word.set_live status p;
      sub.Substrate.notify ()
  | `Leave p ->
      if Status_word.is_dead status p then
        invalid_arg "Ops.on_membership_via: leave of a dead node";
      (* Graceful departure: hand each held copy off before dropping the
         store, so a sole copy keeps its version. *)
      let store = Cluster.store cluster p in
      (* Coded fragments are not handed off under their fragment key —
         they are dropped and rebuilt by [repair_coded] below. *)
      let saved =
        List.filter_map
          (fun key ->
            match File_store.tier store ~key with
            | Some (File_store.Coded _) -> None
            | _ ->
                Some
                  (key, Option.value ~default:0 (File_store.version store ~key)))
          (File_store.keys store)
      in
      Status_word.set_dead status p;
      sub.Substrate.notify ();
      List.iter
        (fun key -> File_store.remove store ~key)
        (File_store.keys store);
      List.iter
        (fun (key, version) ->
          if Cluster.holders cluster ~key = [] then
            match sub.Substrate.owner ~key with
            | None -> ()
            | Some o ->
                Cluster.add cluster o ~key
                  ~origin:File_store.Inserted ~version ~now;
                incr relocated)
        saved
  | `Fail p ->
      if Status_word.is_dead status p then
        invalid_arg "Ops.on_membership_via: fail of a dead node";
      (* Crash: the store is lost before anything can be handed off. *)
      Status_word.set_dead status p;
      sub.Substrate.notify ();
      let store = Cluster.store cluster p in
      List.iter
        (fun key -> File_store.remove store ~key)
        (File_store.keys store));
  List.iter repair_key (Cluster.registered_keys cluster);
  (* Coded-tier repair: rebuild any fragment the event left without a
     live holder, from the >= k survivors. *)
  List.iter
    (fun key ->
      match repair_coded ~now ~substrate:sub cluster ~key with
      | `Intact -> ()
      | `Lost -> (
          match on_coded_repair with
          | Some f -> f ~key ~rebuilt:0 ~lost:true
          | None -> ())
      | `Repaired n -> (
          match on_coded_repair with
          | Some f -> f ~key ~rebuilt:n ~lost:false
          | None -> ()))
    (Cluster.coded_keys cluster);
  !relocated

let stale_copies cluster ~key =
  let top = max_holder_version cluster ~key in
  List.filter
    (fun p ->
      match File_store.version (Cluster.store cluster p) ~key with
      | Some v -> v < top
      | None -> false)
    (Cluster.holders cluster ~key)
