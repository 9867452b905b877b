(* Per-subtree reference implementations over member lists: Property 2
   on the subtree VID through [Vtree] and the reduced parameters, a
   [Some] per level, FINDLIVENODE's downward scan when the subtree root
   is dead, and the other queries as filters over the subtree's members.
   The differential oracle for every [Topology] query with [~b]; at
   b = 0 the only subtree is the whole tree. [route] adds the Section 4
   request step, written from its statement over the same lists. *)

open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Ptree = Lesslog_ptree.Ptree
module Vtree = Lesslog_vtree.Vtree
module Subtrees = Lesslog_topology.Subtrees

let svid tree p =
  Subtrees.subtree_vid_of_vid (Ptree.params tree) (Ptree.vid_of_pid tree p)

(* Live members of [p]'s subtree, by descending subtree VID. *)
let live_members tree status p =
  List.filter (Status_word.is_live status)
    (Subtrees.members tree ~subtree_id:(Subtrees.subtree_id_of_pid tree p))

let find_live_node tree status ~start =
  List.find_opt
    (fun q -> svid tree q <= svid tree start)
    (live_members tree status start)

let has_live_with_greater_vid tree status p =
  List.exists
    (fun q -> svid tree q > svid tree p)
    (live_members tree status p)

let is_strict_descendant tree ~ancestor q =
  (not (Pid.equal q ancestor))
  && Vtree.is_ancestor
       (Subtrees.reduced_params (Ptree.params tree))
       ~ancestor:(Vid.unsafe_of_int (svid tree ancestor))
       (Vid.unsafe_of_int (svid tree q))

let live_offspring_count tree status p =
  List.length
    (List.filter (is_strict_descendant tree ~ancestor:p)
       (live_members tree status p))

(* Live strict descendants whose intermediate ancestors are all dead. *)
let children_list tree status p =
  let rec intermediates_dead q =
    match Subtrees.parent_in_subtree tree q with
    | None -> false
    | Some parent ->
        Pid.equal parent p
        || (Status_word.is_dead status parent && intermediates_dead parent)
  in
  List.filter
    (fun q -> is_strict_descendant tree ~ancestor:p q && intermediates_dead q)
    (live_members tree status p)

let live_population tree status ~subtree_id =
  List.length
    (List.filter (Status_word.is_live status)
       (Subtrees.members tree ~subtree_id))

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

(* The Section 4 request step from the live node [p], for a request
   issued at [origin]: [route_next] inside [p]'s subtree; at its end the
   subtrees after [p]'s own in turn, up to (not including) the origin's,
   landing on the origin's mirror, else the mirror's first live ancestor,
   else the subtree's insertion target; a subtree with no live member is
   passed over. *)
let route tree status ~origin p =
  match route_next tree status p with
  | Some _ as next -> next
  | None ->
      let params = Ptree.params tree in
      let n = Params.subtree_count params in
      let own = Subtrees.subtree_id_of_pid tree origin in
      let rec try_subtree s =
        if s = own then None
        else
          let mirror =
            Ptree.pid_of_vid tree
              (Subtrees.compose_vid params ~subtree_vid:(svid tree origin)
                 ~subtree_id:s)
          in
          let landing =
            if Status_word.is_live status mirror then Some mirror
            else
              match first_alive_ancestor tree status mirror with
              | Some _ as a -> a
              | None -> insertion_target tree status ~subtree_id:s
          in
          match landing with
          | Some _ -> landing
          | None -> try_subtree ((s + 1) mod n)
      in
      try_subtree ((Subtrees.subtree_id_of_pid tree p + 1) mod n)
