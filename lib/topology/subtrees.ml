open Lesslog_id
module Bitops = Lesslog_bits.Bitops
module Status_word = Lesslog_membership.Status_word
module Ptree = Lesslog_ptree.Ptree
module Vtree = Lesslog_vtree.Vtree

let reduced_params params =
  Params.create ~m:(Params.m params - Params.b params) ()

let subtree_id_of_vid params v =
  Bitops.low_bits ~width:(Params.b params) (Vid.to_int v)

let subtree_vid_of_vid params v =
  Bitops.high_bits ~total:(Params.m params) ~low:(Params.b params)
    (Vid.to_int v)

let compose_vid params ~subtree_vid ~subtree_id =
  Vid.unsafe_of_int
    (Bitops.splice ~total:(Params.m params) ~low:(Params.b params)
       ~high:subtree_vid subtree_id)

let subtree_id_of_pid tree p =
  subtree_id_of_vid (Ptree.params tree) (Ptree.vid_of_pid tree p)

let migrate_vid params v ~to_subtree =
  compose_vid params ~subtree_vid:(subtree_vid_of_vid params v)
    ~subtree_id:to_subtree

let subtree_root tree ~subtree_id =
  let params = Ptree.params tree in
  let top = Params.mask (reduced_params params) in
  Ptree.pid_of_vid tree (compose_vid params ~subtree_vid:top ~subtree_id)

let members tree ~subtree_id =
  let params = Ptree.params tree in
  let top = Params.mask (reduced_params params) in
  List.init (top + 1) (fun i ->
      Ptree.pid_of_vid tree
        (compose_vid params ~subtree_vid:(top - i) ~subtree_id))

(* Navigation inside a subtree: operate on the subtree VID with the
   reduced parameters, then recompose. *)

let svid_of_pid tree p =
  subtree_vid_of_vid (Ptree.params tree) (Ptree.vid_of_pid tree p)

let pid_of_svid tree ~subtree_id sv =
  Ptree.pid_of_vid tree
    (compose_vid (Ptree.params tree) ~subtree_vid:sv ~subtree_id)

let parent_in_subtree tree p =
  let params = Ptree.params tree in
  let sid = subtree_id_of_pid tree p in
  match
    Vtree.parent (reduced_params params) (Vid.unsafe_of_int (svid_of_pid tree p))
  with
  | None -> None
  | Some sv -> Some (pid_of_svid tree ~subtree_id:sid (Vid.to_int sv))

let children_in_subtree tree p =
  let params = Ptree.params tree in
  let sid = subtree_id_of_pid tree p in
  Vtree.children (reduced_params params)
    (Vid.unsafe_of_int (svid_of_pid tree p))
  |> List.map (fun sv -> pid_of_svid tree ~subtree_id:sid (Vid.to_int sv))

let find_live_node_in_subtree tree status ~subtree_id ~start =
  if
    subtree_id_of_pid tree start = subtree_id
    && Status_word.is_live status start
  then Some start
  else begin
    let rec scan sv =
      if sv < 0 then None
      else
        let p = pid_of_svid tree ~subtree_id sv in
        if Status_word.is_live status p then Some p else scan (sv - 1)
    in
    scan (svid_of_pid tree start - 1)
  end

let insertion_target_in_subtree tree status ~subtree_id =
  find_live_node_in_subtree tree status ~subtree_id
    ~start:(subtree_root tree ~subtree_id)

let insertion_targets tree status =
  let params = Ptree.params tree in
  List.init (Params.subtree_count params) (fun sid -> sid)
  |> List.filter_map (fun sid ->
         insertion_target_in_subtree tree status ~subtree_id:sid)

let first_alive_ancestor_in_subtree tree status p =
  let rec climb p =
    match parent_in_subtree tree p with
    | None -> None
    | Some q -> if Status_word.is_live status q then Some q else climb q
  in
  climb p

let children_list_in_subtree tree status p =
  let rec expand acc p =
    List.fold_left
      (fun acc c ->
        if Status_word.is_live status c then c :: acc else expand acc c)
      acc (children_in_subtree tree p)
  in
  expand [] p
  |> List.sort (fun a b -> compare (svid_of_pid tree b) (svid_of_pid tree a))

let max_live_in_subtree tree status ~subtree_id =
  let params = Ptree.params tree in
  let rec scan sv =
    if sv < 0 then None
    else
      let p = pid_of_svid tree ~subtree_id sv in
      if Status_word.is_live status p then Some p else scan (sv - 1)
  in
  scan (Params.mask (reduced_params params))

let has_live_with_greater_svid tree status p =
  let sid = subtree_id_of_pid tree p in
  match max_live_in_subtree tree status ~subtree_id:sid with
  | None -> false
  | Some g -> svid_of_pid tree g > svid_of_pid tree p

let live_offspring_count_in_subtree tree status p =
  let params = Ptree.params tree in
  let reduced = reduced_params params in
  let sid = subtree_id_of_pid tree p in
  let sv = Vid.unsafe_of_int (svid_of_pid tree p) in
  List.fold_left
    (fun acc q ->
      if
        (not (Pid.equal q p))
        && Status_word.is_live status q
        && Vtree.is_ancestor reduced ~ancestor:sv
             (Vid.unsafe_of_int (svid_of_pid tree q))
      then acc + 1
      else acc)
    0
    (members tree ~subtree_id:sid)

let route_next_in_subtree tree status p =
  match first_alive_ancestor_in_subtree tree status p with
  | Some _ as a -> a
  | None ->
      let sid = subtree_id_of_pid tree p in
      let sroot = subtree_root tree ~subtree_id:sid in
      if Status_word.is_live status sroot then None
      else begin
        match insertion_target_in_subtree tree status ~subtree_id:sid with
        | Some g when not (Pid.equal g p) -> Some g
        | Some _ | None -> None
      end

let route_path_in_subtree tree status ~origin =
  let rec go acc p =
    match route_next_in_subtree tree status p with
    | None -> List.rev (p :: acc)
    | Some q -> go (p :: acc) q
  in
  go [] origin
