open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Ptree = Lesslog_ptree.Ptree
module Vtree = Lesslog_vtree.Vtree
module Bitops = Lesslog_bits.Bitops
module Packed_bits = Lesslog_bits.Packed_bits

(* The reference implementations: the seed's per-node scans, kept verbatim
   as the differential-test oracle for the cached word-level versions
   below. test/test_topology.ml asserts bit-identical answers under
   randomized kill/revive sequences. *)
module Naive = struct
  let find_live_node tree status ~start =
    if Status_word.is_live status start then Some start
    else begin
      let rec scan vid =
        if vid < 0 then None
        else
          let p = Ptree.pid_of_vid tree (Vid.unsafe_of_int vid) in
          if Status_word.is_live status p then Some p else scan (vid - 1)
      in
      scan (Vid.to_int (Ptree.vid_of_pid tree start) - 1)
    end

  let insertion_target tree status =
    find_live_node tree status ~start:(Ptree.root tree)

  let first_alive_ancestor tree status p =
    let rec climb p =
      match Ptree.parent tree p with
      | None -> None
      | Some q -> if Status_word.is_live status q then Some q else climb q
    in
    climb p

  let children_list tree status p =
    (* Expand dead children recursively, then sort by descending VID, which
       the paper specifies and which also orders by descending offspring. *)
    let rec expand acc p =
      List.fold_left
        (fun acc c ->
          if Status_word.is_live status c then c :: acc else expand acc c)
        acc (Ptree.children tree p)
    in
    let live_children = expand [] p in
    List.sort
      (fun a b ->
        Vid.compare (Ptree.vid_of_pid tree b) (Ptree.vid_of_pid tree a))
      live_children

  let max_live tree status =
    let rec scan vid =
      if vid < 0 then None
      else
        let p = Ptree.pid_of_vid tree (Vid.unsafe_of_int vid) in
        if Status_word.is_live status p then Some p else scan (vid - 1)
    in
    scan (Params.mask (Ptree.params tree))

  let has_live_with_greater_vid tree status p =
    match max_live tree status with
    | None -> false
    | Some g ->
        Vid.compare (Ptree.vid_of_pid tree g) (Ptree.vid_of_pid tree p) > 0

  let live_offspring_count tree status p =
    Status_word.fold_live status ~init:0 ~f:(fun acc q ->
        if (not (Pid.equal q p)) && Ptree.is_ancestor tree ~ancestor:p q then
          acc + 1
        else acc)

  let route_next tree status p =
    match first_alive_ancestor tree status p with
    | Some a -> Some a
    | None ->
        if Status_word.is_live status (Ptree.root tree) then None
        else begin
          match insertion_target tree status with
          | Some g when not (Pid.equal g p) -> Some g
          | Some _ | None -> None
        end

  let route_path tree status ~origin =
    let rec go acc p =
      match route_next tree status p with
      | None -> List.rev (p :: acc)
      | Some q -> go (p :: acc) q
    in
    go [] origin
end

(* --- Cached word-level implementations --------------------------------- *)

(* Test-only fault injection: the deterministic checker (lib/check) proves
   it can catch real bugs by flipping this flag and demanding a shrunk
   counterexample. Never set outside tests. *)
module Testing = struct
  let broken_find_live_node = ref false
  let broken_catch_up = Topology_cache.broken_catch_up
end

let entry tree status = Topology_cache.get status ~comp:(Ptree.comp tree)

let find_live_node tree status ~start =
  if Status_word.is_live status start then Some start
  else
    let v = Vid.to_int (Ptree.vid_of_pid tree start) in
    let e = entry tree status in
    if !Testing.broken_find_live_node then
      (* Deliberately wrong: scans *upward* in VID space, violating the
         paper's FINDLIVENODE contract (first live node strictly below). *)
      let mask = Params.mask (Ptree.params tree) in
      match
        if v >= mask then -1
        else Packed_bits.first_set_at_or_above e.Topology_cache.vids (v + 1)
      with
      | -1 -> None
      | u -> Some (Ptree.pid_of_vid tree (Vid.unsafe_of_int u))
    else if v = 0 then None
    else
      match Packed_bits.first_set_at_or_below e.Topology_cache.vids (v - 1) with
      | -1 -> None
      | u -> Some (Ptree.pid_of_vid tree (Vid.unsafe_of_int u))

let max_live tree status =
  let e = entry tree status in
  match e.Topology_cache.max_live_vid with
  | -1 -> None
  | v -> Some (Ptree.pid_of_vid tree (Vid.unsafe_of_int v))

(* FINDLIVENODE(r, r) starts at the root, whose VID is the maximum, so the
   answer is just the maximum live VID. *)
let insertion_target = max_live

(* The first live strict ancestor of VID [v], as a PID, or [-1]: climb
   in VID space, where the parent sets the highest zero bit (P2), testing
   each ancestor's bit of the status word's own bitset through comp. A
   toplevel function with explicit arguments, so a hop allocates no
   closure. *)
let rec climb bits mask comp v =
  let zeros = lnot v land mask in
  if zeros = 0 then -1
  else
    let v = v lor (1 lsl Bitops.floor_log2 zeros) in
    let p = v lxor comp in
    if Packed_bits.get bits p then p else climb bits mask comp v

let first_alive_ancestor tree status p =
  let comp = Ptree.comp tree in
  match
    climb (Status_word.live_bits status) (Params.mask (Ptree.params tree))
      comp (Pid.to_int p lxor comp)
  with
  | -1 -> None
  | q -> Some (Pid.unsafe_of_int q)

let has_live_with_greater_vid tree status p =
  let e = entry tree status in
  e.Topology_cache.max_live_vid > Vid.to_int (Ptree.vid_of_pid tree p)

let children_list tree status p =
  let e = entry tree status in
  let pi = Pid.to_int p in
  match Hashtbl.find_opt e.Topology_cache.children pi with
  | Some l -> l
  | None ->
      let m = Params.m (Ptree.params tree) in
      let vids = e.Topology_cache.vids in
      (* Same recursion as Naive.children_list, but in VID space over the
         cached bitset: a child of v clears one of its n leading one bits
         (bit m-n+i); dead children are transparently expanded. *)
      let rec expand acc v =
        let n = Bitops.leading_ones ~width:m v in
        let acc = ref acc in
        for i = 0 to n - 1 do
          let c = v land lnot (1 lsl (m - n + i)) in
          if Packed_bits.get vids c then acc := c :: !acc
          else acc := expand !acc c
        done;
        !acc
      in
      let vs = expand [] (Vid.to_int (Ptree.vid_of_pid tree p)) in
      let vs = List.sort (fun a b -> compare b a) vs in
      let l = List.map (fun v -> Ptree.pid_of_vid tree (Vid.unsafe_of_int v)) vs in
      Hashtbl.add e.Topology_cache.children pi l;
      l

let live_offspring_count tree status p =
  let params = Ptree.params tree in
  let m = Params.m params in
  let v = Vid.to_int (Ptree.vid_of_pid tree p) in
  let n = Bitops.leading_ones ~width:m v in
  if n = 0 then 0
  else begin
    let e = entry tree status in
    let vids = e.Topology_cache.vids in
    (* The subtree of v is exactly the residue class of v modulo
       2^(m-n): descendants clear subsets of the n leading one bits and
       keep the low m-n bits. Count live members by whichever enumeration
       is smaller — the 2^n strided candidates or the live set. *)
    let size = 1 lsl n in
    let low = v land ((1 lsl (m - n)) - 1) in
    let count = ref 0 in
    if size <= Status_word.live_count status then
      for j = 0 to size - 1 do
        if Packed_bits.get vids ((j lsl (m - n)) lor low) then incr count
      done
    else begin
      let period_mask = (1 lsl (m - n)) - 1 in
      Packed_bits.iter_set vids (fun u ->
          if u land period_mask = low then incr count)
    end;
    if Packed_bits.get vids v then !count - 1 else !count
  end

(* ROUTE-NEXT of PID [pi]: its first live ancestor; at the root, or when
   every ancestor is dead and so is the root, FINDLIVENODE's maximum live
   VID unless [pi] is that node. Only the last case reads the cache. *)
let route_next_int tree status pi =
  let mask = Params.mask (Ptree.params tree) and comp = Ptree.comp tree in
  let bits = Status_word.live_bits status in
  let q = climb bits mask comp (pi lxor comp) in
  if q >= 0 || Packed_bits.get bits (mask lxor comp) then q
  else
    let g = (entry tree status).Topology_cache.max_live_vid in
    if g < 0 || g = pi lxor comp then -1 else g lxor comp

type router = Topology_cache.entry

let router = entry

let route_next tree status p =
  match route_next_int tree status (Pid.to_int p) with
  | -1 -> None
  | q -> Some (Pid.unsafe_of_int q)

let route_path tree status ~origin =
  let rec go acc p =
    match route_next_int tree status (Pid.to_int p) with
    | -1 -> List.rev (p :: acc)
    | q -> go (p :: acc) (Pid.unsafe_of_int q)
  in
  go [] origin
