open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Ptree = Lesslog_ptree.Ptree
module Bitops = Lesslog_bits.Bitops
module Packed_bits = Lesslog_bits.Packed_bits

(* The reference implementations: the seed's per-node scans, kept verbatim
   as the differential-test oracle for the bit-level versions below.
   test/test_topology.ml asserts bit-identical answers under randomized
   kill/revive sequences. *)
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

(* --- Bit-level implementations over the status word ------------------- *)

(* Test-only fault injection: the deterministic checker (lib/check) proves
   it can catch real bugs by flipping these flags and demanding a shrunk
   counterexample. Never set outside tests. *)
module Testing = struct
  let broken_find_live_node = ref false
  let broken_frontier = ref false
  let broken_migration = ref false
end

(* Every query works on VIDs inside one scope: the bits [b, m) it may set,
   clear or scan, while the low b bits (the subtree identifier, Section 4)
   stay fixed. b = 0 is the whole tree. *)
let scope_mask tree ~b =
  Params.mask (Ptree.params tree) land lnot ((1 lsl b) - 1)

let pid_of_vid_opt comp = function
  | -1 -> None
  | v -> Some (Pid.unsafe_of_int (v lxor comp))

(* FINDLIVENODE's downward scan: the largest live VID in (floor, v] that
   keeps v's low bits (stepping by [step] = 2^b), or [-1]. *)
let rec scan_down live comp step floor v =
  if v <= floor then -1
  else if Packed_bits.get live (v lxor comp) then v
  else scan_down live comp step floor (v - step)

(* The deliberately wrong direction of [Testing.broken_find_live_node]. *)
let rec scan_up live comp step top v =
  if v > top then -1
  else if Packed_bits.get live (v lxor comp) then v
  else scan_up live comp step top (v + step)

let find_live_node ~b tree status ~start =
  if Status_word.is_live status start then Some start
  else
    let comp = Ptree.comp tree and live = Status_word.live_bits status in
    let step = 1 lsl b and v = Pid.to_int start lxor comp in
    pid_of_vid_opt comp
      (if !Testing.broken_find_live_node then
         (* Deliberately wrong: scans *upward* in VID space, violating the
            paper's FINDLIVENODE contract (first live node strictly
            below). *)
         scan_up live comp step (v lor scope_mask tree ~b) (v + step)
       else scan_down live comp step (-1) (v - step))

(* FINDLIVENODE from the subtree root, whose subtree VID is all ones. *)
let insertion_target ~b tree status ~subtree_id =
  let comp = Ptree.comp tree in
  pid_of_vid_opt comp
    (scan_down (Status_word.live_bits status) comp (1 lsl b) (-1)
       (scope_mask tree ~b lor subtree_id))

let insertion_targets ~b tree status =
  List.filter_map
    (fun subtree_id -> insertion_target ~b tree status ~subtree_id)
    (List.init (1 lsl b) Fun.id)

let has_live_with_greater_vid ~b tree status p =
  let comp = Ptree.comp tree in
  let v = Pid.to_int p lxor comp in
  scan_down (Status_word.live_bits status) comp (1 lsl b) v
    (v lor scope_mask tree ~b)
  >= 0

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

let first_alive_ancestor ~b tree status p =
  let comp = Ptree.comp tree in
  match
    climb (Status_word.live_bits status) (scope_mask tree ~b) comp
      (Pid.to_int p lxor comp)
  with
  | -1 -> None
  | q -> Some (Pid.unsafe_of_int q)

(* How many leading one bits VID [v] has inside the scope [mask] (P3):
   its children clear one of them each, and its subtree is the residue
   class of its remaining low bits. *)
let[@inline] scope_leading_ones m mask v =
  let zeros = lnot v land mask in
  if zeros = 0 then Bitops.popcount mask else m - 1 - Bitops.floor_log2 zeros

(* The live children frontier of VID [v]: each child in turn, from the
   largest VID down, a live child counted and a dead one expanded in its
   place. [children_list] collects it, [first_child] folds it. *)
let rec frontier_list live comp m mask acc v =
  let n = scope_leading_ones m mask v in
  let acc = ref acc in
  for i = 0 to n - 1 do
    let c = v land lnot (1 lsl (m - n + i)) in
    if Packed_bits.get live (c lxor comp) then acc := c :: !acc
    else if not !Testing.broken_frontier then
      acc := frontier_list live comp m mask !acc c
  done;
  !acc

let children_list ~b tree status p =
  let comp = Ptree.comp tree in
  frontier_list (Status_word.live_bits status) comp
    (Params.m (Ptree.params tree))
    (scope_mask tree ~b) []
    (Pid.to_int p lxor comp)
  |> List.sort (fun a b -> compare b a)
  |> List.map (fun v -> Pid.unsafe_of_int (v lxor comp))

(* The largest frontier VID above [best] whose node fails [skip]. Every
   descendant of a child has a smaller VID than the child, so a child at
   or below [best] is not entered. *)
let rec frontier_best live comp m mask skip best v =
  let n = scope_leading_ones m mask v in
  let best = ref best in
  for i = 0 to n - 1 do
    let c = v land lnot (1 lsl (m - n + i)) in
    if c > !best then
      let p = c lxor comp in
      if Packed_bits.get live p then begin
        if not (skip (Pid.unsafe_of_int p)) then best := c
      end
      else if not !Testing.broken_frontier then
        best := frontier_best live comp m mask skip !best c
  done;
  !best

let first_child ~b tree status ~skip p =
  let comp = Ptree.comp tree in
  match
    frontier_best (Status_word.live_bits status) comp
      (Params.m (Ptree.params tree))
      (scope_mask tree ~b) skip (-1)
      (Pid.to_int p lxor comp)
  with
  | -1 -> -1
  | v -> v lxor comp

let live_offspring_count ~b tree status p =
  let m = Params.m (Ptree.params tree) and comp = Ptree.comp tree in
  let live = Status_word.live_bits status in
  let v = Pid.to_int p lxor comp in
  let n = scope_leading_ones m (scope_mask tree ~b) v in
  if n = 0 then 0
  else begin
    (* The subtree of v is exactly the residue class of v modulo
       2^(m-n): descendants clear subsets of the n leading one bits and
       keep the low m-n bits. Count live members by whichever enumeration
       is smaller — the 2^n strided candidates or the live set. *)
    let shift = m - n in
    let low = v land ((1 lsl shift) - 1) in
    let count = ref 0 in
    if 1 lsl n <= Status_word.live_count status then
      for j = 0 to (1 lsl n) - 1 do
        if Packed_bits.get live (((j lsl shift) lor low) lxor comp) then
          incr count
      done
    else begin
      let period_mask = (1 lsl shift) - 1 in
      Packed_bits.iter_set live (fun q ->
          if (q lxor comp) land period_mask = low then incr count)
    end;
    if Packed_bits.get live (v lxor comp) then !count - 1 else !count
  end

let live_population ~b tree status ~subtree_id =
  if b = 0 then Status_word.live_count status
  else begin
    let comp = Ptree.comp tree and live = Status_word.live_bits status in
    let count = ref 0 in
    for sv = 0 to scope_mask tree ~b lsr b do
      if Packed_bits.get live (((sv lsl b) lor subtree_id) lxor comp) then
        incr count
    done;
    !count
  end

(* ROUTE-NEXT of PID [pi] inside the scope [mask]: its first live
   ancestor there; at the scope's root, or when every ancestor is dead
   and so is the root, FINDLIVENODE's largest live VID of the scope
   unless [pi] is that node. *)
let[@inline] hop live mask comp pi =
  let v = pi lxor comp in
  let q = climb live mask comp v in
  let top = v lor mask in
  if q >= 0 || Packed_bits.get live (top lxor comp) then q
  else
    match scan_down live comp (mask land -mask) (-1) top with
    | -1 -> -1
    | g -> if g = v then -1 else g lxor comp

let next_hop ~b tree status pi =
  hop (Status_word.live_bits status) (scope_mask tree ~b) (Ptree.comp tree) pi

(* The landing of a request from origin VID [ov] that left subtree
   [s - 1]: the origin's mirror in [s] when live, else the dead mirror's
   hop (its first live ancestor, else [s]'s insertion target); a subtree
   with no live member passes the request on to [s + 1]. [-1] back at
   the origin's subtree. *)
let rec landing live mask comp ids ov s =
  let s = s land ids in
  if s = ov land ids then -1
  else
    let q =
      if !Testing.broken_migration then
        (* Deliberately wrong: always the insertion target, skipping the
           mirror. *)
        match scan_down live comp (ids + 1) (-1) (mask lor s) with
        | -1 -> -1
        | g -> g lxor comp
      else
        let mirror = ((ov land mask) lor s) lxor comp in
        if Packed_bits.get live mirror then mirror
        else hop live mask comp mirror
    in
    if q >= 0 then q else landing live mask comp ids ov (s + 1)

let route ~b tree status ~origin pi =
  let live = Status_word.live_bits status and comp = Ptree.comp tree in
  let mask = scope_mask tree ~b in
  match hop live mask comp pi with
  | -1 ->
      let ids = (1 lsl b) - 1 in
      landing live mask comp ids (origin lxor comp)
        (((pi lxor comp) land ids) + 1)
  | q -> q

type router = unit

let router (_ : Ptree.t) (_ : Status_word.t) = ()

(* At b = 0 there is no other subtree: {!route} is {!next_hop}. *)
let route_next tree status p =
  match next_hop ~b:0 tree status (Pid.to_int p) with
  | -1 -> None
  | q -> Some (Pid.unsafe_of_int q)

let route_path tree status ~origin =
  let rec go acc p =
    match next_hop ~b:0 tree status (Pid.to_int p) with
    | -1 -> List.rev (p :: acc)
    | q -> go (p :: acc) (Pid.unsafe_of_int q)
  in
  go [] origin
