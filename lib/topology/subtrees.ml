open Lesslog_id
module Bitops = Lesslog_bits.Bitops
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

(* The largest subtree VID, all ones over m - b bits. *)
let top_svid params = Params.mask params lsr Params.b params

let subtree_root tree ~subtree_id =
  let params = Ptree.params tree in
  Ptree.pid_of_vid tree
    (compose_vid params ~subtree_vid:(top_svid params) ~subtree_id)

let members tree ~subtree_id =
  let params = Ptree.params tree in
  let top = top_svid params in
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
