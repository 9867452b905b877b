open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Ptree = Lesslog_ptree.Ptree
module File_store = Lesslog_storage.File_store
module Psi = Lesslog_hash.Psi
module Packed_bits = Lesslog_bits.Packed_bits

type t = {
  params : Params.t;
  psi : Psi.t;
  status : Status_word.t;
  stores : File_store.t array;
  registry : (string, unit) Hashtbl.t;
  (* base key -> (k, r) for keys currently held as erasure-coded
     fragments instead of full copies. *)
  coded : (string, int * int) Hashtbl.t;
  (* key -> lookup tree memo; ψ and the tree root are pure functions of
     the key, so entries never invalidate. The one-slot [last_tree] keeps
     the common case — the same key queried repeatedly — at a pointer
     compare instead of a string hash. *)
  trees : (string, Ptree.t) Hashtbl.t;
  mutable last_tree : (string * Ptree.t) option;
  (* key -> bitset of PID slots whose store holds a copy (live or dead),
     maintained exactly by the per-store observers installed in [make].
     [holds] is a bit test and [holders] a live-AND-holder word walk. *)
  holder_index : (string, Packed_bits.t) Hashtbl.t;
  mutable last_holders : (string * Packed_bits.t) option;
}

let holder_bits t key =
  match t.last_holders with
  | Some (k, bits) when k == key || String.equal k key -> bits
  | _ -> (
      match Hashtbl.find_opt t.holder_index key with
      | Some bits ->
          t.last_holders <- Some (key, bits);
          bits
      | None ->
          let bits = Packed_bits.create (Params.space t.params) in
          Hashtbl.add t.holder_index key bits;
          t.last_holders <- Some (key, bits);
          bits)

let make params status =
  let t =
    {
      params;
      psi = Psi.create ~m:(Params.m params);
      status;
      stores = Array.init (Params.space params) (fun _ -> File_store.create ());
      registry = Hashtbl.create 16;
      coded = Hashtbl.create 16;
      trees = Hashtbl.create 16;
      last_tree = None;
      holder_index = Hashtbl.create 16;
      last_holders = None;
    }
  in
  Array.iteri
    (fun i store ->
      File_store.set_observer store (fun key held ->
          let bits = holder_bits t key in
          if held then Packed_bits.set bits i else Packed_bits.clear bits i))
    t.stores;
  t

let create ?live params =
  let status =
    match live with
    | None -> Status_word.create params ~initially_live:true
    | Some pids -> Status_word.of_live_list params pids
  in
  make params status

let create_with_dead_fraction params ~rng ~fraction =
  let status = Status_word.create params ~initially_live:true in
  let (_ : Pid.t list) = Status_word.kill_fraction status rng ~fraction in
  make params status

let params t = t.params
let status t = t.status
let psi t = t.psi
let live_count t = Status_word.live_count t.status
let store t p = t.stores.(Pid.to_int p)

let tree_of t p = Ptree.make t.params ~root:p

let tree_of_key t key =
  match t.last_tree with
  | Some (k, tree) when k == key || String.equal k key -> tree
  | _ ->
      let tree =
        match Hashtbl.find_opt t.trees key with
        | Some tree -> tree
        | None ->
            let tree = tree_of t (Pid.unsafe_of_int (Psi.target t.psi key)) in
            Hashtbl.add t.trees key tree;
            tree
      in
      t.last_tree <- Some (key, tree);
      tree

let target_of_key t key = Ptree.root (tree_of_key t key)

let holds t p ~key = Packed_bits.get (holder_bits t key) (Pid.to_int p)

let holder_bitset t ~key = holder_bits t key

let holders t ~key =
  let acc = ref [] in
  Packed_bits.iter_inter (Status_word.live_bits t.status) (holder_bits t key)
    (fun i -> acc := Pid.unsafe_of_int i :: !acc);
  List.rev !acc

let register_key t key = Hashtbl.replace t.registry key ()

let unregister_key t key = Hashtbl.remove t.registry key

let registered_keys t =
  Hashtbl.fold (fun k () acc -> k :: acc) t.registry [] |> List.sort compare

let register_coded t key ~k ~r = Hashtbl.replace t.coded key (k, r)

let unregister_coded t key = Hashtbl.remove t.coded key

let coded_params t ~key = Hashtbl.find_opt t.coded key

let coded_keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.coded [] |> List.sort compare

let count_copies t ~key pred =
  let acc = ref 0 in
  Packed_bits.iter_inter (Status_word.live_bits t.status) (holder_bits t key)
    (fun i ->
      match File_store.origin t.stores.(i) ~key with
      | Some o when pred o -> incr acc
      | Some _ | None -> ());
  !acc

let replica_count t ~key =
  count_copies t ~key (fun o -> o = File_store.Replicated)

(* The holder bitset is exact (the store observers set a bit on every
   add and clear it on every remove), so the live copies are the live
   holders: a popcount, with no per-holder store lookup. *)
let total_copies t ~key =
  Packed_bits.count_inter (Status_word.live_bits t.status) (holder_bits t key)
