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
  (* [File_store.empty] until the slot's first file: a slot that never
     stores anything costs this one pointer. *)
  stores : File_store.t array;
  (* The key registry: every registered key, sorted, at
     [registry.(0 .. registered - 1)] (the slots above hold ""). Only
     register and unregister change it, so a scan reads it in place. *)
  mutable registry : string array;
  mutable registered : int;
  (* base key -> (k, r) for keys currently held as erasure-coded
     fragments instead of full copies. *)
  coded : (string, int * int) Hashtbl.t;
  (* key -> lookup tree memo; ψ and the tree root are pure functions of
     the key, so entries never invalidate. The one-slot [last_key] /
     [last_tree] keeps the common case — the same key queried
     repeatedly — at a pointer compare instead of a string hash. It
     starts at the key "", memoized at creation, so it always holds a
     true pair and no lookup allocates. *)
  trees : (string, Ptree.t) Hashtbl.t;
  mutable last_key : string;
  mutable last_tree : Ptree.t;
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

let key_tree params psi key =
  Ptree.make params ~root:(Pid.unsafe_of_int (Psi.target psi key))

let make params status =
  let psi = Psi.create ~m:(Params.m params) in
  let trees = Hashtbl.create 16 and tree = key_tree params psi "" in
  Hashtbl.add trees "" tree;
  {
    params;
    psi;
    status;
    stores = Array.make (Params.space params) File_store.empty;
    registry = [||];
    registered = 0;
    coded = Hashtbl.create 16;
    trees;
    last_key = "";
    last_tree = tree;
    holder_index = Hashtbl.create 16;
    last_holders = None;
  }

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

(* The slot's own store, created with its holder-index observer on the
   first file. *)
let own_store t i =
  let store = t.stores.(i) in
  if store != File_store.empty then store
  else begin
    let store = File_store.create () in
    File_store.set_observer store (fun key held ->
        let bits = holder_bits t key in
        if held then Packed_bits.set bits i else Packed_bits.clear bits i);
    t.stores.(i) <- store;
    store
  end

let add ?tier t p ~key ~origin ~version ~now =
  File_store.add ?tier (own_store t (Pid.to_int p)) ~key ~origin ~version ~now

let tree_of t p = Ptree.make t.params ~root:p

let tree_of_key t key =
  if t.last_key == key || String.equal t.last_key key then t.last_tree
  else begin
    let tree =
      match Hashtbl.find t.trees key with
      | tree -> tree
      | exception Not_found ->
          let tree = key_tree t.params t.psi key in
          Hashtbl.add t.trees key tree;
          tree
    in
    t.last_key <- key;
    t.last_tree <- tree;
    tree
  end

let target_of_key t key = Ptree.root (tree_of_key t key)

let holds t p ~key = Packed_bits.get (holder_bits t key) (Pid.to_int p)

let holder_bitset t ~key = holder_bits t key

let holders t ~key =
  let acc = ref [] in
  Packed_bits.iter_inter (Status_word.live_bits t.status) (holder_bits t key)
    (fun i -> acc := Pid.unsafe_of_int i :: !acc);
  List.rev !acc

(* The first index of [registry.(lo .. hi - 1)] whose key is not below
   [key] ([hi] when every key is). *)
let rec registry_search registry key lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if String.compare registry.(mid) key < 0 then
      registry_search registry key (mid + 1) hi
    else registry_search registry key lo mid

let register_key t key =
  let n = t.registered in
  let i = registry_search t.registry key 0 n in
  if i = n || not (String.equal t.registry.(i) key) then begin
    if n = Array.length t.registry then begin
      let grown = Array.make (max 8 (2 * n)) "" in
      Array.blit t.registry 0 grown 0 n;
      t.registry <- grown
    end;
    Array.blit t.registry i t.registry (i + 1) (n - i);
    t.registry.(i) <- key;
    t.registered <- n + 1
  end

let unregister_key t key =
  let n = t.registered in
  let i = registry_search t.registry key 0 n in
  if i < n && String.equal t.registry.(i) key then begin
    Array.blit t.registry (i + 1) t.registry i (n - i - 1);
    t.registry.(n - 1) <- "";
    t.registered <- n - 1
  end

let registered_count t = t.registered

let registered_key t i =
  if i < 0 || i >= t.registered then
    invalid_arg "Cluster.registered_key: index out of range";
  t.registry.(i)

let registered_keys t = List.init t.registered (Array.get t.registry)

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
