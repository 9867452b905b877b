type origin = Inserted | Replicated

let pp_origin fmt = function
  | Inserted -> Format.pp_print_string fmt "inserted"
  | Replicated -> Format.pp_print_string fmt "replicated"

type tier = Replicated_full | Coded of { index : int; k : int; r : int }

let pp_tier fmt = function
  | Replicated_full -> Format.pp_print_string fmt "full"
  | Coded { index; k; r } -> Format.fprintf fmt "coded(%d of %d+%d)" index k r

type entry = {
  key : string;
  origin : origin;
  tier : tier;
  mutable version : int;
  counter : Access_counter.t;
}

type t = {
  (* key -> the entry's position in [entries]: the store's one lookup. *)
  index : (string, int) Hashtbl.t;
  (* The entries, in no order, at [entries.(0 .. length index - 1)];
     the slots above hold [vacant]. Walks are top-level loops over this
     array, so a walk allocates only what it returns. A removal moves
     the last entry into the hole. *)
  mutable entries : entry array;
  mutable on_change : (string -> bool -> unit) option;
}

(* Fills the unused slots of [entries], so a removed entry is not kept
   alive by its old slot. Never reachable from a lookup. *)
let vacant =
  {
    key = "";
    origin = Replicated;
    tier = Replicated_full;
    version = 0;
    counter = Access_counter.create ~now:0.0 ();
  }

let create () = { index = Hashtbl.create 16; entries = [||]; on_change = None }

(* Shared by every slot that holds no file: reads find no entry and
   removals find nothing to drop, so only [add] and [set_observer], the
   two writes that would reach every slot sharing it, refuse it. *)
let empty = { index = Hashtbl.create 1; entries = [||]; on_change = None }

let set_observer t f =
  if t == empty then invalid_arg "File_store.set_observer: shared empty store";
  t.on_change <- Some f

let notify t key held =
  match t.on_change with None -> () | Some f -> f key held

let size t = Hashtbl.length t.index

(* The key's position in [entries], or -1; [Hashtbl.find] builds no
   option. *)
let[@inline] position t key =
  match Hashtbl.find t.index key with i -> i | exception Not_found -> -1

let push t e =
  let n = size t in
  if n = Array.length t.entries then begin
    let grown = Array.make (max 1 (2 * n)) vacant in
    Array.blit t.entries 0 grown 0 n;
    t.entries <- grown
  end;
  t.entries.(n) <- e;
  Hashtbl.add t.index e.key n

let add ?(tier = Replicated_full) t ~key ~origin ~version ~now =
  if t == empty then invalid_arg "File_store.add: shared empty store";
  (match position t key with
  | -1 ->
      push t
        { key; origin; tier; version; counter = Access_counter.create ~now () }
  | i ->
      let e = t.entries.(i) in
      let origin =
        match (e.origin, origin) with
        | Inserted, _ | _, Inserted -> Inserted
        | Replicated, Replicated -> Replicated
      in
      t.entries.(i) <- { e with origin; tier; version = max e.version version });
  notify t key true

let remove t ~key =
  match position t key with
  | -1 -> ()
  | i ->
      let last = size t - 1 in
      let moved = t.entries.(last) in
      t.entries.(i) <- moved;
      t.entries.(last) <- vacant;
      Hashtbl.remove t.index key;
      if i < last then Hashtbl.replace t.index moved.key i;
      notify t key false

let holds t ~key = position t key >= 0

let find t ~key =
  match position t key with -1 -> None | i -> Some t.entries.(i)

let version t ~key = Option.map (fun e -> e.version) (find t ~key)
let origin t ~key = Option.map (fun e -> e.origin) (find t ~key)
let tier t ~key = Option.map (fun e -> e.tier) (find t ~key)

(* Inlined, like [Access_counter.record], so a serve boxes no [now]. *)
let[@inline] record_access t ~key ~now =
  match position t key with
  | -1 -> ()
  | i -> Access_counter.record (Array.unsafe_get t.entries i).counter ~now

let set_version t ~key ~version =
  match position t key with
  | -1 -> ()
  | i -> t.entries.(i).version <- version

(* [get e] of every entry [keep] accepts, in the order of [entries]. A
   top-level loop: with closed [keep] and [get] it allocates the list
   cells and nothing else. *)
let rec collect entries keep get i acc =
  if i = 0 then acc
  else
    let e = Array.unsafe_get entries (i - 1) in
    collect entries keep get (i - 1) (if keep e then get e :: acc else acc)

let rec exists entries keep i =
  i > 0
  && (keep (Array.unsafe_get entries (i - 1)) || exists entries keep (i - 1))

(* [List.sort] builds its merge closures before it looks at the list:
   a list of fewer than two elements skips it, and allocates nothing. *)
let sort cmp = function [] | [ _ ] as l -> l | l -> List.sort cmp l

let select_keys t keep =
  sort String.compare (collect t.entries keep (fun e -> e.key) (size t) [])

let keys t = select_keys t (fun _ -> true)
let inserted_keys t = select_keys t (fun e -> e.origin = Inserted)
let replicated_keys t = select_keys t (fun e -> e.origin = Replicated)

let coded_keys t =
  select_keys t (fun e ->
      match e.tier with Coded _ -> true | Replicated_full -> false)

let is_inserted_full e =
  match e with
  | { origin = Inserted; tier = Replicated_full; _ } -> true
  | { origin = Replicated; _ } | { tier = Coded _; _ } -> false

let inserted_full t =
  sort
    (fun a b -> String.compare a.key b.key)
    (collect t.entries is_inserted_full Fun.id (size t) [])

let holds_inserted_full t = exists t.entries is_inserted_full (size t)

let demote_to_replica t ~key =
  match position t key with
  | -1 -> ()
  | i -> t.entries.(i) <- { (t.entries.(i)) with origin = Replicated }

let clear t =
  let n = size t in
  if n > 0 then begin
    Hashtbl.clear t.index;
    for i = 0 to n - 1 do
      let e = t.entries.(i) in
      t.entries.(i) <- vacant;
      notify t e.key false
    done
  end

(* Inlined, like [record_access], so an eviction tick boxes neither
   [now] nor [min_rate]. *)
let[@inline] is_cold_replica t ~key ~now ~min_rate =
  match position t key with
  | -1 -> false
  | i -> (
      match Array.unsafe_get t.entries i with
      | { origin = Replicated; tier = Replicated_full; counter; _ } ->
          Access_counter.rate counter ~now < min_rate
      | { origin = Inserted; _ } | { tier = Coded _; _ } -> false)

let iter t f =
  for i = 0 to size t - 1 do
    f t.entries.(i)
  done
