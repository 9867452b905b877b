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
  entries : (string, entry) Hashtbl.t;
  mutable on_change : (string -> bool -> unit) option;
}

let create () = { entries = Hashtbl.create 16; on_change = None }

(* Shared by every slot that holds no file: reads find no entry and
   removals find nothing to drop, so only [add] and [set_observer], the
   two writes that would reach every slot sharing it, refuse it. *)
let empty = { entries = Hashtbl.create 1; on_change = None }

let set_observer t f =
  if t == empty then invalid_arg "File_store.set_observer: shared empty store";
  t.on_change <- Some f

let notify t key held =
  match t.on_change with None -> () | Some f -> f key held

let add ?(tier = Replicated_full) t ~key ~origin ~version ~now =
  if t == empty then invalid_arg "File_store.add: shared empty store";
  (match Hashtbl.find_opt t.entries key with
  | None ->
      Hashtbl.replace t.entries key
        { key; origin; tier; version; counter = Access_counter.create ~now () }
  | Some e ->
      let origin =
        match (e.origin, origin) with
        | Inserted, _ | _, Inserted -> Inserted
        | Replicated, Replicated -> Replicated
      in
      Hashtbl.replace t.entries key
        { e with origin; tier; version = max e.version version });
  notify t key true

let remove t ~key =
  if Hashtbl.mem t.entries key then begin
    Hashtbl.remove t.entries key;
    notify t key false
  end

let holds t ~key = Hashtbl.mem t.entries key
let find t ~key = Hashtbl.find_opt t.entries key
let version t ~key = Option.map (fun e -> e.version) (find t ~key)
let origin t ~key = Option.map (fun e -> e.origin) (find t ~key)
let tier t ~key = Option.map (fun e -> e.tier) (find t ~key)

(* Inlined, like [Access_counter.record], so a serve boxes no [now];
   [Hashtbl.find] builds no option. *)
let[@inline] record_access t ~key ~now =
  match Hashtbl.find t.entries key with
  | e -> Access_counter.record e.counter ~now
  | exception Not_found -> ()

let set_version t ~key ~version =
  match Hashtbl.find_opt t.entries key with
  | None -> ()
  | Some e -> e.version <- version

let keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.entries [] |> List.sort compare

let keys_with_origin t o =
  Hashtbl.fold
    (fun k e acc -> if e.origin = o then k :: acc else acc)
    t.entries []
  |> List.sort compare

let inserted_keys t = keys_with_origin t Inserted
let replicated_keys t = keys_with_origin t Replicated

let coded_keys t =
  Hashtbl.fold
    (fun k e acc -> match e.tier with Coded _ -> k :: acc | _ -> acc)
    t.entries []
  |> List.sort compare

let size t = Hashtbl.length t.entries

let demote_to_replica t ~key =
  match Hashtbl.find_opt t.entries key with
  | None -> ()
  | Some e -> Hashtbl.replace t.entries key { e with origin = Replicated }

let drop_replicas t =
  let dropped = replicated_keys t in
  List.iter (fun key -> remove t ~key) dropped;
  dropped

(* Inlined, like [record_access], so an eviction tick boxes neither
   [now] nor [min_rate]; [Hashtbl.find] builds no option. *)
let[@inline] is_cold_replica t ~key ~now ~min_rate =
  match Hashtbl.find t.entries key with
  | { origin = Replicated; tier = Replicated_full; counter; _ } ->
      Access_counter.rate counter ~now < min_rate
  | { origin = Inserted; _ } | { tier = Coded _; _ } -> false
  | exception Not_found -> false

let iter t f = Hashtbl.iter (fun _ e -> f e) t.entries
