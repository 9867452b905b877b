open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Rng = Lesslog_prng.Rng

type membership_style = Self_organized | Generic

type t = {
  name : string;
  next_hop : key:string -> origin:int -> int -> int;
  owner : key:string -> Pid.t option;
  neighbors : key:string -> Pid.t -> Pid.t list;
  symmetric_neighbors : bool;
  guaranteed_delivery : bool;
  membership : membership_style;
  notify : unit -> unit;
  replica_target :
    rng:Rng.t ->
    holds:(Pid.t -> bool) ->
    overloaded:Pid.t ->
    key:string ->
    Pid.t option;
}

let route_path t ~key ~origin ~max_hops =
  let origin = Pid.to_int origin in
  let rec go acc hops p =
    let acc = Pid.unsafe_of_int p :: acc in
    match t.next_hop ~key ~origin p with
    | -1 -> (List.rev acc, true)
    | q ->
        if hops >= max_hops then (List.rev acc, false) else go acc (hops + 1) q
  in
  go [] 0 origin

let neighbor_replica_target ~neighbors ~rng ~holds ~overloaded ~key =
  match List.filter (fun p -> not (holds p)) (neighbors ~key overloaded) with
  | [] -> None
  | [ p ] -> Some p
  | candidates -> Some (Rng.pick_list rng candidates)

let epoch_cached status ~build =
  let cache = ref None in
  fun () ->
    let e = Status_word.epoch status in
    match !cache with
    | Some (e', v) when e' = e -> v
    | _ ->
        let v = build () in
        cache := Some (e, v);
        v
