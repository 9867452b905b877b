module Status_word = Lesslog_membership.Status_word
module Psi = Lesslog_hash.Psi
module Pastry = Lesslog_pastry.Pastry
open Lesslog_id

let make ?digit_bits params status psi =
  let digit_bits =
    match digit_bits with
    | Some b -> b
    | None -> if Params.m params mod 2 = 0 then 2 else 1
  in
  let mesh =
    Substrate.epoch_cached status ~build:(fun () ->
        match Status_word.live_pids status with
        | [] -> None
        | live -> Some (Pastry.create ~digit_bits params ~live))
  in
  let next_hop ~key ~origin:_ p =
    match mesh () with
    | None -> -1
    | Some t -> (
        match
          Pastry.next_hop t ~from:(Pid.unsafe_of_int p)
            ~target:(Psi.target psi key)
        with
        | None -> -1
        | Some q -> Pid.to_int q)
  in
  let owner ~key =
    Option.map (fun t -> Pastry.owner_of t (Psi.target psi key)) (mesh ())
  in
  let neighbors ~key:_ p =
    match mesh () with
    | None -> []
    | Some t -> ( try Pastry.leaf_set_of t p with Not_found -> [])
  in
  {
    Substrate.name = "pastry";
    next_hop;
    owner;
    neighbors;
    symmetric_neighbors = false;
    guaranteed_delivery = true;
    membership = Substrate.Generic;
    notify = (fun () -> ());
    replica_target = Substrate.neighbor_replica_target ~neighbors;
  }
