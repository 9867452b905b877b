module Status_word = Lesslog_membership.Status_word
module Psi = Lesslog_hash.Psi
module Chord = Lesslog_chord.Chord
open Lesslog_id

let make params status psi =
  let ring =
    Substrate.epoch_cached status ~build:(fun () ->
        match Status_word.live_pids status with
        | [] -> None
        | live -> Some (Chord.create params ~live))
  in
  let next_hop ~key ~origin:_ p =
    match ring () with
    | None -> -1
    | Some r -> (
        match
          Chord.next_hop r ~from:(Pid.unsafe_of_int p)
            ~target:(Psi.target psi key)
        with
        | None -> -1
        | Some q -> Pid.to_int q)
  in
  let owner ~key =
    Option.map (fun r -> Chord.successor r (Psi.target psi key)) (ring ())
  in
  let neighbors ~key:_ p =
    match ring () with None -> [] | Some r -> Chord.ring_neighbors r p
  in
  {
    Substrate.name = "chord";
    next_hop;
    owner;
    neighbors;
    symmetric_neighbors = true;
    guaranteed_delivery = true;
    membership = Substrate.Generic;
    notify = (fun () -> ());
    replica_target = Substrate.neighbor_replica_target ~neighbors;
  }
