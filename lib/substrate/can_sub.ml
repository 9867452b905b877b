module Status_word = Lesslog_membership.Status_word
module Fnv = Lesslog_hash.Fnv
module Rng = Lesslog_prng.Rng
module Can = Lesslog_can.Can
open Lesslog_id

(* hash63 covers the low 62 bits: divide by 2^62 for a point in [0, 1). *)
let unit_float_of_hash h = float_of_int h /. 4.611686018427387904e18

let point_of_key d key =
  Array.init d (fun j -> unit_float_of_hash (Fnv.hash63 (key ^ "\x00" ^ string_of_int j)))

let make ?(d = 2) params status =
  let space = Params.space params in
  (* One zone per PID slot, from a layout seed fixed by the parameters:
     the same (m, d) always yields the same torus. *)
  let rng = Rng.create ~seed:(0x00ca_a201 lxor (space * 31) lxor d) in
  let zones = Can.create ~rng ~n:space ~d in
  let alive i = Status_word.is_live status (Pid.unsafe_of_int i) in
  let next_hop ~key ~origin:_ p =
    match
      Can.next_hop_toward zones ~from:p ~target:(point_of_key d key) ~alive
    with
    | None -> -1
    | Some j -> j
  in
  let owner ~key =
    Option.map Pid.unsafe_of_int
      (Can.live_owner_of zones ~target:(point_of_key d key) ~alive)
  in
  let neighbors ~key:_ p =
    Can.neighbors_of zones (Pid.to_int p)
    |> List.filter alive
    |> List.map Pid.unsafe_of_int
  in
  {
    Substrate.name = "can";
    next_hop;
    owner;
    neighbors;
    symmetric_neighbors = true;
    guaranteed_delivery = false;
    membership = Substrate.Generic;
    notify = (fun () -> ());
    replica_target = Substrate.neighbor_replica_target ~neighbors;
  }
