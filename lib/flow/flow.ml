open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Ptree = Lesslog_ptree.Ptree
module Topology = Lesslog_topology.Topology
module Demand = Lesslog_workload.Demand

type t = { tree : Ptree.t; status : Status_word.t; budget : int }

(* [budget] is {!Topology.route}'s hop bound, 2^b (m - b + 1) - 1. *)
let create tree status =
  let params = Ptree.params tree in
  let b = Params.b params in
  { tree; status; budget = ((1 lsl b) * (Params.m params - b + 1)) - 1 }

(* One {!Topology.route} step of a request from [origin] that has taken
   [hops] hops, as a PID int. A route never takes more than [budget]
   hops; one that would breaks the step's bound, and raises rather than
   cycling. *)
let step t ~origin ~hops p =
  match
    Topology.route
      ~b:(Params.b (Ptree.params t.tree))
      t.tree t.status ~origin p
  with
  | -1 -> -1
  | q ->
      if hops >= t.budget then
        failwith
          (Printf.sprintf "Flow: route exceeds its %d-hop budget" t.budget);
      q

let serving_node t ~holders ~origin =
  if Status_word.is_dead t.status origin then
    invalid_arg "Flow.serving_node: dead origin";
  let origin = Pid.to_int origin in
  let rec walk hops p =
    if holders (Pid.unsafe_of_int p) then Some (Pid.unsafe_of_int p)
    else match step t ~origin ~hops p with -1 -> None | q -> walk (hops + 1) q
  in
  walk 0 origin

type loads = { serve : float array; unserved : float }

let serve_rates t ~holders ~demand =
  let params = Ptree.params t.tree in
  let serve = Array.make (Params.space params) 0.0 in
  let unserved = ref 0.0 in
  Status_word.iter_live t.status (fun origin ->
      let r = Demand.rate demand origin in
      if r > 0.0 then begin
        match serving_node t ~holders ~origin with
        | Some server -> serve.(Pid.to_int server) <- serve.(Pid.to_int server) +. r
        | None -> unserved := !unserved +. r
      end);
  { serve; unserved = !unserved }

let inflows t ~holders ~demand ~at =
  let at_int = Pid.to_int at in
  let acc : (int, float) Hashtbl.t = Hashtbl.create 16 in
  let self = ref 0.0 in
  let add_entry entry r =
    match entry with
    | None -> self := !self +. r
    | Some p ->
        Hashtbl.replace acc p (r +. Option.value ~default:0.0 (Hashtbl.find_opt acc p))
  in
  Status_word.iter_live t.status (fun origin ->
      let r = Demand.rate demand origin in
      if r > 0.0 then begin
        (* Walk the route; requests already served before [at] never get
           there. *)
        let origin = Pid.to_int origin in
        let rec walk hops prev p =
          if holders (Pid.unsafe_of_int p) || p = at_int then begin
            if p = at_int then add_entry prev r
          end
          else
            match step t ~origin ~hops p with
            | -1 -> ()
            | q -> walk (hops + 1) (Some p) q
        in
        walk 0 None origin
      end);
  let entries =
    Hashtbl.fold (fun p r l -> (Some (Pid.unsafe_of_int p), r) :: l) acc []
  in
  let entries = if !self > 0.0 then (None, !self) :: entries else entries in
  List.sort
    (fun (_, a) (_, b) -> compare b a)
    entries
