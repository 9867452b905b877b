open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Ptree = Lesslog_ptree.Ptree
module Topology = Lesslog_topology.Topology
module Demand = Lesslog_workload.Demand

type t = { tree : Ptree.t; status : Status_word.t }

let create tree status = { tree; status }

(* One {!Topology.route} step of a request from [origin], as a PID int. *)
let step t ~origin p =
  Topology.route
    ~b:(Params.b (Ptree.params t.tree))
    t.tree t.status ~origin p

let serving_node t ~holders ~origin =
  if Status_word.is_dead t.status origin then
    invalid_arg "Flow.serving_node: dead origin";
  let origin = Pid.to_int origin in
  let rec walk p =
    if holders (Pid.unsafe_of_int p) then Some (Pid.unsafe_of_int p)
    else match step t ~origin p with -1 -> None | q -> walk q
  in
  walk origin

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
        let rec walk prev p =
          if holders (Pid.unsafe_of_int p) || p = at_int then begin
            if p = at_int then add_entry prev r
          end
          else
            match step t ~origin p with -1 -> () | q -> walk (Some p) q
        in
        walk None origin
      end);
  let entries =
    Hashtbl.fold (fun p r l -> (Some (Pid.unsafe_of_int p), r) :: l) acc []
  in
  let entries = if !self > 0.0 then (None, !self) :: entries else entries in
  List.sort
    (fun (_, a) (_, b) -> compare b a)
    entries
