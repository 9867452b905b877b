open Lesslog_id
module Cluster = Lesslog.Cluster
module File_store = Lesslog_storage.File_store

type outcome = {
  replicas_per_key : (string * int) list;
  total_replicas : int;
  iterations : int;
  balanced : bool;
  max_load : float;
}

let flows_of cluster catalog =
  List.map
    (fun (key, demand) ->
      let flow = Flow.create (Cluster.tree_of_key cluster key) (Cluster.status cluster) in
      (key, demand, flow))
    catalog

let loads_of cluster flows =
  let params = Cluster.params cluster in
  let total = Array.make (Params.space params) 0.0 in
  let by_key =
    List.map
      (fun (key, demand, flow) ->
        let loads =
          Flow.serve_rates flow ~holders:(fun p -> Cluster.holds cluster p ~key) ~demand
        in
        Array.iteri (fun i r -> total.(i) <- total.(i) +. r) loads.Flow.serve;
        (key, loads))
      flows
  in
  (total, by_key)

let aggregate_loads ~cluster ~catalog =
  fst (loads_of cluster (flows_of cluster catalog))

let per_key_loads ~cluster ~catalog ~at =
  let _, by_key = loads_of cluster (flows_of cluster catalog) in
  List.filter_map
    (fun (key, loads) ->
      let r = loads.Flow.serve.(Pid.to_int at) in
      if r > 0.0 then Some (key, r) else None)
    by_key
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let run ?max_steps ~rng ~cluster ~catalog ~capacity ~policy () =
  if not (capacity > 0.0) then invalid_arg "Multi_balance.run: capacity";
  let params = Cluster.params cluster in
  let max_steps =
    match max_steps with Some s -> s | None -> 8 * Params.space params
  in
  let flows = flows_of cluster catalog in
  let created : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let iterations = ref 0 in
  let finished = ref false and balanced = ref false in
  let last_max = ref 0.0 in
  while not !finished do
    incr iterations;
    let total, by_key = loads_of cluster flows in
    last_max := Array.fold_left Float.max 0.0 total;
    if !iterations > max_steps then finished := true
    else begin
      (* Overloaded nodes, most loaded first. *)
      let overloaded =
        let acc = ref [] in
        Array.iteri
          (fun i r -> if r > capacity then acc := (i, r) :: !acc)
          total;
        List.sort (fun (_, a) (_, b) -> compare b a) !acc
      in
      match overloaded with
      | [] ->
          finished := true;
          balanced := true
      | _ ->
          (* For each overloaded node, try its files heaviest-first until
             some placement succeeds. *)
          let placed = ref false in
          let try_node (i, _) =
            if not !placed then begin
              let node = Pid.unsafe_of_int i in
              let files_here =
                List.filter_map
                  (fun (key, loads) ->
                    let r = loads.Flow.serve.(i) in
                    if r > 0.0 then Some (key, r) else None)
                  by_key
                |> List.sort (fun (_, a) (_, b) -> compare b a)
              in
              List.iter
                (fun (key, _) ->
                  if not !placed then begin
                    let demand =
                      match List.assoc_opt key catalog with
                      | Some d -> d
                      | None -> assert false
                    in
                    let flow =
                      let rec find = function
                        | [] -> assert false
                        | (k, _, f) :: rest -> if k = key then f else find rest
                      in
                      find flows
                    in
                    match
                      Policy.place policy ~rng ~cluster ~flow ~demand ~key
                        ~overloaded:node
                    with
                    | Some dest ->
                        let version =
                          Option.value ~default:0
                            (File_store.version (Cluster.store cluster node) ~key)
                        in
                        Cluster.add cluster dest ~key
                          ~origin:File_store.Replicated ~version ~now:0.0;
                        Hashtbl.replace created key
                          (1 + Option.value ~default:0 (Hashtbl.find_opt created key));
                        placed := true
                    | None -> ()
                  end)
                files_here
            end
          in
          List.iter try_node overloaded;
          if not !placed then begin
            finished := true;
            balanced := false
          end
    end
  done;
  let replicas_per_key =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) created [] |> List.sort compare
  in
  {
    replicas_per_key;
    total_replicas = List.fold_left (fun acc (_, v) -> acc + v) 0 replicas_per_key;
    iterations = !iterations;
    balanced = !balanced;
    max_load = !last_max;
  }
