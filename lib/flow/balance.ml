open Lesslog_id
module Packed_bits = Lesslog_bits.Packed_bits
module Cluster = Lesslog.Cluster
module Status_word = Lesslog_membership.Status_word
module File_store = Lesslog_storage.File_store

type outcome = {
  replicas : int;
  iterations : int;
  balanced : bool;
  max_load : float;
  unserved : float;
}

let overloaded_pids ~capacity (loads : Flow.loads) =
  let acc = ref [] in
  Array.iteri
    (fun i rate -> if rate > capacity then acc := (i, rate) :: !acc)
    loads.Flow.serve;
  List.sort (fun (_, a) (_, b) -> Float.compare b a) !acc
  |> List.map (fun (i, _) -> Pid.unsafe_of_int i)

let run ?max_steps ~rng ~cluster ~key ~demand ~capacity ~policy () =
  if not (capacity > 0.0) then invalid_arg "Balance.run: capacity";
  let params = Cluster.params cluster in
  let max_steps =
    match max_steps with Some s -> s | None -> 4 * Params.space params
  in
  let tree = Cluster.tree_of_key cluster key in
  let flow = Flow.create tree (Cluster.status cluster) in
  let holders p = Cluster.holds cluster p ~key in
  let replicas = ref 0 and iterations = ref 0 in
  let finished = ref false and balanced = ref false in
  let final_loads = ref (Flow.serve_rates flow ~holders ~demand) in
  while not !finished do
    incr iterations;
    let loads = Flow.serve_rates flow ~holders ~demand in
    final_loads := loads;
    if !iterations > max_steps then finished := true
    else begin
      (* Let the most overloaded node act; when the policy has no
         candidate for it, fall through to the next overloaded node. *)
      let rec try_nodes = function
        | [] ->
            (* Nobody could place a replica. *)
            finished := true;
            balanced := overloaded_pids ~capacity loads = []
        | overloaded :: rest -> (
            match
              Policy.place policy ~rng ~cluster ~flow ~demand ~key ~overloaded
            with
            | Some dest ->
                let version =
                  Option.value ~default:0
                    (File_store.version (Cluster.store cluster overloaded) ~key)
                in
                Cluster.add cluster dest ~key
                  ~origin:File_store.Replicated ~version ~now:0.0;
                incr replicas
            | None -> try_nodes rest)
      in
      match overloaded_pids ~capacity loads with
      | [] ->
          finished := true;
          balanced := true
      | overloaded -> try_nodes overloaded
    end
  done;
  let max_load = Array.fold_left Float.max 0.0 (!final_loads).Flow.serve in
  {
    replicas = !replicas;
    iterations = !iterations;
    balanced = !balanced;
    max_load;
    unserved = (!final_loads).Flow.unserved;
  }

let loads ~cluster ~key ~demand =
  let tree = Cluster.tree_of_key cluster key in
  let flow = Flow.create tree (Cluster.status cluster) in
  Flow.serve_rates flow ~holders:(fun p -> Cluster.holds cluster p ~key) ~demand

let evict_cold ?(capacity = infinity) ~cluster ~key ~demand ~min_rate () =
  let tree = Cluster.tree_of_key cluster key in
  let flow = Flow.create tree (Cluster.status cluster) in
  let holders p = Cluster.holds cluster p ~key in
  let serve_now () = Flow.serve_rates flow ~holders ~demand in
  let evicted = ref 0 in
  let blocked = Packed_bits.create (Params.space (Cluster.params cluster)) in
  let continue = ref true in
  while !continue do
    let current = serve_now () in
    (* Coldest eligible replica first. Only live holders can qualify, so
       scan them (via the cluster's holder bitset) instead of folding over
       every live node. *)
    let candidate =
      List.fold_left
        (fun acc p ->
          let i = Pid.to_int p in
          let store = Cluster.store cluster p in
          if
            (not (Packed_bits.get blocked i))
            && File_store.origin store ~key = Some File_store.Replicated
            && current.Flow.serve.(i) < min_rate
          then
            match acc with
            | Some (_, rate) when rate <= current.Flow.serve.(i) -> acc
            | _ -> Some (p, current.Flow.serve.(i))
          else acc)
        None
        (Cluster.holders cluster ~key)
    in
    match candidate with
    | None -> continue := false
    | Some (p, _) ->
        let store = Cluster.store cluster p in
        let version = Option.value ~default:0 (File_store.version store ~key) in
        File_store.remove store ~key;
        let after = serve_now () in
        let max_load = Array.fold_left Float.max 0.0 after.Flow.serve in
        if max_load > capacity || after.Flow.unserved > 0.0 then begin
          (* Rolling this copy back keeps the system balanced; never try
             it again. *)
          Cluster.add cluster p ~key ~origin:File_store.Replicated ~version
            ~now:0.0;
          Packed_bits.set blocked (Pid.to_int p)
        end
        else incr evicted
  done;
  !evicted

let holder_pids cluster ~key = Cluster.holders cluster ~key
