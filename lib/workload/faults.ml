open Lesslog_id
module Rng = Lesslog_prng.Rng

type burst = { from_ : float; until : float; loss : float }

type crash = { node : Pid.t; at : float; restart_at : float option }

type direction = Both | Inbound | Outbound

type partition = {
  from_ : float;
  until : float;
  group : Pid.t list;
  direction : direction;
}

type plan = {
  bursts : burst list;
  crashes : crash list;
  partitions : partition list;
}

let empty = { bursts = []; crashes = []; partitions = [] }

let last_disturbance plan =
  let m = ref 0.0 in
  let see t = if t > !m then m := t in
  List.iter (fun (b : burst) -> see b.until) plan.bursts;
  List.iter
    (fun c ->
      see c.at;
      Option.iter see c.restart_at)
    plan.crashes;
  List.iter (fun (p : partition) -> see p.until) plan.partitions;
  !m

module Cuts = struct
  type t = {
    member : Bytes.t array;  (* per cut, '\001' at each group member *)
    direction : direction array;
    is_active : bool array;
  }

  let create ~space partitions =
    let parts = Array.of_list partitions in
    let member =
      Array.map
        (fun (p : partition) ->
          let b = Bytes.make space '\000' in
          List.iter
            (fun q ->
              let i = Pid.to_int q in
              if i < 0 || i >= space then
                invalid_arg "Faults.Cuts.create: group member outside space";
              Bytes.set b i '\001')
            p.group;
          b)
        parts
    in
    {
      member;
      direction = Array.map (fun (p : partition) -> p.direction) parts;
      is_active = Array.make (Array.length parts) false;
    }

  let cut t i = t.is_active.(i) <- true
  let heal t i = t.is_active.(i) <- false

  let rec allows_from t s d c =
    c >= Array.length t.member
    || (not t.is_active.(c)
       ||
       let g = t.member.(c) in
       let s_in = Bytes.get g s = '\001' and d_in = Bytes.get g d = '\001' in
       match t.direction.(c) with
       | Both -> s_in = d_in
       | Inbound -> not (d_in && not s_in)
       | Outbound -> not (s_in && not d_in))
       && allows_from t s d (c + 1)

  let allows t ~src ~dst = allows_from t (Pid.to_int src) (Pid.to_int dst) 0
end

let crashed_at plan ~time =
  List.filter_map
    (fun c ->
      let down =
        time >= c.at
        && match c.restart_at with None -> true | Some r -> time < r
      in
      if down then Some c.node else None)
    plan.crashes

let generate ~rng ~live ~duration ?(active_until = 0.6)
    ?(crash_fraction = 0.05) ?(restart_fraction = 0.5) ?mean_downtime
    ?(bursts = 1) ?(burst_loss = 0.5) ?mean_burst ?(partitions = 0)
    ?(partition_fraction = 0.25) ?mean_partition () =
  let fail msg = invalid_arg ("Faults.generate: " ^ msg) in
  let positive name x = if not (x > 0.0) then fail (name ^ " must be > 0") in
  let fraction name p =
    if not (0.0 <= p && p <= 1.0) then fail (name ^ " must be in [0, 1]")
  in
  let count name k = if k < 0 then fail (name ^ " must be >= 0") in
  positive "duration" duration;
  if not (0.05 < active_until && active_until <= 0.75) then
    fail "active_until must be in (0.05, 0.75]";
  fraction "crash_fraction" crash_fraction;
  fraction "restart_fraction" restart_fraction;
  fraction "partition_fraction" partition_fraction;
  count "bursts" bursts;
  count "partitions" partitions;
  let mean_downtime = Option.value mean_downtime ~default:(duration /. 8.0) in
  let mean_burst = Option.value mean_burst ~default:(duration /. 10.0) in
  let mean_partition =
    Option.value mean_partition ~default:(duration /. 10.0)
  in
  positive "mean_downtime" mean_downtime;
  positive "mean_burst" mean_burst;
  positive "mean_partition" mean_partition;
  let settle = 0.75 *. duration in
  let start_in () =
    let lo = 0.05 *. duration and hi = active_until *. duration in
    lo +. Rng.float rng (hi -. lo)
  in
  let window mean =
    let from_ = start_in () in
    let until =
      Float.min settle (from_ +. Rng.exponential rng ~rate:(1.0 /. mean))
    in
    (from_, Float.max until (from_ +. (0.01 *. duration)))
  in
  let pool = Array.of_list live in
  let n = Array.length pool in
  let crash_count =
    int_of_float (Float.round (crash_fraction *. float_of_int n))
  in
  let victims = Rng.sample_without_replacement rng ~k:crash_count pool in
  let crashes =
    Array.to_list victims
    |> List.map (fun node ->
           let at = start_in () in
           let restart_at =
             if Rng.bernoulli rng ~p:restart_fraction then
               let back =
                 at +. Rng.exponential rng ~rate:(1.0 /. mean_downtime)
               in
               (* A restart that would land in the quiet tail is pulled
                  back so convergence is measured against a stable truth. *)
               Some (Float.min settle back)
             else None
           in
           { node; at; restart_at })
  in
  let bursts =
    List.init bursts (fun _ ->
        let from_, until = window mean_burst in
        { from_; until; loss = burst_loss })
  in
  let partitions =
    List.init partitions (fun _ ->
        let from_, until = window mean_partition in
        let k =
          Stdlib.max 1
            (int_of_float (Float.round (partition_fraction *. float_of_int n)))
        in
        let group =
          Array.to_list (Rng.sample_without_replacement rng ~k pool)
        in
        let direction =
          match Rng.int rng 3 with 0 -> Both | 1 -> Inbound | _ -> Outbound
        in
        { from_; until; group; direction })
  in
  { bursts; crashes; partitions }
