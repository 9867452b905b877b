type phase = { demand : Demand.t; duration : float }

type t = { phases : phase list; total : float }

let of_phases phases =
  if phases = [] then invalid_arg "Scenario.of_phases: empty";
  List.iter
    (fun p ->
      if not (p.duration > 0.0) then
        invalid_arg "Scenario.of_phases: non-positive duration")
    phases;
  { phases; total = List.fold_left (fun acc p -> acc +. p.duration) 0.0 phases }

let phases t = t.phases

let total_duration t = t.total

let demand_at t ~time =
  if time < 0.0 then None
  else begin
    let rec find offset = function
      | [] -> None
      | p :: rest ->
          if time < offset +. p.duration then Some p.demand
          else find (offset +. p.duration) rest
    in
    find 0.0 t.phases
  end

let flash_crowd status ~rng ~peak ~calm ~peak_duration ~calm_duration =
  let hot = Demand.locality status ~rng ~total:peak in
  let dispersed = Demand.scale hot ~factor:(calm /. peak) in
  of_phases
    [
      { demand = hot; duration = peak_duration };
      { demand = dispersed; duration = calm_duration };
    ]
