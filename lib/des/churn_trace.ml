module Rng = Lesslog_prng.Rng

type config = {
  mean_session : float;
  mean_downtime : float;
  fail_fraction : float;
  duration : float;
}

let default =
  {
    mean_session = 120.0;
    mean_downtime = 60.0;
    fail_fraction = 0.2;
    duration = 300.0;
  }

let generate ~rng ~live config =
  if not (config.mean_session > 0.0 && config.mean_downtime > 0.0) then
    invalid_arg "Churn_trace.generate: means must be positive";
  if not (config.fail_fraction >= 0.0 && config.fail_fraction <= 1.0) then
    invalid_arg "Churn_trace.generate: fail_fraction";
  let events = ref [] in
  List.iter
    (fun node ->
      let t = ref (Rng.exponential rng ~rate:(1.0 /. config.mean_session)) in
      let online = ref true in
      while !t < config.duration do
        let action =
          if !online then
            if Rng.bernoulli rng ~p:config.fail_fraction then Churn.Fail node
            else Churn.Leave node
          else Churn.Join node
        in
        events := { Churn.at = !t; action } :: !events;
        online := not !online;
        let mean =
          if !online then config.mean_session else config.mean_downtime
        in
        t := !t +. Rng.exponential rng ~rate:(1.0 /. mean)
      done)
    live;
  List.sort (fun a b -> compare a.Churn.at b.Churn.at) !events

let summary events =
  List.fold_left
    (fun (j, l, f) e ->
      match e.Churn.action with
      | Churn.Join _ -> (j + 1, l, f)
      | Churn.Leave _ -> (j, l + 1, f)
      | Churn.Fail _ -> (j, l, f + 1))
    (0, 0, 0) events
