open Lesslog_id
module Engine = Lesslog_sim.Engine

type config = { period : float; suspect_after : int }

let default_config = { period = 0.5; suspect_after = 5 }

type verdict = [ `Suspect | `Trust ]

type peer = {
  pid : Pid.t;
  mutable misses : int;
  mutable suspected : bool;
  mutable last_seq : int;  (* sequence number of the outstanding ping *)
  mutable answered : bool;
}

type t = {
  engine : Engine.t;
  config : config;
  peers : peer array;
  index : int array;
      (* PID int -> position in [peers], [-1] when not monitored; sized
         to the largest monitored PID *)
  ping : seq:int -> Pid.t -> unit;
  on_change : Pid.t -> verdict -> unit;
  mutable next_seq : int;
  mutable rounds : int;
  mutable suspicions : int;
  mutable recoveries : int;
  mutable tick_h : int;
}

let round t =
  t.rounds <- t.rounds + 1;
  for i = 0 to Array.length t.peers - 1 do
    let p = t.peers.(i) in
    if (not p.answered) && p.last_seq >= 0 then begin
      p.misses <- p.misses + 1;
      if p.misses >= t.config.suspect_after && not p.suspected then begin
        p.suspected <- true;
        t.suspicions <- t.suspicions + 1;
        t.on_change p.pid `Suspect
      end
    end;
    let seq = t.next_seq in
    t.next_seq <- t.next_seq + 1;
    p.last_seq <- seq;
    p.answered <- false;
    t.ping ~seq p.pid
  done

(* One round now, then one per period while [now <= until]: each round
   posts the next as an event of the detector's tick handler, carrying
   [until] in its float word. *)
let start t ~until =
  if Engine.now t.engine <= until then begin
    round t;
    let next = Engine.now t.engine +. t.config.period in
    if next <= until then
      Engine.post_at t.engine ~time:next ~h:t.tick_h ~a:0 ~b:0 ~x:until
  end

let create ~engine ?(config = default_config) ~peers ~ping ~on_change () =
  if not (config.period > 0.0) then invalid_arg "Heartbeat.create: period";
  if config.suspect_after < 1 then invalid_arg "Heartbeat.create: suspect_after";
  let peers =
    Array.map
      (fun pid ->
        { pid; misses = 0; suspected = false; last_seq = -1; answered = true })
      peers
  in
  let index =
    Array.make
      (Array.fold_left (fun acc p -> max acc (Pid.to_int p.pid + 1)) 0 peers)
      (-1)
  in
  Array.iteri (fun i p -> index.(Pid.to_int p.pid) <- i) peers;
  let t =
    {
      engine;
      config;
      peers;
      index;
      ping;
      on_change;
      next_seq = 0;
      rounds = 0;
      suspicions = 0;
      recoveries = 0;
      tick_h = -1;
    }
  in
  t.tick_h <-
    Engine.register engine (fun _ _ -> start t ~until:(Engine.x engine));
  t

(* Position of [pid] in [t.peers], [-1] when it is not monitored. *)
let[@inline] find t pid =
  let i = Pid.to_int pid in
  if i >= 0 && i < Array.length t.index then Array.unsafe_get t.index i else -1

let pong t ~peer ~seq =
  let k = find t peer in
  if k >= 0 then begin
    let p = t.peers.(k) in
    (* Accept any sequence number we actually sent to this peer: a pong
       that raced the next round is still evidence of life. *)
    if seq <= p.last_seq then begin
      if seq = p.last_seq then p.answered <- true;
      p.misses <- 0;
      if p.suspected then begin
        p.suspected <- false;
        t.recoveries <- t.recoveries + 1;
        t.on_change p.pid `Trust
      end
    end
  end

let suspected t pid =
  let k = find t pid in
  k >= 0 && t.peers.(k).suspected

let suspected_count t =
  Array.fold_left (fun acc p -> if p.suspected then acc + 1 else acc) 0 t.peers

let rounds t = t.rounds
let suspicions t = t.suspicions
let recoveries t = t.recoveries
