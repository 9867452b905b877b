open Lesslog_id
module Engine = Lesslog_sim.Engine

type config = { period : float; suspect_after : int }

let default_config = { period = 0.5; suspect_after = 5 }

type verdict = [ `Suspect | `Trust ]

(* Peer [k]'s state is column [k] of the flat arrays: its PID, its
   consecutive misses, its verdict, the sequence number of its
   outstanding ping ([-1] before the first round) and whether that ping
   was answered. *)
type t = {
  engine : Engine.t;
  config : config;
  pids : Pid.t array;
  misses : int array;
  suspected : bool array;
  last_seq : int array;
  answered : bool array;
  index : int array;
      (* PID int -> peer position, [-1] when not monitored; sized to the
         largest monitored PID *)
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
  for k = 0 to Array.length t.pids - 1 do
    if (not t.answered.(k)) && t.last_seq.(k) >= 0 then begin
      t.misses.(k) <- t.misses.(k) + 1;
      if t.misses.(k) >= t.config.suspect_after && not t.suspected.(k)
      then begin
        t.suspected.(k) <- true;
        t.suspicions <- t.suspicions + 1;
        t.on_change t.pids.(k) `Suspect
      end
    end;
    let seq = t.next_seq in
    t.next_seq <- t.next_seq + 1;
    t.last_seq.(k) <- seq;
    t.answered.(k) <- false;
    t.ping ~seq t.pids.(k)
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
  let pids = Array.copy peers and n = Array.length peers in
  let index =
    Array.make
      (Array.fold_left (fun acc p -> max acc (Pid.to_int p + 1)) 0 pids)
      (-1)
  in
  Array.iteri (fun k p -> index.(Pid.to_int p) <- k) pids;
  let t =
    {
      engine;
      config;
      pids;
      misses = Array.make n 0;
      suspected = Array.make n false;
      last_seq = Array.make n (-1);
      answered = Array.make n true;
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

(* Position of [pid] among the peers, [-1] when it is not monitored. *)
let[@inline] find t pid =
  let i = Pid.to_int pid in
  if i >= 0 && i < Array.length t.index then Array.unsafe_get t.index i else -1

let pong t ~peer ~seq =
  let k = find t peer in
  if k >= 0 then begin
    (* Accept any sequence number we actually sent to this peer: a pong
       that raced the next round is still evidence of life. *)
    if seq <= t.last_seq.(k) then begin
      if seq = t.last_seq.(k) then t.answered.(k) <- true;
      t.misses.(k) <- 0;
      if t.suspected.(k) then begin
        t.suspected.(k) <- false;
        t.recoveries <- t.recoveries + 1;
        t.on_change t.pids.(k) `Trust
      end
    end
  end

let suspected t pid =
  let k = find t pid in
  k >= 0 && t.suspected.(k)

let suspected_count t =
  Array.fold_left (fun acc s -> if s then acc + 1 else acc) 0 t.suspected

let rounds t = t.rounds
let suspicions t = t.suspicions
let recoveries t = t.recoveries
