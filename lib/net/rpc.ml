module Engine = Lesslog_sim.Engine
module Rng = Lesslog_prng.Rng
module Obs = Lesslog_obs.Obs

type config = { timeout : float; policy : Retry.policy }

let default_config = { timeout = 1.0; policy = Retry.default }

(* Registry handles resolved once at [create]; per-event updates are a
   field write each. *)
type metrics = {
  m_issued : Obs.Registry.counter;
  m_completed : Obs.Registry.counter;
  m_timeouts : Obs.Registry.counter;
  m_retransmissions : Obs.Registry.counter;
  m_exhausted : Obs.Registry.counter;
  m_latency : Obs.Registry.timer;
      (* issue-to-completion, including every retry *)
}

let make_metrics registry =
  {
    m_issued = Obs.Registry.counter registry "rpc/issued";
    m_completed = Obs.Registry.counter registry "rpc/completed";
    m_timeouts = Obs.Registry.counter registry "rpc/timeouts";
    m_retransmissions = Obs.Registry.counter registry "rpc/retransmissions";
    m_exhausted = Obs.Registry.counter registry "rpc/exhausted";
    m_latency = Obs.Registry.timer registry "rpc/request_s";
  }

type 'meta event =
  | Timeout of { id : int; attempt : int; meta : 'meta }
  | Retransmit of { id : int; attempt : int; meta : 'meta }
  | Exhausted of { id : int; attempts : int; meta : 'meta }

(* The engine has no timer cancellation: a timer fires unconditionally
   and checks that the request is still pending on the same attempt it
   was armed for. Completion removes the pending entry, so stale timers
   are no-ops. *)
type 'meta request = { meta : 'meta; issued_at : float; mutable attempt : int }

type 'meta t = {
  engine : Engine.t;
  rng : Rng.t;
  config : config;
  transmit : id:int -> attempt:int -> 'meta -> unit;
  on_event : ('meta event -> unit) option;
  metrics : metrics option;
  live : (int, 'meta request) Hashtbl.t;
  mutable next_id : int;
  mutable issued : int;
  mutable completed : int;
  mutable exhausted : int;
  mutable retransmissions : int;
  mutable timeouts : int;
  mutable timer_h : int;
}

let emit t e = match t.on_event with None -> () | Some f -> f e

let count t f = match t.metrics with None -> () | Some m -> Obs.Registry.incr (f m)

(* Both timers of a request are events of one engine handler: [a] is
   the request id and [b] the attempt, shifted left past a bit that is 0
   for the attempt's timeout and 1 for the end of the backoff before the
   next attempt. *)
let arm t id attempt =
  Engine.post t.engine ~delay:t.config.timeout ~h:t.timer_h ~a:id
    ~b:(attempt lsl 1) ~x:0.0

let timed_out t id attempt r =
  t.timeouts <- t.timeouts + 1;
  count t (fun m -> m.m_timeouts);
  emit t (Timeout { id; attempt; meta = r.meta });
  if attempt + 1 >= Retry.attempts t.config.policy then begin
    Hashtbl.remove t.live id;
    t.exhausted <- t.exhausted + 1;
    count t (fun m -> m.m_exhausted);
    emit t (Exhausted { id; attempts = attempt + 1; meta = r.meta })
  end
  else
    let backoff = Retry.delay t.config.policy t.rng ~retry:(attempt + 1) in
    Engine.post t.engine ~delay:backoff ~h:t.timer_h ~a:id
      ~b:((attempt lsl 1) lor 1) ~x:0.0

let retransmit t id attempt r =
  r.attempt <- attempt + 1;
  t.retransmissions <- t.retransmissions + 1;
  count t (fun m -> m.m_retransmissions);
  emit t (Retransmit { id; attempt = attempt + 1; meta = r.meta });
  t.transmit ~id ~attempt:(attempt + 1) r.meta;
  arm t id (attempt + 1)

let on_timer t id word _ =
  let attempt = word lsr 1 in
  match Hashtbl.find_opt t.live id with
  | Some r when r.attempt = attempt ->
      if word land 1 = 0 then timed_out t id attempt r
      else retransmit t id attempt r
  | _ -> ()

let create ~engine ~rng ?(config = default_config) ?on_event ?registry
    ~transmit () =
  if not (config.timeout > 0.0) then invalid_arg "Rpc.create: timeout";
  let t =
    {
      engine;
      rng;
      config;
      transmit;
      on_event;
      metrics = Option.map make_metrics registry;
      live = Hashtbl.create 64;
      next_id = 0;
      issued = 0;
      completed = 0;
      exhausted = 0;
      retransmissions = 0;
      timeouts = 0;
      timer_h = -1;
    }
  in
  t.timer_h <- Engine.register_handler engine (on_timer t);
  t

let issue t meta =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  t.issued <- t.issued + 1;
  count t (fun m -> m.m_issued);
  Hashtbl.add t.live id { meta; issued_at = Engine.now t.engine; attempt = 0 };
  t.transmit ~id ~attempt:0 meta;
  arm t id 0;
  id

let complete t ~id =
  match Hashtbl.find_opt t.live id with
  | Some r ->
      Hashtbl.remove t.live id;
      t.completed <- t.completed + 1;
      (match t.metrics with
      | None -> ()
      | Some m ->
          Obs.Registry.incr m.m_completed;
          Obs.Registry.observe m.m_latency (Engine.now t.engine -. r.issued_at));
      Some r.meta
  | None -> None

let in_flight t = Hashtbl.length t.live
let issued t = t.issued
let completed t = t.completed
let exhausted t = t.exhausted
let retransmissions t = t.retransmissions
let timeouts t = t.timeouts

module Dedup = struct
  type t = { seen : (int, unit) Hashtbl.t; mutable duplicates : int }

  let create () = { seen = Hashtbl.create 64; duplicates = 0 }

  let first t ~id =
    if Hashtbl.mem t.seen id then begin
      t.duplicates <- t.duplicates + 1;
      false
    end
    else begin
      Hashtbl.add t.seen id ();
      true
    end

  let seen t ~id = Hashtbl.mem t.seen id
  let duplicates t = t.duplicates
end
