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

(* Live requests sit in parallel slot arrays indexed by [id land mask].
   Ids are issued in sequence, so every live id lies within the last
   [mask + 1] issued and no two share a slot; when the slot of the next
   id still holds a live request the ring doubles. A free slot holds id
   [-1]. The engine has no timer cancellation: a timer fires
   unconditionally and is stale unless its request still owns the slot
   on the attempt the timer was armed for. *)
type 'meta t = {
  engine : Engine.t;
  rng : Rng.t;
  config : config;
  transmit : id:int -> attempt:int -> 'meta -> unit;
  on_event : ('meta event -> unit) option;
  metrics : metrics option;
  mutable mask : int;
  mutable slot_id : int array;
  mutable attempt : int array;
  mutable issued_at : Float.Array.t;
  mutable meta : 'meta array;  (* empty until the first issue *)
  mutable in_flight : int;
  mutable next_id : int;
  mutable completed : int;
  mutable exhausted : int;
  mutable retransmissions : int;
  mutable timeouts : int;
  mutable timer_h : int;
}

let initial_slots = 64

let count t f = match t.metrics with None -> () | Some m -> Obs.Registry.incr (f m)

(* The slot of live request [id], or [-1]. *)
let[@inline] slot t id =
  let s = id land t.mask in
  if id >= 0 && Array.unsafe_get t.slot_id s = id then s else -1

let free t id =
  t.slot_id.(id land t.mask) <- -1;
  t.in_flight <- t.in_flight - 1

(* Double the ring, rehoming each live request at [id land mask']. *)
let grow t =
  let cap = t.mask + 1 in
  let mask' = (2 * cap) - 1 in
  let slot_id = Array.make (2 * cap) (-1) and attempt = Array.make (2 * cap) 0 in
  let issued_at = Float.Array.make (2 * cap) 0.0 in
  let meta = Array.make (2 * cap) t.meta.(0) in
  for s = 0 to cap - 1 do
    let id = t.slot_id.(s) in
    if id >= 0 then begin
      let s' = id land mask' in
      slot_id.(s') <- id;
      attempt.(s') <- t.attempt.(s);
      Float.Array.set issued_at s' (Float.Array.get t.issued_at s);
      meta.(s') <- t.meta.(s)
    end
  done;
  t.mask <- mask';
  t.slot_id <- slot_id;
  t.attempt <- attempt;
  t.issued_at <- issued_at;
  t.meta <- meta

(* Both timers of a request are events of one engine handler: [a] is
   the request id and [b] the attempt, shifted left past a bit that is 0
   for the attempt's timeout and 1 for the end of the backoff before the
   next attempt. *)
let arm t id attempt =
  Engine.post t.engine ~delay:t.config.timeout ~h:t.timer_h ~a:id
    ~b:(attempt lsl 1) ~x:0.0

(* Event records are built only under an [on_event] callback. The
   Timeout callback may re-enter the tracker (complete [id], issue and
   grow the ring), so afterwards the request is looked up again: if it
   no longer owns a slot on this attempt, it has been settled and the
   timeout ends there. *)
let timed_out t id attempt s =
  t.timeouts <- t.timeouts + 1;
  count t (fun m -> m.m_timeouts);
  let meta = t.meta.(s) in
  (match t.on_event with
  | None -> ()
  | Some f -> f (Timeout { id; attempt; meta }));
  let s = slot t id in
  if s >= 0 && t.attempt.(s) = attempt then
    if attempt + 1 >= Retry.attempts t.config.policy then begin
      free t id;
      t.exhausted <- t.exhausted + 1;
      count t (fun m -> m.m_exhausted);
      match t.on_event with
      | None -> ()
      | Some f -> f (Exhausted { id; attempts = attempt + 1; meta })
    end
    else
      let backoff = Retry.delay t.config.policy t.rng ~retry:(attempt + 1) in
      Engine.post t.engine ~delay:backoff ~h:t.timer_h ~a:id
        ~b:((attempt lsl 1) lor 1) ~x:0.0

let retransmit t id attempt s =
  let meta = t.meta.(s) in
  t.attempt.(s) <- attempt + 1;
  t.retransmissions <- t.retransmissions + 1;
  count t (fun m -> m.m_retransmissions);
  (match t.on_event with
  | None -> ()
  | Some f -> f (Retransmit { id; attempt = attempt + 1; meta }));
  t.transmit ~id ~attempt:(attempt + 1) meta;
  arm t id (attempt + 1)

let on_timer t id word =
  let attempt = word lsr 1 in
  let s = slot t id in
  if s >= 0 && t.attempt.(s) = attempt then
    if word land 1 = 0 then timed_out t id attempt s
    else retransmit t id attempt s

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
      mask = initial_slots - 1;
      slot_id = Array.make initial_slots (-1);
      attempt = Array.make initial_slots 0;
      issued_at = Float.Array.make initial_slots 0.0;
      meta = [||];
      in_flight = 0;
      next_id = 0;
      completed = 0;
      exhausted = 0;
      retransmissions = 0;
      timeouts = 0;
      timer_h = -1;
    }
  in
  t.timer_h <- Engine.register engine (on_timer t);
  t

let issue t meta =
  let id = t.next_id in
  if Array.length t.meta = 0 then t.meta <- Array.make (t.mask + 1) meta;
  if t.slot_id.(id land t.mask) >= 0 then grow t;
  let s = id land t.mask in
  t.slot_id.(s) <- id;
  t.attempt.(s) <- 0;
  Float.Array.set t.issued_at s (Engine.now t.engine);
  t.meta.(s) <- meta;
  t.in_flight <- t.in_flight + 1;
  t.next_id <- id + 1;
  count t (fun m -> m.m_issued);
  t.transmit ~id ~attempt:0 meta;
  arm t id 0;
  id

let complete t ~id =
  let s = slot t id in
  s >= 0
  && begin
       free t id;
       t.completed <- t.completed + 1;
       (match t.metrics with
       | None -> ()
       | Some m ->
           Obs.Registry.incr m.m_completed;
           Obs.Registry.observe m.m_latency
             (Engine.now t.engine -. Float.Array.get t.issued_at s));
       true
     end

let[@inline] issued_at t ~id =
  let s = slot t id in
  if s < 0 then invalid_arg "Rpc.issued_at: request not in flight";
  Float.Array.unsafe_get t.issued_at s

let in_flight t = t.in_flight
let slots t = t.mask + 1
let issued t = t.next_id
let completed t = t.completed
let exhausted t = t.exhausted
let retransmissions t = t.retransmissions
let timeouts t = t.timeouts

(* One bit per request id, a byte per eight ids, doubled whenever an id
   lands past the end. *)
module Dedup = struct
  type t = { mutable bits : Bytes.t; mutable duplicates : int }

  let create () = { bits = Bytes.make 8 '\000'; duplicates = 0 }

  let grow t byte =
    let n = ref (Bytes.length t.bits) in
    while !n <= byte do
      n := 2 * !n
    done;
    let bits = Bytes.make !n '\000' in
    Bytes.blit t.bits 0 bits 0 (Bytes.length t.bits);
    t.bits <- bits

  let first t ~id =
    if id < 0 then invalid_arg "Rpc.Dedup.first: id must be >= 0";
    let byte = id lsr 3 and bit = 1 lsl (id land 7) in
    if byte >= Bytes.length t.bits then grow t byte;
    let v = Char.code (Bytes.unsafe_get t.bits byte) in
    if v land bit <> 0 then begin
      t.duplicates <- t.duplicates + 1;
      false
    end
    else begin
      Bytes.unsafe_set t.bits byte (Char.unsafe_chr (v lor bit));
      true
    end

  let seen t ~id =
    let byte = id lsr 3 in
    id >= 0
    && byte < Bytes.length t.bits
    && Char.code (Bytes.unsafe_get t.bits byte) land (1 lsl (id land 7)) <> 0

  let duplicates t = t.duplicates
end
