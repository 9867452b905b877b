module Engine = Lesslog_sim.Engine
module Rng = Lesslog_prng.Rng

type config = { timeout : float; policy : Retry.policy }

let default_config = { timeout = 1.0; policy = Retry.default }

type 'meta event =
  | Timeout of { id : int; attempt : int; meta : 'meta }
  | Retransmit of { id : int; attempt : int; meta : 'meta }
  | Exhausted of { id : int; attempts : int; issued_at : float; meta : 'meta }

(* Live requests sit in parallel slot arrays, an open-addressed table
   keyed by request id: a request lives at its home slot [id land mask]
   or, when that was taken, in the first free slot after it, with no
   free slot between home and slot (linear probing; a removal shifts
   later entries back to keep that so). A free slot holds id [-1]. Ids
   are issued in sequence, so nearly every request sits at home. The
   table doubles only when the next id's home is taken and at least
   half the slots are live, so it stays within four times the peak
   in-flight count (64 slots at least), however far apart the live ids
   are.

   Every attempt's timeout falls due [config.timeout] after it is armed,
   so timeouts fall due in the order they were armed. They sit in one
   ring of (id, attempt, due) in arm order, and one engine event is
   outstanding for the ring's front. The engine has no cancellation: an
   entry is stale when its request is no longer live on the attempt it
   was armed for, and stays stale (ids are never reused, attempts only
   grow). Stale entries are dropped when they reach the front, so a
   request settled before its timeout costs a ring slot, not an event.
   The ring holds the attempts armed within one timeout window, stale
   ones included; it starts at 64 entries and doubles when full. *)
type 'meta t = {
  engine : Engine.t;
  rng : Rng.t;
  config : config;
  transmit : id:int -> attempt:int -> 'meta -> unit;
  on_event : ('meta event -> unit) option;
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
  mutable ring_id : int array;
  mutable ring_attempt : int array;
  mutable ring_due : Float.Array.t;
  mutable ring_head : int;
  mutable ring_len : int;
  mutable front_posted : bool;
      (* the front's event is queued or being handled; false only when
         the ring is empty *)
  mutable front_h : int;
  mutable backoff_h : int;
}

let initial_slots = 64

let rec probe slot_id mask id s left =
  let v = Array.unsafe_get slot_id s in
  if v = id then s
  else if v < 0 || left = 0 then -1
  else probe slot_id mask id ((s + 1) land mask) (left - 1)

(* The slot of live request [id], or [-1]: from its home up to the first
   free slot, at most once round the table. *)
let[@inline] slot t id =
  if id < 0 then -1 else probe t.slot_id t.mask id (id land t.mask) t.mask

(* The slot of [id] while it is live on [attempt], else [-1]. *)
let[@inline] live_slot t id attempt =
  let s = slot t id in
  if s >= 0 && t.attempt.(s) = attempt then s else -1

(* The first free slot from [id]'s home on; the table must have one. *)
let rec free_slot slot_id mask s =
  if Array.unsafe_get slot_id s < 0 then s
  else free_slot slot_id mask ((s + 1) land mask)

let move t ~src ~dst =
  t.slot_id.(dst) <- t.slot_id.(src);
  t.attempt.(dst) <- t.attempt.(src);
  Float.Array.set t.issued_at dst (Float.Array.get t.issued_at src);
  t.meta.(dst) <- t.meta.(src);
  t.slot_id.(src) <- -1

(* Empty slot [s], then walk the run after it: an entry whose home does
   not lie in (hole, j] moves back into the hole, which moves to [j]. *)
let free t s =
  let mask = t.mask in
  t.slot_id.(s) <- -1;
  t.in_flight <- t.in_flight - 1;
  let hole = ref s and j = ref ((s + 1) land mask) in
  while t.slot_id.(!j) >= 0 do
    let home = (t.slot_id.(!j) - !hole) land mask in
    if home = 0 || home > (!j - !hole) land mask then begin
      move t ~src:!j ~dst:!hole;
      hole := !j
    end;
    j := (!j + 1) land mask
  done

(* Double the table, placing each live request afresh from its home. *)
let grow t =
  let cap = t.mask + 1 in
  let mask' = (2 * cap) - 1 in
  let slot_id = Array.make (2 * cap) (-1) and attempt = Array.make (2 * cap) 0 in
  let issued_at = Float.Array.make (2 * cap) 0.0 in
  let meta = Array.make (2 * cap) t.meta.(0) in
  for s = 0 to cap - 1 do
    let id = t.slot_id.(s) in
    if id >= 0 then begin
      let s' = free_slot slot_id mask' (id land mask') in
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

(* Double the ring, its entries moved to the front in arm order. *)
let grow_ring t =
  let cap = Array.length t.ring_id in
  let ids = Array.make (2 * cap) 0 and attempts = Array.make (2 * cap) 0 in
  let dues = Float.Array.make (2 * cap) 0.0 in
  for k = 0 to t.ring_len - 1 do
    let i = (t.ring_head + k) land (cap - 1) in
    ids.(k) <- t.ring_id.(i);
    attempts.(k) <- t.ring_attempt.(i);
    Float.Array.set dues k (Float.Array.get t.ring_due i)
  done;
  t.ring_id <- ids;
  t.ring_attempt <- attempts;
  t.ring_due <- dues;
  t.ring_head <- 0

let post_front t =
  Engine.post_at t.engine
    ~time:(Float.Array.unsafe_get t.ring_due t.ring_head)
    ~h:t.front_h ~a:0 ~b:0 ~x:0.0

(* Arm attempt [attempt]'s timeout at the ring's back; an empty ring's
   new front gets the outstanding event. *)
let arm t id attempt =
  if t.ring_len = Array.length t.ring_id then grow_ring t;
  let i = (t.ring_head + t.ring_len) land (Array.length t.ring_id - 1) in
  t.ring_id.(i) <- id;
  t.ring_attempt.(i) <- attempt;
  Float.Array.set t.ring_due i (Engine.now t.engine +. t.config.timeout);
  t.ring_len <- t.ring_len + 1;
  if not t.front_posted then begin
    t.front_posted <- true;
    post_front t
  end

(* Event records are built only under an [on_event] callback. The
   Timeout callback may re-enter the tracker (complete [id], issue and
   grow the slot table or the ring), so afterwards the request is looked
   up again: if it no longer owns a slot on this attempt, it has been
   settled and the timeout ends there. *)
let timed_out t id attempt s =
  t.timeouts <- t.timeouts + 1;
  let meta = t.meta.(s) in
  (match t.on_event with
  | None -> ()
  | Some f -> f (Timeout { id; attempt; meta }));
  let s = live_slot t id attempt in
  if s >= 0 then
    if attempt + 1 >= Retry.attempts t.config.policy then begin
      let issued_at = Float.Array.get t.issued_at s in
      free t s;
      t.exhausted <- t.exhausted + 1;
      match t.on_event with
      | None -> ()
      | Some f -> f (Exhausted { id; attempts = attempt + 1; issued_at; meta })
    end
    else
      let backoff = Retry.delay t.config.policy t.rng ~retry:(attempt + 1) in
      Engine.post t.engine ~delay:backoff ~h:t.backoff_h ~a:id ~b:attempt ~x:0.0

let retransmit t id attempt s =
  let meta = t.meta.(s) in
  t.attempt.(s) <- attempt + 1;
  t.retransmissions <- t.retransmissions + 1;
  (match t.on_event with
  | None -> ()
  | Some f -> f (Retransmit { id; attempt = attempt + 1; meta }));
  t.transmit ~id ~attempt:(attempt + 1) meta;
  arm t id (attempt + 1)

(* The end of the backoff after attempt [attempt] timed out. *)
let on_backoff t id attempt =
  let s = live_slot t id attempt in
  if s >= 0 then retransmit t id attempt s

(* The front's timeout is due. Every entry due by now leaves the front
   in arm order, each live one timed out, so timeouts that fall due at
   one instant fire in one dispatch, in arm order. The event
   stays counted as posted while the callbacks run, so an attempt they
   arm only joins the ring. Then stale entries leave the front, and the
   next live one gets the event. *)
let on_front t _ _ =
  let continue = ref true in
  while !continue && t.ring_len > 0 do
    let i = t.ring_head in
    let id = t.ring_id.(i) and attempt = t.ring_attempt.(i) in
    let s = live_slot t id attempt in
    if s >= 0 && Float.Array.unsafe_get t.ring_due i > Engine.now t.engine then
      continue := false
    else begin
      t.ring_head <- (i + 1) land (Array.length t.ring_id - 1);
      t.ring_len <- t.ring_len - 1;
      if s >= 0 then timed_out t id attempt s
    end
  done;
  if t.ring_len > 0 then post_front t else t.front_posted <- false

let create ~engine ~rng ?(config = default_config) ?on_event ~transmit () =
  if not (config.timeout > 0.0) then invalid_arg "Rpc.create: timeout";
  let t =
    {
      engine;
      rng;
      config;
      transmit;
      on_event;
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
      ring_id = Array.make initial_slots 0;
      ring_attempt = Array.make initial_slots 0;
      ring_due = Float.Array.make initial_slots 0.0;
      ring_head = 0;
      ring_len = 0;
      front_posted = false;
      front_h = -1;
      backoff_h = -1;
    }
  in
  t.front_h <- Engine.register engine (on_front t);
  t.backoff_h <- Engine.register engine (on_backoff t);
  t

let issue t meta =
  let id = t.next_id in
  if Array.length t.meta = 0 then t.meta <- Array.make (t.mask + 1) meta;
  if t.slot_id.(id land t.mask) >= 0 && 2 * t.in_flight > t.mask then grow t;
  let s = free_slot t.slot_id t.mask (id land t.mask) in
  t.slot_id.(s) <- id;
  t.attempt.(s) <- 0;
  Float.Array.set t.issued_at s (Engine.now t.engine);
  t.meta.(s) <- meta;
  t.in_flight <- t.in_flight + 1;
  t.next_id <- id + 1;
  t.transmit ~id ~attempt:0 meta;
  arm t id 0;
  id

let complete t ~id =
  let s = slot t id in
  s >= 0
  && begin
       free t s;
       t.completed <- t.completed + 1;
       true
     end

let[@inline] issued_at t ~id =
  let s = slot t id in
  if s < 0 then invalid_arg "Rpc.issued_at: request not in flight";
  Float.Array.unsafe_get t.issued_at s

let attempt t ~id =
  let s = slot t id in
  if s < 0 then -1 else t.attempt.(s)

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
