type handler = int -> int -> unit

(* The engine's floats in an all-float record, which OCaml stores flat: a
   float field of the mixed record [t] would be a pointer to a box, and
   every write would allocate one. [x] is the payload of the event being
   dispatched ({!x}). *)
type clock = { mutable now : float; mutable x : float }

type t = {
  q : Ladder_queue.t;
  clock : clock;
  mutable next_seq : int;
  mutable executed : int;
  mutable handlers : handler array;
  mutable nhandlers : int;
}

let noop_handler (_ : int) (_ : int) = ()

let create () =
  {
    q = Ladder_queue.create ();
    clock = { now = 0.0; x = 0.0 };
    next_seq = 0;
    executed = 0;
    handlers = Array.make 8 noop_handler;
    nhandlers = 0;
  }

let now t = t.clock.now
let x t = t.clock.x

let register t f =
  if t.nhandlers = Array.length t.handlers then begin
    let grown = Array.make (2 * t.nhandlers) noop_handler in
    Array.blit t.handlers 0 grown 0 t.nhandlers;
    t.handlers <- grown
  end;
  let id = t.nhandlers in
  t.handlers.(id) <- f;
  t.nhandlers <- id + 1;
  id

let register_handler t f = register t (fun a b -> f a b t.clock.x)

let[@inline] enqueue t ~time ~h ~a ~b ~x =
  Ladder_queue.push t.q ~time ~seq:t.next_seq ~h ~a ~b ~x;
  t.next_seq <- t.next_seq + 1

(* [post_at] and [post] are inlined at their call sites, so a computed
   time or delay reaches the queue's flat staging fields without being
   boxed. The negated comparisons also reject NaN, which would otherwise
   be queued, popped out of order and move the clock backwards. *)
let[@inline] post_at t ~time ~h ~a ~b ~x =
  if not (time >= t.clock.now) then
    invalid_arg "Engine.post_at: time in the past";
  enqueue t ~time ~h ~a ~b ~x

let[@inline] post t ~delay ~h ~a ~b ~x =
  if not (delay >= 0.0) then invalid_arg "Engine.post: negative delay";
  enqueue t ~time:(t.clock.now +. delay) ~h ~a ~b ~x

(* Batched [post_at]: the first [len] slots of five parallel field
   arrays (a mailbox slice) in one call — one bounds/past validation
   pass and one seq-counter sweep instead of a call per event. Events
   get consecutive seqs in slice order, exactly as [len] single posts
   would. *)
let post_batch t ~len ~time ~h ~a ~b ~x =
  if
    len < 0 || len > Array.length time || len > Array.length h
    || len > Array.length a || len > Array.length b || len > Array.length x
  then invalid_arg "Engine.post_batch: len exceeds a field array";
  for i = 0 to len - 1 do
    if not (Array.unsafe_get time i >= t.clock.now) then
      invalid_arg "Engine.post_batch: time in the past"
  done;
  let seq = ref t.next_seq in
  t.next_seq <- t.next_seq + len;
  for i = 0 to len - 1 do
    Ladder_queue.push t.q ~time:(Array.unsafe_get time i) ~seq:!seq
      ~h:(Array.unsafe_get h i) ~a:(Array.unsafe_get a i)
      ~b:(Array.unsafe_get b i) ~x:(Array.unsafe_get x i);
    incr seq
  done

let pending t = Ladder_queue.length t.q

(* Read the cursor before dispatch: the handler may push reentrantly.
   The payload's float goes to the flat clock record, not through the
   closure call, which would box it. *)
let dispatch_cursor t =
  let h = Ladder_queue.handler t.q in
  let a = Ladder_queue.arg_a t.q in
  let b = Ladder_queue.arg_b t.q in
  t.clock.x <- Ladder_queue.arg_x t.q;
  t.clock.now <- Ladder_queue.time t.q;
  t.executed <- t.executed + 1;
  t.handlers.(h) a b

let step t =
  if Ladder_queue.pop t.q then begin
    dispatch_cursor t;
    true
  end
  else false

let step_below t ~bound =
  if Ladder_queue.pop_until t.q ~bound then begin
    dispatch_cursor t;
    true
  end
  else false

(* Inlined into a caller that computed [bound], the loop would box it
   again for every out-of-line [step_below]: [opaque_identity] boxes it
   once (see {!run}). *)
let drain_below t ~bound =
  let bound = Sys.opaque_identity bound in
  while step_below t ~bound do () done

let next_time t =
  if Ladder_queue.is_empty t.q then None else Some (Ladder_queue.min_time t.q)

let next_time_inf t =
  if Ladder_queue.is_empty t.q then Float.infinity
  else Ladder_queue.min_time t.q

let advance_to t ~time = if time > t.clock.now then t.clock.now <- time

let run ?until ?(max_events = max_int) t =
  match until with
  | None ->
      (* no horizon: drain without peeking at the next timestamp *)
      let budget = ref max_events in
      while !budget > 0 && step t do
        decr budget
      done
  | Some limit ->
      (* [Float.succ limit] turns the strict [pop_until] bound into the
         inclusive stop-at-[limit] contract of this function. Held
         unboxed, the bound would be boxed afresh for every out-of-line
         [step_below] call, one allocation per event; [opaque_identity]
         keeps the one box built here. *)
      let bound = Sys.opaque_identity (Float.succ limit) in
      let budget = ref max_events in
      while !budget > 0 && step_below t ~bound do
        decr budget
      done;
      if Ladder_queue.is_empty t.q || Ladder_queue.min_time t.q > limit then
        advance_to t ~time:limit

let events_executed t = t.executed
