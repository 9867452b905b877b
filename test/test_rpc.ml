open Lesslog_id
module Engine = Lesslog_sim.Engine
module Retry = Lesslog_net.Retry
module Rpc = Lesslog_net.Rpc
module Heartbeat = Lesslog_net.Heartbeat
module Rng = Lesslog_prng.Rng

(* --- Retry policy ------------------------------------------------------- *)

let test_backoff_growth_and_cap () =
  let p = Retry.create ~max_retries:6 ~base:0.25 ~factor:2.0 ~max_delay:2.0 () in
  Alcotest.(check (float 1e-9)) "first" 0.25 (Retry.backoff p ~retry:1);
  Alcotest.(check (float 1e-9)) "second" 0.5 (Retry.backoff p ~retry:2);
  Alcotest.(check (float 1e-9)) "third" 1.0 (Retry.backoff p ~retry:3);
  Alcotest.(check (float 1e-9)) "capped" 2.0 (Retry.backoff p ~retry:4);
  Alcotest.(check (float 1e-9)) "stays capped" 2.0 (Retry.backoff p ~retry:6);
  Alcotest.(check int) "attempts" 7 (Retry.attempts p)

let test_jitter_bounds () =
  let p = Retry.create ~jitter:0.5 () in
  let rng = Rng.create ~seed:7 in
  for retry = 1 to 4 do
    let b = Retry.backoff p ~retry in
    for _ = 1 to 200 do
      let d = Retry.delay p rng ~retry in
      Alcotest.(check bool)
        (Printf.sprintf "retry %d in [b/2, b]" retry)
        true
        (d >= (b /. 2.0) -. 1e-12 && d <= b +. 1e-12)
    done
  done

let test_no_jitter_deterministic () =
  let p = Retry.create ~jitter:0.0 () in
  let rng = Rng.create ~seed:8 in
  Alcotest.(check (float 1e-9)) "no jitter" (Retry.backoff p ~retry:2)
    (Retry.delay p rng ~retry:2)

let test_policy_validation () =
  let invalid f = Alcotest.check_raises "rejects" (Invalid_argument "") (fun () ->
      try ignore (f ()) with Invalid_argument _ -> raise (Invalid_argument ""))
  in
  invalid (fun () -> Retry.create ~max_retries:(-1) ());
  invalid (fun () -> Retry.create ~base:0.0 ());
  invalid (fun () -> Retry.create ~factor:0.5 ());
  invalid (fun () -> Retry.create ~max_delay:0.1 ~base:0.2 ());
  invalid (fun () -> Retry.create ~jitter:1.5 ())

let test_max_lifetime () =
  let p = Retry.create ~max_retries:2 ~base:1.0 ~factor:2.0 ~max_delay:8.0 () in
  (* 3 attempts * 0.5s timeout + backoffs 1 + 2. *)
  Alcotest.(check (float 1e-9)) "lifetime" 4.5 (Retry.max_lifetime p ~timeout:0.5)

(* --- Rpc tracker --------------------------------------------------------- *)

(* A toy transport: transmissions append to a log; a "network" function
   decides which attempts eventually complete and when. *)
let make_rpc ?config () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:42 in
  let log = ref [] in
  let events = ref [] in
  let rpc =
    Rpc.create ~engine ~rng ?config
      ~on_event:(fun e -> events := e :: !events)
      ~transmit:(fun ~id ~attempt _meta -> log := (id, attempt) :: !log)
      ()
  in
  (engine, rpc, log, events)

(* The "network" side of the toy transport: [complete ~delay id] posts
   an event of a test handler that completes request [id] then; the
   returned list holds what each {!Rpc.complete} returned. *)
let completer engine rpc =
  let results = ref [] in
  let h =
    Engine.register engine (fun id _ ->
        results := Rpc.complete rpc ~id :: !results)
  in
  ( (fun ~delay id -> Engine.post engine ~delay ~h ~a:id ~b:0 ~x:0.0),
    fun () -> List.rev !results )

let test_complete_cancels_retries () =
  let engine, rpc, log, _ = make_rpc () in
  let id = Rpc.issue rpc "meta" in
  Alcotest.(check (list (pair int int))) "attempt 0 sent" [ (id, 0) ] !log;
  (* Complete before the timeout: no retransmissions ever. *)
  let complete, results = completer engine rpc in
  complete ~delay:0.1 id;
  Engine.run engine;
  Alcotest.(check (list bool)) "completed once" [ true ] (results ());
  Alcotest.(check (list (pair int int))) "no retransmit" [ (id, 0) ] !log;
  Alcotest.(check int) "completed" 1 (Rpc.completed rpc);
  Alcotest.(check int) "in flight" 0 (Rpc.in_flight rpc);
  Alcotest.(check bool) "duplicate completion" false (Rpc.complete rpc ~id)

let test_exhaustion_reports_fault () =
  let config =
    {
      Rpc.timeout = 1.0;
      policy = Retry.create ~max_retries:3 ~base:0.5 ~jitter:0.0 ();
    }
  in
  let engine, rpc, log, events = make_rpc ~config () in
  let id = Rpc.issue rpc "m" in
  Engine.run engine;
  (* Nothing ever answers: 1 + 3 transmissions, then exhaustion. *)
  Alcotest.(check (list (pair int int)))
    "all attempts sent"
    [ (id, 0); (id, 1); (id, 2); (id, 3) ]
    (List.rev !log);
  Alcotest.(check int) "timeouts" 4 (Rpc.timeouts rpc);
  Alcotest.(check int) "retransmissions" 3 (Rpc.retransmissions rpc);
  Alcotest.(check int) "exhausted" 1 (Rpc.exhausted rpc);
  Alcotest.(check int) "in flight" 0 (Rpc.in_flight rpc);
  Alcotest.(check bool) "late completion rejected" false
    (Rpc.complete rpc ~id);
  let exhausted_events =
    List.filter (function Rpc.Exhausted _ -> true | _ -> false) !events
  in
  Alcotest.(check int) "one exhausted event" 1 (List.length exhausted_events)

let test_mid_flight_completion () =
  let config =
    {
      Rpc.timeout = 1.0;
      policy = Retry.create ~max_retries:5 ~base:0.5 ~jitter:0.0 ();
    }
  in
  let engine, rpc, log, _ = make_rpc ~config () in
  let id = Rpc.issue rpc "m" in
  (* Answer after two timeouts (attempt 2 is in flight at t = 3.5). *)
  let complete, _ = completer engine rpc in
  complete ~delay:3.6 id;
  Engine.run engine;
  Alcotest.(check int) "three transmissions" 3 (List.length !log);
  Alcotest.(check int) "completed" 1 (Rpc.completed rpc);
  Alcotest.(check int) "no fault" 0 (Rpc.exhausted rpc)

let test_accounting_invariant () =
  let engine, rpc, _, _ = make_rpc () in
  let ids = List.init 10 (fun i -> Rpc.issue rpc (string_of_int i)) in
  (* Complete every other request; let the rest exhaust. *)
  List.iteri
    (fun i id -> if i mod 2 = 0 then ignore (Rpc.complete rpc ~id))
    ids;
  Engine.run engine;
  Alcotest.(check int) "issued" 10 (Rpc.issued rpc);
  Alcotest.(check int) "completed + exhausted + in flight" 10
    (Rpc.completed rpc + Rpc.exhausted rpc + Rpc.in_flight rpc);
  Alcotest.(check int) "drained" 0 (Rpc.in_flight rpc)

let test_dedup () =
  let d = Rpc.Dedup.create () in
  Alcotest.(check bool) "first" true (Rpc.Dedup.first d ~id:7);
  Alcotest.(check bool) "second is duplicate" false (Rpc.Dedup.first d ~id:7);
  Alcotest.(check bool) "third is duplicate" false (Rpc.Dedup.first d ~id:7);
  Alcotest.(check bool) "other id fresh" true (Rpc.Dedup.first d ~id:8);
  Alcotest.(check bool) "seen" true (Rpc.Dedup.seen d ~id:7);
  Alcotest.(check bool) "unseen" false (Rpc.Dedup.seen d ~id:9);
  Alcotest.(check int) "duplicates counted" 2 (Rpc.Dedup.duplicates d)

(* Sparse ids far apart, and queries past the grown range, behave like
   a set: each id is fresh exactly once. *)
let test_dedup_sparse () =
  let d = Rpc.Dedup.create () in
  let ids = [ 0; 63; 64; 1 lsl 20 ] in
  List.iter
    (fun id ->
      Alcotest.(check bool) (Printf.sprintf "first %d" id) true
        (Rpc.Dedup.first d ~id))
    ids;
  List.iter
    (fun id ->
      Alcotest.(check bool) (Printf.sprintf "repeat %d" id) false
        (Rpc.Dedup.first d ~id);
      Alcotest.(check bool) (Printf.sprintf "seen %d" id) true
        (Rpc.Dedup.seen d ~id))
    ids;
  List.iter
    (fun id ->
      Alcotest.(check bool) (Printf.sprintf "unseen %d" id) false
        (Rpc.Dedup.seen d ~id))
    [ 1; 62; 65; (1 lsl 20) - 1; (1 lsl 20) + 1; 1 lsl 21; 1 lsl 40; max_int; -1 ];
  Alcotest.(check int) "duplicates" 4 (Rpc.Dedup.duplicates d);
  Alcotest.check_raises "negative id"
    (Invalid_argument "Rpc.Dedup.first: id must be >= 0") (fun () ->
      ignore (Rpc.Dedup.first d ~id:(-1)))

(* A Timeout callback may settle the request it reports. Completing it
   there ends the timeout: no retransmission, no exhaustion. Issuing on
   until the next id lands in the freed slot must leave that new request
   live, to time out on its own. *)
let test_callback_settles_request () =
  let settle ~max_retries ~then_issue =
    let engine = Engine.create () in
    let rpc = ref None and sent = ref 0 and exhausted = ref [] in
    let config =
      { Rpc.timeout = 1.0; policy = Retry.create ~max_retries ~base:0.5 ~jitter:0.0 () }
    in
    let on_event = function
      | Rpc.Timeout { id = 0; attempt = 0; _ } ->
          let r = Option.get !rpc in
          Alcotest.(check bool) "completed in callback" true (Rpc.complete r ~id:0);
          for _ = 1 to then_issue do
            ignore (Rpc.issue r ())
          done
      | Rpc.Exhausted { id; _ } -> exhausted := id :: !exhausted
      | _ -> ()
    in
    let r =
      Rpc.create ~engine ~rng:(Rng.create ~seed:3) ~config ~on_event
        ~transmit:(fun ~id:_ ~attempt:_ () -> incr sent)
        ()
    in
    rpc := Some r;
    ignore (Rpc.issue r ());
    Engine.run engine;
    (r, !sent, List.rev !exhausted)
  in
  let r, sent, exhausted = settle ~max_retries:1 ~then_issue:0 in
  Alcotest.(check int) "no retransmission" 1 sent;
  Alcotest.(check (list int)) "not exhausted" [] exhausted;
  Alcotest.(check (list int)) "completed, exhausted, in flight" [ 1; 0; 0 ]
    [ Rpc.completed r; Rpc.exhausted r; Rpc.in_flight r ];
  let r, sent, exhausted = settle ~max_retries:0 ~then_issue:64 in
  Alcotest.(check int) "slot reused, no growth" 64 (Rpc.slots r);
  Alcotest.(check int) "every request sent once" 65 sent;
  Alcotest.(check (list int)) "new requests exhausted" (List.init 64 succ) exhausted;
  Alcotest.(check (list int)) "issued = completed + exhausted + in flight"
    [ 65; 1; 64; 0 ]
    [ Rpc.issued r; Rpc.completed r; Rpc.exhausted r; Rpc.in_flight r ]

(* --- Slot table ------------------------------------------------------------ *)

(* Id [slots] lands in the slot id 0 used. With id 0 completed, its
   timer is still queued when the slot is reused; it must not touch the
   new occupant, which times out and retries on its own schedule. *)
let test_slot_reuse_ignores_stale_timer () =
  let engine, rpc, log, events = make_rpc () in
  let cap = Rpc.slots rpc in
  for i = 0 to cap - 1 do
    let id = Rpc.issue rpc "old" in
    Alcotest.(check int) "sequential id" i id;
    Alcotest.(check bool) "completed" true (Rpc.complete rpc ~id)
  done;
  Engine.run ~until:0.5 engine;
  let id = Rpc.issue rpc "new" in
  Alcotest.(check int) "id" cap id;
  Alcotest.(check int) "slot reused, no growth" cap (Rpc.slots rpc);
  Alcotest.(check (float 0.0)) "issue time" 0.5 (Rpc.issued_at rpc ~id);
  (* Every old request's timer fires at t = 1.0; only the new one's
     timeout, at t = 1.5, may count. *)
  Engine.run ~until:1.2 engine;
  Alcotest.(check int) "stale timers ignored" 0 (Rpc.timeouts rpc);
  Engine.run ~until:1.6 engine;
  Alcotest.(check int) "new request timed out" 1 (Rpc.timeouts rpc);
  Alcotest.(check bool) "still in flight" true (Rpc.complete rpc ~id);
  Alcotest.(check bool) "duplicate completion" false (Rpc.complete rpc ~id);
  Engine.run engine;
  List.iter
    (function
      | Rpc.Timeout { id = i; meta; _ }
      | Rpc.Retransmit { id = i; meta; _ }
      | Rpc.Exhausted { id = i; meta; _ } ->
          Alcotest.(check (pair int string)) "event owner" (cap, "new") (i, meta))
    !events;
  Alcotest.(check int) "in flight" 0 (Rpc.in_flight rpc);
  Alcotest.(check int) "transmissions" (cap + 1) (List.length !log)

(* What the reference model expects of a live request next. *)
type expect =
  | Sending of { attempt : int; sent_at : float }
  | Backing_off of int  (* the attempt that timed out *)
  | Exhausting

type op = Issue of int | Complete of int | Advance of float

let pp_op = function
  | Issue n -> Printf.sprintf "issue %d" n
  | Complete k -> Printf.sprintf "complete %d" k
  | Advance dt -> Printf.sprintf "advance %g" dt

let op_gen =
  QCheck2.Gen.(
    frequency
      [
        (2, map (fun n -> Issue n) (int_range 1 80));
        (5, map (fun k -> Complete k) (int_bound 1000));
        (2, map (fun dt -> Advance dt) (float_bound_inclusive 3.0));
      ])

(* Replay [ops] against the tracker and a [Hashtbl] model fed only by
   the documented protocol: ids are sequential, each attempt times out
   [timeout] after it was sent, a retransmission follows the timeout of
   the attempt before it, the last timeout exhausts. The tracker's
   events, transmissions, completion results, issue times and counters
   must match the model after every step; [Complete k] picks any id
   issued so far or one past the end, so stale, duplicate and unknown
   completions all occur. Returns the first mismatch and the final ring
   size. *)
let slot_model ops =
  let config =
    {
      Rpc.timeout = 1.0;
      policy = Retry.create ~max_retries:2 ~base:0.5 ~jitter:0.5 ();
    }
  in
  let attempts = Retry.attempts config.policy in
  let engine = Engine.create () in
  let model : (int, float * expect) Hashtbl.t = Hashtbl.create 64 in
  let error = ref None in
  let fail fmt =
    Printf.ksprintf (fun s -> if !error = None then error := Some s) fmt
  in
  let now () = Engine.now engine in
  let on_event = function
    | Rpc.Timeout { id; attempt; meta } -> (
        match Hashtbl.find_opt model id with
        | Some (at, Sending s)
          when s.attempt = attempt && meta = id
               && now () = s.sent_at +. config.timeout ->
            Hashtbl.replace model id
              (at, if attempt + 1 = attempts then Exhausting else Backing_off attempt)
        | _ -> fail "unexpected timeout of %d attempt %d" id attempt)
    | Rpc.Retransmit { id; attempt; meta } -> (
        match Hashtbl.find_opt model id with
        | Some (at, Backing_off a) when a + 1 = attempt && meta = id ->
            Hashtbl.replace model id (at, Sending { attempt; sent_at = now () })
        | _ -> fail "unexpected retransmit of %d attempt %d" id attempt)
    | Rpc.Exhausted { id; attempts = n; issued_at; meta } -> (
        match Hashtbl.find_opt model id with
        | Some (at, Exhausting) when n = attempts && meta = id && issued_at = at ->
            Hashtbl.remove model id
        | _ -> fail "unexpected exhaustion of %d" id)
  in
  let next = ref 0 in
  let transmit ~id ~attempt meta =
    if meta <> id then fail "transmit %d carries meta %d" id meta;
    match Hashtbl.find_opt model id with
    | None when attempt = 0 && id = !next -> ()
    | Some (_, Sending s) when s.attempt = attempt && attempt > 0 -> ()
    | _ -> fail "unexpected transmit of %d attempt %d" id attempt
  in
  let rpc =
    Rpc.create ~engine ~rng:(Rng.create ~seed:11) ~config ~on_event ~transmit ()
  in
  let check_state step =
    if Rpc.in_flight rpc <> Hashtbl.length model then
      fail "%s: in flight %d, model %d" step (Rpc.in_flight rpc)
        (Hashtbl.length model);
    if Rpc.issued rpc <> Rpc.completed rpc + Rpc.exhausted rpc + Rpc.in_flight rpc
    then fail "%s: issued <> completed + exhausted + in flight" step;
    Hashtbl.iter
      (fun id (at, _) ->
        if Rpc.issued_at rpc ~id <> at then fail "%s: issue time of %d" step id)
      model
  in
  List.iter
    (fun op ->
      (match op with
      | Issue n ->
          for _ = 1 to n do
            let id = Rpc.issue rpc !next in
            if id <> !next then fail "issued %d, expected %d" id !next;
            Hashtbl.replace model id
              (now (), Sending { attempt = 0; sent_at = now () });
            incr next
          done
      | Complete k ->
          let id = k mod (!next + 1) in
          let expected = Hashtbl.mem model id in
          if Rpc.complete rpc ~id <> expected then
            fail "complete %d: expected %b" id expected;
          Hashtbl.remove model id
      | Advance dt -> Engine.run ~until:(now () +. dt) engine);
      check_state (pp_op op))
    ops;
  Engine.run engine;
  check_state "drain";
  if Rpc.in_flight rpc <> 0 then fail "drain: %d still in flight" (Rpc.in_flight rpc);
  (!error, Rpc.slots rpc)

let prop_slot_model =
  Test_support.qcheck_case ~count:200 ~name:"slot table matches Hashtbl model"
    QCheck2.Gen.(list_size (int_range 1 60) op_gen)
    (fun ops ->
      match slot_model ops with
      | None, _ -> true
      | Some msg, _ -> QCheck2.Test.fail_report msg)

(* The model run must really exercise growth with live requests, and a
   fixed interleaving with 200 in flight completed out of order holds. *)
let test_slot_model_grows () =
  let ops =
    [ Issue 70; Complete 3; Complete 68; Issue 80; Advance 0.7; Complete 5 ]
    @ List.init 120 (fun i -> Complete ((i * 37) + 11))
    @ [ Issue 50; Advance 2.0; Complete 1; Complete 199; Advance 1.0 ]
  in
  let error, slots = slot_model ops in
  Alcotest.(check (option string)) "model agrees" None error;
  Alcotest.(check bool) "ring grew" true (slots > 64)

(* A request that stays live while 100k later ones come and go must not
   stretch the table: it is sized by what is in flight, not by the span
   of live ids. The stuck ids 0, 25,600, 51,200 and 76,800 are multiples
   of 64, so all four share home slot 0 of the 64-slot table: each later
   one probes past the earlier ones, and completing them in issue order
   has to shift the rest of the chain back each time. *)
let test_stuck_request_keeps_table_small () =
  let config = { Rpc.timeout = 1e9; policy = Retry.default } in
  let engine = Engine.create () in
  let rpc =
    Rpc.create ~engine ~rng:(Rng.create ~seed:5) ~config
      ~transmit:(fun ~id:_ ~attempt:_ () -> ())
      ()
  in
  let stuck = ref [] in
  for i = 0 to 100_000 do
    let id = Rpc.issue rpc () in
    if i mod 25_600 = 0 then stuck := id :: !stuck
    else Alcotest.(check bool) "completes" true (Rpc.complete rpc ~id)
  done;
  Alcotest.(check int) "in flight" 4 (Rpc.in_flight rpc);
  List.iter
    (fun id -> Alcotest.(check int) "home slot 0" 0 (id land 63))
    !stuck;
  Alcotest.(check int) "table never grew" 64 (Rpc.slots rpc);
  List.iter
    (fun id ->
      Alcotest.(check (float 0.0)) "issue time" 0.0 (Rpc.issued_at rpc ~id);
      Alcotest.(check bool) "stuck request completes" true (Rpc.complete rpc ~id);
      Alcotest.(check bool) "once" false (Rpc.complete rpc ~id))
    (List.rev !stuck);
  Alcotest.(check int) "drained" 0 (Rpc.in_flight rpc)

let prop_never_silent =
  (* Whatever subset of requests the "network" answers, every request ends
     completed or exhausted once the engine drains — none vanish. *)
  Test_support.qcheck_case ~name:"completed + exhausted = issued"
    QCheck2.Gen.(list_size (int_range 1 40) (float_bound_inclusive 20.0))
    (fun reply_delays ->
      let engine = Engine.create () in
      let rng = Rng.create ~seed:3 in
      let rpc =
        Rpc.create ~engine ~rng
          ~transmit:(fun ~id:_ ~attempt:_ () -> ())
          ()
      in
      let complete, _ = completer engine rpc in
      List.iter
        (fun delay ->
          let id = Rpc.issue rpc () in
          (* Some delays land after exhaustion: those completions are
             rejected, the request already counted as a fault. *)
          complete ~delay id)
        reply_delays;
      Engine.run engine;
      Rpc.completed rpc + Rpc.exhausted rpc = Rpc.issued rpc
      && Rpc.in_flight rpc = 0)

(* --- Timeout ring against one timer per attempt ------------------------------ *)

(* A reference tracker with one timer per attempt: every attempt posts
   its own timeout event, and a backoff end is a second event of
   the same handler, [b] carrying the attempt shifted past a bit that is
   0 for a timeout and 1 for a backoff end. Live requests sit in a
   [Hashtbl] with their issue times. The ring must reproduce its events
   (an exhaustion's issue time included), counters and rng draws
   exactly. *)
module Timer_per_attempt = struct
  type 'meta t = {
    engine : Engine.t;
    rng : Rng.t;
    config : Rpc.config;
    on_event : 'meta Rpc.event -> unit;
    transmit : id:int -> attempt:int -> 'meta -> unit;
    live : (int, int * 'meta * float) Hashtbl.t;
        (* id -> attempt in flight, meta, issue time *)
    mutable next_id : int;
    mutable completed : int;
    mutable exhausted : int;
    mutable retransmissions : int;
    mutable timeouts : int;
    mutable timer_h : int;
  }

  let arm t id attempt =
    Engine.post t.engine ~delay:t.config.timeout ~h:t.timer_h ~a:id
      ~b:(attempt lsl 1) ~x:0.0

  let live_on t id attempt =
    match Hashtbl.find_opt t.live id with
    | Some (a, meta, issued_at) when a = attempt -> Some (meta, issued_at)
    | _ -> None

  let timed_out t id attempt (meta, issued_at) =
    t.timeouts <- t.timeouts + 1;
    t.on_event (Rpc.Timeout { id; attempt; meta });
    if live_on t id attempt <> None then
      if attempt + 1 >= Retry.attempts t.config.policy then begin
        Hashtbl.remove t.live id;
        t.exhausted <- t.exhausted + 1;
        t.on_event (Rpc.Exhausted { id; attempts = attempt + 1; issued_at; meta })
      end
      else
        Engine.post t.engine
          ~delay:(Retry.delay t.config.policy t.rng ~retry:(attempt + 1))
          ~h:t.timer_h ~a:id ~b:((attempt lsl 1) lor 1) ~x:0.0

  let retransmit t id attempt (meta, issued_at) =
    Hashtbl.replace t.live id (attempt + 1, meta, issued_at);
    t.retransmissions <- t.retransmissions + 1;
    t.on_event (Rpc.Retransmit { id; attempt = attempt + 1; meta });
    t.transmit ~id ~attempt:(attempt + 1) meta;
    arm t id (attempt + 1)

  let on_timer t id word =
    let attempt = word lsr 1 in
    match live_on t id attempt with
    | None -> ()
    | Some live ->
        if word land 1 = 0 then timed_out t id attempt live
        else retransmit t id attempt live

  let create ~engine ~rng ~config ~on_event ~transmit =
    let t =
      {
        engine;
        rng;
        config;
        on_event;
        transmit;
        live = Hashtbl.create 64;
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
    Hashtbl.replace t.live id (0, meta, Engine.now t.engine);
    t.next_id <- id + 1;
    t.transmit ~id ~attempt:0 meta;
    arm t id 0;
    id

  let complete t ~id =
    Hashtbl.mem t.live id
    && begin
         Hashtbl.remove t.live id;
         t.completed <- t.completed + 1;
         true
       end
end

(* The two trackers behind one interface, for the differential driver. *)
type tracker = {
  issue : unit -> int;
  complete : int -> bool;
  counters : unit -> int list;
      (* issued, completed, exhausted, retransmissions, timeouts, in flight *)
}

type sched_op =
  | Issue_now of int  (* that many requests at one instant *)
  | Reply of { pick : int; delay : float }
  | Run_for of float

let pp_sched_op = function
  | Issue_now n -> Printf.sprintf "issue %d" n
  | Reply { pick; delay } -> Printf.sprintf "reply %d after %h" pick delay
  | Run_for dt -> Printf.sprintf "run %h" dt

let sched_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (3, map (fun n -> Issue_now n) (int_range 1 80));
        ( 6,
          map2
            (fun pick delay -> Reply { pick; delay })
            (int_bound 1000) (float_bound_inclusive 4.0) );
        (2, map (fun dt -> Run_for dt) (float_bound_inclusive 3.0));
      ])

(* What a Timeout callback does, from the request and attempt it
   reports and a per-schedule [salt]: complete the reported request,
   complete an older one, issue more requests (which grows the slot
   table and the ring while the ring's front is being handled; capped,
   as each issued request may time out and issue again), or nothing. *)
let on_timeout ~salt ~id ~attempt tracker =
  match (id + (3 * attempt) + salt) mod 7 with
  | 0 -> ignore (tracker.complete id)
  | 1 -> ignore (tracker.complete (id / 2))
  | 2 when List.hd (tracker.counters ()) < 600 ->
      for _ = 1 to 1 + (salt mod 40) do
        ignore (tracker.issue ())
      done
  | _ -> ()

(* Replay [ops] on a fresh engine and rng with the tracker [make] builds,
   recording each event as (kind, id, attempt, time) and each reply's
   result; callbacks re-enter the tracker as [on_timeout] says. The
   returned log ends with the counters and the rng's next draw. *)
let run_schedule ~salt ~make ops =
  let config =
    {
      Rpc.timeout = 1.0;
      policy = Retry.create ~max_retries:2 ~base:0.5 ~jitter:0.5 ();
    }
  in
  let engine = Engine.create () and rng = Rng.create ~seed:(17 + salt) in
  let log = ref [] in
  let note kind id attempt =
    log := Printf.sprintf "%s %d/%d at %h" kind id attempt (Engine.now engine) :: !log
  in
  let self = ref None in
  let on_event = function
    | Rpc.Timeout { id; attempt; meta } ->
        if meta <> id then note "bad meta" id attempt;
        note "timeout" id attempt;
        on_timeout ~salt ~id ~attempt (Option.get !self)
    | Rpc.Retransmit { id; attempt; _ } -> note "retransmit" id attempt
    | Rpc.Exhausted { id; attempts; issued_at; _ } ->
        note (Printf.sprintf "exhausted (issued at %h)" issued_at) id attempts
  in
  let transmit ~id ~attempt _ = note "transmit" id attempt in
  let tracker = make ~engine ~rng ~config ~on_event ~transmit in
  self := Some tracker;
  let reply_h =
    Engine.register engine (fun id _ ->
        note (if tracker.complete id then "served" else "rejected") id 0)
  in
  List.iter
    (function
      | Issue_now n ->
          for _ = 1 to n do
            ignore (tracker.issue ())
          done
      | Reply { pick; delay } ->
          let id = pick mod (List.nth (tracker.counters ()) 0 + 1) in
          Engine.post engine ~delay ~h:reply_h ~a:id ~b:0 ~x:0.0
      | Run_for dt -> Engine.run ~until:(Engine.now engine +. dt) engine)
    ops;
  Engine.run engine;
  let tail =
    String.concat " " (List.map string_of_int (tracker.counters ()))
    ^ Printf.sprintf " rng %d" (Rng.int rng 1_000_000_007)
  in
  List.rev (tail :: !log)

let ring_tracker ~engine ~rng ~config ~on_event ~transmit =
  let rpc = Rpc.create ~engine ~rng ~config ~on_event ~transmit () in
  {
    issue = (fun () -> Rpc.issue rpc (Rpc.issued rpc));
    complete = (fun id -> Rpc.complete rpc ~id);
    counters =
      (fun () ->
        [
          Rpc.issued rpc;
          Rpc.completed rpc;
          Rpc.exhausted rpc;
          Rpc.retransmissions rpc;
          Rpc.timeouts rpc;
          Rpc.in_flight rpc;
        ]);
  }

let per_attempt_tracker ~engine ~rng ~config ~on_event ~transmit =
  let module R = Timer_per_attempt in
  let t = R.create ~engine ~rng ~config ~on_event ~transmit in
  {
    issue = (fun () -> R.issue t t.R.next_id);
    complete = (fun id -> R.complete t ~id);
    counters =
      (fun () ->
        [
          t.R.next_id;
          t.R.completed;
          t.R.exhausted;
          t.R.retransmissions;
          t.R.timeouts;
          Hashtbl.length t.R.live;
        ]);
  }

(* The first line where the two logs differ, or [None]. *)
let differential ~salt ops =
  let ring = run_schedule ~salt ~make:ring_tracker ops
  and reference = run_schedule ~salt ~make:per_attempt_tracker ops in
  let rec first i = function
    | a :: l, b :: l' -> if a = b then first (i + 1) (l, l') else Some (i, a, b)
    | [], [] -> None
    | a :: _, [] -> Some (i, a, "<end>")
    | [], b :: _ -> Some (i, "<end>", b)
  in
  Option.map
    (fun (i, a, b) -> Printf.sprintf "line %d: ring %S, per attempt %S" i a b)
    (first 0 (ring, reference))

let prop_ring_matches_timer_per_attempt =
  Test_support.qcheck_case ~name:"timeout ring = one timer per attempt"
    QCheck2.Gen.(pair (int_bound 1000) (list_size (int_range 1 50) sched_op_gen))
    (fun (salt, ops) ->
      match differential ~salt ops with
      | None -> true
      | Some msg ->
          QCheck2.Test.fail_reportf "salt %d, [%s]: %s" salt
            (String.concat "; " (List.map pp_sched_op ops))
            msg)

(* A fixed schedule that reaches every case the property draws from:
   200 requests armed at one instant (the ring doubles twice), replies
   before and after the timeouts, callbacks that complete and issue
   while the front is handled, and exhaustion. No reply lands on the
   exact instant a timeout falls due: such a tie may resolve the other
   way round, as {!Rpc} says, and the random schedules meet one with
   probability zero. *)
let test_ring_differential_fixed () =
  let ops =
    [ Issue_now 200; Run_for 0.3; Issue_now 70 ]
    @ List.init 150 (fun i ->
          Reply { pick = (i * 37) + 11; delay = 0.0137 *. float_of_int i })
    @ [ Run_for 1.2; Issue_now 5; Reply { pick = 3; delay = 2.5 }; Run_for 2.0 ]
  in
  List.iter
    (fun salt ->
      Alcotest.(check (option string))
        (Printf.sprintf "salt %d" salt) None (differential ~salt ops))
    [ 0; 1; 2; 5; 39 ]

(* N requests answered before their timeouts dispatch no timer each: the
   only tracker event is the ring front's, which finds every entry
   settled. One timer per attempt would add N dispatches. *)
let test_settled_requests_fire_no_timer () =
  let n = 1000 in
  let engine = Engine.create () in
  let rpc =
    Rpc.create ~engine ~rng:(Rng.create ~seed:9)
      ~transmit:(fun ~id:_ ~attempt:_ () -> ())
      ()
  in
  let complete, results = completer engine rpc in
  for batch = 0 to 9 do
    Engine.run ~until:(0.05 *. float_of_int batch) engine;
    for _ = 1 to n / 10 do
      complete ~delay:0.5 (Rpc.issue rpc ())
    done
  done;
  Engine.run engine;
  Alcotest.(check bool) "all served" true (List.for_all Fun.id (results ()));
  Alcotest.(check int) "completed" n (Rpc.completed rpc);
  Alcotest.(check int) "no timeouts" 0 (Rpc.timeouts rpc);
  Alcotest.(check int) "replies + one front event" (n + 1)
    (Engine.events_executed engine)

(* --- Heartbeat detector --------------------------------------------------- *)

(* A loopback harness: pings are answered instantly by live peers, with a
   mutable set of "crashed" ones that never answer. *)
let make_detector ?config ~peers () =
  let engine = Engine.create () in
  let down = Hashtbl.create 8 in
  let changes = ref [] in
  let detector_ref = ref None in
  (* A pong event carries the peer in [a] and the ping's seq in [b]. *)
  let pong_h =
    Engine.register engine (fun peer seq ->
        Heartbeat.pong (Option.get !detector_ref)
          ~peer:(Pid.unsafe_of_int peer) ~seq)
  in
  let ping ~seq peer =
    if not (Hashtbl.mem down (Pid.to_int peer)) then
      (* Answer on the next instant, like a zero-latency network. *)
      Engine.post engine ~delay:0.0 ~h:pong_h ~a:(Pid.to_int peer) ~b:seq
        ~x:0.0
  in
  let detector =
    Heartbeat.create ~engine ?config ~peers
      ~ping
      ~on_change:(fun p v -> changes := (Pid.to_int p, v) :: !changes)
      ()
  in
  detector_ref := Some detector;
  (engine, detector, down, changes)

let peers_of_ints l = Array.of_list (List.map Pid.unsafe_of_int l)

let test_detector_suspects_dead () =
  let config = { Heartbeat.period = 0.5; suspect_after = 3 } in
  let peers = peers_of_ints [ 0; 1; 2 ] in
  let engine, detector, down, changes = make_detector ~config ~peers () in
  Hashtbl.replace down 1 ();
  Heartbeat.start detector ~until:10.0;
  Engine.run engine;
  Alcotest.(check bool) "1 suspected" true
    (Heartbeat.suspected detector (Pid.unsafe_of_int 1));
  Alcotest.(check bool) "0 trusted" false
    (Heartbeat.suspected detector (Pid.unsafe_of_int 0));
  Alcotest.(check int) "one suspicion" 1 (Heartbeat.suspicions detector);
  Alcotest.(check (list (pair int string)))
    "change log"
    [ (1, "suspect") ]
    (List.rev_map
       (fun (p, v) -> (p, match v with `Suspect -> "suspect" | `Trust -> "trust"))
       !changes)

let test_detector_recovers () =
  let config = { Heartbeat.period = 0.5; suspect_after = 3 } in
  let peers = peers_of_ints [ 0; 1 ] in
  let engine, detector, down, _ = make_detector ~config ~peers () in
  Hashtbl.replace down 1 ();
  (* Down for 4 s (long enough to be suspected), then back. *)
  let revive =
    Engine.register engine (fun p _ -> Hashtbl.remove down p)
  in
  Engine.post engine ~delay:4.0 ~h:revive ~a:1 ~b:0 ~x:0.0;
  Heartbeat.start detector ~until:10.0;
  Engine.run engine;
  Alcotest.(check bool) "trusted again" false
    (Heartbeat.suspected detector (Pid.unsafe_of_int 1));
  Alcotest.(check int) "one suspicion" 1 (Heartbeat.suspicions detector);
  Alcotest.(check int) "one recovery" 1 (Heartbeat.recoveries detector)

let test_detector_timing () =
  (* The suspicion lands exactly after suspect_after unanswered rounds. *)
  let config = { Heartbeat.period = 1.0; suspect_after = 4 } in
  let peers = peers_of_ints [ 0 ] in
  let engine = Engine.create () in
  let suspect_time = ref nan in
  let detector =
    Heartbeat.create ~engine ~config ~peers
      ~ping:(fun ~seq:_ _ -> ())
      ~on_change:(fun _ -> function
        | `Suspect -> suspect_time := Engine.now engine
        | `Trust -> ())
      ()
  in
  Heartbeat.start detector ~until:20.0;
  Engine.run engine;
  (* Rounds at t=0..: the ping of round k is scored missed at round k+1;
     4 misses accumulate at the round at t=4. *)
  Alcotest.(check (float 1e-9)) "suspected at t=4" 4.0 !suspect_time

(* A pong from, or a query about, a PID the detector does not monitor —
   one between monitored PIDs, one above the largest, a negative one —
   is ignored and reads as trusted. *)
let test_detector_unmonitored () =
  let config = { Heartbeat.period = 0.5; suspect_after = 2 } in
  (* The suspected peer comes first, so a lookup that fell back to
     position 0 would revive it. *)
  let peers = peers_of_ints [ 5; 2 ] in
  let engine, detector, down, changes = make_detector ~config ~peers () in
  Hashtbl.replace down 5 ();
  Heartbeat.start detector ~until:3.0;
  Engine.run engine;
  let before = List.length !changes in
  List.iter
    (fun p ->
      let pid = Pid.unsafe_of_int p in
      Heartbeat.pong detector ~peer:pid ~seq:0;
      Alcotest.(check bool) (Printf.sprintf "%d reads trusted" p) false
        (Heartbeat.suspected detector pid))
    [ 3; 0; 6; 1 lsl 20; -1 ];
  Alcotest.(check bool) "monitored peer still suspected" true
    (Heartbeat.suspected detector (Pid.unsafe_of_int 5));
  Alcotest.(check int) "no verdict change" before (List.length !changes);
  Alcotest.(check int) "no recovery" 0 (Heartbeat.recoveries detector);
  Alcotest.(check int) "suspected count" 1 (Heartbeat.suspected_count detector)

(* The detector as it was before its peers went flat: one mutable
   record per peer. The flat detector must give the same pings, verdict
   changes and counters under any interleaving of rounds and pongs. *)
module Record_detector = struct
  type peer = {
    pid : int;
    mutable misses : int;
    mutable suspected : bool;
    mutable last_seq : int;
    mutable answered : bool;
  }

  type t = {
    suspect_after : int;
    peers : peer array;
    mutable next_seq : int;
    mutable changes : (int * Heartbeat.verdict) list;
    mutable pings : (int * int) list;
  }

  let create ~suspect_after pids =
    {
      suspect_after;
      peers =
        Array.map
          (fun pid ->
            { pid; misses = 0; suspected = false; last_seq = -1; answered = true })
          pids;
      next_seq = 0;
      changes = [];
      pings = [];
    }

  let round t =
    Array.iter
      (fun p ->
        if (not p.answered) && p.last_seq >= 0 then begin
          p.misses <- p.misses + 1;
          if p.misses >= t.suspect_after && not p.suspected then begin
            p.suspected <- true;
            t.changes <- (p.pid, `Suspect) :: t.changes
          end
        end;
        let seq = t.next_seq in
        t.next_seq <- t.next_seq + 1;
        p.last_seq <- seq;
        p.answered <- false;
        t.pings <- (p.pid, seq) :: t.pings)
      t.peers

  let find t peer = Array.find_opt (fun p -> p.pid = peer) t.peers

  let pong t ~peer ~seq =
    match find t peer with
    | None -> ()
    | Some p ->
        if seq <= p.last_seq then begin
          if seq = p.last_seq then p.answered <- true;
          p.misses <- 0;
          if p.suspected then begin
            p.suspected <- false;
            t.changes <- (p.pid, `Trust) :: t.changes
          end
        end

  let last_seq t peer =
    match find t peer with None -> 0 | Some p -> p.last_seq

  let suspected_count t =
    Array.fold_left (fun acc p -> if p.suspected then acc + 1 else acc) 0 t.peers
end

(* [None] is a round; [Some (k, back)] is a pong from candidate [k] (the
   last is unmonitored) carrying the sequence number [back] below the
   last one sent to it — [-1] forges one from the future. A round is
   [start ~until:now]: exactly one synchronous round, nothing posted. *)
let prop_flat_detector_matches_records =
  let pids = [| 5; 0; 9; 2 |] and unmonitored = 7 in
  Test_support.qcheck_case ~name:"flat peers = per-peer records"
    QCheck2.Gen.(
      list_size (int_range 1 120)
        (option ~ratio:0.7
           (pair (int_bound (Array.length pids)) (int_range (-1) 2))))
    (fun ops ->
      let suspect_after = 3 in
      let engine = Engine.create () in
      let changes = ref [] and pings = ref [] in
      let flat =
        Heartbeat.create ~engine
          ~config:{ Heartbeat.period = 1.0; suspect_after }
          ~peers:(peers_of_ints (Array.to_list pids))
          ~ping:(fun ~seq p -> pings := (Pid.to_int p, seq) :: !pings)
          ~on_change:(fun p v -> changes := (Pid.to_int p, v) :: !changes)
          ()
      in
      let reference = Record_detector.create ~suspect_after pids in
      List.iter
        (function
          | None ->
              Heartbeat.start flat ~until:(Engine.now engine);
              Record_detector.round reference
          | Some (k, back) ->
              let peer = if k < Array.length pids then pids.(k) else unmonitored in
              let seq = Record_detector.last_seq reference peer - back in
              Heartbeat.pong flat ~peer:(Pid.unsafe_of_int peer) ~seq;
              Record_detector.pong reference ~peer ~seq)
        ops;
      let count verdict l =
        List.length (List.filter (fun (_, v) -> v = verdict) l)
      in
      !changes = reference.changes
      && !pings = reference.pings
      && Heartbeat.suspicions flat = count `Suspect reference.changes
      && Heartbeat.recoveries flat = count `Trust reference.changes
      && Heartbeat.suspected_count flat = Record_detector.suspected_count reference
      && Array.for_all
           (fun pid ->
             Heartbeat.suspected flat (Pid.unsafe_of_int pid)
             = (Option.get (Record_detector.find reference pid)).suspected)
           pids)

(* --- Allocation gate --------------------------------------------------------- *)

(* Whether cross-module engine calls are inlined: in release builds
   [Engine.now] reads the clock unboxed; under the dev profile's
   [-opaque] every call returns a fresh box. *)
let engine_calls_inlined () =
  let e = Engine.create () in
  Test_support.words_per_cycle ~n:1000 (fun () ->
      if Engine.now e < 0.0 then assert false)
  = 0.0

(* A steady issue + complete cycle, with no [on_event] and no registry,
   allocates nothing in the tracker. One request stays live through each
   round, so the ring's front event is posted before the round starts
   and the round's requests only join the ring; a full drain between
   rounds empties it. The reference is the engine calls an issue makes,
   two [Engine.now] reads (the issue time and the timeout's due time):
   nothing in release builds, a box each under [-opaque]. *)
let test_rpc_cycle_allocates_nothing () =
  let n = 10_000 in
  let engine = Engine.create () in
  let rpc =
    Rpc.create ~engine ~rng:(Rng.create ~seed:5)
      ~transmit:(fun ~id:_ ~attempt:_ (_ : int) -> ())
      ()
  in
  let round () =
    let anchor = Rpc.issue rpc 7 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Rpc.complete rpc ~id:(Rpc.issue rpc 7))
    done;
    let words = Gc.minor_words () -. w0 in
    ignore (Rpc.complete rpc ~id:anchor);
    Engine.run engine;
    words /. float_of_int n
  in
  ignore (round ());
  ignore (round ());
  let rpc_words = round () in
  let bare = Engine.create () in
  let engine_words =
    Test_support.words_per_cycle ~n (fun () ->
        if Engine.now bare < 0.0 || Engine.now bare < 0.0 then assert false)
  in
  Alcotest.(check (float 0.0))
    "rpc words per request beyond two clock reads" 0.0
    (rpc_words -. engine_words);
  Alcotest.(check int) "all completed" (3 * (n + 1)) (Rpc.completed rpc);
  Alcotest.(check int) "no timeouts" 0 (Rpc.timeouts rpc);
  Alcotest.(check int) "one front event per round" 3 (Engine.events_executed engine)

(* A request that never completes, retried without end: each cycle is
   one ring-front event (timeout, jittered backoff drawn, backoff end
   posted) and one backoff end (retransmit, timeout armed, front posted).
   A far event keeps the queue from draining. The reference makes the
   same engine and {!Retry} calls from two bare handlers (the front's
   handler reads the clock to find what is due); in release
   builds, where those calls are inlined, both sides allocate nothing. *)
let test_timeout_cycle_allocates_nothing () =
  let n = 10_000 in
  let policy = Retry.create ~max_retries:1_000_000 () in
  let config = { Rpc.timeout = 1.0; policy } in
  let idle engine =
    let h = Engine.register engine (fun _ _ -> ()) in
    Engine.post engine ~delay:1e12 ~h ~a:0 ~b:0 ~x:0.0
  in
  let engine = Engine.create () in
  idle engine;
  let rpc =
    Rpc.create ~engine ~rng:(Rng.create ~seed:5) ~config
      ~transmit:(fun ~id:_ ~attempt:_ (_ : int) -> ())
      ()
  in
  ignore (Rpc.issue rpc 7);
  let rpc_words =
    Test_support.words_per_cycle ~n (fun () ->
        ignore (Engine.step engine);
        ignore (Engine.step engine))
  in
  let bare = Engine.create () and rng = Rng.create ~seed:5 in
  idle bare;
  let retry = ref 0 and backoff_h = ref (-1) in
  let timeout_h =
    Engine.register bare (fun _ _ ->
        if Engine.now bare < 0.0 then assert false;
        incr retry;
        Engine.post bare
          ~delay:(Retry.delay policy rng ~retry:!retry)
          ~h:!backoff_h ~a:0 ~b:0 ~x:0.0)
  in
  backoff_h :=
    Engine.register bare (fun _ _ ->
        Engine.post_at bare
          ~time:(Engine.now bare +. config.timeout)
          ~h:timeout_h ~a:0 ~b:0 ~x:0.0);
  Engine.post bare ~delay:config.timeout ~h:timeout_h ~a:0 ~b:0 ~x:0.0;
  let engine_words =
    Test_support.words_per_cycle ~n (fun () ->
        ignore (Engine.step bare);
        ignore (Engine.step bare))
  in
  Alcotest.(check (float 0.0))
    "rpc words per retry beyond the engine and Retry calls" 0.0
    (rpc_words -. engine_words);
  if engine_calls_inlined () then
    Alcotest.(check (float 0.0)) "rpc words per retry (inlined build)" 0.0
      rpc_words;
  Alcotest.(check (list int)) "timeouts, retransmissions, in flight"
    [ 3 * n; 3 * n; 1 ]
    [ Rpc.timeouts rpc; Rpc.retransmissions rpc; Rpc.in_flight rpc ];
  Alcotest.(check (float 0.0)) "same clock" (Engine.now bare) (Engine.now engine)

let () =
  Alcotest.run "rpc"
    [
      ( "retry",
        [
          Alcotest.test_case "backoff growth and cap" `Quick
            test_backoff_growth_and_cap;
          Alcotest.test_case "jitter bounds" `Quick test_jitter_bounds;
          Alcotest.test_case "no jitter deterministic" `Quick
            test_no_jitter_deterministic;
          Alcotest.test_case "validation" `Quick test_policy_validation;
          Alcotest.test_case "max lifetime" `Quick test_max_lifetime;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "complete cancels retries" `Quick
            test_complete_cancels_retries;
          Alcotest.test_case "exhaustion reports a fault" `Quick
            test_exhaustion_reports_fault;
          Alcotest.test_case "mid-flight completion" `Quick
            test_mid_flight_completion;
          Alcotest.test_case "accounting invariant" `Quick
            test_accounting_invariant;
          Alcotest.test_case "server dedup" `Quick test_dedup;
          Alcotest.test_case "dedup sparse ids" `Quick test_dedup_sparse;
          Alcotest.test_case "callback settles its request" `Quick
            test_callback_settles_request;
          Alcotest.test_case "slot reuse ignores stale timer" `Quick
            test_slot_reuse_ignores_stale_timer;
          Alcotest.test_case "slot model grows under load" `Quick
            test_slot_model_grows;
          Alcotest.test_case "stuck request keeps the table small" `Quick
            test_stuck_request_keeps_table_small;
        ] );
      ("rpc properties", [ prop_never_silent; prop_slot_model ]);
      ( "timeout ring",
        [
          Alcotest.test_case "fixed schedule matches one timer per attempt"
            `Quick test_ring_differential_fixed;
          Alcotest.test_case "settled requests fire no timer" `Quick
            test_settled_requests_fire_no_timer;
          prop_ring_matches_timer_per_attempt;
        ] );
      ( "heartbeat",
        [
          Alcotest.test_case "suspects a dead peer" `Quick
            test_detector_suspects_dead;
          Alcotest.test_case "recovers a false suspicion" `Quick
            test_detector_recovers;
          Alcotest.test_case "suspicion timing" `Quick test_detector_timing;
          Alcotest.test_case "unmonitored peers ignored" `Quick
            test_detector_unmonitored;
          prop_flat_detector_matches_records;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "issue + complete allocates nothing" `Quick
            test_rpc_cycle_allocates_nothing;
          Alcotest.test_case "timeout -> backoff -> retransmit allocates nothing"
            `Quick test_timeout_cycle_allocates_nothing;
        ] );
    ]
