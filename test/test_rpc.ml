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
   returned list holds what each {!Rpc.complete} gave back. *)
let completer engine rpc =
  let results = ref [] in
  let h =
    Engine.register_handler engine (fun id _ _ ->
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
  Alcotest.(check (list (option string))) "meta back" [ Some "meta" ]
    (results ());
  Alcotest.(check (list (pair int int))) "no retransmit" [ (id, 0) ] !log;
  Alcotest.(check int) "completed" 1 (Rpc.completed rpc);
  Alcotest.(check int) "in flight" 0 (Rpc.in_flight rpc);
  Alcotest.(check (option string)) "duplicate completion" None
    (Rpc.complete rpc ~id)

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
  Alcotest.(check (option string)) "late completion rejected" None
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
    Engine.register_handler engine (fun peer seq _ ->
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
    Engine.register_handler engine (fun p _ _ -> Hashtbl.remove down p)
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
        ] );
      ("rpc properties", [ prop_never_silent ]);
      ( "heartbeat",
        [
          Alcotest.test_case "suspects a dead peer" `Quick
            test_detector_suspects_dead;
          Alcotest.test_case "recovers a false suspicion" `Quick
            test_detector_recovers;
          Alcotest.test_case "suspicion timing" `Quick test_detector_timing;
        ] );
    ]
