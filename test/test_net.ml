open Lesslog_id
module Engine = Lesslog_sim.Engine
module Latency = Lesslog_net.Latency
module Overlay = Lesslog_net.Overlay
module Rng = Lesslog_prng.Rng
module Faults = Lesslog_workload.Faults

let params = Params.create ~m:4 ()
let pid = Pid.unsafe_of_int

(* --- Latency ------------------------------------------------------------ *)

let test_latency_constant () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 10 do
    Alcotest.(check (float 1e-9)) "constant" 0.05
      (Latency.sample (Latency.Constant 0.05) rng)
  done

let test_latency_uniform_bounds () =
  let rng = Rng.create ~seed:2 in
  let model = Latency.Uniform { lo = 0.01; hi = 0.09 } in
  for _ = 1 to 1000 do
    let d = Latency.sample model rng in
    Alcotest.(check bool) "in bounds" true (d >= 0.01 && d <= 0.09)
  done

let test_latency_exponential_floor () =
  let rng = Rng.create ~seed:3 in
  let model = Latency.Exponential { mean = 0.02; floor = 0.005 } in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "above floor" true (Latency.sample model rng >= 0.005)
  done

let test_latency_means () =
  Alcotest.(check (float 1e-9)) "constant" 0.1 (Latency.mean (Latency.Constant 0.1));
  Alcotest.(check (float 1e-9)) "uniform" 0.05
    (Latency.mean (Latency.Uniform { lo = 0.0; hi = 0.1 }));
  Alcotest.(check (float 1e-9)) "exp" 0.025
    (Latency.mean (Latency.Exponential { mean = 0.02; floor = 0.005 }))

(* Every malformed model is rejected up front, naming the caller and the
   field; the edge values a model may take are accepted. *)
let test_latency_validate () =
  let rejects name model msg =
    Alcotest.check_raises name (Invalid_argument ("Overlay.create: latency " ^ msg))
      (fun () ->
        ignore
          (Overlay.create ~engine:(Engine.create ()) ~rng:(Rng.create ~seed:1)
             ~latency:model params))
  in
  rejects "negative constant" (Latency.Constant (-0.01)) "constant must be >= 0";
  rejects "nan constant" (Latency.Constant Float.nan) "constant must be finite";
  rejects "infinite constant" (Latency.Constant Float.infinity)
    "constant must be finite";
  rejects "lo above hi" (Latency.Uniform { lo = 0.08; hi = 0.01 })
    "hi must be >= lo";
  rejects "negative lo" (Latency.Uniform { lo = -0.01; hi = 0.01 })
    "lo must be >= 0";
  rejects "nan hi" (Latency.Uniform { lo = 0.01; hi = Float.nan })
    "hi must be finite";
  rejects "zero mean" (Latency.Exponential { mean = 0.0; floor = 0.0 })
    "mean must be > 0";
  rejects "negative floor" (Latency.Exponential { mean = 0.02; floor = -0.001 })
    "floor must be >= 0";
  rejects "nan mean" (Latency.Exponential { mean = Float.nan; floor = 0.0 })
    "mean must be finite";
  List.iter
    (Latency.validate ~who:"test")
    [ Latency.default; Latency.Constant 0.0;
      Latency.Uniform { lo = 0.0; hi = 0.0 };
      Latency.Exponential { mean = 1e-9; floor = 0.0 } ]

(* --- Overlay ------------------------------------------------------------ *)

let make_overlay ?loss ?latency () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:4 in
  let overlay = Overlay.create ~engine ~rng ?latency ?loss params in
  (engine, overlay)

(* Install a receive function that logs [(src, dst, b)] per delivery. *)
let logging_recv overlay =
  let log = ref [] in
  Overlay.set_packed_recv overlay
    (Some
       (fun ~src ~dst b ->
         log := (Pid.to_int src, Pid.to_int dst, b) :: !log));
  fun () -> List.rev !log

let test_overlay_delivery () =
  let engine, overlay = make_overlay ~latency:(Latency.Constant 0.1) () in
  let received = ref [] in
  Overlay.set_packed_recv overlay
    (Some
       (fun ~src ~dst b ->
         received :=
           (Pid.to_int src, Pid.to_int dst, b, Engine.x engine, Engine.now engine)
           :: !received));
  Overlay.attach overlay (pid 3);
  Overlay.send_packed overlay ~src:(pid 1) ~dst:(pid 3) ~b:42 ~x:0.25;
  Alcotest.(check int) "not yet delivered" 0 (List.length !received);
  Engine.run engine;
  (match !received with
  | [ (src, dst, b, x, at) ] ->
      Alcotest.(check (list int)) "src, dst, b" [ 1; 3; 42 ] [ src; dst; b ];
      Alcotest.(check (float 0.0)) "x" 0.25 x;
      Alcotest.(check (float 1e-9)) "delivered with latency" 0.1 at
  | l -> Alcotest.failf "expected one delivery, got %d" (List.length l));
  Alcotest.(check int) "sent" 1 (Overlay.messages_sent overlay);
  Alcotest.(check int) "delivered" 1 (Overlay.messages_delivered overlay)

let test_overlay_no_handler_drops () =
  (* A destination never attached, and an attached one with no receive
     function installed, both drop. *)
  let engine, overlay = make_overlay () in
  Overlay.attach overlay (pid 4);
  Overlay.send_packed overlay ~src:(pid 1) ~dst:(pid 4) ~b:0 ~x:0.0;
  Engine.run engine;
  let log = logging_recv overlay in
  Overlay.send_packed overlay ~src:(pid 1) ~dst:(pid 9) ~b:0 ~x:0.0;
  Engine.run engine;
  Alcotest.(check int) "dropped" 2 (Overlay.messages_dropped overlay);
  Alcotest.(check int) "not delivered" 0 (Overlay.messages_delivered overlay);
  Alcotest.(check int) "nothing received" 0 (List.length (log ()))

let test_overlay_detach () =
  let engine, overlay = make_overlay () in
  let log = logging_recv overlay in
  Overlay.attach overlay (pid 2);
  Overlay.send_packed overlay ~src:(pid 0) ~dst:(pid 2) ~b:1 ~x:0.0;
  Engine.run engine;
  Overlay.detach overlay (pid 2);
  Overlay.send_packed overlay ~src:(pid 0) ~dst:(pid 2) ~b:2 ~x:0.0;
  Engine.run engine;
  Alcotest.(check (list (triple int int int)))
    "only first delivered" [ (0, 2, 1) ] (log ());
  Alcotest.(check int) "second dropped" 1 (Overlay.messages_dropped overlay)

let test_overlay_loss () =
  let engine, overlay = make_overlay ~loss:0.5 () in
  let log = logging_recv overlay in
  Overlay.attach overlay (pid 2);
  for _ = 1 to 1000 do
    Overlay.send_packed overlay ~src:(pid 0) ~dst:(pid 2) ~b:0 ~x:0.0
  done;
  Engine.run engine;
  let count = List.length (log ()) in
  Alcotest.(check bool)
    (Printf.sprintf "roughly half delivered (%d)" count)
    true
    (count > 400 && count < 600);
  Alcotest.(check int) "accounting adds up" 1000
    (Overlay.messages_delivered overlay + Overlay.messages_dropped overlay)

(* The one loss check: [0, 1) with NaN rejected, at creation and on
   every mid-run change. *)
let test_overlay_loss_validated () =
  List.iter
    (fun loss ->
      Alcotest.check_raises
        (Printf.sprintf "create, loss %g" loss)
        (Invalid_argument "Overlay.create: loss must be in [0, 1)")
        (fun () -> ignore (make_overlay ~loss ()));
      let _, overlay = make_overlay () in
      Alcotest.check_raises
        (Printf.sprintf "set_loss %g" loss)
        (Invalid_argument "Overlay.set_loss: loss must be in [0, 1)")
        (fun () -> Overlay.set_loss overlay loss))
    [ -0.5; 1.0; 1.5; Float.nan ]

let test_overlay_in_flight_ordering () =
  (* Two messages with different latencies arrive in latency order, not
     send order. *)
  let engine = Engine.create () in
  let rng = Rng.create ~seed:5 in
  let overlay_slow =
    Overlay.create ~engine ~rng ~latency:(Latency.Constant 0.2) params
  in
  let overlay_fast =
    Overlay.create ~engine ~rng ~latency:(Latency.Constant 0.1) params
  in
  let log = ref [] in
  List.iter
    (fun o ->
      Overlay.set_packed_recv o
        (Some (fun ~src:_ ~dst:_ b -> log := b :: !log));
      Overlay.attach o (pid 1))
    [ overlay_slow; overlay_fast ];
  Overlay.send_packed overlay_slow ~src:(pid 0) ~dst:(pid 1) ~b:2 ~x:0.0;
  Overlay.send_packed overlay_fast ~src:(pid 0) ~dst:(pid 1) ~b:1 ~x:0.0;
  Engine.run engine;
  Alcotest.(check (list int)) "latency order" [ 1; 2 ] (List.rev !log)

(* --- Partition cuts ---------------------------------------------------------- *)

let partition direction group =
  { Faults.from_ = 0.0; until = 1.0; group = List.map pid group; direction }

let cut_plan =
  [
    partition Faults.Both [ 1; 2; 3 ];
    partition Faults.Inbound [ 4; 5 ];
    partition Faults.Outbound [ 5; 6; 7 ];
  ]

(* The documented meaning of one active cut, from the group lists. *)
let reference_allows (p : Faults.partition) s d =
  let s_in = List.mem (pid s) p.group and d_in = List.mem (pid d) p.group in
  match p.direction with
  | Faults.Both -> s_in = d_in
  | Faults.Inbound -> not (d_in && not s_in)
  | Faults.Outbound -> not (s_in && not d_in)

let test_cuts_match_reference () =
  let space = Params.space params in
  let cuts = Faults.Cuts.create ~space cut_plan in
  let agree label active =
    for s = 0 to space - 1 do
      for d = 0 to space - 1 do
        let expected =
          List.for_all (fun i -> reference_allows (List.nth cut_plan i) s d) active
        in
        if Faults.Cuts.allows cuts ~src:(pid s) ~dst:(pid d) <> expected then
          Alcotest.failf "%s: link %d -> %d should be %s" label s d
            (if expected then "up" else "down")
      done
    done
  in
  agree "none" [];
  Faults.Cuts.cut cuts 0;
  agree "both" [ 0 ];
  Faults.Cuts.cut cuts 2;
  agree "both + outbound" [ 0; 2 ];
  Faults.Cuts.cut cuts 1;
  Faults.Cuts.cut cuts 1;
  agree "all three, one cut twice" [ 0; 1; 2 ];
  Faults.Cuts.heal cuts 0;
  Faults.Cuts.heal cuts 0;
  agree "healed both" [ 1; 2 ];
  Faults.Cuts.heal cuts 2;
  agree "inbound only" [ 1 ];
  Faults.Cuts.heal cuts 1;
  agree "all healed" [];
  Alcotest.check_raises "member outside space"
    (Invalid_argument "Faults.Cuts.create: group member outside space")
    (fun () ->
      ignore (Faults.Cuts.create ~space [ partition Faults.Both [ space ] ]))

(* Under an active cut, a send on a link the cut leaves up allocates
   exactly what a send on an overlay with no filter does (the engine
   post and the step that delivers it), and a blocked send allocates
   nothing at all. *)
let test_partition_filter_allocates_nothing () =
  let n = 10_000 and backlog = 100 in
  let cuts =
    Faults.Cuts.create ~space:(Params.space params)
      [ partition Faults.Both [ 1; 2 ] ]
  in
  Faults.Cuts.cut cuts 0;
  let steady_words ~filtered =
    let engine, overlay = make_overlay () in
    if filtered then Overlay.set_filter overlay (Some (Faults.Cuts.allows cuts));
    let send () = Overlay.send_packed overlay ~src:(pid 3) ~dst:(pid 4) ~b:0 ~x:0.0 in
    for _ = 1 to backlog do
      send ()
    done;
    let words =
      Test_support.words_per_cycle ~n (fun () ->
          send ();
          ignore (Engine.step engine))
    in
    (words, overlay)
  in
  let plain, _ = steady_words ~filtered:false in
  let filtered, overlay = steady_words ~filtered:true in
  Alcotest.(check (float 0.0)) "filter words per send" 0.0 (filtered -. plain);
  let dropped = Overlay.messages_dropped overlay in
  let blocked =
    Test_support.words_per_cycle ~n (fun () ->
        Overlay.send_packed overlay ~src:(pid 3) ~dst:(pid 1) ~b:0 ~x:0.0)
  in
  Alcotest.(check (float 0.0)) "blocked send words" 0.0 blocked;
  Alcotest.(check int) "blocked sends dropped" (3 * n)
    (Overlay.messages_dropped overlay - dropped)

let () =
  Alcotest.run "net"
    [
      ( "latency",
        [
          Alcotest.test_case "constant" `Quick test_latency_constant;
          Alcotest.test_case "uniform bounds" `Quick test_latency_uniform_bounds;
          Alcotest.test_case "exponential floor" `Quick
            test_latency_exponential_floor;
          Alcotest.test_case "means" `Quick test_latency_means;
          Alcotest.test_case "validate" `Quick test_latency_validate;
        ] );
      ( "overlay",
        [
          Alcotest.test_case "delivery" `Quick test_overlay_delivery;
          Alcotest.test_case "no handler drops" `Quick
            test_overlay_no_handler_drops;
          Alcotest.test_case "detach drops" `Quick test_overlay_detach;
          Alcotest.test_case "loss injection" `Quick test_overlay_loss;
          Alcotest.test_case "loss validated" `Quick
            test_overlay_loss_validated;
          Alcotest.test_case "latency ordering" `Quick
            test_overlay_in_flight_ordering;
          Alcotest.test_case "partition filter allocates nothing" `Quick
            test_partition_filter_allocates_nothing;
        ] );
      ( "partition cuts",
        [ Alcotest.test_case "match reference" `Quick test_cuts_match_reference ] );
    ]
