(** Tests for the deterministic simulation checker (lib/check): schedule
    codec round-trips, shrinking, the mutation self-test, and
    byte-determinism of exploration output. *)

module Schedule = Lesslog_check.Schedule
module Shrink = Lesslog_check.Shrink
module Checker = Lesslog_check.Checker
module Oracle = Lesslog_check.Oracle
module Topology = Lesslog_topology.Topology

(* Schedule generation & codec --------------------------------------- *)

let schedule_equal (a : Schedule.t) (b : Schedule.t) =
  a.m = b.m && a.seed = b.seed && a.sim = b.sim && a.rate = b.rate
  && a.duration = b.duration
  && a.capacity = b.capacity
  && a.keys = b.keys && a.steps = b.steps

let test_generate_deterministic () =
  List.iter
    (fun sim ->
      let a = Schedule.generate ~seed:7 ~m:8 ~sim in
      let b = Schedule.generate ~seed:7 ~m:8 ~sim in
      Alcotest.(check bool) "same schedule" true (schedule_equal a b);
      let c = Schedule.generate ~seed:8 ~m:8 ~sim in
      Alcotest.(check bool) "different seed differs" false (schedule_equal a c))
    [ Schedule.Des; Schedule.Faults ]

let test_events_roundtrip () =
  List.iteri
    (fun i sim ->
      let sch = Schedule.generate ~seed:(100 + i) ~m:8 ~sim in
      let events =
        Schedule.to_events ~expect:"topology-naive" ~mutation:true sch
      in
      match Schedule.of_events events with
      | Error msg -> Alcotest.fail msg
      | Ok d ->
          Alcotest.(check bool) "schedule" true (schedule_equal sch d.schedule);
          Alcotest.(check bool) "mutation" true d.mutation;
          Alcotest.(check (option string))
            "expect" (Some "topology-naive") d.expect)
    [ Schedule.Des; Schedule.Faults ]

let test_file_roundtrip () =
  let sch = Schedule.generate ~seed:3 ~m:8 ~sim:Schedule.Faults in
  let path = Filename.temp_file "lesslog_check" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Schedule.save ~mutation:false path sch;
      match Schedule.load path with
      | Error msg -> Alcotest.fail msg
      | Ok d ->
          Alcotest.(check bool) "schedule" true (schedule_equal sch d.schedule);
          Alcotest.(check bool) "mutation off" false d.mutation;
          Alcotest.(check (option string)) "no expect" None d.expect)

let test_of_events_rejects_garbage () =
  (match Schedule.of_events [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted empty event list");
  let sch = Schedule.generate ~seed:1 ~m:8 ~sim:Schedule.Des in
  let events = Schedule.to_events sch in
  (* Drop the header markers: decoding must fail, not guess defaults. *)
  let no_headers =
    List.filter
      (function Schedule.Trace.Event.Mark _ -> false | _ -> true)
      events
  in
  match Schedule.of_events no_headers with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted schedule without headers"

let test_churn_sanitized () =
  (* Arbitrary step subsets (what the shrinker produces) must always
     yield an executable churn list: no join-of-live, no leave-of-dead. *)
  let sch = Schedule.generate ~seed:11 ~m:8 ~sim:Schedule.Des in
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
        let rs = subsets rest in
        List.map (fun r -> x :: r) rs @ rs
  in
  let steps =
    match sch.Schedule.steps with
    | a :: b :: c :: d :: _ -> [ a; b; c; d ]
    | l -> l
  in
  List.iter
    (fun steps ->
      let churn = Schedule.to_churn { sch with steps } in
      let live = Hashtbl.create 16 in
      List.iter
        (fun (ev : Schedule.Des_sim.churn_event) ->
          let node, joins =
            match ev.action with
            | Schedule.Des_sim.Join p -> (p, true)
            | Schedule.Des_sim.Leave p | Schedule.Des_sim.Fail p -> (p, false)
          in
          let was_live =
            match Hashtbl.find_opt live node with
            | Some b -> b
            | None -> true
          in
          if joins then
            Alcotest.(check bool) "join of dead node" false was_live
          else
            Alcotest.(check bool) "leave/fail of live node" true was_live;
          Hashtbl.replace live node joins)
        churn)
    (subsets steps)

(* Shrink ------------------------------------------------------------ *)

let test_shrink_to_pair () =
  let input = List.init 40 Fun.id in
  let pred l = List.mem 13 l && List.mem 29 l in
  let kept, stats = Shrink.minimize ~pred input in
  Alcotest.(check (list int)) "minimal pair" [ 13; 29 ] kept;
  Alcotest.(check int) "kept" 2 stats.Shrink.kept;
  Alcotest.(check int) "dropped" 38 stats.Shrink.dropped;
  Alcotest.(check bool) "ran the predicate" true (stats.Shrink.runs > 0)

let test_shrink_to_empty () =
  (* A predicate that holds for every subset shrinks to nothing. *)
  let kept, _ = Shrink.minimize ~pred:(fun _ -> true) (List.init 10 Fun.id) in
  Alcotest.(check (list int)) "empty" [] kept

let test_shrink_one_minimal () =
  (* Failure needs >= 3 elements of a marked set: the result must be
     1-minimal (dropping any single element breaks the predicate). *)
  let marked = [ 2; 3; 5; 7; 11 ] in
  let pred l =
    List.length (List.filter (fun x -> List.mem x marked) l) >= 3
  in
  let kept, _ = Shrink.minimize ~pred (List.init 12 Fun.id) in
  Alcotest.(check bool) "still fails" true (pred kept);
  List.iteri
    (fun i _ ->
      let without = List.filteri (fun j _ -> j <> i) kept in
      Alcotest.(check bool) "1-minimal" false (pred without))
    kept

(* Checker runs ------------------------------------------------------ *)

let test_clean_run () =
  List.iter
    (fun sim ->
      let sch = Schedule.generate ~seed:5 ~m:8 ~sim in
      match Checker.run sch with
      | Ok stats ->
          Alcotest.(check bool) "events flowed" true (stats.Checker.events > 0)
      | Error v -> Alcotest.failf "unexpected violation: %s" v.Checker.detail)
    [ Schedule.Des; Schedule.Faults ]

let test_run_deterministic () =
  let sch = Schedule.generate ~seed:5 ~m:8 ~sim:Schedule.Des in
  match (Checker.run sch, Checker.run sch) with
  | Ok a, Ok b ->
      Alcotest.(check int) "served" a.Checker.served b.Checker.served;
      Alcotest.(check int) "faults" a.Checker.faults b.Checker.faults;
      Alcotest.(check int) "checks" a.Checker.checks b.Checker.checks;
      Alcotest.(check int) "events" a.Checker.events b.Checker.events
  | _ -> Alcotest.fail "run was not clean"

let test_mutation_flag_restored () =
  let sch = Schedule.generate ~seed:5 ~m:8 ~sim:Schedule.Des in
  (match Checker.run ~mutation:true sch with _ -> ());
  Alcotest.(check bool)
    "flag reset" false !Topology.Testing.broken_find_live_node

(* The self-test from the issue: the deliberately broken FINDLIVENODE
   must be found quickly and shrink to a small counterexample that
   replays deterministically. *)
let test_mutation_found_and_shrunk () =
  let dir = Filename.temp_file "lesslog_check" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let logs = Buffer.create 256 in
  let log s =
    Buffer.add_string logs s;
    Buffer.add_char logs '\n'
  in
  match
    Checker.explore ~mutation:true ~out_dir:dir ~log ~seed:42 ~m:8
      ~iterations:20 ()
  with
  | Checker.Clean _ -> Alcotest.fail "mutation not detected"
  | Checker.Found f ->
      Alcotest.(check bool)
        "shrunk to <= 12 steps" true
        (List.length f.Checker.shrunk.Schedule.steps <= 12);
      Alcotest.(check string)
        "same oracle after shrink" f.Checker.violation.Checker.oracle
        f.Checker.shrunk_violation.Checker.oracle;
      let path =
        match f.Checker.repro_path with
        | Some p -> p
        | None -> Alcotest.fail "no repro written"
      in
      let decoded =
        match Schedule.load path with
        | Ok d -> d
        | Error msg -> Alcotest.fail msg
      in
      Alcotest.(check bool) "repro has mutation flag" true decoded.mutation;
      (match Checker.replay ~log decoded with
      | Checker.Reproduced v ->
          Alcotest.(check string)
            "replay hits same oracle" f.Checker.shrunk_violation.Checker.oracle
            v.Checker.oracle
      | Checker.Clean_run -> Alcotest.fail "replay was clean"
      | Checker.Mismatch _ -> Alcotest.fail "replay mismatched");
      Sys.remove path;
      Sys.rmdir dir

(* The topology-naive oracle must also catch a fault in the shared
   frontier walk: with dead children dropped instead of expanded,
   exploration must find a violation of that oracle and shrink it, and
   the flag must be off again after. *)
let test_frontier_mutation_found () =
  let flag = Topology.Testing.broken_frontier in
  flag := true;
  let result =
    Fun.protect
      ~finally:(fun () -> flag := false)
      (fun () ->
        Checker.explore ~log:ignore ~seed:42 ~m:8 ~iterations:20 ())
  in
  Alcotest.(check bool) "flag reset" false !flag;
  match result with
  | Checker.Clean _ -> Alcotest.fail "broken frontier walk not detected"
  | Checker.Found f ->
      Alcotest.(check string)
        "topology-naive fired" "topology-naive"
        f.Checker.violation.Checker.oracle;
      Alcotest.(check string)
        "same oracle after shrink" f.Checker.violation.Checker.oracle
        f.Checker.shrunk_violation.Checker.oracle;
      Alcotest.(check bool)
        "shrunk to <= 12 steps" true
        (List.length f.Checker.shrunk.Schedule.steps <= 12);
      Alcotest.(check bool)
        "clean without the flag" true
        (Result.is_ok (Checker.run f.Checker.shrunk))

let test_explore_output_deterministic () =
  let capture () =
    let buf = Buffer.create 1024 in
    let log s =
      Buffer.add_string buf s;
      Buffer.add_char buf '\n'
    in
    (match Checker.explore ~log ~seed:42 ~m:8 ~iterations:6 () with
    | Checker.Clean { trials } -> Alcotest.(check int) "all trials" 6 trials
    | Checker.Found f ->
        Alcotest.failf "unexpected violation: %s" f.Checker.violation.detail);
    Buffer.contents buf
  in
  Alcotest.(check string) "byte-identical logs" (capture ()) (capture ())

let test_derive_seed () =
  Alcotest.(check int)
    "stable" (Checker.derive_seed 42 0) (Checker.derive_seed 42 0);
  Alcotest.(check bool)
    "trial-distinct" true
    (Checker.derive_seed 42 0 <> Checker.derive_seed 42 1);
  for i = 0 to 10 do
    let s = Checker.derive_seed 42 i in
    Alcotest.(check bool) "in prng range" true (s >= 0 && s <= 0x3FFFFFFF)
  done

let () =
  Alcotest.run "check"
    [
      ( "schedule",
        [
          Alcotest.test_case "generate deterministic" `Quick
            test_generate_deterministic;
          Alcotest.test_case "events roundtrip" `Quick test_events_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_of_events_rejects_garbage;
          Alcotest.test_case "churn sanitized" `Quick test_churn_sanitized;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "pair" `Quick test_shrink_to_pair;
          Alcotest.test_case "empty" `Quick test_shrink_to_empty;
          Alcotest.test_case "1-minimal" `Quick test_shrink_one_minimal;
        ] );
      ( "checker",
        [
          Alcotest.test_case "clean run" `Quick test_clean_run;
          Alcotest.test_case "run deterministic" `Quick test_run_deterministic;
          Alcotest.test_case "mutation flag restored" `Quick
            test_mutation_flag_restored;
          Alcotest.test_case "mutation found and shrunk" `Slow
            test_mutation_found_and_shrunk;
          Alcotest.test_case "frontier mutation found" `Slow
            test_frontier_mutation_found;
          Alcotest.test_case "explore deterministic" `Slow
            test_explore_output_deterministic;
          Alcotest.test_case "derive_seed" `Quick test_derive_seed;
        ] );
    ]
