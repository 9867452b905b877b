(* The weighted dynamic replica-factor policy: PD arithmetic, dynamic
   thresholds, both classification modes, RF clamping and carry-over,
   and the shard-merge entry point. The policy must also be free of
   randomness — its interval ticks must not perturb a simulator's RNG
   stream. *)

module Rf_policy = Lesslog_policy.Rf_policy

let cls =
  Alcotest.testable
    (fun fmt c -> Format.pp_print_string fmt (Rf_policy.class_name c))
    ( = )

(* A pure-mode config with no history so thresholds come from the
   current interval alone — the arithmetic is then exact. *)
let pure =
  {
    Rf_policy.interval = 1.0;
    rf_min = 1;
    rf_max = 8;
    hot_factor = 1.5;
    cold_factor = 0.5;
    history = 0.0;
    capacity = None;
  }

(* --- Validation --------------------------------------------------------- *)

let test_create_rejects_bad_config () =
  let check name msg f =
    Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  check "nodes" "Rf_policy.create: nodes" (fun () ->
      Rf_policy.create ~nodes:0 ~files:1 ());
  check "files" "Rf_policy.create: files" (fun () ->
      Rf_policy.create ~nodes:4 ~files:0 ());
  check "interval" "Rf_policy.create: interval" (fun () ->
      Rf_policy.create
        ~config:{ pure with Rf_policy.interval = 0.0 }
        ~nodes:4 ~files:1 ());
  check "rf_min" "Rf_policy.create: rf_min" (fun () ->
      Rf_policy.create
        ~config:{ pure with Rf_policy.rf_min = 0 }
        ~nodes:4 ~files:1 ());
  check "rf_max" "Rf_policy.create: rf_max" (fun () ->
      Rf_policy.create
        ~config:{ pure with Rf_policy.rf_max = 0 }
        ~nodes:4 ~files:1 ());
  check "factors" "Rf_policy.create: cold_factor > hot_factor" (fun () ->
      Rf_policy.create
        ~config:{ pure with Rf_policy.cold_factor = 2.0 }
        ~nodes:4 ~files:1 ());
  check "history" "Rf_policy.create: history" (fun () ->
      Rf_policy.create
        ~config:{ pure with Rf_policy.history = 1.0 }
        ~nodes:4 ~files:1 ());
  check "capacity" "Rf_policy.create: capacity" (fun () ->
      Rf_policy.create
        ~config:{ pure with Rf_policy.capacity = Some 0.0 }
        ~nodes:4 ~files:1 ());
  check "rf0" "Rf_policy.create: rf0" (fun () ->
      Rf_policy.create ~config:pure ~rf0:9 ~nodes:4 ~files:1 ())

let test_record_bounds () =
  let p = Rf_policy.create ~config:pure ~nodes:4 ~files:2 () in
  Alcotest.check_raises "file" (Invalid_argument "Rf_policy.record: file")
    (fun () -> Rf_policy.record p ~file:2 ~node:0);
  Alcotest.check_raises "node" (Invalid_argument "Rf_policy.record: node")
    (fun () -> Rf_policy.record p ~file:0 ~node:4)

(* --- Pure mode: PD arithmetic and dynamic thresholds -------------------- *)

(* Two files over 10 nodes: file 0 accessed 30 times by 6 nodes
   (PD = 0.6 * 30 = 18), file 1 accessed 4 times by 2 nodes
   (PD = 0.2 * 4 = 0.8). Reference = mean PD over accessed files = 9.4;
   hot above 14.1, cold below 4.7 — file 0 is Hot, file 1 Cold. *)
let test_pure_classification () =
  let p = Rf_policy.create ~config:pure ~rf0:2 ~nodes:10 ~files:2 () in
  for i = 0 to 29 do
    Rf_policy.record p ~file:0 ~node:(i mod 6)
  done;
  for i = 0 to 3 do
    Rf_policy.record p ~file:1 ~node:(i mod 2)
  done;
  let d = Rf_policy.end_interval p in
  Alcotest.(check int) "decisions" 2 (Array.length d);
  Alcotest.(check (float 1e-9)) "pd0" 18.0 d.(0).Rf_policy.pd;
  Alcotest.(check (float 1e-9)) "pd1" 0.8 d.(1).Rf_policy.pd;
  Alcotest.(check (float 1e-9)) "reference" 9.4 (Rf_policy.reference_pd p);
  Alcotest.check cls "file 0 hot" Rf_policy.Hot d.(0).Rf_policy.cls;
  Alcotest.check cls "file 1 cold" Rf_policy.Cold d.(1).Rf_policy.cls;
  Alcotest.(check int) "hot stepped up" 3 (Rf_policy.rf p ~file:0);
  Alcotest.(check int) "cold stepped down" 1 (Rf_policy.rf p ~file:1)

let test_unaccessed_file_is_cold () =
  let p = Rf_policy.create ~config:pure ~rf0:3 ~nodes:4 ~files:2 () in
  Rf_policy.record p ~file:0 ~node:1;
  ignore (Rf_policy.end_interval p);
  Alcotest.check cls "no accesses" Rf_policy.Cold
    (Rf_policy.classification p ~file:1);
  Alcotest.(check int) "stepped toward the floor" 2 (Rf_policy.rf p ~file:1)

let test_rf_clamped_and_carried () =
  let p = Rf_policy.create ~config:pure ~rf0:8 ~nodes:4 ~files:2 () in
  (* File 0 stays hot for many intervals: RF pinned at rf_max. File 1
     never accessed: RF walks down one step per interval to rf_min. *)
  for _ = 1 to 12 do
    for i = 0 to 19 do
      Rf_policy.record p ~file:0 ~node:(i mod 4)
    done;
    ignore (Rf_policy.end_interval p)
  done;
  Alcotest.(check int) "capped at rf_max" 8 (Rf_policy.rf p ~file:0);
  Alcotest.(check int) "floored at rf_min" 1 (Rf_policy.rf p ~file:1)

let test_reference_ema () =
  let config = { pure with Rf_policy.history = 0.5 } in
  let p = Rf_policy.create ~config ~nodes:4 ~files:1 () in
  (* Interval 1: one file, 8 accesses from all 4 nodes -> PD 8; the
     first interval seeds the EMA directly. *)
  for i = 0 to 7 do
    Rf_policy.record p ~file:0 ~node:(i mod 4)
  done;
  ignore (Rf_policy.end_interval p);
  Alcotest.(check (float 1e-9)) "seeded" 8.0 (Rf_policy.reference_pd p);
  (* Interval 2: PD 16 -> reference 0.5 * 8 + 0.5 * 16 = 12. *)
  for i = 0 to 15 do
    Rf_policy.record p ~file:0 ~node:(i mod 4)
  done;
  ignore (Rf_policy.end_interval p);
  Alcotest.(check (float 1e-9)) "ema" 12.0 (Rf_policy.reference_pd p)

(* --- Capacity-aware mode ------------------------------------------------ *)

let test_capacity_targets_observed_rate () =
  (* 10 req/s per replica: 35 accesses in a 1 s interval need 4
     replicas. The RF walks one step per interval from 1 up to the
     target, then holds (Warm). *)
  let config = { pure with Rf_policy.capacity = Some 10.0 } in
  let p = Rf_policy.create ~config ~nodes:8 ~files:1 () in
  let tick () =
    for i = 0 to 34 do
      Rf_policy.record p ~file:0 ~node:(i mod 8)
    done;
    Rf_policy.end_interval p
  in
  let d1 = tick () in
  Alcotest.check cls "undersized is hot" Rf_policy.Hot d1.(0).Rf_policy.cls;
  for _ = 1 to 5 do
    ignore (tick ())
  done;
  Alcotest.(check int) "converged to ceil(35/10)" 4 (Rf_policy.rf p ~file:0);
  Alcotest.check cls "holds at the target" Rf_policy.Warm
    (Rf_policy.classification p ~file:0);
  (* Demand gone: the replica set drains back to the floor. *)
  for _ = 1 to 5 do
    ignore (Rf_policy.end_interval p)
  done;
  Alcotest.(check int) "drained" 1 (Rf_policy.rf p ~file:0)

let test_capacity_oversized_is_cold () =
  let config = { pure with Rf_policy.capacity = Some 100.0 } in
  let p = Rf_policy.create ~config ~rf0:6 ~nodes:4 ~files:1 () in
  Rf_policy.record p ~file:0 ~node:0;
  let d = Rf_policy.end_interval p in
  Alcotest.check cls "over-provisioned" Rf_policy.Cold d.(0).Rf_policy.cls;
  Alcotest.(check int) "stepped down" 5 (Rf_policy.rf p ~file:0)

(* --- The shard-merge entry point ---------------------------------------- *)

let test_note_matches_record () =
  (* Tallying through [note] in shard-sized pieces must classify
     exactly like the equivalent [record] stream. *)
  let mk () = Rf_policy.create ~config:pure ~rf0:2 ~nodes:10 ~files:2 () in
  let a = mk () and b = mk () in
  for i = 0 to 29 do
    Rf_policy.record a ~file:0 ~node:(i mod 6)
  done;
  Rf_policy.record a ~file:1 ~node:0;
  Rf_policy.note b ~file:0 ~ac:12 ~dnc:2;
  Rf_policy.note b ~file:0 ~ac:18 ~dnc:4;
  Rf_policy.note b ~file:1 ~ac:1 ~dnc:1;
  let da = Rf_policy.end_interval a and db = Rf_policy.end_interval b in
  Array.iteri
    (fun f (d : Rf_policy.decision) ->
      Alcotest.(check int) "ac" d.Rf_policy.ac db.(f).Rf_policy.ac;
      Alcotest.(check int) "dnc" d.Rf_policy.dnc db.(f).Rf_policy.dnc;
      Alcotest.(check (float 1e-9)) "pd" d.Rf_policy.pd db.(f).Rf_policy.pd;
      Alcotest.check cls "class" d.Rf_policy.cls db.(f).Rf_policy.cls;
      Alcotest.(check int) "rf" (Rf_policy.rf a ~file:f)
        (Rf_policy.rf b ~file:f))
    da

let test_note_saturates_dnc () =
  let p = Rf_policy.create ~config:pure ~nodes:4 ~files:1 () in
  Rf_policy.note p ~file:0 ~ac:100 ~dnc:50;
  let d = Rf_policy.end_interval p in
  Alcotest.(check int) "dnc capped at nodes" 4 d.(0).Rf_policy.dnc

let () =
  Alcotest.run "policy"
    [
      ( "validation",
        [
          Alcotest.test_case "create rejects bad config" `Quick
            test_create_rejects_bad_config;
          Alcotest.test_case "record bounds" `Quick test_record_bounds;
        ] );
      ( "pure mode",
        [
          Alcotest.test_case "PD + dynamic thresholds" `Quick
            test_pure_classification;
          Alcotest.test_case "unaccessed is cold" `Quick
            test_unaccessed_file_is_cold;
          Alcotest.test_case "RF clamped and carried" `Quick
            test_rf_clamped_and_carried;
          Alcotest.test_case "reference EMA" `Quick test_reference_ema;
        ] );
      ( "capacity mode",
        [
          Alcotest.test_case "targets observed rate" `Quick
            test_capacity_targets_observed_rate;
          Alcotest.test_case "oversized is cold" `Quick
            test_capacity_oversized_is_cold;
        ] );
      ( "shard merge",
        [
          Alcotest.test_case "note = record" `Quick test_note_matches_record;
          Alcotest.test_case "dnc saturates" `Quick test_note_saturates_dnc;
        ] );
    ]
