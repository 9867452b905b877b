open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Demand = Lesslog_workload.Demand
module Catalog = Lesslog_workload.Catalog
module Rng = Lesslog_prng.Rng

let params = Params.create ~m:6 ()
let pid = Pid.unsafe_of_int

let total_of d =
  Array.fold_left ( +. ) 0.0 (d.Demand.rates : float array)

(* --- Uniform ------------------------------------------------------------ *)

let test_uniform_even_split () =
  let status = Status_word.create params ~initially_live:true in
  let d = Demand.uniform status ~total:6400.0 in
  Alcotest.(check (float 1e-6)) "total" 6400.0 (Demand.total d);
  Status_word.iter_live status (fun p ->
      Alcotest.(check (float 1e-9)) "per node" 100.0 (Demand.rate d p))

let test_uniform_skips_dead () =
  let status = Status_word.create params ~initially_live:true in
  Status_word.set_dead status (pid 5);
  let d = Demand.uniform status ~total:6300.0 in
  Alcotest.(check (float 1e-9)) "dead gets none" 0.0 (Demand.rate d (pid 5));
  Alcotest.(check (float 1e-9)) "live share" 100.0 (Demand.rate d (pid 6));
  Alcotest.(check (float 1e-6)) "mass conserved" 6300.0 (total_of d)

let test_uniform_empty_system () =
  let status = Status_word.create params ~initially_live:false in
  let d = Demand.uniform status ~total:1000.0 in
  Alcotest.(check (float 1e-9)) "no demand" 0.0 (Demand.total d)

(* --- Locality ------------------------------------------------------------ *)

let test_locality_shares () =
  let status = Status_word.create params ~initially_live:true in
  let rng = Rng.create ~seed:1 in
  let d = Demand.locality status ~rng ~total:10000.0 in
  Alcotest.(check (float 1e-3)) "mass conserved" 10000.0 (total_of d);
  (* 20% of 64 nodes = 13 hot nodes; they hold 80% of the demand. *)
  let rates =
    List.map (fun p -> Demand.rate d p) (Status_word.live_pids status)
    |> List.sort (fun a b -> compare b a)
  in
  let hot_count = int_of_float (Float.round (0.2 *. 64.0)) in
  let hot_mass =
    List.fold_left ( +. ) 0.0 (List.filteri (fun i _ -> i < hot_count) rates)
  in
  Alcotest.(check bool)
    (Printf.sprintf "hot mass %.0f ~ 8000" hot_mass)
    true
    (Float.abs (hot_mass -. 8000.0) < 1.0)

let test_locality_extremes () =
  let status = Status_word.create params ~initially_live:true in
  let rng = Rng.create ~seed:2 in
  (* Everything hot: degenerates to uniform mass. *)
  let d = Demand.locality ~hot_fraction:1.0 ~hot_share:0.8 status ~rng ~total:640.0 in
  Alcotest.(check (float 1e-3)) "mass conserved" 640.0 (total_of d);
  (* Single hot node takes the whole hot share. *)
  let d2 =
    Demand.locality ~hot_fraction:0.001 ~hot_share:1.0 status ~rng ~total:100.0
  in
  let top =
    List.fold_left
      (fun acc p -> Float.max acc (Demand.rate d2 p))
      0.0
      (Status_word.live_pids status)
  in
  Alcotest.(check (float 1e-6)) "one node has it all" 100.0 top

let test_locality_rejects_bad_params () =
  let status = Status_word.create params ~initially_live:true in
  let rng = Rng.create ~seed:3 in
  Alcotest.check_raises "fraction" (Invalid_argument "Demand.locality: hot_fraction")
    (fun () ->
      ignore (Demand.locality ~hot_fraction:1.5 status ~rng ~total:1.0));
  Alcotest.check_raises "share" (Invalid_argument "Demand.locality: hot_share")
    (fun () ->
      ignore (Demand.locality ~hot_share:(-0.1) status ~rng ~total:1.0))

(* --- Hotspot / scale ------------------------------------------------------ *)

let test_hotspot () =
  let status = Status_word.create params ~initially_live:true in
  let d = Demand.hotspot status ~at:(pid 9) ~total:500.0 in
  Alcotest.(check (float 1e-9)) "all at node" 500.0 (Demand.rate d (pid 9));
  Alcotest.(check (float 1e-9)) "others zero" 0.0 (Demand.rate d (pid 10));
  Status_word.set_dead status (pid 3);
  Alcotest.check_raises "dead hotspot" (Invalid_argument "Demand.hotspot: dead node")
    (fun () -> ignore (Demand.hotspot status ~at:(pid 3) ~total:1.0))

let test_scale () =
  let status = Status_word.create params ~initially_live:true in
  let d = Demand.uniform status ~total:640.0 in
  let d2 = Demand.scale d ~factor:0.5 in
  Alcotest.(check (float 1e-9)) "total scaled" 320.0 (Demand.total d2);
  Alcotest.(check (float 1e-9)) "rate scaled" 5.0 (Demand.rate d2 (pid 0))

(* --- Catalog --------------------------------------------------------------- *)

let test_catalog_popularity_order () =
  let status = Status_word.create params ~initially_live:true in
  let rng = Rng.create ~seed:4 in
  let c =
    Catalog.create status ~rng ~files:10 ~total:1000.0 ~spread:Catalog.Uniform
  in
  let totals = List.map (fun (_, d) -> Demand.total d) (Catalog.files c) in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "zipf ordering" true (non_increasing totals);
  Alcotest.(check (float 1e-3)) "mass conserved" 1000.0
    (List.fold_left ( +. ) 0.0 totals)

let test_catalog_lookup () =
  let status = Status_word.create params ~initially_live:true in
  let rng = Rng.create ~seed:5 in
  let c =
    Catalog.create ~prefix:"doc" status ~rng ~files:4 ~total:100.0
      ~spread:Catalog.Uniform
  in
  Alcotest.(check bool) "found" true (Catalog.demand_of c ~key:"doc-0000" <> None);
  Alcotest.(check bool) "missing" true (Catalog.demand_of c ~key:"nope" = None)

let test_catalog_shift_popularity () =
  let status = Status_word.create params ~initially_live:true in
  let rng = Rng.create ~seed:6 in
  let c =
    Catalog.create status ~rng ~files:8 ~total:800.0 ~spread:Catalog.Uniform
  in
  let shifted = Catalog.shift_popularity c ~rng in
  let names l = List.map fst (Catalog.files l) |> List.sort compare in
  Alcotest.(check (list string)) "same name set" (names c) (names shifted);
  let totals l = List.map (fun (_, d) -> Demand.total d) (Catalog.files l) in
  Alcotest.(check (list (float 1e-9))) "same demand profile" (totals c)
    (totals shifted)

(* --- Scenario --------------------------------------------------------------- *)

module Scenario = Lesslog_workload.Scenario

let test_scenario_phases () =
  let status = Status_word.create params ~initially_live:true in
  let d1 = Demand.uniform status ~total:100.0 in
  let d2 = Demand.uniform status ~total:10.0 in
  let s =
    Scenario.of_phases
      [ { Scenario.demand = d1; duration = 5.0 };
        { Scenario.demand = d2; duration = 10.0 } ]
  in
  Alcotest.(check (float 1e-9)) "total duration" 15.0 (Scenario.total_duration s);
  let total_at t =
    match Scenario.demand_at s ~time:t with
    | Some d -> Demand.total d
    | None -> -1.0
  in
  Alcotest.(check (float 1e-9)) "phase 1" 100.0 (total_at 0.0);
  Alcotest.(check (float 1e-9)) "phase 1 end" 100.0 (total_at 4.999);
  Alcotest.(check (float 1e-9)) "phase 2" 10.0 (total_at 5.0);
  Alcotest.(check (float 1e-9)) "past end" (-1.0) (total_at 15.0);
  Alcotest.(check (float 1e-9)) "before start" (-1.0) (total_at (-0.1))

let test_scenario_rejects_bad_phases () =
  let status = Status_word.create params ~initially_live:true in
  let d = Demand.uniform status ~total:1.0 in
  Alcotest.check_raises "empty" (Invalid_argument "Scenario.of_phases: empty")
    (fun () -> ignore (Scenario.of_phases []));
  Alcotest.check_raises "zero duration"
    (Invalid_argument "Scenario.of_phases: non-positive duration") (fun () ->
      ignore (Scenario.of_phases [ { Scenario.demand = d; duration = 0.0 } ]))

module Faults = Lesslog_workload.Faults

(* Fault-plan and scenario inputs are checked at entry and each message
   names the argument: NaN, out-of-range fractions and negative counts
   used to pass silently or fail deep inside the sampler. *)
let test_bad_fault_and_scenario_inputs () =
  let live =
    Status_word.live_pids (Status_word.create params ~initially_live:true)
  in
  let gen ?(duration = 10.0) ?active_until ?crash_fraction ?restart_fraction
      ?bursts ?mean_burst ?partitions ?partition_fraction () () =
    ignore
      (Faults.generate ~rng:(Rng.create ~seed:1) ~live ~duration ?active_until
         ?crash_fraction ?restart_fraction ?bursts ?mean_burst ?partitions
         ?partition_fraction ())
  in
  let faults msg = "Faults.generate: " ^ msg in
  let demand =
    Demand.uniform (Status_word.create params ~initially_live:true) ~total:1.0
  in
  let phase duration () =
    ignore (Scenario.of_phases [ { Scenario.demand; duration } ])
  in
  List.iter
    (fun (label, msg, f) ->
      Alcotest.check_raises label (Invalid_argument msg) f)
    [
      ("duration nan", faults "duration must be > 0", gen ~duration:nan ());
      ( "active_until nan", faults "active_until must be in (0.05, 0.75]",
        gen ~active_until:nan () );
      ( "crash_fraction nan", faults "crash_fraction must be in [0, 1]",
        gen ~crash_fraction:nan () );
      ( "crash_fraction -0.5", faults "crash_fraction must be in [0, 1]",
        gen ~crash_fraction:(-0.5) () );
      ( "crash_fraction 1.5", faults "crash_fraction must be in [0, 1]",
        gen ~crash_fraction:1.5 () );
      ( "restart_fraction 2.0", faults "restart_fraction must be in [0, 1]",
        gen ~restart_fraction:2.0 () );
      ( "partition_fraction nan", faults "partition_fraction must be in [0, 1]",
        gen ~partitions:1 ~partition_fraction:nan () );
      ( "partition_fraction 3.0", faults "partition_fraction must be in [0, 1]",
        gen ~partitions:1 ~partition_fraction:3.0 () );
      ("mean_burst 0", faults "mean_burst must be > 0", gen ~mean_burst:0.0 ());
      ("bursts -1", faults "bursts must be >= 0", gen ~bursts:(-1) ());
      ("partitions -1", faults "partitions must be >= 0", gen ~partitions:(-1) ());
      ( "phase duration nan", "Scenario.of_phases: non-positive duration",
        phase nan );
    ];
  (* The ends of every closed range are still accepted. *)
  gen ~crash_fraction:0.0 ~restart_fraction:1.0 ~partitions:1
    ~partition_fraction:1.0 ~active_until:0.75 () ();
  gen ~crash_fraction:1.0 ~restart_fraction:0.0 ~bursts:0 () ()

let test_flash_crowd_scenario () =
  let status = Status_word.create params ~initially_live:true in
  let rng = Rng.create ~seed:9 in
  let s =
    Scenario.flash_crowd status ~rng ~peak:1000.0 ~calm:50.0 ~peak_duration:10.0
      ~calm_duration:20.0
  in
  Alcotest.(check (float 1e-9)) "duration" 30.0 (Scenario.total_duration s);
  let peak = Option.get (Scenario.demand_at s ~time:1.0) in
  let calm = Option.get (Scenario.demand_at s ~time:15.0) in
  Alcotest.(check (float 1e-3)) "peak total" 1000.0 (Demand.total peak);
  Alcotest.(check (float 1e-3)) "calm total" 50.0 (Demand.total calm);
  (* Same spatial shape, scaled. *)
  Status_word.iter_live status (fun p ->
      Alcotest.(check (float 1e-9)) "scaled shape"
        (Demand.rate peak p /. 20.0)
        (Demand.rate calm p))

(* --- Timeline --------------------------------------------------------------- *)

let test_with_classes_split () =
  let status = Status_word.create params ~initially_live:true in
  let rng = Rng.create ~seed:7 in
  let c =
    Catalog.with_classes status ~rng ~files:8 ~total:1000.0
      ~spread:Catalog.Uniform ~classes:Catalog.default_classes
  in
  let totals = List.map (fun (_, d) -> Demand.total d) (Catalog.files c) in
  (* 1 hot file at 60%, 4 warm sharing 30%, 3 cold sharing 10%. *)
  Alcotest.(check (float 1e-6)) "hot file" 600.0 (List.nth totals 0);
  Alcotest.(check (float 1e-6)) "warm file" 75.0 (List.nth totals 1);
  Alcotest.(check (float 1e-6)) "cold file" (100.0 /. 3.0) (List.nth totals 7);
  Alcotest.(check (float 1e-6)) "mass conserved" 1000.0
    (Catalog.total_demand c)

let test_timeline_flash_and_shift () =
  let status = Status_word.create params ~initially_live:true in
  let rng = Rng.create ~seed:8 in
  let tl =
    Catalog.timeline status ~rng ~files:4 ~total:400.0 ~spread:Catalog.Uniform
      ~shift_every:2
      ~flashes:[ { Catalog.rank = 3; factor = 10.0; from_i = 1; until_i = 2 } ]
      ~intervals:4 ~interval:1.0
  in
  Alcotest.(check int) "intervals" 4 (Catalog.interval_count tl);
  Alcotest.(check (float 1e-9)) "interval" 1.0 (Catalog.interval tl);
  (* The flash multiplies exactly its file, exactly in its window. *)
  let demand_at ~i rank =
    let c = Catalog.step tl ~i in
    match List.nth_opt (Catalog.files c) rank with
    | Some (_, d) -> Demand.total d
    | None -> Alcotest.fail "missing rank"
  in
  let base = Catalog.step tl ~i:0 in
  let flash_name, quiet = List.nth (Catalog.files base) 3 in
  let flashed =
    match Catalog.demand_of (Catalog.step tl ~i:1) ~key:flash_name with
    | Some d -> Demand.total d
    | None -> Alcotest.fail "flash file vanished"
  in
  Alcotest.(check (float 1e-6)) "10x during the flash"
    (10.0 *. Demand.total quiet) flashed;
  Alcotest.(check (float 1e-6)) "over after until_i"
    (demand_at ~i:0 0) (demand_at ~i:2 0);
  (* Time lookup agrees with the step table and ends cleanly. *)
  Alcotest.(check bool) "at inside" true (Catalog.at tl ~time:3.5 <> None);
  Alcotest.(check bool) "at past end" true (Catalog.at tl ~time:4.0 = None)

let test_timeline_rejects_bad_windows () =
  let status = Status_word.create params ~initially_live:true in
  let rng = Rng.create ~seed:10 in
  let mk ?(flashes = []) ~intervals ~interval () =
    ignore
      (Catalog.timeline status ~rng ~files:2 ~total:10.0
         ~spread:Catalog.Uniform ~flashes ~intervals ~interval)
  in
  Alcotest.check_raises "intervals"
    (Invalid_argument "Catalog.timeline: intervals") (fun () ->
      mk ~intervals:0 ~interval:1.0 ());
  Alcotest.check_raises "interval"
    (Invalid_argument "Catalog.timeline: interval") (fun () ->
      mk ~intervals:2 ~interval:0.0 ());
  Alcotest.check_raises "flash window"
    (Invalid_argument "Catalog.timeline: flash window") (fun () ->
      mk
        ~flashes:[ { Catalog.rank = 0; factor = 2.0; from_i = 2; until_i = 2 } ]
        ~intervals:3 ~interval:1.0 ())

let prop_uniform_mass_conserved =
  Test_support.qcheck_case ~name:"uniform conserves mass"
    QCheck2.Gen.(
      Test_support.gen_params >>= fun params ->
      Test_support.gen_status params >>= fun status ->
      float_bound_inclusive 10000.0 >>= fun total -> return (status, total))
    (fun (status, total) ->
      let d = Demand.uniform status ~total in
      Float.abs (total_of d -. Demand.total d) < 1e-6)

let prop_locality_mass_conserved =
  Test_support.qcheck_case ~name:"locality conserves mass"
    QCheck2.Gen.(
      Test_support.gen_params >>= fun params ->
      Test_support.gen_status params >>= fun status ->
      int_range 0 1_000_000 >>= fun seed ->
      float_bound_inclusive 10000.0 >>= fun total -> return (status, seed, total))
    (fun (status, seed, total) ->
      let rng = Rng.create ~seed in
      let d = Demand.locality status ~rng ~total in
      Float.abs (total_of d -. Demand.total d) < 1e-3
      && Status_word.fold_live status ~init:true ~f:(fun acc p ->
             acc && Demand.rate d p >= 0.0))

let prop_scale_mass_conserved =
  Test_support.qcheck_case ~name:"scale conserves mass"
    QCheck2.Gen.(
      Test_support.gen_params >>= fun params ->
      Test_support.gen_status params >>= fun status ->
      float_bound_inclusive 10000.0 >>= fun total ->
      float_bound_inclusive 8.0 >>= fun factor -> return (status, total, factor))
    (fun (status, total, factor) ->
      let d = Demand.uniform status ~total in
      let d2 = Demand.scale d ~factor in
      Float.abs (Demand.total d2 -. (factor *. Demand.total d)) < 1e-6
      && Float.abs (total_of d2 -. Demand.total d2) < 1e-6)

let gen_catalog =
  QCheck2.Gen.(
    Test_support.gen_params >>= fun params ->
    Test_support.gen_status params >>= fun status ->
    int_range 0 1_000_000 >>= fun seed ->
    int_range 1 32 >>= fun files ->
    float_range 0.1 10000.0 >>= fun total -> return (status, seed, files, total))

let prop_catalog_mass_conserved =
  Test_support.qcheck_case ~name:"catalog conserves mass"
    gen_catalog
    (fun (status, seed, files, total) ->
      let rng = Rng.create ~seed in
      let c =
        Catalog.create status ~rng ~files ~total ~spread:Catalog.Uniform
      in
      (* Empty systems spread no demand; live ones conserve it exactly. *)
      let live = Status_word.live_count status > 0 in
      let expect = if live then total else 0.0 in
      Float.abs (Catalog.total_demand c -. expect) < 1e-3)

let prop_shift_popularity_conserves =
  Test_support.qcheck_case ~name:"shift_popularity conserves mass and names"
    gen_catalog
    (fun (status, seed, files, total) ->
      let rng = Rng.create ~seed in
      let c =
        Catalog.create status ~rng ~files ~total ~spread:Catalog.Uniform
      in
      let shifted = Catalog.shift_popularity c ~rng in
      let names l = List.map fst (Catalog.files l) |> List.sort compare in
      Float.abs (Catalog.total_demand shifted -. Catalog.total_demand c)
      < 1e-3
      && names c = names shifted)

let () =
  Alcotest.run "workload"
    [
      ( "uniform",
        [
          Alcotest.test_case "even split" `Quick test_uniform_even_split;
          Alcotest.test_case "skips dead" `Quick test_uniform_skips_dead;
          Alcotest.test_case "empty system" `Quick test_uniform_empty_system;
        ] );
      ( "locality",
        [
          Alcotest.test_case "80/20 shares" `Quick test_locality_shares;
          Alcotest.test_case "extremes" `Quick test_locality_extremes;
          Alcotest.test_case "bad params" `Quick test_locality_rejects_bad_params;
        ] );
      ( "hotspot/scale",
        [
          Alcotest.test_case "hotspot" `Quick test_hotspot;
          Alcotest.test_case "scale" `Quick test_scale;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "phase lookup" `Quick test_scenario_phases;
          Alcotest.test_case "bad phases" `Quick test_scenario_rejects_bad_phases;
          Alcotest.test_case "bad fault and scenario inputs" `Quick
            test_bad_fault_and_scenario_inputs;
          Alcotest.test_case "flash crowd" `Quick test_flash_crowd_scenario;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "zipf popularity" `Quick test_catalog_popularity_order;
          Alcotest.test_case "lookup" `Quick test_catalog_lookup;
          Alcotest.test_case "popularity shift" `Quick
            test_catalog_shift_popularity;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "hot/warm/cold split" `Quick
            test_with_classes_split;
          Alcotest.test_case "flash + shift schedule" `Quick
            test_timeline_flash_and_shift;
          Alcotest.test_case "bad windows" `Quick
            test_timeline_rejects_bad_windows;
        ] );
      ( "properties",
        [
          prop_uniform_mass_conserved;
          prop_locality_mass_conserved;
          prop_scale_mass_conserved;
          prop_catalog_mass_conserved;
          prop_shift_popularity_conserves;
        ] );
    ]
