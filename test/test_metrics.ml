module Histogram = Lesslog_metrics.Histogram
module Timeseries = Lesslog_metrics.Timeseries

let feq = Alcotest.(check (float 1e-9))

(* --- Histogram --------------------------------------------------------- *)

let test_histogram_exact_quantiles () =
  let h = Histogram.Exact.create () in
  List.iter (Histogram.Exact.add_int h) (List.init 101 (fun i -> i));
  feq "median" 50.0 (Histogram.Exact.median h);
  feq "p0" 0.0 (Histogram.Exact.quantile h 0.0);
  feq "p100" 100.0 (Histogram.Exact.quantile h 1.0);
  feq "p25" 25.0 (Histogram.Exact.quantile h 0.25);
  feq "mean" 50.0 (Histogram.Exact.mean h);
  Alcotest.(check int) "count" 101 (Histogram.Exact.count h)

let test_histogram_sketch_quantiles () =
  let h = Histogram.create () in
  List.iter (Histogram.add_int h) (List.init 101 (fun i -> i));
  (* min/max/count/mean are exact; interior quantiles within 0.5%. *)
  feq "p0" 0.0 (Histogram.quantile h 0.0);
  feq "p100" 100.0 (Histogram.quantile h 1.0);
  feq "mean" 50.0 (Histogram.mean h);
  Alcotest.(check int) "count" 101 (Histogram.count h);
  Alcotest.(check (float 0.5)) "median" 50.0 (Histogram.median h);
  Alcotest.(check (float 0.25)) "p25" 25.0 (Histogram.quantile h 0.25)

let test_histogram_merge () =
  let a = Histogram.create ()
  and b = Histogram.create ()
  and whole = Histogram.create () in
  let xs = List.init 60 (fun i -> float_of_int i /. 3.0)
  and ys = List.init 40 (fun i -> float_of_int (i * 7) +. 0.5) in
  List.iter (Histogram.add a) xs;
  List.iter (Histogram.add b) ys;
  List.iter (Histogram.add whole) (xs @ ys);
  Histogram.merge a ~from:b;
  Alcotest.(check int) "count" (Histogram.count whole) (Histogram.count a);
  feq "mean" (Histogram.mean whole) (Histogram.mean a);
  feq "min" (Histogram.min_value whole) (Histogram.min_value a);
  feq "max" (Histogram.max_value whole) (Histogram.max_value a);
  List.iter
    (fun q ->
      feq
        (Printf.sprintf "q%.2f" q)
        (Histogram.quantile whole q) (Histogram.quantile a q))
    [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ];
  (* [from] untouched; merging an empty histogram is a no-op. *)
  Alcotest.(check int) "from untouched" 40 (Histogram.count b);
  Histogram.merge a ~from:(Histogram.create ());
  Alcotest.(check int) "empty from" (Histogram.count whole) (Histogram.count a);
  let fresh = Histogram.create () in
  Histogram.merge fresh ~from:a;
  Alcotest.(check int) "into empty" (Histogram.count a) (Histogram.count fresh);
  feq "into empty median" (Histogram.median a) (Histogram.median fresh)

let test_histogram_exact_merge () =
  let a = Histogram.Exact.create () and b = Histogram.Exact.create () in
  List.iter (Histogram.Exact.add a) [ 5.0; 1.0; 9.0 ];
  List.iter (Histogram.Exact.add b) [ 2.0; 8.0 ];
  Histogram.Exact.merge a ~from:b;
  Alcotest.(check int) "count" 5 (Histogram.Exact.count a);
  feq "mean" 5.0 (Histogram.Exact.mean a);
  feq "median" 5.0 (Histogram.Exact.median a);
  feq "min" 1.0 (Histogram.Exact.min_value a);
  feq "max" 9.0 (Histogram.Exact.max_value a);
  Alcotest.(check int) "from untouched" 2 (Histogram.Exact.count b)

let gen_sample_lists =
  QCheck2.Gen.(
    pair
      (list_size (int_range 0 120) (float_range 0.001 5000.0))
      (list_size (int_range 0 120) (float_range 0.001 5000.0)))

let prop_histogram_merge_matches_single_stream =
  Test_support.qcheck_case ~name:"sketch merge = single stream"
    gen_sample_lists
    (fun (xs, ys) ->
      let a = Histogram.create () and whole = Histogram.create () in
      let b = Histogram.create () in
      List.iter (Histogram.add a) xs;
      List.iter (Histogram.add b) ys;
      List.iter (Histogram.add whole) (xs @ ys);
      Histogram.merge a ~from:b;
      Histogram.count a = Histogram.count whole
      && Float.abs (Histogram.mean a -. Histogram.mean whole) < 1e-9
      && (xs @ ys = []
         || List.for_all
              (fun q ->
                Histogram.quantile a q = Histogram.quantile whole q)
              [ 0.0; 0.25; 0.5; 0.75; 0.99; 1.0 ]))

let prop_histogram_merge_vs_exact =
  Test_support.qcheck_case ~name:"merged sketch tracks exact oracle"
    gen_sample_lists
    (fun (xs, ys) ->
      match xs @ ys with
      | [] -> true
      | all ->
          let a = Histogram.create () and b = Histogram.create () in
          let e = Histogram.Exact.create () in
          List.iter (Histogram.add a) xs;
          List.iter (Histogram.add b) ys;
          List.iter (Histogram.Exact.add e) all;
          Histogram.merge a ~from:b;
          List.for_all
            (fun q ->
              let s = Histogram.quantile a q
              and x = Histogram.Exact.quantile e q in
              (* γ-bounded relative error, exact at the extremes. *)
              Float.abs (s -. x) <= (0.006 *. x) +. 1e-9)
            [ 0.0; 0.5; 0.9; 1.0 ])

let test_histogram_empty_raises () =
  let h = Histogram.create () in
  Alcotest.check_raises "empty" (Invalid_argument "Histogram.quantile: empty")
    (fun () -> ignore (Histogram.quantile h 0.5));
  let e = Histogram.Exact.create () in
  Alcotest.check_raises "exact empty"
    (Invalid_argument "Histogram.quantile: empty") (fun () ->
      ignore (Histogram.Exact.quantile e 0.5))

(* The running sum, min and max live in a flat float record, so a warm
   sketch records a sample without allocating. *)
let test_histogram_add_allocates_nothing () =
  let h = Histogram.create () in
  Histogram.add h 0.25;
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Histogram.add h 0.25
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words" 0.0 words;
  Alcotest.(check int) "count" 100_001 (Histogram.count h)

let test_histogram_buckets () =
  let h = Histogram.Exact.create () in
  List.iter (Histogram.Exact.add h) [ 0.1; 0.2; 1.5; 1.9; 3.0 ];
  Alcotest.(check (list (pair (float 1e-9) int)))
    "buckets"
    [ (0.0, 2); (1.0, 2); (3.0, 1) ]
    (Histogram.Exact.buckets h ~width:1.0);
  (* The sketch bins representatives, which sit within 0.25% of the
     samples — same buckets for values this far from the boundaries. *)
  let s = Histogram.create () in
  List.iter (Histogram.add s) [ 0.1; 0.2; 1.5; 1.9; 3.1 ];
  Alcotest.(check (list (pair (float 1e-2) int)))
    "sketch buckets"
    [ (0.0, 2); (1.0, 2); (3.0, 1) ]
    (Histogram.buckets s ~width:1.0)

let prop_histogram_quantile_monotone =
  Test_support.qcheck_case ~name:"quantiles monotone"
    QCheck2.Gen.(list_size (int_range 2 80) (float_bound_inclusive 100.0))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      let qs = [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
      let vals = List.map (Histogram.quantile h) qs in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono vals)

let prop_histogram_sketch_tracks_exact =
  Test_support.qcheck_case ~name:"sketch quantile within 0.5% of exact"
    QCheck2.Gen.(list_size (int_range 1 200) (float_range 1e-3 1e6))
    (fun xs ->
      let s = Histogram.create () and e = Histogram.Exact.create () in
      List.iter
        (fun x ->
          Histogram.add s x;
          Histogram.Exact.add e x)
        xs;
      Histogram.count s = Histogram.Exact.count e
      && Float.abs (Histogram.mean s -. Histogram.Exact.mean e)
         <= 1e-9 *. Float.abs (Histogram.Exact.mean e)
      && List.for_all
           (fun q ->
             let a = Histogram.quantile s q
             and b = Histogram.Exact.quantile e q in
             Float.abs (a -. b) <= 0.005 *. Float.abs b)
           [ 0.0; 0.1; 0.5; 0.9; 0.99; 1.0 ])

(* --- Timeseries --------------------------------------------------------- *)

let test_timeseries_basic () =
  let ts = Timeseries.create ~label:"x" () in
  Timeseries.record ts ~time:0.0 1.0;
  Timeseries.record ts ~time:1.0 2.0;
  Timeseries.record ts ~time:5.0 3.0;
  Alcotest.(check int) "length" 3 (Timeseries.length ts);
  Alcotest.(check (option (pair (float 1e-9) (float 1e-9))))
    "last" (Some (5.0, 3.0)) (Timeseries.last ts);
  Alcotest.(check (option (float 1e-9))) "value_at 0.5" (Some 1.0)
    (Timeseries.value_at ts ~time:0.5);
  Alcotest.(check (option (float 1e-9))) "value_at 4.9" (Some 2.0)
    (Timeseries.value_at ts ~time:4.9);
  Alcotest.(check (option (float 1e-9))) "value_at 99" (Some 3.0)
    (Timeseries.value_at ts ~time:99.0);
  Alcotest.(check (option (float 1e-9))) "before first" None
    (Timeseries.value_at ts ~time:(-1.0))

let test_timeseries_rejects_backwards () =
  let ts = Timeseries.create () in
  Timeseries.record ts ~time:2.0 1.0;
  Alcotest.check_raises "backwards"
    (Invalid_argument "Timeseries.record: time went backwards") (fun () ->
      Timeseries.record ts ~time:1.0 0.0)

let test_timeseries_points_chronological () =
  let ts = Timeseries.create () in
  List.iter (fun t -> Timeseries.record ts ~time:t t) [ 0.0; 1.0; 2.0 ];
  Alcotest.(check bool) "ascending" true
    (let pts = Timeseries.points ts in
     pts = [| (0.0, 0.0); (1.0, 1.0); (2.0, 2.0) |])

(* --- Fairness ------------------------------------------------------------ *)

module Fairness = Test_support.Fairness

let test_jain_even () =
  feq "even is 1" 1.0 (Fairness.jain [| 5.0; 5.0; 5.0; 5.0 |]);
  feq "empty is 1" 1.0 (Fairness.jain [||]);
  feq "all-zero is 1" 1.0 (Fairness.jain [| 0.0; 0.0 |])

let test_jain_skewed () =
  (* One node takes everything among n: index = 1/n. *)
  feq "monopoly" 0.25 (Fairness.jain [| 8.0; 0.0; 0.0; 0.0 |]);
  let mixed = Fairness.jain [| 4.0; 2.0; 2.0; 0.0 |] in
  Alcotest.(check bool) "between" true (mixed > 0.25 && mixed < 1.0)

let test_jain_nonzero_ignores_idle () =
  feq "even among servers" 1.0 (Fairness.jain_nonzero [| 3.0; 0.0; 3.0; 0.0 |]);
  Alcotest.(check bool) "whole-array view lower" true
    (Fairness.jain [| 3.0; 0.0; 3.0; 0.0 |] < 1.0)

let test_peak_to_mean () =
  feq "even" 1.0 (Fairness.peak_to_mean [| 2.0; 2.0 |]);
  feq "skewed" (4.0 /. 3.0) (Fairness.peak_to_mean [| 2.0; 4.0 |]);
  feq "empty" 1.0 (Fairness.peak_to_mean [||])

let prop_jain_bounds =
  Test_support.qcheck_case ~name:"jain in [1/n, 1]"
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_inclusive 100.0))
    (fun xs ->
      let a = Array.of_list xs in
      let j = Fairness.jain a in
      let n = float_of_int (Array.length a) in
      j >= (1.0 /. n) -. 1e-9 && j <= 1.0 +. 1e-9)

let prop_jain_scale_invariant =
  Test_support.qcheck_case ~name:"jain scale-invariant"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 30) (float_range 0.1 100.0))
        (float_range 0.5 10.0))
    (fun (xs, k) ->
      let a = Array.of_list xs in
      let scaled = Array.map (fun x -> x *. k) a in
      Float.abs (Fairness.jain a -. Fairness.jain scaled) < 1e-9)

let () =
  Alcotest.run "metrics"
    [
      ( "histogram",
        [
          Alcotest.test_case "exact quantiles" `Quick
            test_histogram_exact_quantiles;
          Alcotest.test_case "sketch quantiles" `Quick
            test_histogram_sketch_quantiles;
          Alcotest.test_case "empty raises" `Quick test_histogram_empty_raises;
          Alcotest.test_case "buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "add allocates nothing" `Quick
            test_histogram_add_allocates_nothing;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "exact merge" `Quick test_histogram_exact_merge;
          prop_histogram_merge_matches_single_stream;
          prop_histogram_merge_vs_exact;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "record/query" `Quick test_timeseries_basic;
          Alcotest.test_case "monotone time" `Quick
            test_timeseries_rejects_backwards;
          Alcotest.test_case "chronological points" `Quick
            test_timeseries_points_chronological;
        ] );
      ( "fairness",
        [
          Alcotest.test_case "even" `Quick test_jain_even;
          Alcotest.test_case "skewed" `Quick test_jain_skewed;
          Alcotest.test_case "nonzero view" `Quick test_jain_nonzero_ignores_idle;
          Alcotest.test_case "peak-to-mean" `Quick test_peak_to_mean;
        ] );
      ( "properties",
        [
          prop_histogram_quantile_monotone;
          prop_histogram_sketch_tracks_exact;
          prop_jain_bounds;
          prop_jain_scale_invariant;
        ] );
    ]
