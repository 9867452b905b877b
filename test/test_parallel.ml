module Par = Lesslog_parallel.Par

let test_map_identity_small () =
  let a = Array.init 10 (fun i -> i) in
  Alcotest.(check (array int)) "doubled"
    (Array.map (fun x -> 2 * x) a)
    (Par.map ~domains:3 ~f:(fun x -> 2 * x) a)

let test_map_empty () =
  Alcotest.(check (array int)) "empty" [||] (Par.map ~f:(fun x -> x) [||])

let test_map_single_domain () =
  let a = Array.init 100 (fun i -> i) in
  Alcotest.(check (array int)) "sequential path"
    (Array.map succ a)
    (Par.map ~domains:1 ~f:succ a)

let test_map_more_domains_than_elements () =
  let a = [| 1; 2 |] in
  Alcotest.(check (array int)) "clamped" [| 2; 3 |]
    (Par.map ~domains:16 ~f:succ a)

let test_map_list () =
  Alcotest.(check (list int)) "list" [ 2; 4; 6 ]
    (Par.map_list ~domains:2 ~f:(fun x -> 2 * x) [ 1; 2; 3 ])

let test_map_exception_propagates () =
  let a = Array.init 20 (fun i -> i) in
  match
    Par.map ~domains:4 ~f:(fun x -> if x = 13 then failwith "boom" else x) a
  with
  | exception Failure msg -> Alcotest.(check string) "message" "boom" msg
  | _ -> Alcotest.fail "expected exception"

let test_exception_on_caller_stride_joins_all () =
  (* Worker 0 runs on the caller's own stack; if [f] raises there, the
     spawned domains must still be joined before the exception escapes.
     Index 0 is worker 0's first element, so the failure fires before any
     spawned worker could be joined by accident — every other worker's
     stride completing proves the join-all path ran. *)
  let n = 40 and domains = 4 in
  let processed = Atomic.make 0 in
  let f x =
    if x = 0 then failwith "w0"
    else begin
      Atomic.incr processed;
      x
    end
  in
  (match Par.map ~domains ~f (Array.init n (fun i -> i)) with
  | exception Failure msg -> Alcotest.(check string) "message" "w0" msg
  | _ -> Alcotest.fail "expected exception");
  (* Workers 1..3 own 30 of the 40 indices; worker 0 stopped at its
     first. All 30 must have run to completion. *)
  Alcotest.(check int) "other strides completed" 30 (Atomic.get processed)

let test_two_failures_lowest_worker_wins () =
  (* Indices 1 and 2 live on workers 1 and 2; when both raise, the
     re-raised exception is deterministically the lowest worker's. *)
  let f x =
    if x = 1 then failwith "worker1"
    else if x = 2 then failwith "worker2"
    else x
  in
  match Par.map ~domains:4 ~f (Array.init 40 (fun i -> i)) with
  | exception Failure msg -> Alcotest.(check string) "deterministic" "worker1" msg
  | _ -> Alcotest.fail "expected exception"

let test_recommended_domains_positive () =
  let d = Par.recommended_domains () in
  Alcotest.(check bool) "in range" true (d >= 1 && d <= 16)

(* --- Pool -------------------------------------------------------------- *)

let test_pool_barrier_reuse () =
  (* One pool, many barrier crossings: every worker runs exactly once
     per crossing, including worker 0 on the caller's stack. *)
  let domains = 3 in
  let pool = Par.Pool.create ~domains in
  Alcotest.(check int) "size" domains (Par.Pool.size pool);
  let counts = Array.make domains 0 in
  for _ = 1 to 50 do
    Par.Pool.run pool (fun w -> counts.(w) <- counts.(w) + 1)
  done;
  Par.Pool.shutdown pool;
  Alcotest.(check (array int)) "each worker ran every crossing"
    (Array.make domains 50) counts

let test_pool_exception_and_reuse () =
  let pool = Par.Pool.create ~domains:3 in
  (match
     Par.Pool.run pool (fun w -> if w >= 1 then failwith (Printf.sprintf "w%d" w))
   with
  | exception Failure msg ->
      Alcotest.(check string) "lowest worker wins" "w1" msg
  | () -> Alcotest.fail "expected exception");
  (* The barrier survived the failed crossing. *)
  let ok = Atomic.make 0 in
  Par.Pool.run pool (fun _ -> Atomic.incr ok);
  Par.Pool.shutdown pool;
  Alcotest.(check int) "usable after failure" 3 (Atomic.get ok)

let test_pool_shutdown () =
  let pool = Par.Pool.create ~domains:2 in
  Par.Pool.run pool (fun _ -> ());
  Par.Pool.shutdown pool;
  Par.Pool.shutdown pool;
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Par.Pool.run: pool is shut down") (fun () ->
      Par.Pool.run pool (fun _ -> ()))

let test_ensure_pool_grows () =
  let p2 = Par.ensure_pool 2 in
  Alcotest.(check bool) "at least 2" true (Par.Pool.size p2 >= 2);
  let p3 = Par.ensure_pool 3 in
  Alcotest.(check bool) "grown to 3" true (Par.Pool.size p3 >= 3);
  let p1 = Par.ensure_pool 1 in
  Alcotest.(check bool) "never shrinks" true (Par.Pool.size p1 >= 3)

let test_nested_map_falls_back () =
  (* A map inside a pool job must not re-enter the pool. *)
  let outer = Array.init 6 (fun i -> i) in
  let got =
    Par.map ~domains:3
      ~f:(fun x ->
        Array.fold_left ( + ) 0
          (Par.map ~domains:3 ~f:(fun y -> (x * 10) + y) [| 1; 2; 3 |]))
      outer
  in
  Alcotest.(check (array int)) "nested"
    (Array.map (fun x -> (30 * x) + 6) outer)
    got

(* --- Barrier ------------------------------------------------------------ *)

let test_barrier_single_party () =
  let b = Par.Barrier.create ~parties:1 () in
  Alcotest.(check int) "parties" 1 (Par.Barrier.parties b);
  let ran = ref 0 in
  for _ = 1 to 5 do
    ignore (Par.Barrier.arrive b ~last:(fun () -> incr ran) : int)
  done;
  Alcotest.(check int) "last runs every phase" 5 !ran

let test_barrier_rejects_zero_parties () =
  Alcotest.check_raises "parties < 1"
    (Invalid_argument "Par.Barrier.create: parties") (fun () ->
      ignore (Par.Barrier.create ~parties:0 ()))

let test_barrier_phases_in_pool () =
  (* Workers cross many phases inside one pool job. Per phase, [last]
     runs exactly once and its plain writes (the shared cell) are
     visible to every party after release — the message-passing edge the
     sharded engine's window loop rides. *)
  let parties = 3 and phases = 200 in
  let pool = Par.Pool.create ~domains:parties in
  let b = Par.Barrier.create ~spin:16 ~parties () in
  let cell = ref 0 in
  let last_runs = Atomic.make 0 in
  let bad = Atomic.make 0 in
  Par.Pool.run pool (fun _w ->
      for p = 1 to phases do
        ignore
          (Par.Barrier.arrive b ~last:(fun () ->
               Atomic.incr last_runs;
               cell := p)
            : int);
        if !cell <> p then Atomic.incr bad
      done);
  Par.Pool.shutdown pool;
  Alcotest.(check int) "one decision per phase" phases (Atomic.get last_runs);
  Alcotest.(check int) "decision visible to all parties" 0 (Atomic.get bad)

let test_barrier_interleaves_with_work () =
  (* Unequal per-party workloads: the barrier must still line everyone
     up, phase after phase, and the fold in [last] must see every
     party's contribution of that phase. *)
  let parties = 4 and phases = 50 in
  let pool = Par.Pool.create ~domains:parties in
  let b = Par.Barrier.create ~parties () in
  let slots = Array.make parties 0 in
  let sum_bad = Atomic.make 0 in
  Par.Pool.run pool (fun w ->
      for p = 1 to phases do
        for _ = 0 to w * 100 do
          ignore (Sys.opaque_identity w)
        done;
        slots.(w) <- p;
        ignore
          (Par.Barrier.arrive b ~last:(fun () ->
               if Array.exists (fun v -> v <> p) slots then
                 Atomic.incr sum_bad)
            : int)
      done);
  Par.Pool.shutdown pool;
  Alcotest.(check int) "every phase folded all parties" 0 (Atomic.get sum_bad)

let test_barrier_block_stamp () =
  (* With no spinning, a party that arrives first blocks, and [arrive]
     returns the clock reading at which it did, inside its own wait; the
     last arriver never blocks and returns -1. Worker 1 arrives only
     well after worker 0 has announced its arrival. *)
  let pool = Par.Pool.create ~domains:2 in
  let b = Par.Barrier.create ~spin:0 ~parties:2 () in
  let arriving = Atomic.make false in
  let before = ref 0 and stamp = ref 0 and after = ref 0 and last = ref 0 in
  Par.Pool.run pool (fun w ->
      if w = 0 then begin
        before := Par.now_ns ();
        Atomic.set arriving true;
        stamp := Par.Barrier.arrive b ~last:ignore;
        after := Par.now_ns ()
      end
      else begin
        while not (Atomic.get arriving) do
          Domain.cpu_relax ()
        done;
        let until = Par.now_ns () + 50_000_000 in
        while Par.now_ns () < until do
          Domain.cpu_relax ()
        done;
        last := Par.Barrier.arrive b ~last:ignore
      end);
  Par.Pool.shutdown pool;
  Alcotest.(check int) "last arriver: -1" (-1) !last;
  Alcotest.(check bool) "first arriver blocked inside its wait" true
    (!before <= !stamp && !stamp <= !after)

let prop_map_matches_sequential =
  Test_support.qcheck_case ~count:50 ~name:"parallel map = Array.map"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 200) (int_range (-1000) 1000))
        (int_range 1 8))
    (fun (xs, domains) ->
      let a = Array.of_list xs in
      Par.map ~domains ~f:(fun x -> (x * 31) lxor 7) a
      = Array.map (fun x -> (x * 31) lxor 7) a)

let test_deterministic_experiment_under_parallelism () =
  (* The harness guarantee: figure sweeps give identical results at any
     domain count because every point is independently seeded. *)
  let config = { Lesslog_harness.Experiments.quick with domains = 1 } in
  let seq = Lesslog_harness.Experiments.fig5 ~config () in
  let config = { config with domains = 4 } in
  let par = Lesslog_harness.Experiments.fig5 ~config () in
  List.iter2
    (fun a b ->
      Alcotest.(check string) "label" (Lesslog_report.Series.label a)
        (Lesslog_report.Series.label b);
      Alcotest.(check (array (float 1e-9)))
        "identical ys"
        (Lesslog_report.Series.ys a)
        (Lesslog_report.Series.ys b))
    seq par

let () =
  Alcotest.run "parallel"
    [
      ( "par",
        [
          Alcotest.test_case "map" `Quick test_map_identity_small;
          Alcotest.test_case "empty" `Quick test_map_empty;
          Alcotest.test_case "one domain" `Quick test_map_single_domain;
          Alcotest.test_case "domains > n" `Quick
            test_map_more_domains_than_elements;
          Alcotest.test_case "map_list" `Quick test_map_list;
          Alcotest.test_case "exception propagates" `Quick
            test_map_exception_propagates;
          Alcotest.test_case "caller-stride failure joins all" `Quick
            test_exception_on_caller_stride_joins_all;
          Alcotest.test_case "two failures: lowest worker wins" `Quick
            test_two_failures_lowest_worker_wins;
          Alcotest.test_case "recommended domains" `Quick
            test_recommended_domains_positive;
          Alcotest.test_case "parallel sweeps deterministic" `Slow
            test_deterministic_experiment_under_parallelism;
        ] );
      ( "pool",
        [
          Alcotest.test_case "barrier reuse" `Quick test_pool_barrier_reuse;
          Alcotest.test_case "exception then reuse" `Quick
            test_pool_exception_and_reuse;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
          Alcotest.test_case "ensure_pool grows" `Quick test_ensure_pool_grows;
          Alcotest.test_case "nested map sequential" `Quick
            test_nested_map_falls_back;
        ] );
      ( "barrier",
        [
          Alcotest.test_case "single party" `Quick test_barrier_single_party;
          Alcotest.test_case "rejects zero parties" `Quick
            test_barrier_rejects_zero_parties;
          Alcotest.test_case "fused phases in a pool job" `Quick
            test_barrier_phases_in_pool;
          Alcotest.test_case "unequal work per party" `Quick
            test_barrier_interleaves_with_work;
          Alcotest.test_case "blocked party stamps its wait" `Quick
            test_barrier_block_stamp;
        ] );
      ("properties", [ prop_map_matches_sequential ]);
    ]
