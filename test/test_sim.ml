module Ladder = Lesslog_sim.Ladder_queue
module Engine = Lesslog_sim.Engine

(* --- Heap -------------------------------------------------------------- *)

let test_heap_ordering () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2 ];
  Alcotest.(check int) "length" 6 (Heap.length h);
  Alcotest.(check (option int)) "peek" (Some 1) (Heap.peek h);
  Alcotest.(check (list int)) "drain sorted" [ 1; 2; 3; 5; 8; 9 ]
    (List.init 6 (fun _ -> Option.get (Heap.pop h)))

let test_heap_empty () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "pop" None (Heap.pop h);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Heap.pop_exn: empty")
    (fun () -> ignore (Heap.pop_exn h))

let test_heap_to_sorted_list_nondestructive () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 3; 1; 2 ];
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (Heap.to_sorted_list h);
  Alcotest.(check int) "untouched" 3 (Heap.length h)

let test_heap_clear () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 1; 2 ];
  Heap.clear h;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let prop_heap_sorts =
  Test_support.qcheck_case ~name:"heap drain = List.sort"
    QCheck2.Gen.(list_size (int_range 0 200) (int_range (-1000) 1000))
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      Heap.to_sorted_list h = List.sort compare xs)

let prop_heap_interleaved =
  Test_support.qcheck_case ~name:"interleaved push/pop keeps min order"
    QCheck2.Gen.(list_size (int_range 0 100) (option (int_range 0 1000)))
    (fun ops ->
      (* Some x = push x, None = pop; popped sequence must never exceed the
         current min of remaining contents. *)
      let h = Heap.create ~cmp:compare in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some x ->
              Heap.push h x;
              model := x :: !model;
              true
          | None -> (
              match Heap.pop h with
              | None -> !model = []
              | Some v ->
                  let min_model = List.fold_left min max_int !model in
                  let ok = v = min_model in
                  model := List.filter (( <> ) v) !model @ List.init
                    (List.length (List.filter (( = ) v) !model) - 1)
                    (fun _ -> v);
                  ok))
        ops)

(* --- Ladder queue ------------------------------------------------------- *)

(* The contract under test: for the same pushes, the ladder queue pops in
   exactly the order of a binary heap keyed by (Float.compare time,
   Int.compare seq) — the differential oracle of the scheduler swap. *)

let event_cmp (t1, s1) (t2, s2) =
  match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c

let ladder_drain lq =
  let rec go acc =
    if Ladder.pop lq then go ((Ladder.time lq, Ladder.seq lq) :: acc)
    else List.rev acc
  in
  go []

let ladder_of_times ?buckets ?split_threshold times =
  let lq = Ladder.create ?buckets ?split_threshold () in
  List.iteri
    (fun i t -> Ladder.push lq ~time:t ~seq:i ~h:0 ~a:i ~b:0 ~x:t)
    times;
  lq

let oracle_order times =
  let h = Heap.create ~cmp:event_cmp in
  List.iteri (fun i t -> Heap.push h (t, i)) times;
  Heap.to_sorted_list h

let test_ladder_basic () =
  let lq = ladder_of_times [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  Alcotest.(check int) "length" 5 (Ladder.length lq);
  Alcotest.(check (list (pair (float 0.0) int)))
    "sorted"
    [ (1.0, 1); (2.0, 3); (3.0, 2); (4.0, 4); (5.0, 0) ]
    (ladder_drain lq);
  Alcotest.(check bool) "drained" true (Ladder.is_empty lq)

let test_ladder_fifo_ties () =
  let lq = ladder_of_times [ 1.0; 1.0; 1.0; 0.5; 1.0 ] in
  Alcotest.(check (list (pair (float 0.0) int)))
    "seq breaks ties"
    [ (0.5, 3); (1.0, 0); (1.0, 1); (1.0, 2); (1.0, 4) ]
    (ladder_drain lq)

let test_ladder_payload_roundtrip () =
  let lq = Ladder.create () in
  Ladder.push lq ~time:2.0 ~seq:0 ~h:7 ~a:123 ~b:456 ~x:3.25;
  Ladder.push lq ~time:1.0 ~seq:1 ~h:8 ~a:(-9) ~b:0 ~x:0.0;
  Alcotest.(check bool) "pop" true (Ladder.pop lq);
  Alcotest.(check int) "h" 8 (Ladder.handler lq);
  Alcotest.(check int) "a" (-9) (Ladder.arg_a lq);
  Alcotest.(check bool) "pop2" true (Ladder.pop lq);
  Alcotest.(check int) "h2" 7 (Ladder.handler lq);
  Alcotest.(check int) "a2" 123 (Ladder.arg_a lq);
  Alcotest.(check int) "b2" 456 (Ladder.arg_b lq);
  Alcotest.(check (float 0.0)) "x2" 3.25 (Ladder.arg_x lq);
  Alcotest.(check bool) "empty" false (Ladder.pop lq)

let ladder_matches_oracle ?buckets ?split_threshold times =
  ladder_drain (ladder_of_times ?buckets ?split_threshold times)
  = oracle_order times

(* Words [f] allocates: its minor words plus the words it allocates
   directly on the major heap, where every array over 256 words goes and
   [Gc.minor_words] never sees it. Direct major words are
   [major_words - promoted_words], read after a minor collection has
   promoted what it will. [Gc.counters]' own result is allocated before
   the minor count is read. *)
let words_of f =
  Gc.minor ();
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let r = f () in
  let minor = Gc.minor_words () -. minor0 in
  Gc.minor ();
  let _, promoted1, major1 = Gc.counters () in
  (minor +. (major1 -. major0) -. (promoted1 -. promoted0), r)

(* One round of a drain over a warm queue. The near cluster is dense
   enough to split a bucket twice and arrives shuffled, so dumped buckets
   are sorted; the outliers spread over the rest of the first rung. After
   a few pops, events at the head's own time go to the open heap and a
   far batch lands beyond the rung, to be refilled mid-drain. All times
   are dyadic, so every round with a new [base] lays out identically.
   Returns the words the drain allocated ({!words_of}) and the events
   popped. *)
let ladder_round lq ~seq ~base =
  let push time =
    Ladder.push lq ~time ~seq:!seq ~h:0 ~a:0 ~b:0 ~x:time;
    incr seq
  in
  for i = 0 to 999 do
    push (base +. (float_of_int (i * 7919 mod 1000) /. 1024.0))
  done;
  for i = 0 to 199 do
    push (base +. 4096.0 +. (8.0 *. float_of_int i))
  done;
  for _ = 1 to 10 do
    ignore (Ladder.pop lq)
  done;
  let head = Ladder.time lq in
  for _ = 1 to 50 do
    push head;
    push (base +. 131072.0)
  done;
  let popped = ref 10 in
  let words, () =
    words_of (fun () ->
        while Ladder.pop lq do
          incr popped
        done)
  in
  (words, !popped)

let test_ladder_warm_pop_allocates_nothing () =
  let lq = Ladder.create () and seq = ref 0 in
  ignore (ladder_round lq ~seq ~base:0.0);
  ignore (ladder_round lq ~seq ~base:1048576.0);
  let words, popped = ladder_round lq ~seq ~base:2097152.0 in
  Alcotest.(check int) "every event popped" 1300 popped;
  Alcotest.(check (float 0.0)) "minor + direct major words" 0.0 words

(* A long-horizon hold model: [n] timers, each firing [k] times, the next
   firing 0.5 to 1.5 after the last, and one sentinel past them all. The
   first far refill fits one rung to the sentinel's horizon, so every
   rescheduled timer lands in that rung, whose buckets each fill once
   and are never refilled. The queue's memory must follow the [n] events
   it holds, not the [n k] that pass through it. Firing times are built
   beforehand as boxed floats: an out-of-line push ([-opaque] dev
   builds) would box a computed time for every event. *)
let test_ladder_hold_memory_follows_pending () =
  let n = 16384 and k = 24 in
  let rng = Random.State.make [| 33 |] in
  let schedule =
    Array.init n (fun _ ->
        let t = ref (Random.State.float rng 1.0) in
        List.init k (fun _ ->
            let fire = !t in
            t := fire +. 0.5 +. Random.State.float rng 1.0;
            fire))
  in
  let words, popped =
    words_of (fun () ->
        let lq = Ladder.create () and seq = ref 0 in
        let next j =
          match schedule.(j) with
          | [] -> ()
          | time :: later ->
              schedule.(j) <- later;
              Ladder.push lq ~time ~seq:!seq ~h:0 ~a:j ~b:0 ~x:0.0;
              incr seq
        in
        for j = 0 to n - 1 do
          next j
        done;
        Ladder.push lq ~time:64.0 ~seq:!seq ~h:0 ~a:(-1) ~b:0 ~x:0.0;
        let popped = ref 0 in
        while Ladder.pop lq do
          incr popped;
          if Ladder.arg_a lq >= 0 then next (Ladder.arg_a lq)
        done;
        !popped)
  in
  Alcotest.(check int) "every firing popped" ((n * k) + 1) popped;
  if words > 96.0 *. float_of_int n then
    Alcotest.failf "%.0f words for %d pending events (bound: 96 per event)"
      words n

let test_ladder_pop_until_boundary () =
  let lq = ladder_of_times [ 1.0; 2.0; 2.0; 3.0 ] in
  Alcotest.(check bool) "below bound" true (Ladder.pop_until lq ~bound:2.0);
  Alcotest.(check (float 0.0)) "popped 1.0" 1.0 (Ladder.time lq);
  (* Strictly below: events at exactly the bound stay queued. *)
  Alcotest.(check bool) "at bound stays" false (Ladder.pop_until lq ~bound:2.0);
  Alcotest.(check int) "untouched" 3 (Ladder.length lq);
  Alcotest.(check (float 0.0)) "min_time" 2.0 (Ladder.min_time lq);
  Alcotest.(check bool) "next window" true (Ladder.pop_until lq ~bound:2.5);
  Alcotest.(check bool) "fifo tie" true (Ladder.pop_until lq ~bound:2.5);
  Alcotest.(check bool) "window drained" false (Ladder.pop_until lq ~bound:2.5);
  Alcotest.(check bool) "empty queue" false
    (Ladder.pop_until (Ladder.create ()) ~bound:10.0)

let test_heap_pop_if () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 3; 1; 2 ];
  Alcotest.(check (option int)) "accepts" (Some 1) (Heap.pop_if h (fun v -> v < 2));
  Alcotest.(check (option int)) "rejects" None (Heap.pop_if h (fun v -> v < 2));
  Alcotest.(check int) "untouched" 2 (Heap.length h);
  Alcotest.(check (option int)) "empty" None
    (Heap.pop_if (Heap.create ~cmp:compare) (fun _ -> true))

(* Block-boundary stressors for the bucket chains (64-slot blocks). A
   burst of up to 200 events at one time cannot split, so it is dumped
   as a chain of up to four blocks; appended after [times], it also
   shares its time with some of them. *)
let with_burst times (at, n) = times @ List.init n (fun _ -> at)

let burst_gen hi = QCheck2.Gen.(pair (float_bound_inclusive hi) (int_range 0 200))

(* Epoch-wise draining — [while pop_until ~bound] windows chained over
   the whole queue — must visit exactly the full-drain order, with the
   heap's [pop_if] as the mirror oracle. Up to 600 events over four
   buckets put several blocks in a bucket, which then splits. *)
let prop_ladder_pop_until_epochs =
  Test_support.qcheck_case ~name:"epoch windows = full drain (ladder & heap)"
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 600) (float_bound_inclusive 50.0))
        (burst_gen 50.0) (float_range 0.1 10.0))
    (fun (times, burst, width) ->
      let times = with_burst times burst in
      let lq = ladder_of_times ~buckets:4 ~split_threshold:4 times in
      let h = Heap.create ~cmp:event_cmp in
      List.iteri (fun i t -> Heap.push h (t, i)) times;
      let out_l = ref [] and out_h = ref [] in
      while not (Ladder.is_empty lq) do
        let bound = Ladder.min_time lq +. width in
        while Ladder.pop_until lq ~bound do
          out_l := (Ladder.time lq, Ladder.seq lq) :: !out_l
        done;
        let rec drain () =
          match Heap.pop_if h (fun (t, _) -> t < bound) with
          | None -> ()
          | Some ev ->
              out_h := ev :: !out_h;
              drain ()
        in
        drain ()
      done;
      Heap.is_empty h
      && List.rev !out_l = oracle_order times
      && !out_h = !out_l)

(* The run is read in place from its slab blocks, which go back to the
   free list only once it is drained. Ops relative to [now], the time of
   the last event popped:
   - [Push d]: one event at [now + d]; a small [d] lands inside the
     bucket being drained (the open heap), a negative one below popped
     times;
   - [Burst (d, n)]: [n] events at one time [now + d]. More than the
     split threshold cannot split (no spread) and is drained as one run;
     pushed while a run is half drained, its blocks can grow the slab;
   - [Pop], and [Window w]: [pop_until (now + w)] until it refuses, which
     mostly stops in the middle of a run.
   Every popped field must match the heap's, so a queue that handed a
   run's blocks back early, letting a push overwrite a slot not yet
   popped, fails here. So does one that routes by a child rung's
   computed end: pushed at that end, an event its parent indexes into
   the split bucket was filed there and lost. Times are multiples of
   1/8, which makes ties. *)
type run_op = Push of float | Burst of float * int | Pop | Window of float

let run_op_gen =
  QCheck2.Gen.(
    let eighths lo hi = map (fun k -> float_of_int k /. 8.0) (int_range lo hi) in
    frequency
      [
        (5, map (fun d -> Push d) (eighths (-16) 320));
        (1, map2 (fun d n -> Burst (d, n)) (eighths 0 160) (int_range 1 200));
        (5, return Pop);
        (1, map (fun w -> Window w) (eighths 0 32));
      ])

let prop_ladder_in_place_run =
  Test_support.qcheck_case ~name:"ladder = heap (in-place run, all fields)"
    QCheck2.Gen.(
      pair
        (pair (int_range 2 16) (int_range 4 32))
        (list_size (int_range 0 300) run_op_gen))
    (fun ((buckets, split_threshold), ops) ->
      let lq = Ladder.create ~buckets ~split_threshold () in
      let h =
        Heap.create ~cmp:(fun (t1, s1, _, _, _, _) (t2, s2, _, _, _, _) ->
            event_cmp (t1, s1) (t2, s2))
      in
      let seq = ref 0 and now = ref 0.0 and ok = ref true in
      let push time =
        let s = !seq in
        let ev = (time, s, s mod 7, 3 * s, -s, float_of_int s /. 3.0) in
        let _, _, hd, a, b, x = ev in
        Ladder.push lq ~time ~seq:s ~h:hd ~a ~b ~x;
        Heap.push h ev;
        incr seq
      in
      let popped ev =
        let time, s, hd, a, b, x = ev in
        now := time;
        ok :=
          !ok && Ladder.time lq = time && Ladder.seq lq = s
          && Ladder.handler lq = hd && Ladder.arg_a lq = a
          && Ladder.arg_b lq = b && Ladder.arg_x lq = x
      in
      let pop () =
        match (Heap.pop h, Ladder.pop lq) with
        | None, false -> ()
        | Some ev, true -> popped ev
        | _ -> ok := false
      in
      List.iter
        (function
          | Push d -> push (!now +. d)
          | Burst (d, n) ->
              let time = !now +. d in
              for _ = 1 to n do
                push time
              done
          | Pop -> pop ()
          | Window w ->
              let bound = !now +. w in
              let rec drain () =
                match
                  ( Heap.pop_if h (fun (t, _, _, _, _, _) -> t < bound),
                    Ladder.pop_until lq ~bound )
                with
                | None, false -> ()
                | Some ev, true ->
                    popped ev;
                    drain ()
                | _ -> ok := false
              in
              drain ())
        ops;
      while !ok && not (Heap.is_empty h) do
        pop ()
      done;
      !ok && Ladder.is_empty lq)

let test_engine_step_below_and_advance () =
  let e = Engine.create () in
  let seen = ref [] in
  let h = Engine.register e (fun a _ -> seen := a :: !seen) in
  List.iter
    (fun (t, a) -> Engine.post_at e ~time:t ~h ~a ~b:0 ~x:0.0)
    [ (1.0, 1); (2.0, 2); (3.0, 3) ];
  Alcotest.(check (option (float 0.0))) "next_time" (Some 1.0)
    (Engine.next_time e);
  Alcotest.(check bool) "below" true (Engine.step_below e ~bound:2.0);
  (* Head at the bound: nothing runs, the clock stays put. *)
  Alcotest.(check bool) "at bound" false (Engine.step_below e ~bound:2.0);
  Alcotest.(check (float 0.0)) "clock" 1.0 (Engine.now e);
  Engine.drain_below e ~bound:10.0;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !seen);
  Alcotest.(check (option (float 0.0))) "drained" None (Engine.next_time e);
  Engine.advance_to e ~time:7.5;
  Alcotest.(check (float 0.0)) "advanced" 7.5 (Engine.now e);
  Engine.advance_to e ~time:2.0;
  Alcotest.(check (float 0.0)) "never backwards" 7.5 (Engine.now e)

let prop_ladder_uniform =
  Test_support.qcheck_case ~name:"ladder = heap (uniform times)"
    QCheck2.Gen.(
      pair
        (pair (int_range 2 64) (int_range 4 160))
        (list_size (int_range 0 600) (no_shrink (float_bound_inclusive 100.0))))
    (fun ((buckets, split_threshold), times) ->
      (* Few buckets hold several blocks each. A threshold above a block
         dumps a multi-block bucket whole; a low one splits it, and the
         child's first block can find the free list empty and grow the
         slab in the middle of the scatter. Only the list shrinks:
         shrinking up to 600 times one by one took minutes to report a
         failure. *)
      ladder_matches_oracle ~buckets ~split_threshold times)

let prop_ladder_duplicates =
  Test_support.qcheck_case ~name:"ladder = heap (clustered duplicate times)"
    QCheck2.Gen.(
      pair (list_size (int_range 0 400) (float_bound_inclusive 8.0))
        (burst_gen 8.0))
    (fun (xs, (at, n)) ->
      (* Quarter-resolution rounding manufactures exact duplicates, the
         FIFO-tie stressor. Small rungs force splits and refills. *)
      let quarter x = Float.round (x *. 4.0) /. 4.0 in
      let times = with_burst (List.map quarter xs) (quarter at, n) in
      ladder_matches_oracle ~buckets:4 ~split_threshold:4 times)

let prop_ladder_wide_range =
  Test_support.qcheck_case ~name:"ladder = heap (wide-range times)"
    QCheck2.Gen.(list_size (int_range 0 300) (float_bound_inclusive 100.0))
    (fun xs ->
      (* x^4 spreads times over ~8 orders of magnitude: far-band spills,
         refills, and bucket splits all trigger. *)
      let times = List.map (fun x -> x *. x *. x *. x) xs in
      ladder_matches_oracle ~buckets:8 ~split_threshold:8 times)

let prop_ladder_interleaved =
  Test_support.qcheck_case ~name:"interleaved ladder pops = heap pops"
    QCheck2.Gen.(
      list_size (int_range 0 300) (option (float_bound_inclusive 50.0)))
    (fun ops ->
      (* Some t = push at time t, None = pop: pushes interleave with pops
         (including below already-popped times, as a zero-delay message
         would) and every pop must agree with the oracle heap. *)
      let lq = Ladder.create ~buckets:8 ~split_threshold:8 () in
      let h = Heap.create ~cmp:event_cmp in
      let seq = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | Some t ->
              Ladder.push lq ~time:t ~seq:!seq ~h:0 ~a:0 ~b:0 ~x:0.0;
              Heap.push h (t, !seq);
              incr seq;
              true
          | None -> (
              match (Heap.pop h, Ladder.pop lq) with
              | None, false -> true
              | Some (t, s), true -> Ladder.time lq = t && Ladder.seq lq = s
              | _ -> false))
        ops)

(* Degenerate-case stressors: run an op list (Some t = push, None = pop)
   against the ladder and the oracle heap and demand identical pop
   streams. Tiny rungs make every structural edge (splits, far-heap
   refills, current-rung boundaries) reachable with short inputs. *)
let ladder_agrees_on_ops ops =
  let lq = Ladder.create ~buckets:4 ~split_threshold:4 () in
  let h = Heap.create ~cmp:event_cmp in
  let seq = ref 0 in
  List.for_all
    (fun op ->
      match op with
      | Some t ->
          Ladder.push lq ~time:t ~seq:!seq ~h:0 ~a:0 ~b:0 ~x:0.0;
          Heap.push h (t, !seq);
          incr seq;
          true
      | None -> (
          match (Heap.pop h, Ladder.pop lq) with
          | None, false -> true
          | Some (t, s), true -> Ladder.time lq = t && Ladder.seq lq = s
          | _ -> false))
    ops

let prop_ladder_all_equal =
  Test_support.qcheck_case ~name:"ladder = heap (all-equal timestamps)"
    QCheck2.Gen.(
      pair (float_bound_inclusive 10.0) (int_range 0 200))
    (fun (t, n) ->
      (* Every event in one bucket: pops must come back in pure seq
         (FIFO) order however often the rung splits. *)
      ladder_matches_oracle ~buckets:4 ~split_threshold:4
        (List.init n (fun _ -> t)))

let prop_ladder_far_heap_refill =
  Test_support.qcheck_case ~name:"ladder = heap (far-heap refill at epochs)"
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 50) (float_bound_inclusive 1.0))
        (list_size (int_range 1 50)
           (map (fun x -> 1000.0 +. (x *. 1000.0)) (float_bound_inclusive 4.0)))
        (int_range 0 50))
    (fun (near, far, pops) ->
      (* Near events seed the rungs, far events land in the far heap;
         draining past the near horizon forces refill-scatter, and a
         second far batch after partial drain lands in a rebuilt epoch. *)
      let ops =
        List.map (fun t -> Some t) near
        @ List.map (fun t -> Some t) far
        @ List.init pops (fun _ -> None)
        @ List.map (fun t -> Some (t +. 5000.0)) far
        @ List.init (List.length near + (2 * List.length far)) (fun _ -> None)
      in
      ladder_agrees_on_ops ops)

let prop_ladder_rung_edge =
  Test_support.qcheck_case ~name:"ladder = heap (push/pop at rung edge)"
    QCheck2.Gen.(
      list_size (int_range 0 200)
        (option (triple (int_range 0 64) (int_range (-1) 1) bool)))
    (fun ops ->
      (* Timestamps sit exactly on bucket-width multiples or one ulp to
         either side — the boundary where a push races the current rung's
         drain position. *)
      let ops =
        List.map
          (Option.map (fun (k, side, fine) ->
               let base = float_of_int k *. 0.125 in
               let eps = if fine then epsilon_float else 1e-9 in
               base +. (float_of_int side *. eps *. Float.max 1.0 base)))
          ops
      in
      ladder_agrees_on_ops ops)

(* --- Engine ------------------------------------------------------------ *)

(* An engine with one handler that logs each event's [a] word. *)
let logging_engine () =
  let e = Engine.create () in
  let log = ref [] in
  let h = Engine.register e (fun a _ -> log := a :: !log) in
  (e, h, fun () -> List.rev !log)

let test_engine_time_ordering () =
  let e, h, log = logging_engine () in
  Engine.post e ~delay:2.0 ~h ~a:2 ~b:0 ~x:0.0;
  Engine.post e ~delay:1.0 ~h ~a:1 ~b:0 ~x:0.0;
  Engine.post e ~delay:3.0 ~h ~a:3 ~b:0 ~x:0.0;
  Engine.run e;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (log ());
  Alcotest.(check (float 1e-9)) "clock" 3.0 (Engine.now e)

let test_engine_fifo_at_same_time () =
  let e, h, log = logging_engine () in
  for i = 1 to 5 do
    Engine.post_at e ~time:1.0 ~h ~a:i ~b:0 ~x:0.0
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo ties" [ 1; 2; 3; 4; 5 ] (log ())

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  let h = ref (-1) in
  h :=
    Engine.register e (fun a _ ->
        log := a :: !log;
        if a = 0 then Engine.post e ~delay:0.5 ~h:!h ~a:1 ~b:0 ~x:0.0);
  Engine.post e ~delay:1.0 ~h:!h ~a:0 ~b:0 ~x:0.0;
  Engine.run e;
  Alcotest.(check (list int)) "outer then inner" [ 0; 1 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock" 1.5 (Engine.now e)

let test_engine_until () =
  let e, h, log = logging_engine () in
  Engine.post e ~delay:1.0 ~h ~a:1 ~b:0 ~x:0.0;
  Engine.post e ~delay:10.0 ~h ~a:10 ~b:0 ~x:0.0;
  Engine.run ~until:5.0 e;
  Alcotest.(check (list int)) "only early event" [ 1 ] (log ());
  Alcotest.(check (float 1e-9)) "clock clamped" 5.0 (Engine.now e);
  Alcotest.(check int) "late event queued" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int)) "late event runs" [ 1; 10 ] (log ())

let test_engine_until_idle_advances_clock () =
  let e = Engine.create () in
  Engine.run ~until:7.0 e;
  Alcotest.(check (float 1e-9)) "clock" 7.0 (Engine.now e)

let test_engine_max_events () =
  let e = Engine.create () in
  let h = ref (-1) in
  h :=
    Engine.register e (fun _ _ ->
        Engine.post e ~delay:1.0 ~h:!h ~a:0 ~b:0 ~x:0.0);
  Engine.post e ~delay:1.0 ~h:!h ~a:0 ~b:0 ~x:0.0;
  Engine.run ~max_events:100 e;
  Alcotest.(check int) "bounded" 100 (Engine.events_executed e)

let test_engine_rejects_past () =
  let e, h, _ = logging_engine () in
  Engine.post e ~delay:5.0 ~h ~a:0 ~b:0 ~x:0.0;
  ignore (Engine.step e);
  Alcotest.check_raises "past" (Invalid_argument "Engine.post_at: time in the past")
    (fun () -> Engine.post_at e ~time:1.0 ~h ~a:0 ~b:0 ~x:0.0);
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.post: negative delay") (fun () ->
      Engine.post e ~delay:(-1.0) ~h ~a:0 ~b:0 ~x:0.0)

(* NaN and negative times are rejected by every entry point before
   anything is queued. Accepted, a NaN time would pop out of (time, seq)
   order and move the clock backwards. *)
let test_engine_rejects_nan_and_negative () =
  let cases =
    [
      ("post nan", "Engine.post: negative delay",
       fun e h -> Engine.post e ~delay:Float.nan ~h ~a:2 ~b:0 ~x:0.0);
      ("post negative", "Engine.post: negative delay",
       fun e h -> Engine.post e ~delay:(-0.5) ~h ~a:2 ~b:0 ~x:0.0);
      ("post_at nan", "Engine.post_at: time in the past",
       fun e h -> Engine.post_at e ~time:Float.nan ~h ~a:2 ~b:0 ~x:0.0);
      ("post_at negative", "Engine.post_at: time in the past",
       fun e h -> Engine.post_at e ~time:(-1.0) ~h ~a:2 ~b:0 ~x:0.0);
      ("post_batch nan", "Engine.post_batch: time in the past",
       fun e h ->
         Engine.post_batch e ~len:2 ~time:[| 2.0; Float.nan |] ~h:[| h; h |]
           ~a:[| 2; 3 |] ~b:[| 0; 0 |] ~x:[| 0.0; 0.0 |]);
      ("post_batch negative", "Engine.post_batch: time in the past",
       fun e h ->
         Engine.post_batch e ~len:1 ~time:[| -1.0 |] ~h:[| h |] ~a:[| 2 |]
           ~b:[| 0 |] ~x:[| 0.0 |]);
    ]
  in
  List.iter
    (fun (name, msg, bad) ->
      let e, h, log = logging_engine () in
      Engine.post e ~delay:1.0 ~h ~a:1 ~b:0 ~x:0.0;
      ignore (Engine.step e);
      Alcotest.check_raises name (Invalid_argument msg) (fun () -> bad e h);
      Alcotest.(check int) (name ^ ": nothing queued") 0 (Engine.pending e);
      Engine.post e ~delay:0.5 ~h ~a:4 ~b:0 ~x:0.0;
      Engine.run e;
      Alcotest.(check (list int)) (name ^ ": order") [ 1; 4 ] (log ());
      Alcotest.(check (float 0.0)) (name ^ ": clock") 1.5 (Engine.now e))
    cases

let test_engine_post_rejects_past () =
  (* A rejected post enqueues nothing, and a post at exactly [now] is
     not in the past. *)
  let e, h, log = logging_engine () in
  Engine.post e ~delay:5.0 ~h ~a:0 ~b:0 ~x:0.0;
  ignore (Engine.step e);
  Alcotest.check_raises "past" (Invalid_argument "Engine.post_at: time in the past")
    (fun () -> Engine.post_at e ~time:4.999 ~h ~a:1 ~b:0 ~x:0.0);
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.post: negative delay") (fun () ->
      Engine.post e ~delay:(-1e-9) ~h ~a:2 ~b:0 ~x:0.0);
  Alcotest.(check int) "nothing queued" 0 (Engine.pending e);
  Engine.post_at e ~time:(Engine.now e) ~h ~a:3 ~b:0 ~x:0.0;
  Engine.post e ~delay:0.0 ~h ~a:4 ~b:0 ~x:0.0;
  Engine.run e;
  Alcotest.(check (list int)) "only accepted posts ran" [ 0; 3; 4 ] (log ());
  Alcotest.(check (float 1e-9)) "clock" 5.0 (Engine.now e)

let test_engine_packed_dispatch () =
  (* Each event reaches its own handler with its payload intact; [other]
     goes through the [register_handler] adapter, which hands [x] over
     as an argument. *)
  let e = Engine.create () in
  let log = ref [] in
  let h =
    Engine.register e (fun a b -> log := (a, b, Engine.x e) :: !log)
  in
  let other =
    Engine.register_handler e (fun a b x -> log := (-a, b, x) :: !log)
  in
  Engine.post e ~delay:2.0 ~h ~a:1 ~b:10 ~x:0.5;
  Engine.post_at e ~time:1.0 ~h ~a:2 ~b:20 ~x:1.5;
  Engine.post e ~delay:1.5 ~h:other ~a:99 ~b:0 ~x:0.0;
  Engine.run e;
  Alcotest.(check (list (triple int int (float 0.0))))
    "payloads in time order"
    [ (2, 20, 1.5); (-99, 0, 0.0); (1, 10, 0.5) ]
    (List.rev !log);
  Alcotest.(check int) "executed" 3 (Engine.events_executed e)

let test_engine_packed_reentrant () =
  (* A handler posting to itself: the arrival-chain shape of Des_sim. *)
  let e = Engine.create () in
  let fired = ref 0 in
  let h = ref (-1) in
  h :=
    Engine.register e (fun a _ ->
        incr fired;
        if a > 0 then Engine.post e ~delay:1.0 ~h:!h ~a:(a - 1) ~b:0 ~x:0.0);
  Engine.post e ~delay:1.0 ~h:!h ~a:9 ~b:0 ~x:0.0;
  Engine.run e;
  Alcotest.(check int) "chain length" 10 !fired;
  Alcotest.(check (float 1e-9)) "clock" 10.0 (Engine.now e)

(* post_batch is a fused loop over post_at: same events, same seqs, so
   two engines fed the same slice one way or the other must execute the
   identical sequence — including FIFO ties between batch and earlier
   singles. *)
let prop_post_batch_equals_posts =
  Test_support.qcheck_case ~name:"post_batch = post_at sequence"
    QCheck2.Gen.(
      list_size (int_range 0 60)
        (tup4 (float_bound_inclusive 20.0) (int_range 0 9) (int_range 0 99)
           (float_bound_inclusive 1.0)))
    (fun events ->
      let run feed =
        let e = Engine.create () in
        let log = ref [] in
        let h =
          Engine.register e (fun a b ->
              log := (Engine.now e, a, b, Engine.x e) :: !log)
        in
        feed e h;
        Engine.run e;
        List.rev !log
      in
      let singles =
        run (fun e h ->
            List.iter
              (fun (t, a, b, x) -> Engine.post_at e ~time:t ~h ~a ~b ~x)
              events)
      in
      let batched =
        run (fun e h ->
            let n = List.length events in
            let time = Array.make n 0.0
            and ha = Array.make n h
            and a = Array.make n 0
            and b = Array.make n 0
            and x = Array.make n 0.0 in
            List.iteri
              (fun i (t, ai, bi, xi) ->
                time.(i) <- t;
                a.(i) <- ai;
                b.(i) <- bi;
                x.(i) <- xi)
              events;
            Engine.post_batch e ~len:n ~time ~h:ha ~a ~b ~x)
      in
      singles = batched)

let test_post_batch_validates () =
  let e = Engine.create () in
  let h = Engine.register e (fun _ _ -> ()) in
  let arr n v = Array.make n v in
  Alcotest.check_raises "len over array"
    (Invalid_argument "Engine.post_batch: len exceeds a field array")
    (fun () ->
      Engine.post_batch e ~len:3 ~time:(arr 2 0.0) ~h:(arr 3 h) ~a:(arr 3 0)
        ~b:(arr 3 0) ~x:(arr 3 0.0));
  Engine.post_at e ~time:1.0 ~h ~a:0 ~b:0 ~x:0.0;
  Engine.run e;
  Alcotest.check_raises "past time in slice"
    (Invalid_argument "Engine.post_batch: time in the past")
    (fun () ->
      Engine.post_batch e ~len:1 ~time:(arr 1 0.5) ~h:(arr 1 h) ~a:(arr 1 0)
        ~b:(arr 1 0) ~x:(arr 1 0.0))

let test_next_time_inf () =
  let e = Engine.create () in
  Alcotest.(check (float 0.0)) "empty = infinity" Float.infinity
    (Engine.next_time_inf e);
  let h = Engine.register e (fun _ _ -> ()) in
  Engine.post_at e ~time:2.5 ~h ~a:0 ~b:0 ~x:0.0;
  Alcotest.(check (float 0.0)) "head time" 2.5 (Engine.next_time_inf e)

let prop_engine_executes_in_time_order =
  Test_support.qcheck_case ~name:"events run in nondecreasing time"
    QCheck2.Gen.(list_size (int_range 0 100) (float_bound_inclusive 100.0))
    (fun delays ->
      let e = Engine.create () in
      let times = ref [] in
      let h =
        Engine.register e (fun _ _ -> times := Engine.now e :: !times)
      in
      List.iter (fun d -> Engine.post e ~delay:d ~h ~a:0 ~b:0 ~x:0.0) delays;
      Engine.run e;
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      nondecreasing (List.rev !times))

(* --- Event-core allocation gates ---------------------------------------- *)

(* The engine's three drains dispatch the same chain at the same cost per
   event. Relative, so it holds under the dev profile's [-opaque] (where
   every float crossing a module is boxed, in all three alike) and in
   release builds (where all three allocate nothing). A drain that
   re-boxes its bound per step costs 2 words per event more; the
   tolerance covers the per-drain boxes (the [until] option, the bound),
   amortised over ~14,000 events. *)
let test_engine_drains_allocate_alike () =
  let chain_words_per_event = Test_support.chain_words_per_event in
  let horizon = 1000.0 in
  let by_count = chain_words_per_event (Engine.run ~max_events:14_000) in
  let until =
    chain_words_per_event (fun e -> Engine.run ~until:(Engine.now e +. horizon) e)
  in
  let drain =
    chain_words_per_event (fun e ->
        Engine.drain_below e ~bound:(Engine.now e +. horizon))
  in
  let tolerance = 0.01 in
  if until > by_count +. tolerance then
    Alcotest.failf "run ~until: %.3f words/event, run ~max_events: %.3f" until
      by_count;
  if drain > by_count +. tolerance then
    Alcotest.failf "drain_below: %.3f words/event, run ~max_events: %.3f" drain
      by_count

(* Minor words per round of [k] posts at one instant followed by a drain
   to the next instant, over 100 rounds after 300 warm-up rounds (enough
   for every bucket of a pooled rung to reach its capacity). With
   [backlog], one far event stays queued throughout. *)
let refill_words_per_round ~backlog k =
  let e = Engine.create () in
  let h = Engine.register e (fun _ _ -> ()) in
  if backlog then Engine.post e ~delay:1e9 ~h ~a:0 ~b:0 ~x:0.0;
  let round () =
    for i = 1 to k do
      Engine.post e ~delay:0.5 ~h ~a:i ~b:0 ~x:0.0
    done;
    Engine.run ~until:(Engine.now e +. 1.0) e
  in
  for _ = 1 to 300 do
    round ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    round ()
  done;
  (Gc.minor_words () -. w0) /. 100.0

(* Refilling a drained queue costs no more per round than the same posts
   into a queue with a standing backlog, whatever the burst size: the
   only allocation is capacity growth, which warm-up absorbs. The
   bound is per round, not per post; under [-opaque] both sides also pay
   the boxes of each out-of-line post, which cancel. *)
let test_engine_refill_after_drain () =
  List.iter
    (fun k ->
      let drained = refill_words_per_round ~backlog:false k in
      let standing = refill_words_per_round ~backlog:true k in
      if drained -. standing > 16.0 then
        Alcotest.failf
          "k = %d: %.1f words/round after a full drain, %.1f with a backlog" k
          drained standing)
    [ 10; 100; 1000 ]

let () =
  Alcotest.run "sim"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "to_sorted_list" `Quick
            test_heap_to_sorted_list_nondestructive;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "pop_if" `Quick test_heap_pop_if;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "ordering" `Quick test_ladder_basic;
          Alcotest.test_case "fifo ties" `Quick test_ladder_fifo_ties;
          Alcotest.test_case "payload roundtrip" `Quick
            test_ladder_payload_roundtrip;
          Alcotest.test_case "pop_until boundary" `Quick
            test_ladder_pop_until_boundary;
          Alcotest.test_case "warm pop allocates nothing" `Quick
            test_ladder_warm_pop_allocates_nothing;
          Alcotest.test_case "hold memory follows pending events" `Quick
            test_ladder_hold_memory_follows_pending;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time ordering" `Quick test_engine_time_ordering;
          Alcotest.test_case "fifo ties" `Quick test_engine_fifo_at_same_time;
          Alcotest.test_case "nested scheduling" `Quick
            test_engine_nested_scheduling;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "until on idle queue" `Quick
            test_engine_until_idle_advances_clock;
          Alcotest.test_case "max_events guard" `Quick test_engine_max_events;
          Alcotest.test_case "rejects past times" `Quick test_engine_rejects_past;
          Alcotest.test_case "packed dispatch" `Quick test_engine_packed_dispatch;
          Alcotest.test_case "packed reentrant chain" `Quick
            test_engine_packed_reentrant;
          Alcotest.test_case "packed rejects past" `Quick
            test_engine_post_rejects_past;
          Alcotest.test_case "rejects NaN and negative times" `Quick
            test_engine_rejects_nan_and_negative;
          Alcotest.test_case "step_below / drain_below / advance_to" `Quick
            test_engine_step_below_and_advance;
          Alcotest.test_case "post_batch validates" `Quick
            test_post_batch_validates;
          Alcotest.test_case "next_time_inf sentinel" `Quick
            test_next_time_inf;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "drains allocate alike per event" `Quick
            test_engine_drains_allocate_alike;
          Alcotest.test_case "refill after a drain: bounded per round" `Quick
            test_engine_refill_after_drain;
        ] );
      ( "properties",
        [
          prop_heap_sorts;
          prop_heap_interleaved;
          prop_ladder_uniform;
          prop_ladder_duplicates;
          prop_ladder_wide_range;
          prop_ladder_interleaved;
          prop_ladder_all_equal;
          prop_ladder_far_heap_refill;
          prop_ladder_rung_edge;
          prop_ladder_pop_until_epochs;
          prop_ladder_in_place_run;
          prop_engine_executes_in_time_order;
          prop_post_batch_equals_posts;
        ] );
    ]
