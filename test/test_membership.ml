open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Rng = Lesslog_prng.Rng

let params = Params.create ~m:5 ()
let pid = Pid.unsafe_of_int

let test_initially_live () =
  let s = Status_word.create params ~initially_live:true in
  Alcotest.(check int) "all live" 32 (Status_word.live_count s);
  Alcotest.(check bool) "live" true (Status_word.is_live s (pid 17))

let test_initially_dead () =
  let s = Status_word.create params ~initially_live:false in
  Alcotest.(check int) "none live" 0 (Status_word.live_count s);
  Alcotest.(check bool) "dead" true (Status_word.is_dead s (pid 0))

let test_set_and_count () =
  let s = Status_word.create params ~initially_live:false in
  Status_word.set_live s (pid 3);
  Status_word.set_live s (pid 3);
  Status_word.set_live s (pid 7);
  Alcotest.(check int) "idempotent live" 2 (Status_word.live_count s);
  Status_word.set_dead s (pid 3);
  Status_word.set_dead s (pid 3);
  Alcotest.(check int) "idempotent dead" 1 (Status_word.live_count s);
  Alcotest.(check int) "dead count" 31 (Status_word.dead_count s)

let test_of_live_list () =
  let s = Status_word.of_live_list params (Test_support.pids [ 1; 5; 9 ]) in
  Alcotest.(check (list int)) "live pids" [ 1; 5; 9 ]
    (Test_support.ints_of_pids (Status_word.live_pids s));
  Alcotest.(check int) "count" 3 (Status_word.live_count s)

let test_copy_isolated () =
  let s = Status_word.of_live_list params (Test_support.pids [ 1; 2 ]) in
  let c = Status_word.copy s in
  Status_word.set_dead c (pid 1);
  Alcotest.(check bool) "original untouched" true (Status_word.is_live s (pid 1));
  Alcotest.(check bool) "copy changed" false (Status_word.is_live c (pid 1))

let test_live_array () =
  let s = Status_word.of_live_list params (Test_support.pids [ 4; 2; 30 ]) in
  Alcotest.(check (list int)) "sorted array" [ 2; 4; 30 ]
    (Array.to_list (Status_word.live_array s) |> List.map Pid.to_int)

let test_random_live () =
  let s = Status_word.of_live_list params (Test_support.pids [ 11 ]) in
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 20 do
    Alcotest.(check (option int)) "only candidate" (Some 11)
      (Option.map Pid.to_int (Status_word.random_live s rng))
  done;
  let empty = Status_word.create params ~initially_live:false in
  Alcotest.(check (option int)) "none" None
    (Option.map Pid.to_int (Status_word.random_live empty rng))

let test_random_dead () =
  let s = Status_word.create params ~initially_live:true in
  Status_word.set_dead s (pid 9);
  let rng = Rng.create ~seed:2 in
  Alcotest.(check (option int)) "only dead one" (Some 9)
    (Option.map Pid.to_int (Status_word.random_dead s rng))

let test_kill_fraction () =
  let s = Status_word.create params ~initially_live:true in
  let rng = Rng.create ~seed:3 in
  let victims = Status_word.kill_fraction s rng ~fraction:0.25 in
  Alcotest.(check int) "8 of 32 killed" 8 (List.length victims);
  Alcotest.(check int) "24 remain" 24 (Status_word.live_count s);
  List.iter
    (fun v ->
      Alcotest.(check bool) "victim dead" true (Status_word.is_dead s v))
    victims

(* Out-of-range and NaN fractions are rejected by name, before any node
   dies; the closed range's ends are accepted. *)
let test_kill_fraction_validated () =
  List.iter
    (fun (fraction, ok) ->
      let s = Status_word.create params ~initially_live:true in
      let kill () = Status_word.kill_fraction s (Rng.create ~seed:3) ~fraction in
      let label = Printf.sprintf "fraction %g" fraction in
      if ok then ignore (kill ())
      else begin
        Alcotest.check_raises label
          (Invalid_argument
             "Status_word.kill_fraction: fraction must be in [0, 1]")
          (fun () -> ignore (kill ()));
        Alcotest.(check int) (label ^ ": nobody killed") 32
          (Status_word.live_count s)
      end)
    [
      (Float.nan, false); (-0.5, false); (1.5, false); (Float.infinity, false);
      (0.0, true); (1.0, true);
    ]

let test_equal () =
  let a = Status_word.of_live_list params (Test_support.pids [ 1; 2 ]) in
  let b = Status_word.of_live_list params (Test_support.pids [ 2; 1 ]) in
  Alcotest.(check bool) "equal" true (Status_word.equal a b);
  Status_word.set_dead b (pid 1);
  Alcotest.(check bool) "not equal" false (Status_word.equal a b)

let test_epoch () =
  let s = Status_word.create params ~initially_live:true in
  let e0 = Status_word.epoch s in
  (* No-op mutations must not bump the epoch. *)
  Status_word.set_live s (pid 4);
  Alcotest.(check int) "no-op set_live" e0 (Status_word.epoch s);
  Status_word.set_dead s (pid 4);
  Alcotest.(check bool) "effective set_dead bumps" true
    (Status_word.epoch s > e0);
  let e1 = Status_word.epoch s in
  Status_word.set_dead s (pid 4);
  Alcotest.(check int) "no-op set_dead" e1 (Status_word.epoch s);
  Status_word.set_live s (pid 4);
  Alcotest.(check bool) "effective set_live bumps" true
    (Status_word.epoch s > e1)

let test_selects () =
  let s = Status_word.of_live_list params (Test_support.pids [ 3; 8; 20 ]) in
  let get f x = Option.map Pid.to_int (f x) in
  Alcotest.(check (option int)) "at_or_below 31" (Some 20)
    (get (Status_word.first_live_at_or_below s) (pid 31));
  Alcotest.(check (option int)) "at_or_below 8" (Some 8)
    (get (Status_word.first_live_at_or_below s) (pid 8));
  Alcotest.(check (option int)) "at_or_below 2" None
    (get (Status_word.first_live_at_or_below s) (pid 2));
  Alcotest.(check (option int)) "in_range hit" (Some 8)
    (Option.map Pid.to_int
       (Status_word.first_live_in_range s ~lo:(pid 4) ~hi:(pid 19)));
  Alcotest.(check (option int)) "in_range miss" None
    (Option.map Pid.to_int
       (Status_word.first_live_in_range s ~lo:(pid 9) ~hi:(pid 19)));
  Alcotest.(check (option int)) "nth_live 1" (Some 8)
    (get (Status_word.nth_live s) 1);
  Alcotest.(check (option int)) "nth_live overflow" None
    (get (Status_word.nth_live s) 3);
  Alcotest.(check (option int)) "nth_dead 0" (Some 0)
    (get (Status_word.nth_dead s) 0);
  (* PIDs 0..2 and 4..7 are dead: the 4th dead pid (index 3) is 4. *)
  Alcotest.(check (option int)) "nth_dead skips live" (Some 4)
    (get (Status_word.nth_dead s) 3)

(* Rejection sampling must terminate (and stay uniform over the candidate
   set) even at degenerate density: a single live node among 2^m. *)
let test_random_degenerate () =
  let big = Params.create ~m:10 () in
  let s = Status_word.of_live_list big [ pid 777 ] in
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 100 do
    Alcotest.(check (option int)) "sparse live" (Some 777)
      (Option.map Pid.to_int (Status_word.random_live s rng))
  done;
  let t = Status_word.create big ~initially_live:true in
  Status_word.set_dead t (pid 123);
  for _ = 1 to 100 do
    Alcotest.(check (option int)) "sparse dead" (Some 123)
      (Option.map Pid.to_int (Status_word.random_dead t rng))
  done

let prop_live_count_consistent =
  Test_support.qcheck_case ~name:"live_count = |live_pids|"
    QCheck2.Gen.(
      Test_support.gen_params >>= fun params ->
      Test_support.gen_status params >>= fun s -> return s)
    (fun s -> Status_word.live_count s = List.length (Status_word.live_pids s))

let prop_fold_matches_list =
  Test_support.qcheck_case ~name:"fold_live visits live_pids in order"
    QCheck2.Gen.(
      Test_support.gen_params >>= fun params ->
      Test_support.gen_status params >>= fun s -> return s)
    (fun s ->
      let folded =
        List.rev (Status_word.fold_live s ~init:[] ~f:(fun acc p -> p :: acc))
      in
      folded = Status_word.live_pids s)

let prop_kill_fraction_counts =
  Test_support.qcheck_case ~name:"kill_fraction removes round(f*live)"
    QCheck2.Gen.(
      Test_support.gen_params >>= fun params ->
      Test_support.gen_status params >>= fun s ->
      int_range 0 100 >>= fun pct ->
      int_range 0 1_000_000 >>= fun seed -> return (s, pct, seed))
    (fun (s, pct, seed) ->
      let live0 = Status_word.live_count s in
      let fraction = float_of_int pct /. 100.0 in
      let expected =
        int_of_float (Float.round (fraction *. float_of_int live0))
      in
      let rng = Rng.create ~seed in
      let victims = Status_word.kill_fraction s rng ~fraction in
      List.length victims = expected
      && Status_word.live_count s = live0 - expected)

let () =
  Alcotest.run "membership"
    [
      ( "status_word",
        [
          Alcotest.test_case "initially live" `Quick test_initially_live;
          Alcotest.test_case "initially dead" `Quick test_initially_dead;
          Alcotest.test_case "set/count idempotent" `Quick test_set_and_count;
          Alcotest.test_case "of_live_list" `Quick test_of_live_list;
          Alcotest.test_case "copy isolation" `Quick test_copy_isolated;
          Alcotest.test_case "live_array sorted" `Quick test_live_array;
          Alcotest.test_case "random_live" `Quick test_random_live;
          Alcotest.test_case "random_dead" `Quick test_random_dead;
          Alcotest.test_case "kill_fraction" `Quick test_kill_fraction;
          Alcotest.test_case "kill_fraction validated" `Quick
            test_kill_fraction_validated;
          Alcotest.test_case "equality" `Quick test_equal;
          Alcotest.test_case "epoch semantics" `Quick test_epoch;
          Alcotest.test_case "word-level selects" `Quick test_selects;
          Alcotest.test_case "degenerate-density sampling" `Quick
            test_random_degenerate;
        ] );
      ( "properties",
        [ prop_live_count_consistent; prop_fold_matches_list; prop_kill_fraction_counts ] );
    ]
