(** Shared helpers for the test suites: Alcotest testables for the id
    types, and QCheck generators for parameter spaces, memberships and
    trees. *)

open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Ptree = Lesslog_ptree.Ptree

let pid : Pid.t Alcotest.testable = Alcotest.testable Pid.pp Pid.equal

let vid : Vid.t Alcotest.testable = Alcotest.testable Vid.pp_plain Vid.equal

let pids l = List.map Pid.unsafe_of_int l

let ints_of_pids l = List.map Pid.to_int l

(* QCheck generators ------------------------------------------------- *)

let gen_m = QCheck2.Gen.int_range 2 8

let gen_params = QCheck2.Gen.map (fun m -> Params.create ~m ()) gen_m

let gen_params_ft =
  (* Parameter sets with b > 0 for the fault-tolerant model. *)
  QCheck2.Gen.(
    int_range 3 8 >>= fun m ->
    int_range 1 (min 3 (m - 1)) >>= fun b ->
    return (Params.create ~m ~b ()))

let gen_vid params =
  QCheck2.Gen.map
    (fun v -> Vid.unsafe_of_int v)
    (QCheck2.Gen.int_range 0 (Params.mask params))

let gen_pid params =
  QCheck2.Gen.map
    (fun p -> Pid.unsafe_of_int p)
    (QCheck2.Gen.int_range 0 (Params.mask params))

(* A membership with at least one live node. *)
let gen_status params =
  QCheck2.Gen.(
    int_range 0 (Params.mask params) >>= fun guaranteed ->
    list_size (return (Params.space params)) bool >>= fun flags ->
    let status = Status_word.create params ~initially_live:false in
    List.iteri
      (fun i alive -> if alive then Status_word.set_live status (Pid.unsafe_of_int i))
      flags;
    Status_word.set_live status (Pid.unsafe_of_int guaranteed);
    return status)

(* (params, status, tree-root) triple. *)
let gen_tree_setup =
  QCheck2.Gen.(
    gen_params >>= fun params ->
    gen_status params >>= fun status ->
    gen_pid params >>= fun root ->
    return (params, status, Ptree.make params ~root))

let print_tree_setup (params, status, tree) =
  Format.asprintf "m=%d live=%d root=%a live_set=%s" (Params.m params)
    (Status_word.live_count status) Pid.pp (Ptree.root tree)
    (String.concat ","
       (List.map
          (fun p -> string_of_int (Pid.to_int p))
          (Status_word.live_pids status)))

(* Every randomized suite derives its draws from one seed, settable with
   LESSLOG_TEST_SEED; a failure report then reproduces with a single env
   var instead of silently re-drawing. Each test mixes its own name into
   the state so suites stay order-independent: adding or removing a test
   does not shift the draws of the others. *)
let test_seed =
  match Sys.getenv_opt "LESSLOG_TEST_SEED" with
  | Some s -> (
      match int_of_string_opt s with
      | Some seed -> seed
      | None ->
          Printf.eprintf "LESSLOG_TEST_SEED=%S is not an integer\n" s;
          Stdlib.exit 2)
  | None -> 42

let announce_seed =
  lazy
    (Printf.printf "qcheck seed: LESSLOG_TEST_SEED=%d\n%!" test_seed)

let qcheck_rand ~name =
  Lazy.force announce_seed;
  Random.State.make [| test_seed; Hashtbl.hash name |]

let qcheck_case ?(count = 300) ~name gen law =
  QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ~name)
    (QCheck2.Test.make ~count ~name gen law)

(* Allocation gates --------------------------------------------------- *)

(* Minor words per call of [cycle] over a third round of [n] calls; the
   first two rounds warm whatever capacity the cycle grows. *)
let words_per_cycle ~n cycle =
  let round () =
    for _ = 1 to n do
      cycle ()
    done
  in
  round ();
  round ();
  let w0 = Gc.minor_words () in
  round ();
  (Gc.minor_words () -. w0) /. float_of_int n

(* Minor words per event of 64 self-rescheduling 2-argument handler
   chains, over a third round of [drive] after two warm-up rounds. Each
   event reads its payload's [x] and posts its successor with it: the
   engine calls a simulator event makes, and nothing else. *)
let chain_words_per_event drive =
  let module Engine = Lesslog_sim.Engine in
  let e = Engine.create () in
  let h = ref (-1) in
  h :=
    Engine.register e (fun a b ->
        Engine.post e
          ~delay:(1.0 +. float_of_int (b land 7))
          ~h:!h ~a ~b:(b + 1) ~x:(Engine.x e));
  for i = 0 to 63 do
    Engine.post e ~delay:(float_of_int i /. 64.0) ~h:!h ~a:i ~b:i ~x:0.0
  done;
  drive e;
  drive e;
  let w0 = Gc.minor_words () and n0 = Engine.events_executed e in
  drive e;
  (Gc.minor_words () -. w0) /. float_of_int (Engine.events_executed e - n0)
