module File_store = Lesslog_storage.File_store
module Access_counter = Lesslog_storage.Access_counter

(* --- Access counter --------------------------------------------------- *)

let test_counter_accumulates () =
  let c = Access_counter.create ~tau:10.0 ~now:0.0 () in
  Access_counter.record c ~now:0.0;
  Access_counter.record c ~now:0.0;
  Alcotest.(check (float 1e-9)) "two accesses" 2.0 (Access_counter.value c ~now:0.0)

let test_counter_decays () =
  let c = Access_counter.create ~tau:10.0 ~now:0.0 () in
  Access_counter.record_many c ~now:0.0 ~count:100;
  let v = Access_counter.value c ~now:10.0 in
  (* One time constant: e^-1 of the mass remains. *)
  Alcotest.(check (float 0.01)) "decayed" (100.0 *. exp (-1.0)) v;
  let v2 = Access_counter.value c ~now:100.0 in
  Alcotest.(check bool) "nearly gone" true (v2 < 0.01)

let test_counter_rate_steady_state () =
  (* Feeding r accesses/s for many tau, rate ~ r. *)
  let c = Access_counter.create ~tau:5.0 ~now:0.0 () in
  let r = 20 in
  for t = 0 to 100 do
    Access_counter.record_many c ~now:(float_of_int t) ~count:r
  done;
  let rate = Access_counter.rate c ~now:100.0 in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.2f near %d" rate r)
    true
    (Float.abs (rate -. float_of_int r) < 3.0)

let test_counter_reset () =
  let c = Access_counter.create ~now:0.0 () in
  Access_counter.record c ~now:1.0;
  Access_counter.reset c ~now:2.0;
  Alcotest.(check (float 1e-9)) "reset" 0.0 (Access_counter.value c ~now:2.0)

let test_counter_monotone_time () =
  (* Queries never rewind the clock: an earlier [now] after a later one is
     treated as "no time elapsed". *)
  let c = Access_counter.create ~tau:1.0 ~now:0.0 () in
  Access_counter.record c ~now:10.0;
  let v = Access_counter.value c ~now:5.0 in
  Alcotest.(check (float 1e-9)) "no rewind" 1.0 v

(* --- File store ------------------------------------------------------- *)

let test_add_find () =
  let s = File_store.create () in
  File_store.add s ~key:"a" ~origin:File_store.Inserted ~version:0 ~now:0.0;
  Alcotest.(check bool) "holds" true (File_store.holds s ~key:"a");
  Alcotest.(check bool) "not holds" false (File_store.holds s ~key:"b");
  Alcotest.(check (option int)) "version" (Some 0) (File_store.version s ~key:"a")

let test_origin_upgrade () =
  let s = File_store.create () in
  File_store.add s ~key:"a" ~origin:File_store.Replicated ~version:0 ~now:0.0;
  File_store.add s ~key:"a" ~origin:File_store.Inserted ~version:0 ~now:0.0;
  Alcotest.(check bool) "upgraded" true
    (File_store.origin s ~key:"a" = Some File_store.Inserted);
  (* Inserted never silently downgrades by re-adding. *)
  File_store.add s ~key:"a" ~origin:File_store.Replicated ~version:0 ~now:0.0;
  Alcotest.(check bool) "sticky" true
    (File_store.origin s ~key:"a" = Some File_store.Inserted)

let test_version_keeps_max () =
  let s = File_store.create () in
  File_store.add s ~key:"a" ~origin:File_store.Replicated ~version:5 ~now:0.0;
  File_store.add s ~key:"a" ~origin:File_store.Replicated ~version:3 ~now:0.0;
  Alcotest.(check (option int)) "max kept" (Some 5) (File_store.version s ~key:"a")

let test_key_partitions () =
  let s = File_store.create () in
  File_store.add s ~key:"ins" ~origin:File_store.Inserted ~version:0 ~now:0.0;
  File_store.add s ~key:"rep1" ~origin:File_store.Replicated ~version:0 ~now:0.0;
  File_store.add s ~key:"rep2" ~origin:File_store.Replicated ~version:0 ~now:0.0;
  Alcotest.(check (list string)) "inserted" [ "ins" ] (File_store.inserted_keys s);
  Alcotest.(check (list string)) "replicated" [ "rep1"; "rep2" ]
    (File_store.replicated_keys s);
  Alcotest.(check int) "size" 3 (File_store.size s)

(* [clear] empties the store (a departing node's) and tells the
   observer once for every key it held. *)
let test_clear () =
  let s = File_store.create () in
  let dropped = ref [] in
  File_store.set_observer s (fun key held ->
      if not held then dropped := key :: !dropped);
  File_store.add s ~key:"ins" ~origin:File_store.Inserted ~version:0 ~now:0.0;
  File_store.add s ~key:"rep" ~origin:File_store.Replicated ~version:0 ~now:0.0;
  File_store.clear s;
  Alcotest.(check (list string)) "notified" [ "ins"; "rep" ]
    (List.sort compare !dropped);
  Alcotest.(check int) "empty" 0 (File_store.size s);
  Alcotest.(check bool) "nothing held" false
    (File_store.holds s ~key:"ins" || File_store.holds s ~key:"rep")

let test_demote () =
  let s = File_store.create () in
  File_store.add s ~key:"a" ~origin:File_store.Inserted ~version:2 ~now:0.0;
  File_store.demote_to_replica s ~key:"a";
  Alcotest.(check bool) "demoted" true
    (File_store.origin s ~key:"a" = Some File_store.Replicated);
  Alcotest.(check (option int)) "version kept" (Some 2)
    (File_store.version s ~key:"a");
  (* Demoting a missing key is a no-op. *)
  File_store.demote_to_replica s ~key:"missing"

let test_cold_replica () =
  let s = File_store.create () in
  File_store.add s ~key:"hot" ~origin:File_store.Replicated ~version:0 ~now:0.0;
  File_store.add s ~key:"cold" ~origin:File_store.Replicated ~version:0 ~now:0.0;
  File_store.add s ~key:"ins" ~origin:File_store.Inserted ~version:0 ~now:0.0;
  File_store.add s ~key:"frag" ~origin:File_store.Replicated
    ~tier:(File_store.Coded { index = 0; k = 4; r = 2 })
    ~version:0 ~now:0.0;
  (* Heat up "hot" only. *)
  for t = 0 to 200 do
    File_store.record_access s ~key:"hot" ~now:(float_of_int t *. 0.1)
  done;
  let cold key = File_store.is_cold_replica s ~key ~now:20.0 ~min_rate:1.0 in
  Alcotest.(check bool) "cold evicted" true (cold "cold");
  Alcotest.(check bool) "hot kept" false (cold "hot");
  Alcotest.(check bool) "inserted immune" false (cold "ins");
  Alcotest.(check bool) "coded immune" false (cold "frag");
  Alcotest.(check bool) "absent key" false (cold "missing");
  (* The test reads, never removes. *)
  Alcotest.(check int) "store untouched" 4 (File_store.size s);
  (* The bar is strict: a copy at exactly [min_rate] stays. *)
  let rate =
    match File_store.find s ~key:"hot" with
    | Some e -> Access_counter.rate e.counter ~now:20.0
    | None -> Alcotest.fail "hot copy missing"
  in
  Alcotest.(check bool) "at the bar kept" false
    (File_store.is_cold_replica s ~key:"hot" ~now:20.0 ~min_rate:rate);
  Alcotest.(check bool) "above the bar cold" true
    (File_store.is_cold_replica s ~key:"hot" ~now:20.0
       ~min_rate:(Float.succ rate))

let test_tiers () =
  let s = File_store.create () in
  File_store.add s ~key:"whole" ~origin:File_store.Inserted ~version:0 ~now:0.0;
  File_store.add s ~key:"whole#frag0" ~origin:File_store.Inserted
    ~tier:(File_store.Coded { index = 0; k = 4; r = 2 })
    ~version:0 ~now:0.0;
  Alcotest.(check bool) "default tier" true
    (File_store.tier s ~key:"whole" = Some File_store.Replicated_full);
  Alcotest.(check bool) "coded tier" true
    (File_store.tier s ~key:"whole#frag0"
    = Some (File_store.Coded { index = 0; k = 4; r = 2 }));
  Alcotest.(check bool) "missing key" true
    (File_store.tier s ~key:"nope" = None);
  Alcotest.(check (list string)) "coded_keys" [ "whole#frag0" ]
    (File_store.coded_keys s);
  (* Re-adding takes the new call's tier — promotion back to a full
     copy clears the fragment marker. *)
  File_store.add s ~key:"whole#frag0" ~origin:File_store.Inserted ~version:1
    ~now:1.0;
  Alcotest.(check (list string)) "promoted" [] (File_store.coded_keys s)

let test_set_version () =
  let s = File_store.create () in
  File_store.add s ~key:"a" ~origin:File_store.Inserted ~version:0 ~now:0.0;
  File_store.set_version s ~key:"a" ~version:7;
  Alcotest.(check (option int)) "set" (Some 7) (File_store.version s ~key:"a");
  File_store.set_version s ~key:"nope" ~version:9

let test_remove () =
  let s = File_store.create () in
  File_store.add s ~key:"a" ~origin:File_store.Inserted ~version:0 ~now:0.0;
  File_store.remove s ~key:"a";
  Alcotest.(check bool) "removed" false (File_store.holds s ~key:"a");
  Alcotest.(check int) "empty" 0 (File_store.size s)

let prop_keys_sorted =
  Test_support.qcheck_case ~name:"keys sorted and unique"
    QCheck2.Gen.(list_size (int_range 0 30) (string_size (int_range 1 6)))
    (fun keys ->
      let s = File_store.create () in
      List.iter
        (fun key ->
          File_store.add s ~key ~origin:File_store.Replicated ~version:0 ~now:0.0)
        keys;
      let ks = File_store.keys s in
      ks = List.sort_uniq compare keys)

let prop_partition_exhaustive =
  Test_support.qcheck_case ~name:"inserted + replicated = keys"
    QCheck2.Gen.(
      list_size (int_range 0 30)
        (pair (string_size (int_range 1 6)) bool))
    (fun entries ->
      let s = File_store.create () in
      List.iter
        (fun (key, ins) ->
          let origin =
            if ins then File_store.Inserted else File_store.Replicated
          in
          File_store.add s ~key ~origin ~version:0 ~now:0.0)
        entries;
      List.sort compare (File_store.inserted_keys s @ File_store.replicated_keys s)
      = File_store.keys s)

(* The store against a map model, over random adds, removals, demotions
   and clears of up to 20 keys: a removal moves the store's last entry
   into the hole and re-points the index at it, so the runs cross every
   kind of move. After each step every read, every key list and the
   observer's view of what is held must match the model. *)
module Model = Map.Make (String)

type op =
  | Add of int * bool * bool * int  (** key, inserted, coded, version *)
  | Remove of int
  | Demote of int
  | Clear

let gen_op =
  QCheck2.Gen.(
    frequency
      [
        ( 6,
          map
            (fun (k, ins, coded, v) -> Add (k, ins, coded, v))
            (quad (int_bound 19) bool bool (int_bound 5)) );
        (3, map (fun k -> Remove k) (int_bound 19));
        (1, map (fun k -> Demote k) (int_bound 19));
        (1, return Clear);
      ])

let model_step model = function
  | Add (k, ins, coded, v) ->
      let key = Printf.sprintf "k%d" k in
      let tier =
        if coded then File_store.Coded { index = k; k = 2; r = 1 }
        else File_store.Replicated_full
      in
      let origin = if ins then File_store.Inserted else File_store.Replicated in
      Model.update key
        (function
          | None -> Some (origin, tier, v)
          | Some (o, _, v0) ->
              let origin =
                if o = File_store.Inserted then File_store.Inserted else origin
              in
              Some (origin, tier, max v v0))
        model
  | Remove k -> Model.remove (Printf.sprintf "k%d" k) model
  | Demote k ->
      Model.update (Printf.sprintf "k%d" k)
        (Option.map (fun (_, t, v) -> (File_store.Replicated, t, v)))
        model
  | Clear -> Model.empty

let store_step s = function
  | Add (k, ins, coded, version) ->
      let tier =
        if coded then File_store.Coded { index = k; k = 2; r = 1 }
        else File_store.Replicated_full
      in
      File_store.add ~tier s ~key:(Printf.sprintf "k%d" k)
        ~origin:(if ins then File_store.Inserted else File_store.Replicated)
        ~version ~now:0.0
  | Remove k -> File_store.remove s ~key:(Printf.sprintf "k%d" k)
  | Demote k -> File_store.demote_to_replica s ~key:(Printf.sprintf "k%d" k)
  | Clear -> File_store.clear s

let store_matches s held model =
  let keys = List.map fst (Model.bindings model) in
  let select f =
    List.filter_map (fun (k, e) -> if f e then Some k else None)
      (Model.bindings model)
  in
  let full_inserted =
    select (fun (o, t, _) ->
        o = File_store.Inserted && t = File_store.Replicated_full)
  in
  File_store.size s = List.length keys
  && File_store.keys s = keys
  && File_store.inserted_keys s = select (fun (o, _, _) -> o = File_store.Inserted)
  && File_store.replicated_keys s
     = select (fun (o, _, _) -> o = File_store.Replicated)
  && File_store.coded_keys s
     = select (fun (_, t, _) -> t <> File_store.Replicated_full)
  && List.map (fun (e : File_store.entry) -> e.key) (File_store.inserted_full s)
     = full_inserted
  && File_store.holds_inserted_full s = (full_inserted <> [])
  && List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) held []) = keys
  && List.for_all
       (fun i ->
         let key = Printf.sprintf "k%d" i in
         match (File_store.find s ~key, Model.find_opt key model) with
         | None, None -> true
         | Some e, Some (o, t, v) ->
             e.key = key && e.origin = o && e.tier = t && e.version = v
         | Some _, None | None, Some _ -> false)
       (List.init 20 Fun.id)

let prop_store_matches_model =
  Test_support.qcheck_case ~count:300 ~name:"store = map model"
    QCheck2.Gen.(list_size (int_range 1 120) gen_op)
    (fun ops ->
      let s = File_store.create () and held = Hashtbl.create 16 in
      File_store.set_observer s (fun key now_held ->
          if now_held then Hashtbl.replace held key ()
          else Hashtbl.remove held key);
      let rec go model = function
        | [] -> true
        | op :: rest ->
            store_step s op;
            let model = model_step model op in
            store_matches s held model && go model rest
      in
      go Model.empty ops)

(* The shared empty store answers every read with "absent" and takes
   every removal as a no-op, but refuses a file: a cluster slot's first
   file must create the slot's own store. *)
let test_shared_empty_store () =
  let e = File_store.empty in
  File_store.remove e ~key:"a";
  File_store.demote_to_replica e ~key:"a";
  File_store.set_version e ~key:"a" ~version:3;
  File_store.record_access e ~key:"a" ~now:1.0;
  File_store.clear e;
  Alcotest.check_raises "add raises"
    (Invalid_argument "File_store.add: shared empty store") (fun () ->
      File_store.add e ~key:"a" ~origin:File_store.Inserted ~version:0
        ~now:0.0);
  Alcotest.check_raises "set_observer raises"
    (Invalid_argument "File_store.set_observer: shared empty store")
    (fun () -> File_store.set_observer e (fun _ _ -> ()));
  Alcotest.(check int) "still empty" 0 (File_store.size e);
  Alcotest.(check bool) "holds nothing" false (File_store.holds e ~key:"a")

let () =
  Alcotest.run "storage"
    [
      ( "access_counter",
        [
          Alcotest.test_case "accumulates" `Quick test_counter_accumulates;
          Alcotest.test_case "decays" `Quick test_counter_decays;
          Alcotest.test_case "steady-state rate" `Quick
            test_counter_rate_steady_state;
          Alcotest.test_case "reset" `Quick test_counter_reset;
          Alcotest.test_case "monotone time" `Quick test_counter_monotone_time;
        ] );
      ( "file_store",
        [
          Alcotest.test_case "add/find" `Quick test_add_find;
          Alcotest.test_case "origin upgrade" `Quick test_origin_upgrade;
          Alcotest.test_case "version max" `Quick test_version_keeps_max;
          Alcotest.test_case "key partitions" `Quick test_key_partitions;
          Alcotest.test_case "clear empties and notifies" `Quick test_clear;
          Alcotest.test_case "demote" `Quick test_demote;
          Alcotest.test_case "counter-based eviction" `Quick test_cold_replica;
          Alcotest.test_case "tiers" `Quick test_tiers;
          Alcotest.test_case "set version" `Quick test_set_version;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "shared empty store is frozen" `Quick
            test_shared_empty_store;
        ] );
      ( "properties",
        [ prop_keys_sorted; prop_partition_exhaustive; prop_store_matches_model ]
      );
    ]
