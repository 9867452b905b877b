module Bitops = Lesslog_bits.Bitops
module Packed_bits = Lesslog_bits.Packed_bits

let check = Alcotest.(check int)

let test_mask () =
  check "mask 1" 1 (Bitops.mask ~width:1);
  check "mask 4" 15 (Bitops.mask ~width:4);
  check "mask 10" 1023 (Bitops.mask ~width:10)

let test_complement () =
  check "comp 4-bit of 4" 0b1011 (Bitops.complement ~width:4 4);
  check "comp 4-bit of 0" 0b1111 (Bitops.complement ~width:4 0);
  check "comp 4-bit of 15" 0 (Bitops.complement ~width:4 15);
  check "comp involutive" 9 (Bitops.complement ~width:4 (Bitops.complement ~width:4 9))

let test_popcount () =
  check "popcount 0" 0 (Bitops.popcount 0);
  check "popcount 1" 1 (Bitops.popcount 1);
  check "popcount 0b1011" 3 (Bitops.popcount 0b1011);
  check "popcount max_int" 62 (Bitops.popcount max_int)

let test_floor_log2 () =
  check "log2 1" 0 (Bitops.floor_log2 1);
  check "log2 2" 1 (Bitops.floor_log2 2);
  check "log2 3" 1 (Bitops.floor_log2 3);
  check "log2 1024" 10 (Bitops.floor_log2 1024);
  check "log2 max_int" 61 (Bitops.floor_log2 max_int);
  Alcotest.check_raises "log2 0" (Invalid_argument "Bitops.floor_log2")
    (fun () -> ignore (Bitops.floor_log2 0))

let test_leading_ones () =
  check "all ones" 4 (Bitops.leading_ones ~width:4 0b1111);
  check "1110" 3 (Bitops.leading_ones ~width:4 0b1110);
  check "1101" 2 (Bitops.leading_ones ~width:4 0b1101);
  check "1011" 1 (Bitops.leading_ones ~width:4 0b1011);
  check "0111" 0 (Bitops.leading_ones ~width:4 0b0111);
  check "0000" 0 (Bitops.leading_ones ~width:4 0)

let test_highest_zero_bit () =
  Alcotest.(check (option int)) "1111" None (Bitops.highest_zero_bit ~width:4 0b1111);
  Alcotest.(check (option int)) "1101" (Some 1) (Bitops.highest_zero_bit ~width:4 0b1101);
  Alcotest.(check (option int)) "0111" (Some 3) (Bitops.highest_zero_bit ~width:4 0b0111);
  Alcotest.(check (option int)) "0000" (Some 3) (Bitops.highest_zero_bit ~width:4 0)

let test_bit_ops () =
  Alcotest.(check bool) "test set" true (Bitops.test_bit 0b100 2);
  Alcotest.(check bool) "test clear" false (Bitops.test_bit 0b100 1);
  check "set" 0b110 (Bitops.set_bit 0b100 1);
  check "set idempotent" 0b100 (Bitops.set_bit 0b100 2);
  check "clear" 0b100 (Bitops.clear_bit 0b110 1);
  check "clear idempotent" 0b110 (Bitops.clear_bit 0b110 0)

let test_trailing_zeros () =
  check "tz 1" 0 (Bitops.trailing_zeros 1);
  check "tz 8" 3 (Bitops.trailing_zeros 8);
  check "tz 12" 2 (Bitops.trailing_zeros 12)

let test_field_extraction () =
  (* Subtree id/vid split of the fault-tolerant model: m=4, b=2. *)
  check "low bits" 0b10 (Bitops.low_bits ~width:2 0b1110);
  check "high bits" 0b11 (Bitops.high_bits ~total:4 ~low:2 0b1110);
  check "splice" 0b1110 (Bitops.splice ~total:4 ~low:2 ~high:0b11 0b10)

let test_binary_string () =
  Alcotest.(check string) "vid rendering" "1011" (Bitops.to_binary_string ~width:4 0b1011);
  Alcotest.(check string) "padded" "0001" (Bitops.to_binary_string ~width:4 1)

(* Properties ---------------------------------------------------------- *)

let gen_width_value =
  QCheck2.Gen.(
    int_range 1 20 >>= fun width ->
    int_range 0 (Bitops.mask ~width) >>= fun v -> return (width, v))

let prop_complement_involutive =
  Test_support.qcheck_case ~name:"complement involutive" gen_width_value
    (fun (width, v) ->
      Bitops.complement ~width (Bitops.complement ~width v) = v)

let prop_popcount_split =
  Test_support.qcheck_case ~name:"popcount v + popcount ~v = width"
    gen_width_value (fun (width, v) ->
      Bitops.popcount v + Bitops.popcount (Bitops.complement ~width v) = width)

let prop_leading_ones_bound =
  Test_support.qcheck_case ~name:"leading_ones bounded by popcount"
    gen_width_value (fun (width, v) ->
      let lo = Bitops.leading_ones ~width v in
      lo >= 0 && lo <= Bitops.popcount v)

let prop_splice_inverse =
  Test_support.qcheck_case ~name:"splice inverts high/low split"
    QCheck2.Gen.(
      int_range 2 16 >>= fun total ->
      int_range 1 (total - 1) >>= fun low ->
      int_range 0 (Bitops.mask ~width:total) >>= fun v -> return (total, low, v))
    (fun (total, low, v) ->
      let high = Bitops.high_bits ~total ~low v in
      let lowv = Bitops.low_bits ~width:low v in
      Bitops.splice ~total ~low ~high lowv = v)

let prop_floor_log2 =
  Test_support.qcheck_case ~name:"floor_log2 bounds"
    QCheck2.Gen.(int_range 1 max_int)
    (fun x ->
      let l = Bitops.floor_log2 x in
      x lsr l = 1)

(* Packed bitsets ------------------------------------------------------- *)

let members t =
  let acc = ref [] in
  Packed_bits.iter_set t (fun i -> acc := i :: !acc);
  List.rev !acc

let non_members t =
  let acc = ref [] in
  Packed_bits.iter_clear t (fun i -> acc := i :: !acc);
  List.rev !acc

let test_packed_basics () =
  let t = Packed_bits.create 124 in
  check "empty count" 0 (Packed_bits.count t);
  (* Word boundaries for 62-bit words: 61|62 and 123 (tail). *)
  List.iter (Packed_bits.set t) [ 0; 61; 62; 123 ];
  check "count" 4 (Packed_bits.count t);
  Alcotest.(check (list int)) "members" [ 0; 61; 62; 123 ] (members t);
  Alcotest.(check bool) "get 61" true (Packed_bits.get t 61);
  Alcotest.(check bool) "get 60" false (Packed_bits.get t 60);
  Packed_bits.clear t 61;
  Alcotest.(check (list int)) "after clear" [ 0; 62; 123 ] (members t);
  Packed_bits.clear_all t;
  check "cleared" 0 (Packed_bits.count t)

let test_packed_full () =
  (* space = 2^m exactly fills words only when 62 | space: check both a
     power of two (1024 = 16*62 + 32: partial tail) and a multiple. *)
  List.iter
    (fun len ->
      let t = Packed_bits.create_full len in
      check (Printf.sprintf "full count %d" len) len (Packed_bits.count t);
      Alcotest.(check bool) "last set" true (Packed_bits.get t (len - 1));
      check "nth_clear overflow" (-1) (Packed_bits.nth_clear t 0);
      check "first above" 0 (Packed_bits.first_set_at_or_above t 0))
    [ 1; 62; 124; 1024; 4096 ]

let test_packed_selects () =
  let t = Packed_bits.create 1024 in
  List.iter (Packed_bits.set t) [ 5; 100; 700; 1023 ];
  check "below 1023" 1023 (Packed_bits.first_set_at_or_below t 1023);
  check "below 1022" 700 (Packed_bits.first_set_at_or_below t 1022);
  check "below 699" 100 (Packed_bits.first_set_at_or_below t 699);
  check "below 4" (-1) (Packed_bits.first_set_at_or_below t 4);
  check "above 0" 5 (Packed_bits.first_set_at_or_above t 0);
  check "above 701" 1023 (Packed_bits.first_set_at_or_above t 701);
  check "range empty" (-1) (Packed_bits.first_set_in_range t ~lo:101 ~hi:699);
  check "range hit" 700 (Packed_bits.first_set_in_range t ~lo:101 ~hi:700);
  check "range inverted" (-1) (Packed_bits.first_set_in_range t ~lo:9 ~hi:3);
  check "nth 0" 5 (Packed_bits.nth_set t 0);
  check "nth 2" 700 (Packed_bits.nth_set t 2);
  check "nth overflow" (-1) (Packed_bits.nth_set t 4);
  check "nth_clear 0" 0 (Packed_bits.nth_clear t 0);
  check "nth_clear 5" 6 (Packed_bits.nth_clear t 5)

let test_packed_index_arithmetic () =
  (* The magic-number division by 62 must agree with real division for
     every index in use. nth_set/iter_set compute positions independently
     of word_of_index, so a single-bit roundtrip catches a misplaced
     word. Sweep all indices of a multi-word set plus boundaries. *)
  let len = 5 * 62 + 17 in
  let t = Packed_bits.create len in
  for i = 0 to len - 1 do
    Packed_bits.clear_all t;
    Packed_bits.set t i;
    Alcotest.(check (list int))
      (Printf.sprintf "single bit %d" i)
      [ i ] (members t);
    check "nth_set roundtrip" i (Packed_bits.nth_set t 0)
  done;
  (* Large indices: spot-check the magic constant far beyond any m. *)
  let big = Packed_bits.create 1_000_000 in
  List.iter
    (fun i ->
      Packed_bits.set big i;
      Alcotest.(check bool) (Printf.sprintf "big %d" i) true
        (Packed_bits.get big i))
    [ 0; 61; 62; 999_998; 999_999; 123_456; 619_999 ];
  check "big count" 7 (Packed_bits.count big)

let test_packed_inter () =
  let a = Packed_bits.create 200 and b = Packed_bits.create 200 in
  List.iter (Packed_bits.set a) [ 1; 63; 64; 150; 199 ];
  List.iter (Packed_bits.set b) [ 0; 63; 150; 160; 199 ];
  let acc = ref [] in
  Packed_bits.iter_inter a b (fun i -> acc := i :: !acc);
  Alcotest.(check (list int)) "intersection" [ 63; 150; 199 ] (List.rev !acc)

(* [count_inter] is the length of what [iter_inter] visits, on random
   pairs of sets spanning several words, full words and tails included. *)
let prop_count_inter =
  Test_support.qcheck_case ~name:"count_inter = |iter_inter|"
    QCheck2.Gen.(
      int_range 1 400 >>= fun len ->
      int_range 0 4 >>= fun da ->
      int_range 0 4 >>= fun db ->
      int >>= fun seed -> return (len, da, db, seed))
    (fun (len, da, db, seed) ->
      let rng = Lesslog_prng.Rng.create ~seed in
      let fill density =
        let t = Packed_bits.create len in
        for i = 0 to len - 1 do
          if Lesslog_prng.Rng.float rng 4.0 < float_of_int density then
            Packed_bits.set t i
        done;
        t
      in
      let a = fill da and b = fill db in
      let n = ref 0 in
      Packed_bits.iter_inter a b (fun _ -> incr n);
      Packed_bits.count_inter a b = !n && Packed_bits.count_inter b a = !n)

(* Model-based property: a packed set behaves like a bool array. *)
let prop_packed_model =
  Test_support.qcheck_case ~name:"packed_bits matches bool-array model"
    QCheck2.Gen.(
      int_range 1 300 >>= fun len ->
      list_size (int_range 0 120) (pair bool (int_range 0 (len - 1)))
      >>= fun ops -> return (len, ops))
    (fun (len, ops) ->
      let t = Packed_bits.create len in
      let model = Array.make len false in
      List.iter
        (fun (set, i) ->
          if set then begin
            Packed_bits.set t i;
            model.(i) <- true
          end
          else begin
            Packed_bits.clear t i;
            model.(i) <- false
          end)
        ops;
      let model_members =
        List.filter (fun i -> model.(i)) (List.init len Fun.id)
      in
      let model_clear =
        List.filter (fun i -> not model.(i)) (List.init len Fun.id)
      in
      let below i =
        let rec go j = if j < 0 then -1 else if model.(j) then j else go (j - 1) in
        go i
      in
      let above i =
        let rec go j = if j >= len then -1 else if model.(j) then j else go (j + 1) in
        go i
      in
      members t = model_members
      && non_members t = model_clear
      && Packed_bits.count t = List.length model_members
      && List.for_all (fun i -> Packed_bits.get t i = model.(i))
           (List.init len Fun.id)
      && List.for_all
           (fun i -> Packed_bits.first_set_at_or_below t i = below i)
           (List.init len Fun.id)
      && List.for_all
           (fun i -> Packed_bits.first_set_at_or_above t i = above i)
           (List.init len Fun.id)
      && List.for_all
           (fun n ->
             Packed_bits.nth_set t n
             = (match List.nth_opt model_members n with Some i -> i | None -> -1))
           (List.init (List.length model_members + 2) Fun.id)
      && List.for_all
           (fun n ->
             Packed_bits.nth_clear t n
             = (match List.nth_opt model_clear n with Some i -> i | None -> -1))
           (List.init (List.length model_clear + 2) Fun.id)
      && Packed_bits.equal t t
      && Packed_bits.equal (Packed_bits.copy t) t)

let () =
  Alcotest.run "bits"
    [
      ( "bitops",
        [
          Alcotest.test_case "mask" `Quick test_mask;
          Alcotest.test_case "complement" `Quick test_complement;
          Alcotest.test_case "popcount" `Quick test_popcount;
          Alcotest.test_case "floor_log2" `Quick test_floor_log2;
          Alcotest.test_case "leading_ones" `Quick test_leading_ones;
          Alcotest.test_case "highest_zero_bit" `Quick test_highest_zero_bit;
          Alcotest.test_case "bit set/clear/test" `Quick test_bit_ops;
          Alcotest.test_case "trailing_zeros" `Quick test_trailing_zeros;
          Alcotest.test_case "field extraction" `Quick test_field_extraction;
          Alcotest.test_case "binary rendering" `Quick test_binary_string;
        ] );
      ( "properties",
        [
          prop_complement_involutive;
          prop_popcount_split;
          prop_leading_ones_bound;
          prop_splice_inverse;
          prop_floor_log2;
        ] );
      ( "packed_bits",
        [
          Alcotest.test_case "basics" `Quick test_packed_basics;
          Alcotest.test_case "create_full" `Quick test_packed_full;
          Alcotest.test_case "selects" `Quick test_packed_selects;
          Alcotest.test_case "index arithmetic" `Quick
            test_packed_index_arithmetic;
          Alcotest.test_case "intersection" `Quick test_packed_inter;
          prop_count_inter;
          prop_packed_model;
        ] );
    ]
