let max_width = 24

let mask ~width = (1 lsl width) - 1

let complement ~width v = lnot v land mask ~width

let[@inline] popcount x =
  (* SWAR popcount over the 63 value bits of an OCaml int. *)
  let m1 = 0x5555_5555_5555_5555 in
  let m2 = 0x3333_3333_3333_3333 in
  let m4 = 0x0F0F_0F0F_0F0F_0F0F in
  let x = x - ((x lsr 1) land m1) in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land m4 in
  (x * 0x0101_0101_0101_0101) lsr 56

let[@inline] floor_log2 x =
  if x <= 0 then invalid_arg "Bitops.floor_log2";
  let r = ref 0 and x = ref x in
  if !x lsr 32 <> 0 then begin x := !x lsr 32; r := !r + 32 end;
  if !x lsr 16 <> 0 then begin x := !x lsr 16; r := !r + 16 end;
  if !x lsr 8 <> 0 then begin x := !x lsr 8; r := !r + 8 end;
  if !x lsr 4 <> 0 then begin x := !x lsr 4; r := !r + 4 end;
  if !x lsr 2 <> 0 then begin x := !x lsr 2; r := !r + 2 end;
  if !x lsr 1 <> 0 then r := !r + 1;
  !r

let highest_zero_bit ~width v =
  let zeros = lnot v land mask ~width in
  if zeros = 0 then None else Some (floor_log2 zeros)

let leading_ones ~width v =
  match highest_zero_bit ~width v with
  | None -> width
  | Some h -> width - 1 - h

let test_bit v i = (v lsr i) land 1 = 1

let set_bit v i = v lor (1 lsl i)

let clear_bit v i = v land lnot (1 lsl i)

(* Branch-free: the bits below the lowest set one, counted. Through
   [floor_log2]'s six data-dependent tests, every bitset walk
   ({!Packed_bits}'s iterators) ran up to a fifth slower or faster with
   the code's placement in the binary. *)
let trailing_zeros x =
  if x = 0 then invalid_arg "Bitops.trailing_zeros";
  popcount ((x land -x) - 1)

let is_all_ones ~width v = v = mask ~width

let in_range ~width v = v >= 0 && v <= mask ~width

let low_bits ~width v = v land mask ~width

let high_bits ~total ~low v =
  (v lsr low) land mask ~width:(total - low)

let splice ~total ~low ~high lowv =
  ignore total;
  (high lsl low) lor lowv

let to_binary_string ~width v =
  String.init width (fun i ->
      if test_bit v (width - 1 - i) then '1' else '0')

let pp_binary ~width fmt v =
  Format.pp_print_string fmt (to_binary_string ~width v)
