(* The 64-bit state lives in an 8-byte buffer, read and written as an
   unboxed machine word. As an [int64] record field it would be a
   pointer to a box, and every draw would allocate a new one. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let copy = Bytes.copy

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] next t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix state

(* [Int64.to_int] keeps the low 63 bits, whose top bit is the OCaml int's
   sign bit; clearing it leaves 62 uniform non-negative bits. *)
let[@inline] next_int63 t = Int64.to_int (next t) land max_int

let split t =
  let seed = next t in
  create (mix seed)
