open Lesslog_id
module Rng = Lesslog_prng.Rng
module Packed_bits = Lesslog_bits.Packed_bits

type t = {
  params : Params.t;
  bits : Packed_bits.t;
  mutable live : int;
  mutable epoch : int;
}

let create params ~initially_live =
  let space = Params.space params in
  {
    params;
    bits =
      (if initially_live then Packed_bits.create_full space
       else Packed_bits.create space);
    live = (if initially_live then space else 0);
    epoch = 0;
  }

let params t = t.params
let epoch t = t.epoch
let live_bits t = t.bits

let is_live t p = Packed_bits.get t.bits (Pid.to_int p)
let is_dead t p = not (is_live t p)

let set_live t p =
  if not (is_live t p) then begin
    Packed_bits.set t.bits (Pid.to_int p);
    t.live <- t.live + 1;
    t.epoch <- t.epoch + 1
  end

let set_dead t p =
  if is_live t p then begin
    Packed_bits.clear t.bits (Pid.to_int p);
    t.live <- t.live - 1;
    t.epoch <- t.epoch + 1
  end

let of_live_list params pids =
  let t = create params ~initially_live:false in
  List.iter (set_live t) pids;
  t

let copy t =
  {
    params = t.params;
    bits = Packed_bits.copy t.bits;
    live = t.live;
    epoch = 0;
  }

let live_count t = t.live
let dead_count t = Params.space t.params - t.live

let fold_live t ~init ~f =
  Packed_bits.fold_set t.bits ~init ~f:(fun acc i -> f acc (Pid.unsafe_of_int i))

let iter_live t f = Packed_bits.iter_set t.bits (fun i -> f (Pid.unsafe_of_int i))

let live_pids t = List.rev (fold_live t ~init:[] ~f:(fun acc p -> p :: acc))

let dead_pids t =
  let acc = ref [] in
  Packed_bits.iter_clear t.bits (fun i -> acc := Pid.unsafe_of_int i :: !acc);
  List.rev !acc

let live_array t =
  let a = Array.make t.live (Pid.unsafe_of_int 0) in
  let j = ref 0 in
  iter_live t (fun p ->
      a.(!j) <- p;
      incr j);
  a

let first_live_at_or_below t p =
  match Packed_bits.first_set_at_or_below t.bits (Pid.to_int p) with
  | -1 -> None
  | i -> Some (Pid.unsafe_of_int i)

let first_live_in_range t ~lo ~hi =
  match
    Packed_bits.first_set_in_range t.bits ~lo:(Pid.to_int lo)
      ~hi:(Pid.to_int hi)
  with
  | -1 -> None
  | i -> Some (Pid.unsafe_of_int i)

let nth_live t n =
  match Packed_bits.nth_set t.bits n with
  | -1 -> None
  | i -> Some (Pid.unsafe_of_int i)

let nth_dead t n =
  match Packed_bits.nth_clear t.bits n with
  | -1 -> None
  | i -> Some (Pid.unsafe_of_int i)

(* Rejection sampling is cheap when the wanted population is dense, which
   holds for every experiment in the paper; after a few misses we switch
   to exact rank/select, which costs one word scan. *)
let max_sample_attempts = 16

let random_live t rng =
  if t.live = 0 then None
  else begin
    let space = Params.space t.params in
    let rec try_random k =
      if k = 0 then nth_live t (Rng.int rng t.live)
      else
        let i = Rng.int rng space in
        if Packed_bits.get t.bits i then Some (Pid.unsafe_of_int i)
        else try_random (k - 1)
    in
    try_random max_sample_attempts
  end

let random_dead t rng =
  let dead = dead_count t in
  if dead = 0 then None
  else begin
    let space = Params.space t.params in
    let rec try_random k =
      if k = 0 then nth_dead t (Rng.int rng dead)
      else
        let i = Rng.int rng space in
        if not (Packed_bits.get t.bits i) then Some (Pid.unsafe_of_int i)
        else try_random (k - 1)
    in
    try_random max_sample_attempts
  end

let kill_fraction t rng ~fraction =
  if not (0.0 <= fraction && fraction <= 1.0) then
    invalid_arg "Status_word.kill_fraction: fraction must be in [0, 1]";
  let live = live_array t in
  let k = int_of_float (Float.round (fraction *. float_of_int (Array.length live))) in
  let victims = Rng.sample_without_replacement rng ~k live in
  Array.iter (set_dead t) victims;
  Array.to_list victims

let equal a b = a.params = b.params && Packed_bits.equal a.bits b.bits

let pp fmt t =
  Format.fprintf fmt "status_word(live=%d/%d)" t.live (Params.space t.params)
