module Rng = Lesslog_prng.Rng

type t =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float; floor : float }

let default = Uniform { lo = 0.010; hi = 0.080 }

let validate ~who t =
  let fail msg = invalid_arg (who ^ ": latency " ^ msg) in
  let finite name v = if not (Float.is_finite v) then fail (name ^ " must be finite") in
  match t with
  | Constant d ->
      finite "constant" d;
      if d < 0.0 then fail "constant must be >= 0"
  | Uniform { lo; hi } ->
      finite "lo" lo;
      finite "hi" hi;
      if lo < 0.0 then fail "lo must be >= 0";
      if hi < lo then fail "hi must be >= lo"
  | Exponential { mean; floor } ->
      finite "mean" mean;
      finite "floor" floor;
      if floor < 0.0 then fail "floor must be >= 0";
      if not (mean > 0.0) then fail "mean must be > 0"

let min = function
  | Constant d -> d
  | Uniform { lo; _ } -> lo
  | Exponential { floor; _ } -> floor

(* Inlined at its call sites, so the sampled delay reaches
   [Engine.post] unboxed. *)
let[@inline] sample t rng =
  match t with
  | Constant d -> d
  | Uniform { lo; hi } -> lo +. Rng.float rng (hi -. lo)
  | Exponential { mean; floor } ->
      floor +. Rng.exponential rng ~rate:(1.0 /. mean)

let mean = function
  | Constant d -> d
  | Uniform { lo; hi } -> (lo +. hi) /. 2.0
  | Exponential { mean; floor } -> floor +. mean

let pp fmt = function
  | Constant d -> Format.fprintf fmt "constant(%gs)" d
  | Uniform { lo; hi } -> Format.fprintf fmt "uniform(%g..%gs)" lo hi
  | Exponential { mean; floor } ->
      Format.fprintf fmt "exponential(mean=%gs, floor=%gs)" mean floor
