module Rng = Lesslog_prng.Rng

type policy = {
  max_retries : int;
  base : float;
  factor : float;
  max_delay : float;
  jitter : float;
}

let default =
  { max_retries = 4; base = 0.25; factor = 2.0; max_delay = 2.0; jitter = 0.5 }

let create ?(max_retries = default.max_retries) ?(base = default.base)
    ?(factor = default.factor) ?(max_delay = default.max_delay)
    ?(jitter = default.jitter) () =
  if max_retries < 0 then invalid_arg "Retry.create: max_retries";
  if not (base > 0.0) then invalid_arg "Retry.create: base";
  if factor < 1.0 then invalid_arg "Retry.create: factor";
  if max_delay < base then invalid_arg "Retry.create: max_delay";
  if not (jitter >= 0.0 && jitter <= 1.0) then invalid_arg "Retry.create: jitter";
  { max_retries; base; factor; max_delay; jitter }

let attempts p = p.max_retries + 1

(* Inlined where called, so the result reaches the caller unboxed. *)
let[@inline] backoff p ~retry =
  if retry < 1 then invalid_arg "Retry.backoff: retry";
  Float.min p.max_delay (p.base *. (p.factor ** float_of_int (retry - 1)))

let[@inline] delay p rng ~retry =
  let b = backoff p ~retry in
  if p.jitter = 0.0 then b
  else b *. (1.0 -. (p.jitter *. Rng.float rng 1.0))

let max_lifetime p ~timeout =
  let rec sum acc retry =
    if retry > p.max_retries then acc
    else sum (acc +. backoff p ~retry) (retry + 1)
  in
  (float_of_int (attempts p) *. timeout) +. sum 0.0 1
