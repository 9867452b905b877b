type t = { tau : float; mutable count : float; mutable stamp : float }

let check_tau what tau = if not (tau > 0.0) then invalid_arg what

let create ?(tau = 30.0) ~now () =
  check_tau "Access_counter.create" tau;
  { tau; count = 0.0; stamp = now }

(* The decay rule, for [t] and [Slots] alike: [count] last brought up to
   date at [stamp], decayed to [now]. The per-serve entry points are
   inlined at their callers, so [now] reaches the all-float (flat)
   records and arrays without being boxed. *)
let[@inline] decayed ~count ~stamp ~tau ~now =
  if now > stamp then count *. exp (-.(now -. stamp) /. tau) else count

let[@inline] decay t ~now =
  t.count <- decayed ~count:t.count ~stamp:t.stamp ~tau:t.tau ~now;
  if now > t.stamp then t.stamp <- now

let[@inline] record t ~now =
  decay t ~now;
  t.count <- t.count +. 1.0

let record_many t ~now ~count =
  decay t ~now;
  t.count <- t.count +. float_of_int count

let[@inline] value t ~now =
  decay t ~now;
  t.count

let[@inline] rate t ~now = value t ~now /. t.tau

let reset t ~now =
  t.count <- 0.0;
  t.stamp <- now

module Slots = struct
  type t = { tau : float; count : Float.Array.t; stamp : Float.Array.t }

  let create ?(tau = 30.0) ~now n =
    check_tau "Access_counter.Slots.create" tau;
    { tau; count = Float.Array.make n 0.0; stamp = Float.Array.make n now }

  let[@inline] decay t i ~now =
    let stamp = Float.Array.get t.stamp i in
    Float.Array.set t.count i
      (decayed ~count:(Float.Array.get t.count i) ~stamp ~tau:t.tau ~now);
    if now > stamp then Float.Array.set t.stamp i now

  let[@inline] record t i ~now =
    decay t i ~now;
    Float.Array.set t.count i (Float.Array.get t.count i +. 1.0)

  let[@inline] rate t i ~now =
    decay t i ~now;
    Float.Array.get t.count i /. t.tau
end
