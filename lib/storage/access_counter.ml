type t = { tau : float; mutable count : float; mutable stamp : float }

let create ?(tau = 30.0) ~now () =
  if not (tau > 0.0) then invalid_arg "Access_counter.create";
  { tau; count = 0.0; stamp = now }

(* The per-serve entry points are inlined at their callers, so [now]
   reaches this all-float (flat) record without being boxed. *)
let[@inline] decay t ~now =
  if now > t.stamp then begin
    t.count <- t.count *. exp (-.(now -. t.stamp) /. t.tau);
    t.stamp <- now
  end

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
