type t = Splitmix.t

let create ~seed = Splitmix.create (Int64.of_int seed)

let copy = Splitmix.copy

let split = Splitmix.split

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  (* Rejection sampling to avoid modulo bias. *)
  let max63 = max_int in
  let limit = max63 - (max63 mod bound) in
  let x = ref (Splitmix.next_int63 t) in
  while !x >= limit do
    x := Splitmix.next_int63 t
  done;
  !x mod bound

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in";
  lo + int t (hi - lo + 1)

(* [float], [bernoulli] and [exponential] are inlined at their call
   sites, so no float argument or result of theirs is boxed. *)
let[@inline] float t bound =
  (* 53 of the 62 random bits, scaled to [0, bound). *)
  let bits = Splitmix.next_int63 t lsr 9 in
  float_of_int bits /. 9007199254740992.0 *. bound

let bool t = Splitmix.next_int63 t land 1 = 1

let[@inline] bernoulli t ~p = float t 1.0 < p

let[@inline] exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential";
  let u = 1.0 -. float t 1.0 in
  -.log u /. rate

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick";
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list"
  | _ -> List.nth l (int t (List.length l))

let sample_without_replacement t ~k a =
  let n = Array.length a in
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  let copy = Array.copy a in
  (* Partial Fisher-Yates: the first k slots end up a uniform sample. *)
  for i = 0 to k - 1 do
    let j = int_in t ~lo:i ~hi:(n - 1) in
    let tmp = copy.(i) in
    copy.(i) <- copy.(j);
    copy.(j) <- tmp
  done;
  Array.sub copy 0 k
