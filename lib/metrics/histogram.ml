(* Streaming log-bucketed histogram (DDSketch-style). A positive sample
   [x] lands in bucket [round (ln x / ln gamma)]; the bucket's
   representative value [gamma^i] is within half a bucket — about 0.25%
   relative error at gamma = 1.005 — of every sample it holds. Counts
   live in a lazily grown window array indexed from [base], so [add],
   [count], [mean] and [quantile] are all O(1)-ish (quantile walks the
   bucket window, whose size is bounded by the value range, not by the
   sample count). Count, sum, min and max are tracked exactly; samples
   [<= 0] go to a dedicated zero bucket (the sketch targets the
   non-negative latency/hop data of the simulators). *)

let gamma = 1.005
let inv_ln_gamma = 1.0 /. log gamma

(* |idx| cap: gamma^6000 ~ 1e13, gamma^-6000 ~ 1e-13. Values beyond are
   clamped into the edge buckets, bounding the window at ~12001 slots. *)
let max_idx = 6000

(* The running sum and extremes in an all-float record, which OCaml
   stores flat: as float fields of the mixed record [t] they would be
   pointers to boxes, and every [add] would allocate up to three. *)
type moments = { mutable sum : float; mutable mn : float; mutable mx : float }

type t = {
  mutable counts : int array;
  mutable base : int; (* bucket index of counts.(0) *)
  mutable zero : int; (* samples <= 0 *)
  mutable n : int;
  m : moments;
}

let create () =
  {
    counts = [||];
    base = 0;
    zero = 0;
    n = 0;
    m = { sum = 0.0; mn = infinity; mx = neg_infinity };
  }

let[@inline] bucket_idx x =
  let i = int_of_float (Float.round (log x *. inv_ln_gamma)) in
  if i < -max_idx then -max_idx else if i > max_idx then max_idx else i

let representative i = gamma ** float_of_int i

let grow t i =
  let lo = min t.base i - 16 and hi = max (t.base + Array.length t.counts) (i + 1) + 16 in
  let lo = max lo (-max_idx) and hi = min hi (max_idx + 1) in
  let grown = Array.make (hi - lo) 0 in
  Array.blit t.counts 0 grown (t.base - lo) (Array.length t.counts);
  t.counts <- grown;
  t.base <- lo

(* Inlined into both entry points, so [add_int]'s converted sample is
   never boxed. *)
let[@inline] record t x =
  t.n <- t.n + 1;
  t.m.sum <- t.m.sum +. x;
  if x < t.m.mn then t.m.mn <- x;
  if x > t.m.mx then t.m.mx <- x;
  if x <= 0.0 then t.zero <- t.zero + 1
  else begin
    let i = bucket_idx x in
    if Array.length t.counts = 0 then begin
      t.counts <- Array.make 32 0;
      t.base <- max (-max_idx) (i - 16)
    end;
    if i < t.base || i >= t.base + Array.length t.counts then grow t i;
    t.counts.(i - t.base) <- t.counts.(i - t.base) + 1
  end

(* Inlined at its callers too, so a sample computed there (a latency) is
   not boxed for the call. *)
let[@inline] add t x = record t x
let add_int t x = record t (float_of_int x)
let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.m.sum /. float_of_int t.n

(* Every sketch shares the module-level gamma, so bucket index [i] means
   the same value range in both operands and merging is a bucket-wise
   add over the union window. Count, sum, min and max recombine exactly;
   the bucket counts carry no per-sketch error, so (A ⊎ B) is the sketch
   that would have been built by streaming both inputs — merge is
   associative and commutative up to float addition of [sum]. *)
let merge t ~from =
  if from.n > 0 then begin
    t.n <- t.n + from.n;
    t.m.sum <- t.m.sum +. from.m.sum;
    if from.m.mn < t.m.mn then t.m.mn <- from.m.mn;
    if from.m.mx > t.m.mx then t.m.mx <- from.m.mx;
    t.zero <- t.zero + from.zero;
    let flen = Array.length from.counts in
    if flen > 0 then begin
      if Array.length t.counts = 0 then begin
        t.counts <- Array.copy from.counts;
        t.base <- from.base
      end
      else begin
        let lo = min t.base from.base
        and hi =
          max (t.base + Array.length t.counts) (from.base + flen)
        in
        if lo < t.base || hi > t.base + Array.length t.counts then begin
          let grown = Array.make (hi - lo) 0 in
          Array.blit t.counts 0 grown (t.base - lo) (Array.length t.counts);
          t.counts <- grown;
          t.base <- lo
        end;
        for i = 0 to flen - 1 do
          let j = from.base + i - t.base in
          t.counts.(j) <- t.counts.(j) + from.counts.(i)
        done
      end
    end
  end

let clamp t v = Float.max t.m.mn (Float.min t.m.mx v)

let quantile t q =
  if t.n = 0 then invalid_arg "Histogram.quantile: empty";
  if q < 0.0 || q > 1.0 then invalid_arg "Histogram.quantile: out of range";
  if q = 0.0 then t.m.mn
  else if q = 1.0 then t.m.mx
  else begin
    let rank = int_of_float (Float.round (q *. float_of_int (t.n - 1))) in
    if rank < t.zero then clamp t 0.0
    else begin
      let cum = ref t.zero and res = ref t.m.mx in
      (try
         for i = 0 to Array.length t.counts - 1 do
           cum := !cum + t.counts.(i);
           if rank < !cum then begin
             res := representative (t.base + i);
             raise Exit
           end
         done
       with Exit -> ());
      clamp t !res
    end
  end

let median t = quantile t 0.5

let max_value t =
  if t.n = 0 then invalid_arg "Histogram.max_value: empty";
  t.m.mx

let min_value t =
  if t.n = 0 then invalid_arg "Histogram.min_value: empty";
  t.m.mn

let buckets t ~width =
  if width <= 0.0 then invalid_arg "Histogram.buckets";
  if t.n = 0 then []
  else begin
    let tbl = Hashtbl.create 16 in
    let put v c =
      if c > 0 then begin
        let b = floor (v /. width) *. width in
        Hashtbl.replace tbl b (c + Option.value ~default:0 (Hashtbl.find_opt tbl b))
      end
    in
    put (clamp t 0.0) t.zero;
    Array.iteri (fun i c -> if c > 0 then put (clamp t (representative (t.base + i))) c) t.counts;
    Hashtbl.fold (fun b c acc -> (b, c) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  end

let pp fmt t =
  if count t = 0 then Format.pp_print_string fmt "(empty)"
  else
    Format.fprintf fmt "n=%d mean=%.3g p50=%.3g p99=%.3g max=%.3g" (count t)
      (mean t) (median t) (quantile t 0.99) (max_value t)

(* Exact sample-retaining variant, kept for tests and small data. *)
module Exact = struct
  type t = {
    mutable samples : float list;
    mutable sorted : float array option;
    mutable n : int;
    mutable sum : float;
  }

  let create () = { samples = []; sorted = None; n = 0; sum = 0.0 }

  let add t x =
    t.samples <- x :: t.samples;
    t.sorted <- None;
    t.n <- t.n + 1;
    t.sum <- t.sum +. x

  let add_int t x = add t (float_of_int x)
  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

  let merge t ~from =
    t.samples <- List.rev_append from.samples t.samples;
    t.sorted <- None;
    t.n <- t.n + from.n;
    t.sum <- t.sum +. from.sum

  let sorted t =
    match t.sorted with
    | Some a -> a
    | None ->
        let a = Array.of_list t.samples in
        Array.sort Float.compare a;
        t.sorted <- Some a;
        a

  let quantile t q =
    let a = sorted t in
    if Array.length a = 0 then invalid_arg "Histogram.quantile: empty";
    if q < 0.0 || q > 1.0 then invalid_arg "Histogram.quantile: out of range";
    let n = Array.length a in
    let rank = int_of_float (Float.round (q *. float_of_int (n - 1))) in
    a.(rank)

  let median t = quantile t 0.5

  let max_value t =
    let a = sorted t in
    if Array.length a = 0 then invalid_arg "Histogram.max_value: empty";
    a.(Array.length a - 1)

  let min_value t =
    let a = sorted t in
    if Array.length a = 0 then invalid_arg "Histogram.min_value: empty";
    a.(0)

  let buckets t ~width =
    if width <= 0.0 then invalid_arg "Histogram.buckets";
    let a = sorted t in
    if Array.length a = 0 then []
    else begin
      let tbl = Hashtbl.create 16 in
      Array.iter
        (fun x ->
          let b = floor (x /. width) *. width in
          Hashtbl.replace tbl b (1 + Option.value ~default:0 (Hashtbl.find_opt tbl b)))
        a;
      Hashtbl.fold (fun b c acc -> (b, c) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
    end

  let pp fmt t =
    if count t = 0 then Format.pp_print_string fmt "(empty)"
    else
      Format.fprintf fmt "n=%d mean=%.3g p50=%.3g p99=%.3g max=%.3g" (count t)
        (mean t) (median t) (quantile t 0.99) (max_value t)
end
