let bits_per_word = 62

(* Constant division is not strength-reduced by ocamlopt, and [/ 62] in the
   bit-test hot path would cost a hardware divide. Magic-number division:
   for 0 <= i < 2^30, floor (i / 62) = (i * 2_216_757_315) lsr 37.
   All indices here are PID/VID slots, far below 2^30. *)
let[@inline] word_of_index i = (i * 2_216_757_315) lsr 37
let[@inline] bit_of_index i = i - (word_of_index i * bits_per_word)

type t = { len : int; words : int array }

let nwords len = (len + bits_per_word - 1) / bits_per_word

let create len =
  if len <= 0 then invalid_arg "Packed_bits.create";
  { len; words = Array.make (nwords len) 0 }

let tail_mask len =
  let tail = len - ((nwords len - 1) * bits_per_word) in
  (1 lsl tail) - 1

let create_full len =
  let t = create len in
  Array.fill t.words 0 (Array.length t.words) ((1 lsl bits_per_word) - 1);
  t.words.(Array.length t.words - 1) <- tail_mask len;
  t

let length t = t.len

let copy t = { len = t.len; words = Array.copy t.words }

let clear_all t = Array.fill t.words 0 (Array.length t.words) 0

let[@inline] get t i = t.words.(word_of_index i) land (1 lsl bit_of_index i) <> 0

let set t i =
  let w = word_of_index i in
  t.words.(w) <- t.words.(w) lor (1 lsl bit_of_index i)

let clear t i =
  let w = word_of_index i in
  t.words.(w) <- t.words.(w) land lnot (1 lsl bit_of_index i)

let count t = Array.fold_left (fun acc w -> acc + Bitops.popcount w) 0 t.words

let equal a b = a.len = b.len && a.words = b.words

let first_set_at_or_below t i =
  let w = word_of_index i in
  let below = t.words.(w) land ((1 lsl (bit_of_index i + 1)) - 1) in
  if below <> 0 then (w * bits_per_word) + Bitops.floor_log2 below
  else begin
    let rec scan w =
      if w < 0 then -1
      else if t.words.(w) <> 0 then
        (w * bits_per_word) + Bitops.floor_log2 t.words.(w)
      else scan (w - 1)
    in
    scan (w - 1)
  end

let first_set_at_or_above t i =
  let w = word_of_index i in
  let above = t.words.(w) land lnot ((1 lsl bit_of_index i) - 1) in
  if above <> 0 then (w * bits_per_word) + Bitops.trailing_zeros above
  else begin
    let n = Array.length t.words in
    let rec scan w =
      if w >= n then -1
      else if t.words.(w) <> 0 then
        (w * bits_per_word) + Bitops.trailing_zeros t.words.(w)
      else scan (w + 1)
    in
    scan (w + 1)
  end

let first_set_in_range t ~lo ~hi =
  if lo > hi then -1
  else
    let i = first_set_at_or_above t lo in
    if i >= 0 && i <= hi then i else -1

(* Select the n-th (0-based) set bit of a single nonzero word. *)
let select_in_word word n =
  let w = ref word in
  for _ = 1 to n do
    w := !w land (!w - 1)
  done;
  Bitops.trailing_zeros (!w land - !w)

let nth_set t n =
  let rec scan w remaining =
    if w >= Array.length t.words then -1
    else
      let pc = Bitops.popcount t.words.(w) in
      if remaining < pc then
        (w * bits_per_word) + select_in_word t.words.(w) remaining
      else scan (w + 1) (remaining - pc)
  in
  if n < 0 then -1 else scan 0 n

let nth_clear t n =
  let last = Array.length t.words - 1 in
  let rec scan w remaining =
    if w > last then -1
    else
      let width_mask =
        if w = last then tail_mask t.len else (1 lsl bits_per_word) - 1
      in
      let zeros = lnot t.words.(w) land width_mask in
      let pc = Bitops.popcount zeros in
      if remaining < pc then (w * bits_per_word) + select_in_word zeros remaining
      else scan (w + 1) (remaining - pc)
  in
  if n < 0 then -1 else scan 0 n

let iter_word base word f =
  let w = ref word in
  while !w <> 0 do
    let low = !w land - !w in
    f (base + Bitops.trailing_zeros low);
    w := !w land (!w - 1)
  done

let iter_set t f =
  for w = 0 to Array.length t.words - 1 do
    if t.words.(w) <> 0 then iter_word (w * bits_per_word) t.words.(w) f
  done

let fold_set t ~init ~f =
  let acc = ref init in
  iter_set t (fun i -> acc := f !acc i);
  !acc

let iter_clear t f =
  let last = Array.length t.words - 1 in
  for w = 0 to last do
    let width_mask =
      if w = last then tail_mask t.len else (1 lsl bits_per_word) - 1
    in
    let zeros = lnot t.words.(w) land width_mask in
    if zeros <> 0 then iter_word (w * bits_per_word) zeros f
  done

let count_inter a b =
  if a.len <> b.len then invalid_arg "Packed_bits.count_inter: length mismatch";
  let n = ref 0 in
  for w = 0 to Array.length a.words - 1 do
    n :=
      !n
      + Bitops.popcount
          (Array.unsafe_get a.words w land Array.unsafe_get b.words w)
  done;
  !n

let iter_inter a b f =
  if a.len <> b.len then invalid_arg "Packed_bits.iter_inter: length mismatch";
  for w = 0 to Array.length a.words - 1 do
    let inter = a.words.(w) land b.words.(w) in
    if inter <> 0 then iter_word (w * bits_per_word) inter f
  done
