(* Ladder/calendar event queue, struct-of-arrays.

   Items are events (time, seq, h, a, b, x) ordered by (time, seq) with
   Float.compare/Int.compare semantics on finite keys. Storage is three
   bands:

   - [opened]: a small binary min-heap holding the events of the bucket
     currently being drained (plus any event pushed at or before its
     upper bound, e.g. zero-delay messages);
   - a stack of rungs, each a window of [nbuckets] append-only unsorted
     buckets of width [rung.width]; an oversized bucket is split into a
     finer child rung instead of being heaped, which keeps the heap
     small under bursts;
   - [far]: a min-heap for events beyond the outermost rung. When every
     rung is exhausted the far band is scattered into a fresh rung whose
     width is fitted to the observed span.

   A bucket is a chain of fixed [block]-slot blocks of one per-queue
   slab. Draining a bucket (into the run, or split into a child rung)
   walks its chain and hands each block back to the slab's free list
   once read, so the slab grows only when the free list is empty: queue
   memory follows the peak number of events held in rungs, not the
   number that pass through them. The outermost rung is fitted to the
   whole far span, so its buckets typically fill once and are never
   refilled; arrays owned per bucket would be grown for every event
   that passes and then never reused.

   All bands store events in parallel scalar arrays (no per-event boxes).
   Without flambda, OCaml boxes a float stored in a mixed record or
   passed to (or returned from) a function that is not inlined, so the
   float state lives in flat all-float records ([floats], [window]) and
   no event float crosses an out-of-line call: band moves copy slots by
   index, the pushed event is staged in [floats], and the helpers that
   take a float are [@inline]. Once capacity is warm, [pop] and
   [pop_until] allocate nothing in any build, and neither does [push]
   where it is inlined (release builds; under [-opaque] its caller boxes
   [time] and [x]). Capacity growth — a vec or the slab doubling, the
   rung pool gaining a rung — is the only allocation. *)

type vec = {
  mutable t : float array;
  mutable s : int array;
  mutable h : int array;
  mutable a : int array;
  mutable b : int array;
  mutable x : float array;
  mutable len : int;
}

let vec_make () =
  { t = [||]; s = [||]; h = [||]; a = [||]; b = [||]; x = [||]; len = 0 }

(* Replace [v]'s arrays by ones of [cap] slots holding its first [len]. *)
let vec_resize v cap =
  let grow_f old =
    let n = Array.make cap 0.0 in
    Array.blit old 0 n 0 v.len; n
  and grow_i old =
    let n = Array.make cap 0 in
    Array.blit old 0 n 0 v.len; n
  in
  v.t <- grow_f v.t;
  v.s <- grow_i v.s;
  v.h <- grow_i v.h;
  v.a <- grow_i v.a;
  v.b <- grow_i v.b;
  v.x <- grow_f v.x

let vec_reserve v =
  if v.len = Array.length v.t then vec_resize v (max 16 (2 * v.len))

(* The queue's float state. An all-float record is stored flat, so its
   fields are read and written unboxed; a float field of a mixed record
   is a pointer to a box, and every write allocates one. *)
type floats = {
  mutable new_time : float;  (* the event being pushed, see {!push} *)
  mutable new_x : float;
  mutable far_max : float;
  mutable open_bound : float;
      (* events strictly below this time belong to [opened] *)
  mutable c_time : float;  (* pop cursor *)
  mutable c_x : float;
}

(* Copy slot [i] of [src] over slot [j] of [dst]. Every move of a queued
   event — between bands, and inside a heap or a sort — goes through
   here by index, so its two floats never leave the arrays. Indices are
   maintained internally, so unchecked accesses are safe. *)
let[@inline] move_slot src i dst j =
  Array.unsafe_set dst.t j (Array.unsafe_get src.t i);
  Array.unsafe_set dst.s j (Array.unsafe_get src.s i);
  Array.unsafe_set dst.h j (Array.unsafe_get src.h i);
  Array.unsafe_set dst.a j (Array.unsafe_get src.a i);
  Array.unsafe_set dst.b j (Array.unsafe_get src.b i);
  Array.unsafe_set dst.x j (Array.unsafe_get src.x i)

(* The one place a new event's fields enter the arrays. Its two floats
   come from the flat staging fields of [fl] (see {!push}). *)
let[@inline] write_new v i fl ~seq ~h ~a ~b =
  Array.unsafe_set v.t i fl.new_time;
  Array.unsafe_set v.s i seq;
  Array.unsafe_set v.h i h;
  Array.unsafe_set v.a i a;
  Array.unsafe_set v.b i b;
  Array.unsafe_set v.x i fl.new_x

(* --- binary-heap operations over a vec, keyed by (time, seq) -----------

   Sifts move the hole, not the item: the six payload words are written
   exactly once, at the hole's final position. *)

let[@inline] heap_push_new v fl ~seq ~h ~a ~b =
  let time = fl.new_time in
  vec_reserve v;
  let i = ref v.len in
  v.len <- v.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let tp = Array.unsafe_get v.t p in
    if time < tp || (time = tp && seq < Array.unsafe_get v.s p) then begin
      move_slot v p v !i;
      i := p
    end
    else continue := false
  done;
  write_new v !i fl ~seq ~h ~a ~b

(* Drop the root: sink the last item from the hole at the root. The last
   slot lies outside the shrunk heap and every move writes a parent of a
   live child, so it is read in place and copied once, to its final
   position. *)
let heap_drop_root v =
  let last = v.len - 1 in
  v.len <- last;
  if last > 0 then begin
    let time = Array.unsafe_get v.t last and seq = Array.unsafe_get v.s last in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < last then begin
            let tl = Array.unsafe_get v.t l and tr = Array.unsafe_get v.t r in
            if
              tr < tl
              || (tr = tl && Array.unsafe_get v.s r < Array.unsafe_get v.s l)
            then r
            else l
          end
          else l
        in
        let tc = Array.unsafe_get v.t c in
        if tc < time || (tc = time && Array.unsafe_get v.s c < seq) then begin
          move_slot v c v !i;
          i := c
        end
        else continue := false
      end
    done;
    move_slot v last v !i
  end

(* Insertion sort by (time, seq). Dumped buckets arrive in push order, so
   ties (and the degenerate all-same-time bucket) are already sorted and
   cost two comparisons per element. An out-of-order item is parked in
   the spare slot past the end while the larger ones shift up. *)
let sort_vec v =
  vec_reserve v;
  let spare = v.len in
  for i = 1 to v.len - 1 do
    let time = Array.unsafe_get v.t i and seq = Array.unsafe_get v.s i in
    let tp = Array.unsafe_get v.t (i - 1) in
    if tp > time || (tp = time && Array.unsafe_get v.s (i - 1) > seq) then begin
      move_slot v i v spare;
      let j = ref (i - 1) in
      move_slot v !j v i;
      decr j;
      let continue = ref true in
      while !continue && !j >= 0 do
        let tj = Array.unsafe_get v.t !j in
        if tj > time || (tj = time && Array.unsafe_get v.s !j > seq) then begin
          move_slot v !j v (!j + 1);
          decr j
        end
        else continue := false
      done;
      move_slot v spare v (!j + 1)
    end
  done

(* --- rungs -------------------------------------------------------------- *)

(* Slots per slab block; a power of two, so a bucket's slot [k] sits at
   offset [k land (block - 1)] of its chain's [k lsr block_bits]-th
   block. *)
let block_bits = 6
let block = 1 lsl block_bits

(* A rung's window, flat like [floats]. *)
type window = {
  mutable start : float;
  mutable width : float;  (* per-bucket time width *)
  mutable inv_width : float;  (* 1 / width, so indexing multiplies *)
}

type rung = {
  w : window;
  mutable cur : int;      (* buckets below [cur] are drained *)
  mutable count : int;    (* events currently stored in this rung *)
  len : int array;        (* events in each bucket *)
  head : int array;       (* first block of each non-empty bucket's chain *)
  tail : int array;       (* last block, which takes the next event *)
}

let max_rungs = 24

type t = {
  nbuckets : int;
  split_threshold : int;
  run : vec;  (* current bucket, sorted; drained by [run_pos] *)
  mutable run_pos : int;
  opened : vec;
      (* overflow min-heap: events pushed below [open_bound] while the
         run drains (zero-delay messages, reentrant posts) *)
  far : vec;
  slab : vec;
      (* every rung's bucket blocks; block [k] is slots
         [k * block, (k + 1) * block). Its [len] is its capacity. *)
  mutable next : int array;
      (* per block: the next block of its bucket's chain, or of the free
         list when the block is unused *)
  mutable free : int;  (* head of the free list, -1 when empty *)
  fl : floats;
  mutable rungs : rung array;  (* pooled; [nrungs] are active *)
  mutable nrungs : int;
  mutable size : int;
  (* pop cursor, integer fields *)
  mutable c_seq : int;
  mutable c_h : int;
  mutable c_a : int;
  mutable c_b : int;
}

let create ?(buckets = 64) ?(split_threshold = 64) () =
  if buckets < 2 then invalid_arg "Ladder_queue.create: buckets";
  {
    nbuckets = buckets;
    split_threshold = max 4 split_threshold;
    run = vec_make ();
    run_pos = 0;
    opened = vec_make ();
    far = vec_make ();
    slab = vec_make ();
    next = [||];
    free = -1;
    fl =
      { new_time = 0.0; new_x = 0.0; far_max = neg_infinity;
        open_bound = neg_infinity; c_time = 0.0; c_x = 0.0 };
    rungs = [||];
    nrungs = 0;
    size = 0;
    c_seq = 0;
    c_h = 0;
    c_a = 0;
    c_b = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

(* Double the slab. Called only with the free list empty, so the new
   blocks are the whole free list. *)
let grow_slab t =
  let nb = Array.length t.next in
  let nb' = max 4 (2 * nb) in
  vec_resize t.slab (nb' * block);
  t.slab.len <- nb' * block;
  let next = Array.make nb' (-1) in
  Array.blit t.next 0 next 0 nb;
  for k = nb to nb' - 2 do
    next.(k) <- k + 1
  done;
  t.next <- next;
  t.free <- nb

let take_block t =
  if t.free < 0 then grow_slab t;
  let k = t.free in
  t.free <- Array.unsafe_get t.next k;
  k

let[@inline] free_block t k =
  Array.unsafe_set t.next k t.free;
  t.free <- k

(* Claim the next slot of bucket [i] of [r] and return its slab index: a
   slot of the tail block, or the first of a fresh block when the tail
   is full. Taking a block may grow the slab, which replaces its arrays
   and [next]: read them only after the claim. *)
let[@inline] bucket_slot t r i =
  let n = Array.unsafe_get r.len i in
  Array.unsafe_set r.len i (n + 1);
  let off = n land (block - 1) in
  if off <> 0 then (Array.unsafe_get r.tail i lsl block_bits) + off
  else begin
    let k = take_block t in
    if n = 0 then Array.unsafe_set r.head i k
    else Array.unsafe_set t.next (Array.unsafe_get r.tail i) k;
    Array.unsafe_set r.tail i k;
    k lsl block_bits
  end

let fresh_rung t =
  if t.nrungs = Array.length t.rungs then begin
    let r =
      {
        w = { start = 0.0; width = 1.0; inv_width = 1.0 };
        cur = 0;
        count = 0;
        len = Array.make t.nbuckets 0;
        head = Array.make t.nbuckets (-1);
        tail = Array.make t.nbuckets (-1);
      }
    in
    t.rungs <- Array.append t.rungs [| r |]
  end;
  let r = t.rungs.(t.nrungs) in
  t.nrungs <- t.nrungs + 1;
  r.cur <- 0;
  r.count <- 0;
  r

let[@inline] set_window r ~start ~width =
  r.w.start <- start;
  r.w.width <- width;
  r.w.inv_width <- 1.0 /. width

let[@inline] bucket_index r time =
  let i = int_of_float ((time -. r.w.start) *. r.w.inv_width) in
  if i < 0 then 0 else if i >= Array.length r.len then Array.length r.len - 1 else i

(* Lower bound of bucket [i]; [bucket_start r nbuckets] is the rung's end. *)
let[@inline] bucket_start r i = r.w.start +. (r.w.width *. float_of_int i)

(* Place the staged event, innermost (finest) rung first: it covers the
   bucket its parent is currently processing. *)
let rec place t i ~seq ~h ~a ~b =
  let fl = t.fl in
  let time = fl.new_time in
  if i < 0 then begin
    heap_push_new t.far fl ~seq ~h ~a ~b;
    if time > fl.far_max then fl.far_max <- time
  end
  else
    let r = Array.unsafe_get t.rungs i in
    if time < bucket_start r (Array.length r.len) then begin
      let idx = bucket_index r time in
      if idx < r.cur then
        (* float boundary disagreement with [open_bound]: the bucket
           is already drained, so the event joins the open heap. *)
        heap_push_new t.opened fl ~seq ~h ~a ~b
      else begin
        write_new t.slab (bucket_slot t r idx) fl ~seq ~h ~a ~b;
        r.count <- r.count + 1
      end
    end
    else place t (i - 1) ~seq ~h ~a ~b

let push_staged t ~seq ~h ~a ~b =
  t.size <- t.size + 1;
  if t.fl.new_time < t.fl.open_bound then
    heap_push_new t.opened t.fl ~seq ~h ~a ~b
  else place t (t.nrungs - 1) ~seq ~h ~a ~b

(* Inlined at its call sites, [push] hands the new event's two floats to
   the out-of-line [push_staged] through the flat staging fields rather
   than as arguments: a float argument of an out-of-line call is boxed. *)
let[@inline] push t ~time ~seq ~h ~a ~b ~x =
  t.fl.new_time <- time;
  t.fl.new_x <- x;
  push_staged t ~seq ~h ~a ~b

(* Append slot [i] of [src] to its bucket of rung [r], whose window
   covers it. [src] may be the slab itself, read before the claim and
   again after it. *)
let[@inline] scatter_slot t r src i =
  let j = bucket_slot t r (bucket_index r (Array.unsafe_get src.t i)) in
  move_slot src i t.slab j

(* Move every event of bucket [i] of [r], in push order, into the run
   ([into] < 0) or scattered over rung [into], whose window covers the
   bucket. Each block goes back to the free list once read, so a split
   can reuse it for its child's buckets. *)
let drain_bucket t r i ~into =
  let n = Array.unsafe_get r.len i in
  let k = ref (Array.unsafe_get r.head i) and base = ref 0 in
  while !base < n do
    let first = !k lsl block_bits in
    let m = min block (n - !base) in
    if into < 0 then
      for j = 0 to m - 1 do
        move_slot t.slab (first + j) t.run (!base + j)
      done
    else begin
      let child = Array.unsafe_get t.rungs into in
      for j = first to first + m - 1 do
        scatter_slot t child t.slab j
      done
    end;
    let after = Array.unsafe_get t.next !k in
    free_block t !k;
    k := after;
    base := !base + m
  done;
  Array.unsafe_set r.len i 0

(* Move every event of bucket [i] of [r] into the (exhausted) run and
   sort it; subsequent pops advance a cursor instead of sifting a heap. *)
let dump_into_run t r i =
  let run = t.run and n = Array.unsafe_get r.len i in
  run.len <- 0;
  t.run_pos <- 0;
  (* one slot past the bucket: the sort's spare *)
  if Array.length run.t <= n then vec_resize run (max 16 (2 * n));
  drain_bucket t r i ~into:(-1);
  run.len <- n;
  sort_vec run

(* Whether bucket [i] of [r] holds two distinct times (a split would
   separate them). *)
let bucket_spread t r i =
  let n = Array.unsafe_get r.len i in
  let k = ref (Array.unsafe_get r.head i) in
  let t0 = Array.unsafe_get t.slab.t (!k lsl block_bits) in
  let j = ref 1 and spread = ref false in
  while (not !spread) && !j < n do
    let off = !j land (block - 1) in
    if off = 0 then k := Array.unsafe_get t.next !k;
    spread := Array.unsafe_get t.slab.t ((!k lsl block_bits) + off) <> t0;
    incr j
  done;
  !spread

(* Build a fresh bottom rung from the whole far band. *)
let refill_from_far t =
  let far = t.far in
  (* [size] > 0 with every other band empty: the events must be here. A
     lost event would otherwise refill from stale slots forever. *)
  if far.len = 0 then failwith "Ladder_queue: an event was lost";
  let start = far.t.(0) in
  let span = t.fl.far_max -. start in
  let r = fresh_rung t in
  set_window r ~start
    ~width:(if span <= 0.0 then 1.0 else span /. float_of_int (t.nbuckets - 1));
  for i = 0 to far.len - 1 do
    scatter_slot t r far i
  done;
  r.count <- far.len;
  far.len <- 0;
  t.fl.far_max <- neg_infinity;
  t.fl.open_bound <- start

let rec ensure_opened t =
  if t.run_pos >= t.run.len && t.opened.len = 0 && t.size > 0 then begin
    if t.nrungs = 0 then refill_from_far t
    else begin
      let r = t.rungs.(t.nrungs - 1) in
      if r.cur >= Array.length r.len || r.count = 0 then begin
        (* rung exhausted: resume the parent at its next bucket *)
        t.nrungs <- t.nrungs - 1;
        if t.nrungs > 0 then begin
          let parent = t.rungs.(t.nrungs - 1) in
          parent.cur <- parent.cur + 1;
          t.fl.open_bound <- bucket_start parent parent.cur
        end
      end
      else begin
        let n = r.len.(r.cur) in
        if n = 0 then begin
          r.cur <- r.cur + 1;
          t.fl.open_bound <- bucket_start r r.cur
        end
        else if
          n > t.split_threshold
          && t.nrungs < max_rungs
          && r.w.width > 1e-12
          && bucket_spread t r r.cur
        then begin
          (* split: a finer child rung over exactly this bucket *)
          let child = fresh_rung t in
          set_window child ~start:(bucket_start r r.cur)
            ~width:(r.w.width /. float_of_int t.nbuckets);
          r.count <- r.count - n;
          child.count <- n;
          drain_bucket t r r.cur ~into:(t.nrungs - 1)
          (* open_bound unchanged: it already equals child.start *)
        end
        else begin
          r.count <- r.count - n;
          dump_into_run t r r.cur;
          r.cur <- r.cur + 1;
          t.fl.open_bound <- bucket_start r r.cur
        end
      end
    end;
    ensure_opened t
  end

(* The overflow heap only ever holds events earlier than everything still
   banded in rungs or far, so the head of the line is the smaller of the
   run cursor and the overflow root. *)
let take_run t =
  if t.run_pos >= t.run.len then false
  else if t.opened.len = 0 then true
  else begin
    let rt = Array.unsafe_get t.run.t t.run_pos
    and ot = Array.unsafe_get t.opened.t 0 in
    rt < ot
    || (rt = ot && Array.unsafe_get t.run.s t.run_pos < Array.unsafe_get t.opened.s 0)
  end

let min_time t =
  if t.size = 0 then invalid_arg "Ladder_queue.min_time: empty";
  ensure_opened t;
  if take_run t then t.run.t.(t.run_pos) else t.opened.t.(0)

(* Load slot [i] of [v] into the cursor. *)
let[@inline] load_cursor t v i =
  t.fl.c_time <- Array.unsafe_get v.t i;
  t.c_seq <- Array.unsafe_get v.s i;
  t.c_h <- Array.unsafe_get v.h i;
  t.c_a <- Array.unsafe_get v.a i;
  t.c_b <- Array.unsafe_get v.b i;
  t.fl.c_x <- Array.unsafe_get v.x i

let pop t =
  if t.size = 0 then false
  else begin
    ensure_opened t;
    if take_run t then begin
      load_cursor t t.run t.run_pos;
      t.run_pos <- t.run_pos + 1
    end
    else begin
      load_cursor t t.opened 0;
      heap_drop_root t.opened
    end;
    t.size <- t.size - 1;
    true
  end

(* Like [pop] gated on the head's time, but with [ensure_opened] and the
   run-vs-overflow choice done once — [pop] would redo both after the
   bound check, and this is the inner loop of the sharded engine's epoch
   drain. *)
let pop_until t ~bound =
  if t.size = 0 then false
  else begin
    ensure_opened t;
    if take_run t then begin
      let i = t.run_pos in
      if Array.unsafe_get t.run.t i < bound then begin
        load_cursor t t.run i;
        t.run_pos <- i + 1;
        t.size <- t.size - 1;
        true
      end
      else false
    end
    else if Array.unsafe_get t.opened.t 0 < bound then begin
      load_cursor t t.opened 0;
      heap_drop_root t.opened;
      t.size <- t.size - 1;
      true
    end
    else false
  end

let time t = t.fl.c_time
let seq t = t.c_seq
let handler t = t.c_h
let arg_a t = t.c_a
let arg_b t = t.c_b
let arg_x t = t.fl.c_x
