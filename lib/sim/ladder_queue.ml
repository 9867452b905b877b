(* Ladder/calendar event queue; each event's fields stored side by side.

   Items are events (time, seq, h, a, b, x) ordered by (time, seq) with
   Float.compare/Int.compare semantics on finite keys. Storage is three
   bands:

   - [opened]: a small binary min-heap holding the events pushed into
     a bucket already drained — the run's own, or an earlier one — while
     the run drains (zero-delay messages, reentrant posts);
   - a stack of rungs, each a window of [nbuckets] append-only unsorted
     buckets of width [rung.width]; an oversized bucket is split into a
     finer child rung instead of being drained whole, which keeps runs
     short under bursts;
   - [far]: a min-heap for events beyond the outermost rung. When every
     rung is exhausted the far band is scattered into a fresh rung whose
     width is fitted to the observed span.

   A pushed event at or past the outermost rung's end goes to the far
   heap. Otherwise it is routed by bucket index, outermost rung first:
   below [cur] it joins the open heap, at [cur] it descends into the
   child rung that covers that bucket, else it joins its bucket. The
   index, [int_of_float ((time - start) * inv_width)], is monotone in
   time, so every event of a bucket precedes every event of a later one.
   A bucket's computed start ([start + width * i]) can sit an ulp either
   side of the index's own edge, so no routing decision compares a time
   against it: an event at a child rung's computed end that its parent
   indexes into the split bucket was once filed in that bucket and lost.

   Each band stores slot [k]'s two floats at [f.(2k)] (time) and
   [f.(2k+1)] (x), and its four ints at [i.(4k)] .. [i.(4k+3)] (seq, h,
   a, b): one event's fields share a cache line or two, and a move
   touches two arrays, not six.

   A bucket is a chain of fixed [block]-slot blocks of one per-queue
   slab. A split walks the bucket's chain and hands each block back to
   the slab's free list once read, so its child's buckets can reuse it.
   The bucket next in line is not copied anywhere: the run is an index
   array over its slab slots, sorted by (time, seq), and pops read the
   event from the slab in place. The run's blocks stay claimed until
   the run is drained, and then the whole chain goes back to the free
   list at once; pushes meanwhile claim other blocks, growing the slab
   if they must. So the slab grows only when the free list is empty:
   queue memory follows the peak number of events held in rungs and
   the run, not the number that pass through them. The outermost rung
   is fitted to the whole far span, so its buckets typically fill once
   and are never refilled; arrays owned per bucket would be grown for
   every event that passes and then never reused.

   No band holds a per-event box. Without flambda, OCaml boxes a float
   stored in a mixed record or passed to (or returned from) a function
   that is not inlined, so the float state lives in flat all-float
   records ([floats], [window]) and no event float crosses an
   out-of-line call: band moves copy slots by index, the pushed event
   is staged in [floats], and the helpers that take a float are
   [@inline]. Once capacity is warm, [pop] and [pop_until] allocate
   nothing in any build, and neither does [push] where it is inlined
   (release builds; under [-opaque] its caller boxes [time] and [x]).
   Capacity growth — a band, the run index or the slab doubling, the
   rung pool gaining a rung — is the only allocation. *)

type band = {
  mutable f : float array;  (* 2 per slot: time, x *)
  mutable i : int array;  (* 4 per slot: seq, h, a, b *)
  mutable len : int;
}

let band_make () = { f = [||]; i = [||]; len = 0 }

(* Replace [v]'s arrays by ones of [cap] slots holding its first [len]. *)
let band_resize v cap =
  let f = Array.make (2 * cap) 0.0 and i = Array.make (4 * cap) 0 in
  Array.blit v.f 0 f 0 (2 * v.len);
  Array.blit v.i 0 i 0 (4 * v.len);
  v.f <- f;
  v.i <- i

let band_reserve v =
  if 2 * v.len = Array.length v.f then band_resize v (max 16 (2 * v.len))

(* Time and seq of slot [k]: the (time, seq) key. *)
let[@inline] key_t v k = Array.unsafe_get v.f (2 * k)
let[@inline] key_s v k = Array.unsafe_get v.i (4 * k)

(* The queue's float state. An all-float record is stored flat, so its
   fields are read and written unboxed; a float field of a mixed record
   is a pointer to a box, and every write allocates one. *)
type floats = {
  mutable new_time : float;  (* the event being pushed, see {!push} *)
  mutable new_x : float;
  mutable far_max : float;
  mutable far_bound : float;
      (* the outermost rung's end, -infinity with no rung: pushes at or
         past it go to the far heap *)
  mutable c_time : float;  (* pop cursor *)
  mutable c_x : float;
}

(* Copy slot [i] of [src] over slot [j] of [dst]. Every move of a queued
   event — between bands, and inside a heap — goes through here by
   index, so its two floats never leave the arrays. Indices are
   maintained internally, so unchecked accesses are safe. *)
let[@inline] move_slot src i dst j =
  let sf = src.f and df = dst.f and si = src.i and di = dst.i in
  let fi = 2 * i and fj = 2 * j and ii = 4 * i and ij = 4 * j in
  Array.unsafe_set df fj (Array.unsafe_get sf fi);
  Array.unsafe_set df (fj + 1) (Array.unsafe_get sf (fi + 1));
  Array.unsafe_set di ij (Array.unsafe_get si ii);
  Array.unsafe_set di (ij + 1) (Array.unsafe_get si (ii + 1));
  Array.unsafe_set di (ij + 2) (Array.unsafe_get si (ii + 2));
  Array.unsafe_set di (ij + 3) (Array.unsafe_get si (ii + 3))

(* The one place a new event's fields enter a band. Its two floats come
   from the flat staging fields of [fl] (see {!push}). *)
let[@inline] write_new v k fl ~seq ~h ~a ~b =
  let f = v.f and i = v.i and fk = 2 * k and ik = 4 * k in
  Array.unsafe_set f fk fl.new_time;
  Array.unsafe_set f (fk + 1) fl.new_x;
  Array.unsafe_set i ik seq;
  Array.unsafe_set i (ik + 1) h;
  Array.unsafe_set i (ik + 2) a;
  Array.unsafe_set i (ik + 3) b

(* --- binary-heap operations over a band, keyed by (time, seq) ----------

   Sifts move the hole, not the item: the six payload words are written
   exactly once, at the hole's final position. *)

let[@inline] heap_push_new v fl ~seq ~h ~a ~b =
  let time = fl.new_time in
  band_reserve v;
  let i = ref v.len in
  v.len <- v.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let tp = key_t v p in
    if time < tp || (time = tp && seq < key_s v p) then begin
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
    let time = key_t v last and seq = key_s v last in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < last then begin
            let tl = key_t v l and tr = key_t v r in
            if tr < tl || (tr = tl && key_s v r < key_s v l) then r else l
          end
          else l
        in
        let tc = key_t v c in
        if tc < time || (tc = time && key_s v c < seq) then begin
          move_slot v c v !i;
          i := c
        end
        else continue := false
      end
    done;
    move_slot v last v !i
  end

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
  mutable run : int array;
      (* slab slots of the bucket being drained, sorted by (time, seq);
         [run_pos] is the next to pop, [run_len] the bucket's size *)
  mutable run_t : float array;  (* the time of each run slot: sort keys *)
  mutable run_len : int;
  mutable run_pos : int;
  mutable run_head : int;
      (* first and last block of the run's chain, still claimed; -1 once
         the chain is back on the free list *)
  mutable run_tail : int;
  opened : band;
      (* overflow min-heap: events pushed into a drained bucket while
         the run drains (zero-delay messages, reentrant posts) *)
  far : band;
  slab : band;
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
    run = [||];
    run_t = [||];
    run_len = 0;
    run_pos = 0;
    run_head = -1;
    run_tail = -1;
    opened = band_make ();
    far = band_make ();
    slab = band_make ();
    next = [||];
    free = -1;
    fl =
      { new_time = 0.0; new_x = 0.0; far_max = neg_infinity;
        far_bound = neg_infinity; c_time = 0.0; c_x = 0.0 };
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
  band_resize t.slab (nb' * block);
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

(* Computed start of bucket [i]; routing never compares a time with it. *)
let[@inline] bucket_start r i = r.w.start +. (r.w.width *. float_of_int i)

(* Place the staged event by bucket index from rung [i] inward (see the
   header): a bucket below [cur] is drained, and bucket [cur] of every
   rung but the innermost is covered by the next rung in. *)
let rec place t i ~seq ~h ~a ~b =
  let fl = t.fl in
  let r = Array.unsafe_get t.rungs i in
  let idx = bucket_index r fl.new_time in
  if idx < r.cur then heap_push_new t.opened fl ~seq ~h ~a ~b
  else if idx = r.cur && i < t.nrungs - 1 then place t (i + 1) ~seq ~h ~a ~b
  else begin
    write_new t.slab (bucket_slot t r idx) fl ~seq ~h ~a ~b;
    r.count <- r.count + 1
  end

let push_staged t ~seq ~h ~a ~b =
  t.size <- t.size + 1;
  let fl = t.fl in
  let time = fl.new_time in
  if time >= fl.far_bound then begin
    heap_push_new t.far fl ~seq ~h ~a ~b;
    if time > fl.far_max then fl.far_max <- time
  end
  else place t 0 ~seq ~h ~a ~b

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
  let j = bucket_slot t r (bucket_index r (key_t src i)) in
  move_slot src i t.slab j

(* Scatter every event of bucket [i] of [r], in push order, over rung
   [child], whose window covers the bucket. Each block goes back to the
   free list once read, so the child's buckets can reuse it. *)
let split_bucket t r i child =
  let n = Array.unsafe_get r.len i in
  let k = ref (Array.unsafe_get r.head i) and base = ref 0 in
  while !base < n do
    let first = !k lsl block_bits in
    let m = min block (n - !base) in
    for j = first to first + m - 1 do
      scatter_slot t child t.slab j
    done;
    let after = Array.unsafe_get t.next !k in
    free_block t !k;
    k := after;
    base := !base + m
  done;
  Array.unsafe_set r.len i 0

(* Insertion sort of [run.(0 .. n-1)] by the (time, seq) of the slab
   slots they name, carrying each slot's time alongside in [run_t] so
   comparisons read the run's own arrays, not the slab. A bucket arrives
   in push order, so ties (and the degenerate all-same-time bucket) are
   already sorted and cost one comparison per slot; an out-of-order slot
   shifts two words per place, not six. *)
let sort_run t n =
  let run = t.run and run_t = t.run_t and slab = t.slab in
  for i = 1 to n - 1 do
    let k = Array.unsafe_get run i and time = Array.unsafe_get run_t i in
    let tp = Array.unsafe_get run_t (i - 1) in
    if
      tp > time
      || (tp = time && key_s slab (Array.unsafe_get run (i - 1)) > key_s slab k)
    then begin
      let seq = key_s slab k in
      let j = ref (i - 1) in
      let continue = ref true in
      while !continue && !j >= 0 do
        let kj = Array.unsafe_get run !j and tj = Array.unsafe_get run_t !j in
        if tj > time || (tj = time && key_s slab kj > seq) then begin
          Array.unsafe_set run (!j + 1) kj;
          Array.unsafe_set run_t (!j + 1) tj;
          decr j
        end
        else continue := false
      done;
      Array.unsafe_set run (!j + 1) k;
      Array.unsafe_set run_t (!j + 1) time
    end
  done

(* Make bucket [i] of [r] the run: index its slots in push order, sort
   the index, and keep the chain claimed until the run is drained
   ({!release_run}). *)
let dump_into_run t r i =
  let n = Array.unsafe_get r.len i in
  if Array.length t.run < n then begin
    t.run <- Array.make (max 16 (2 * n)) 0;
    t.run_t <- Array.make (max 16 (2 * n)) 0.0
  end;
  let run = t.run and run_t = t.run_t and slab = t.slab in
  let k = ref (Array.unsafe_get r.head i) and base = ref 0 in
  while !base < n do
    let first = !k lsl block_bits in
    let m = min block (n - !base) in
    for j = 0 to m - 1 do
      Array.unsafe_set run (!base + j) (first + j);
      Array.unsafe_set run_t (!base + j) (key_t slab (first + j))
    done;
    k := Array.unsafe_get t.next !k;
    base := !base + m
  done;
  t.run_head <- Array.unsafe_get r.head i;
  t.run_tail <- Array.unsafe_get r.tail i;
  Array.unsafe_set r.len i 0;
  t.run_len <- n;
  t.run_pos <- 0;
  sort_run t n

(* Hand a drained run's whole chain back to the free list. *)
let release_run t =
  if t.run_head >= 0 then begin
    Array.unsafe_set t.next t.run_tail t.free;
    t.free <- t.run_head;
    t.run_head <- -1
  end

(* Whether bucket [i] of [r] holds two distinct times (a split would
   separate them). *)
let bucket_spread t r i =
  let n = Array.unsafe_get r.len i in
  let k = ref (Array.unsafe_get r.head i) in
  let t0 = key_t t.slab (!k lsl block_bits) in
  let j = ref 1 and spread = ref false in
  while (not !spread) && !j < n do
    let off = !j land (block - 1) in
    if off = 0 then k := Array.unsafe_get t.next !k;
    spread := key_t t.slab ((!k lsl block_bits) + off) <> t0;
    incr j
  done;
  !spread

(* Build a fresh bottom rung from the whole far band. *)
let refill_from_far t =
  let far = t.far in
  (* [size] > 0 with every other band empty: the events must be here. A
     lost event would otherwise refill from stale slots forever. *)
  if far.len = 0 then failwith "Ladder_queue: an event was lost";
  let start = key_t far 0 in
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
  t.fl.far_bound <- bucket_start r t.nbuckets

(* With the run drained and the open heap empty, make the next non-empty
   bucket the run. *)
let refill_run t =
  if t.run_pos >= t.run_len && t.opened.len = 0 && t.size > 0 then begin
    while t.run_pos >= t.run_len && t.size > 0 do
      if t.nrungs = 0 then refill_from_far t
      else begin
        let r = t.rungs.(t.nrungs - 1) in
        if r.cur >= Array.length r.len || r.count = 0 then begin
          (* rung exhausted: resume the parent at its next bucket *)
          t.nrungs <- t.nrungs - 1;
          if t.nrungs > 0 then begin
            let parent = t.rungs.(t.nrungs - 1) in
            parent.cur <- parent.cur + 1
          end
          else t.fl.far_bound <- neg_infinity
        end
        else begin
          let n = r.len.(r.cur) in
          if n = 0 then r.cur <- r.cur + 1
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
            split_bucket t r r.cur child
          end
          else begin
            r.count <- r.count - n;
            dump_into_run t r r.cur;
            r.cur <- r.cur + 1
          end
        end
      end
    done
  end

(* The one gate every dequeue passes: once the run is drained, its
   blocks go back to the free list and, unless the open heap still has
   events, the next bucket is made the run. *)
let[@inline] ensure_opened t =
  if t.run_pos >= t.run_len then begin
    release_run t;
    refill_run t
  end

(* The overflow heap only ever holds events earlier than everything still
   banded in rungs or far, so the head of the line is the smaller of the
   run cursor and the overflow root. *)
let[@inline] take_run t =
  if t.run_pos >= t.run_len then false
  else if t.opened.len = 0 then true
  else begin
    let k = Array.unsafe_get t.run t.run_pos in
    let rt = key_t t.slab k and ot = key_t t.opened 0 in
    rt < ot || (rt = ot && key_s t.slab k < key_s t.opened 0)
  end

let min_time t =
  if t.size = 0 then invalid_arg "Ladder_queue.min_time: empty";
  ensure_opened t;
  if take_run t then key_t t.slab (Array.unsafe_get t.run t.run_pos)
  else key_t t.opened 0

(* Load slot [k] of [v] into the cursor. *)
let[@inline] load_cursor t v k =
  let f = v.f and i = v.i and fk = 2 * k and ik = 4 * k in
  t.fl.c_time <- Array.unsafe_get f fk;
  t.fl.c_x <- Array.unsafe_get f (fk + 1);
  t.c_seq <- Array.unsafe_get i ik;
  t.c_h <- Array.unsafe_get i (ik + 1);
  t.c_a <- Array.unsafe_get i (ik + 2);
  t.c_b <- Array.unsafe_get i (ik + 3)

let pop t =
  if t.size = 0 then false
  else begin
    ensure_opened t;
    if take_run t then begin
      load_cursor t t.slab (Array.unsafe_get t.run t.run_pos);
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
      let k = Array.unsafe_get t.run t.run_pos in
      if key_t t.slab k < bound then begin
        load_cursor t t.slab k;
        t.run_pos <- t.run_pos + 1;
        t.size <- t.size - 1;
        true
      end
      else false
    end
    else if key_t t.opened 0 < bound then begin
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
