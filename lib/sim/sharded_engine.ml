(* Domain-parallel DES: one packed-core [Engine] per shard, conservative
   epoch synchronization, deterministic at any worker count.

   The decomposition leans on a lookahead [L]: every cross-shard message
   is delivered at least [L] of simulated time after it is sent (the
   minimum inter-shard delivery delay — a network hop in the overlay
   simulators). An epoch is then the window [T, B) where [T] is the
   earliest pending event across all shards and [B = T + L]: a message
   sent during the epoch arrives at [>= T + L = B], so no shard can be
   influenced by another within the window and all shards may drain
   their own queues concurrently.

   {b Fused phases.} One pool job per {e phase}, not per epoch. A phase
   hands every worker a fixed contiguous block of shards; per epoch
   window the worker (1) drains the mailboxes addressed to its own
   destination shards — one {!Engine.post_batch} per nonempty mailbox,
   in the fixed source-then-FIFO order that pins tie-breaking seqs —
   (2) drains its shards below the window bound, and (3) publishes its
   local minimum next-event time (engines plus its own undelivered
   sends) through a pre-sized per-worker results array. No coordinator
   pass touches the shards between windows.

   {b Epoch fusion.} At the end of a window the workers meet at an
   in-job {!Par.Barrier}; the last arriver folds the per-worker minima
   and, when the window ended with every mailbox empty and neither a
   global action nor the horizon due, opens the next window in place —
   the workers spin through consecutive quiet windows against the shared
   phase descriptor and a run of k quiet epochs costs one pool dispatch
   plus k barrier crossings instead of k dispatches. Any cross-shard
   traffic, global or horizon ends the phase and returns control to the
   coordinator.

   {b Mailboxes.} Cross-shard sends go to per-(src, dst) mailboxes —
   single-producer by construction, since a shard's events execute on
   exactly one worker during a window. Mailboxes are double-buffered by
   window parity: senders append to the buffer of the current window
   while destination owners drain the previous window's buffer, so
   delivery and sending never touch the same arrays; the inter-window
   barrier provides the happens-before edge between a source's appends
   and the destination's drain. Each source shard also tracks the
   minimum timestamp and count of its undelivered sends, which is how
   the window minimum can include parked mail without scanning n^2
   mailboxes.

   Together with per-shard sequential draining this makes the full event
   sequence — order, timestamps, payloads, per-engine tie-breaking
   seqs — bit-identical at any domain count, including 1, and identical
   with fusion on or off.

   Rare whole-system actions (membership churn, phase changes) run as
   {e global events}: the window is clipped so it never spans one, and
   the action runs sequentially at the barrier with all shard clocks
   lined up on its timestamp.

   {b Ownership.} The worker count is fixed at {!create}, and so is the
   block split: worker w drains shards [w*n/W, (w+1)*n/W) in every
   phase. {!create} builds each shard's engine, and through the caller's
   [init] hook the caller's per-shard state, inside one pool job on the
   worker that will drain that shard, so the records each event writes
   (the engine's clock and counters, the queue's staging floats and vec
   headers, the caller's shard record) of two workers never share a
   cache line. Built one after another by the coordinator, neighbouring
   shards' records did, and every event on one worker invalidated a line
   the other was using (false sharing; EXPERIMENTS.md, "Domain-parallel
   scaling"). A domain allocates small blocks in its own minor heap, but
   a minor collection promotes each block into the major-heap pools of
   whichever domain reaches it first; so each worker runs a minor
   collection before it publishes what it built, while only its own
   stack reaches it. At one worker the job runs inline and collects
   nothing.

   {b Wall time per worker.} Each worker reads the monotonic clock
   ({!Par.now_ns}) a few times per window, never per event, and adds up
   its seconds delivering mail, draining its shards and waiting at the
   barrier, spinning and blocked apart ({!worker_times}). *)

module Par = Lesslog_parallel.Par

type mailbox = {
  mutable t : float array;
  mutable h : int array;
  mutable a : int array;
  mutable b : int array;
  mutable x : float array;
  mutable len : int;
}

let mb_make () =
  { t = [||]; h = [||]; a = [||]; b = [||]; x = [||]; len = 0 }

(* Growth is a plain function — no per-push closure allocation — and
   all five arrays go through the same two helpers. *)
let grow_floats old ~len ~cap =
  let n = Array.make cap 0.0 in
  Array.blit old 0 n 0 len;
  n

let grow_ints old ~len ~cap =
  let n = Array.make cap 0 in
  Array.blit old 0 n 0 len;
  n

let mb_grow mb =
  let cap = max 16 (2 * mb.len) in
  mb.t <- grow_floats mb.t ~len:mb.len ~cap;
  mb.h <- grow_ints mb.h ~len:mb.len ~cap;
  mb.a <- grow_ints mb.a ~len:mb.len ~cap;
  mb.b <- grow_ints mb.b ~len:mb.len ~cap;
  mb.x <- grow_floats mb.x ~len:mb.len ~cap

let[@inline] mb_push mb ~time ~h ~a ~b ~x =
  if mb.len = Array.length mb.t then mb_grow mb;
  let i = mb.len in
  mb.t.(i) <- time;
  mb.h.(i) <- h;
  mb.a.(i) <- a;
  mb.b.(i) <- b;
  mb.x.(i) <- x;
  mb.len <- i + 1

(* One worker's wall-time totals, in clock ns. Written once per window by
   its worker only, and built on that worker by {!create}. *)
type wtime = {
  mutable deliver_ns : int;
  mutable drain_ns : int;
  mutable spin_ns : int;
  mutable block_ns : int;
}

type worker_time = {
  drain_s : float;
  deliver_s : float;
  barrier_spin_s : float;
  barrier_block_s : float;
}

(* Shared state of one fused phase: written by the coordinator before
   the pool job starts, per-worker slots written by their owner during a
   window, decision fields written by the barrier's last arriver. All
   plain fields ride the happens-before edges of the pool hand-off and
   the in-job barrier. *)
type descriptor = {
  d_workers : int;
  block_lo : int array;  (* worker w owns shards [lo, hi) — contiguous *)
  block_hi : int array;
  wmin : float array;  (* per-worker window minimum (engines + own sends) *)
  wsent : int array;  (* per-worker cross-shard sends this window *)
  wdelivered : int array;  (* per-worker mailbox messages delivered, phase total *)
  bar : Par.Barrier.t;
  abort : bool Atomic.t;  (* a worker raised: end the phase, re-raise after *)
  mutable bound : float;  (* current window's drain bound *)
  mutable until_bound : float;  (* Float.succ horizon, or infinity *)
  mutable next_global : float;  (* next in-horizon global's time, or infinity *)
  mutable fuse : bool;
  mutable continue_ : bool;  (* decision: open another window in place *)
  mutable cur_min : float;  (* decision: global minimum incl. parked mail *)
}

type t = {
  shards : Engine.t array;
  lookahead : float;
  mail : mailbox array;  (* (parity * n + src) * n + dst *)
  sent_min : float array;  (* per src shard: min undelivered send time *)
  sent_cnt : int array;  (* per src shard: undelivered sends *)
  desc : descriptor;  (* fixed worker count and block split *)
  wtimes : wtime array;  (* per worker, each built on its worker *)
  mutable parity : int;  (* buffer index current-window sends append to *)
  mutable epoch : int;
  mutable phases : int;  (* pool dispatches; epochs/phases = fusion factor *)
  mutable cross_sends : int;  (* delivered mailbox messages *)
}

let make_descriptor ~shards:n ~workers =
  {
    d_workers = workers;
    block_lo = Array.init workers (fun w -> w * n / workers);
    block_hi = Array.init workers (fun w -> (w + 1) * n / workers);
    wmin = Array.make workers Float.infinity;
    wsent = Array.make workers 0;
    wdelivered = Array.make workers 0;
    bar = Par.Barrier.create ~parties:workers ();
    abort = Atomic.make false;
    bound = 0.0;
    until_bound = Float.infinity;
    next_global = Float.infinity;
    fuse = true;
    continue_ = false;
    cur_min = Float.infinity;
  }

(* A thunk that runs [f w] for every worker [w < d_workers]: inline at
   one worker, else as one job of the shared pool, whose extra workers
   (it only grows, so it may be wider) are not barrier parties and must
   not touch any shard. The job closure is built once, not per call. *)
let on_workers d f =
  let job w = if w < d.d_workers then f w in
  fun () ->
    if d.d_workers = 1 then f 0
    else Par.Pool.run (Par.ensure_pool d.d_workers) job

let create ?(domains = 1) ~shards ~lookahead ~init () =
  if shards < 1 then invalid_arg "Sharded_engine.create: shards";
  if not (lookahead > 0.0) then invalid_arg "Sharded_engine.create: lookahead";
  if domains < 1 then invalid_arg "Sharded_engine.create: domains";
  let workers = min domains shards in
  let desc = make_descriptor ~shards ~workers in
  let built = Array.make workers [||] and wtimes = Array.make workers None in
  (* Everything a worker writes while it drains is allocated here, by
     that worker: its timing record, its shards' engines and the
     caller's state for them, shard by shard in index order. Published
     young, the blocks would be promoted by whichever domain reached
     them first — the coordinator, through [built]; so with several
     workers each one promotes its own first (see the header). *)
  on_workers desc
    (fun w ->
      let wt = { deliver_ns = 0; drain_ns = 0; spin_ns = 0; block_ns = 0 } in
      let lo = desc.block_lo.(w) in
      let mine =
        Array.init (desc.block_hi.(w) - lo) (fun k ->
            let e = Engine.create () in
            (e, init (lo + k) e))
      in
      if workers > 1 then Gc.minor ();
      wtimes.(w) <- Some wt;
      built.(w) <- mine)
    ();
  let built = Array.concat (Array.to_list built) in
  let t =
    {
      shards = Array.map fst built;
      lookahead;
      mail = Array.init (2 * shards * shards) (fun _ -> mb_make ());
      sent_min = Array.make shards Float.infinity;
      sent_cnt = Array.make shards 0;
      desc;
      wtimes = Array.map Option.get wtimes;
      parity = 0;
      epoch = 0;
      phases = 0;
      cross_sends = 0;
    }
  in
  (t, Array.map snd built)

let shard_count t = Array.length t.shards
let engine t i = t.shards.(i)
let lookahead t = t.lookahead
let now t ~shard = Engine.now t.shards.(shard)
let epoch t = t.epoch
let phases t = t.phases
let cross_sends t = t.cross_sends

let worker_times t =
  let s ns = float_of_int ns *. 1e-9 in
  Array.map
    (fun wt ->
      {
        drain_s = s wt.drain_ns;
        deliver_s = s wt.deliver_ns;
        barrier_spin_s = s wt.spin_ns;
        barrier_block_s = s wt.block_ns;
      })
    t.wtimes

let events_executed t =
  Array.fold_left (fun acc e -> acc + Engine.events_executed e) 0 t.shards

let pending t =
  let queued = Array.fold_left (fun acc e -> acc + Engine.pending e) 0 t.shards
  and mailed = Array.fold_left (fun acc mb -> acc + mb.len) 0 t.mail in
  queued + mailed

(* Inlined at its call site, so the sampled delay and the computed
   arrival time reach the engine or the mailbox unboxed. *)
let[@inline] send t ~src ~dst ~delay ~h ~a ~b ~x =
  if src = dst then Engine.post t.shards.(src) ~delay ~h ~a ~b ~x
  else begin
    if delay < t.lookahead then
      invalid_arg "Sharded_engine.send: cross-shard delay below lookahead";
    let n = Array.length t.shards in
    let time = Engine.now t.shards.(src) +. delay in
    mb_push t.mail.((((t.parity * n) + src) * n) + dst) ~time ~h ~a ~b ~x;
    if time < t.sent_min.(src) then t.sent_min.(src) <- time;
    t.sent_cnt.(src) <- t.sent_cnt.(src) + 1
  end

(* Hand every parked message of parity [parity] addressed to [dst] to
   its engine — source shard order, then FIFO, so the destination's
   monotone seq counter assigns the same tie-breaking seqs regardless of
   how many domains executed the epoch. One [post_batch] per nonempty
   mailbox. Returns the number delivered. *)
let deliver_dst t ~parity ~dst =
  let n = Array.length t.shards in
  let e = t.shards.(dst) in
  let delivered = ref 0 in
  for src = 0 to n - 1 do
    let mb = t.mail.((((parity * n) + src) * n) + dst) in
    let len = mb.len in
    if len > 0 then begin
      Engine.post_batch e ~len ~time:mb.t ~h:mb.h ~a:mb.a ~b:mb.b ~x:mb.x;
      delivered := !delivered + len;
      mb.len <- 0
    end
  done;
  !delivered

(* Coordinator-only full flush (run start, after a global action): both
   parity buffers, destination-major — at most one buffer holds mail at
   any barrier, so the order across parities is immaterial. *)
let flush_mail t =
  let n = Array.length t.shards in
  for dst = 0 to n - 1 do
    t.cross_sends <- t.cross_sends + deliver_dst t ~parity:0 ~dst;
    t.cross_sends <- t.cross_sends + deliver_dst t ~parity:1 ~dst
  done;
  Array.fill t.sent_min 0 n Float.infinity;
  Array.fill t.sent_cnt 0 n 0

(* Sentinel scan — no [float option] boxing. Only meaningful when the
   mailboxes are empty (coordinator, after a flush). *)
let min_next t =
  let mn = ref Float.infinity in
  Array.iter
    (fun e ->
      let ti = Engine.next_time_inf e in
      if ti < !mn then mn := ti)
    t.shards;
  !mn

let advance_all t ~time =
  Array.iter (fun e -> Engine.advance_to e ~time) t.shards

(* Fold the per-worker results and either open the next window in place
   (epoch fusion: quiet window, nothing due before it) or end the phase.
   Runs on the barrier's last arriver; its writes are released to every
   worker and, through the pool join, to the coordinator. *)
let decide t d =
  let mn = ref Float.infinity and sent = ref 0 in
  for w = 0 to d.d_workers - 1 do
    if d.wmin.(w) < !mn then mn := d.wmin.(w);
    sent := !sent + d.wsent.(w)
  done;
  d.cur_min <- !mn;
  if
    d.fuse
    && (not (Atomic.get d.abort))
    && !sent = 0
    && !mn < d.next_global
    && !mn < d.until_bound
  then begin
    d.bound <- Float.min (!mn +. t.lookahead) (Float.min d.until_bound d.next_global);
    t.epoch <- t.epoch + 1;
    d.continue_ <- true
  end
  else d.continue_ <- false

(* One worker's phase: windows until the decision ends the phase. A
   handler exception must not strand the other parties at the barrier,
   so it is trapped, flagged, and re-raised only after the release. The
   clock is read at the window's two internal boundaries and around the
   barrier; a fused window starts where the last one's barrier ended. *)
let phase_worker t d w =
  let lo = d.block_lo.(w) and hi = d.block_hi.(w) in
  let wt = t.wtimes.(w) in
  let mark = ref (Par.now_ns ()) in
  let continue = ref true in
  while !continue do
    let ex = ref None in
    (try
       (* Previous window's mail for our destinations. Fused windows are
          quiet by construction, so this scan finds nothing after the
          first window of the phase. *)
       let old_parity = 1 - t.parity in
       let delivered = ref 0 in
       for dst = lo to hi - 1 do
         delivered := !delivered + deliver_dst t ~parity:old_parity ~dst
       done;
       d.wdelivered.(w) <- d.wdelivered.(w) + !delivered;
       for s = lo to hi - 1 do
         t.sent_min.(s) <- Float.infinity;
         t.sent_cnt.(s) <- 0
       done;
       let delivered_at = Par.now_ns () in
       wt.deliver_ns <- wt.deliver_ns + (delivered_at - !mark);
       mark := delivered_at;
       let bound = d.bound in
       for s = lo to hi - 1 do
         Engine.drain_below t.shards.(s) ~bound
       done;
       let mn = ref Float.infinity and sent = ref 0 in
       for s = lo to hi - 1 do
         let ti = Engine.next_time_inf t.shards.(s) in
         if ti < !mn then mn := ti;
         if t.sent_min.(s) < !mn then mn := t.sent_min.(s);
         sent := !sent + t.sent_cnt.(s)
       done;
       d.wmin.(w) <- !mn;
       d.wsent.(w) <- !sent;
       let drained_at = Par.now_ns () in
       wt.drain_ns <- wt.drain_ns + (drained_at - !mark);
       mark := drained_at
     with e ->
       ex := Some (e, Printexc.get_raw_backtrace ());
       Atomic.set d.abort true;
       d.wmin.(w) <- Float.infinity;
       d.wsent.(w) <- 0);
    let blocked_at = Par.Barrier.arrive d.bar ~last:(fun () -> decide t d) in
    let released_at = Par.now_ns () in
    if blocked_at < 0 then wt.spin_ns <- wt.spin_ns + (released_at - !mark)
    else begin
      wt.spin_ns <- wt.spin_ns + (blocked_at - !mark);
      wt.block_ns <- wt.block_ns + (released_at - blocked_at)
    end;
    mark := released_at;
    (match !ex with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    continue := d.continue_
  done

let run ?until ?(globals = []) ?(fuse = true) t =
  let d = t.desc in
  let workers = d.d_workers in
  let horizon = match until with None -> Float.infinity | Some u -> u in
  (* [Float.succ] turns the strict drain bound inclusive: events at
     exactly [until] still run. *)
  let until_bound =
    match until with None -> Float.infinity | Some u -> Float.succ u
  in
  d.until_bound <- until_bound;
  d.fuse <- fuse;
  let phase = on_workers d (phase_worker t d) in
  flush_mail t;
  let globals = ref globals in
  let cur_min = ref (min_next t) in
  let continue = ref true in
  while !continue do
    let next_global =
      match !globals with
      | (g_at, _) :: _ when g_at <= horizon -> g_at
      | _ -> Float.infinity
    in
    if next_global < Float.infinity && next_global <= !cur_min then begin
      (* Global action due at or before the event frontier: sequential,
         full access to all shards, then a flush so anything it posted
         is queued before the next window is chosen. *)
      match !globals with
      | [] -> assert false
      | (g_at, fire) :: rest ->
          globals := rest;
          advance_all t ~time:g_at;
          fire ();
          flush_mail t;
          cur_min := min_next t
    end
    else if !cur_min >= until_bound then begin
      (* Done: no pending event inside the horizon. Sends parked past
         the horizon stay in their mailboxes; a later [run] flushes
         them first. *)
      (match until with Some u -> advance_all t ~time:u | None -> ());
      continue := false
    end
    else begin
      t.epoch <- t.epoch + 1;
      t.phases <- t.phases + 1;
      d.bound <-
        Float.min (!cur_min +. t.lookahead) (Float.min until_bound next_global);
      d.next_global <- next_global;
      Atomic.set d.abort false;
      Array.fill d.wdelivered 0 workers 0;
      (* Flip the mailbox parity: this phase's sends buffer separately
         from the previous window's mail being delivered. *)
      t.parity <- 1 - t.parity;
      phase ();
      for w = 0 to workers - 1 do
        t.cross_sends <- t.cross_sends + d.wdelivered.(w)
      done;
      cur_min := d.cur_min
    end
  done
