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

   {b One job per run.} {!run} dispatches one pool job and hands every
   worker a fixed contiguous block of shards; per epoch window the
   worker (1) drains the mailboxes addressed to its own destination
   shards — one {!Engine.post_batch} per nonempty mailbox, in the fixed
   source-then-FIFO order that pins tie-breaking seqs — (2) drains its
   shards below the window bound, and (3) publishes its local minimum
   next-event time (engines plus its own undelivered sends) through a
   pre-sized per-worker results array.

   {b The barrier decides.} At the end of a window the workers meet at
   an in-job {!Par.Barrier}; the last arriver folds the per-worker
   minima into the event frontier, fires every global due at or before
   it (flushing the mail after each), and then either ends the run at
   the horizon or opens the next window. A run of k epochs costs one
   pool dispatch plus k barrier crossings, globals included.

   {b Mailboxes.} Cross-shard sends go to per-(src, dst) mailboxes —
   single-producer by construction, since a shard's events execute on
   exactly one worker during a window. Mailboxes are double-buffered by
   window parity: senders append to the buffer of the current window
   while destination owners drain the previous window's buffer, so
   delivery and sending never touch the same arrays; the inter-window
   barrier provides the happens-before edge between a source's appends
   and the destination's drain. Each source shard also tracks the
   minimum timestamp of its undelivered sends, which is how the window
   minimum can include parked mail without scanning n^2 mailboxes.

   Together with per-shard sequential draining this makes the full event
   sequence — order, timestamps, payloads, per-engine tie-breaking
   seqs — bit-identical at any domain count, including 1.

   Rare whole-system actions (membership churn, phase changes) run as
   {e global events}: the window is clipped so it never spans one, and
   the action runs sequentially at the barrier with all shard clocks
   lined up on its timestamp.

   {b Ownership.} The worker count is fixed at {!create}, and so is the
   block split: worker w drains shards [w*n/W, (w+1)*n/W) in every
   run. {!create} builds each shard's engine, and through the caller's
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
   barrier, spinning and blocked apart ({!worker_times}). The last
   arriver's decision, globals included, counts as its spin time. *)

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

(* Shared state of one run: written by the caller before the pool job
   starts, per-worker slots written by their owner during a window,
   decision fields written by the barrier's last arriver. All plain
   fields ride the happens-before edges of the pool hand-off and the
   in-job barrier. *)
type descriptor = {
  d_workers : int;
  block_lo : int array;  (* worker w owns shards [lo, hi) — contiguous *)
  block_hi : int array;
  wmin : float array;  (* per-worker window minimum (engines + own sends) *)
  wdelivered : int array;  (* per-worker mailbox messages delivered, run total *)
  bar : Par.Barrier.t;
  abort : bool Atomic.t;  (* a handler raised: end the run, re-raise after *)
  mutable bound : float;  (* current window's drain bound *)
  mutable horizon : float;  (* [until], or infinity *)
  mutable until_bound : float;  (* Float.succ horizon, or infinity *)
  mutable globals : (float * (unit -> unit)) list;  (* not yet fired *)
  mutable running : bool;  (* decision: another window is open *)
  mutable failed : (exn * Printexc.raw_backtrace) option;  (* a global raised *)
}

type t = {
  shards : Engine.t array;
  lookahead : float;
  mail : mailbox array;  (* (parity * n + src) * n + dst *)
  sent_min : float array;  (* per src shard: min undelivered send time *)
  desc : descriptor;  (* fixed worker count and block split *)
  wtimes : wtime array;  (* per worker, each built on its worker *)
  mutable parity : int;  (* buffer index current-window sends append to *)
  mutable epoch : int;
  mutable phases : int;  (* pool jobs: one per run that opens a window *)
  mutable cross_sends : int;  (* delivered mailbox messages *)
}

let make_descriptor ~shards:n ~workers =
  {
    d_workers = workers;
    block_lo = Array.init workers (fun w -> w * n / workers);
    block_hi = Array.init workers (fun w -> (w + 1) * n / workers);
    wmin = Array.make workers Float.infinity;
    wdelivered = Array.make workers 0;
    bar = Par.Barrier.create ~parties:workers ();
    abort = Atomic.make false;
    bound = 0.0;
    horizon = Float.infinity;
    until_bound = Float.infinity;
    globals = [];
    running = false;
    failed = None;
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
      desc;
      wtimes = Array.map Option.get wtimes;
      parity = 0;
      epoch = 0;
      phases = 0;
      cross_sends = 0;
    }
  in
  (t, Array.map snd built)

let engine t i = t.shards.(i)
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
    if time < t.sent_min.(src) then t.sent_min.(src) <- time
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

(* Full flush (run start, after a global action), by one domain while
   no worker drains: both parity buffers, destination-major — at most
   one buffer holds mail at any barrier, so the order across parities is
   immaterial. *)
let flush_mail t =
  let n = Array.length t.shards in
  for dst = 0 to n - 1 do
    t.cross_sends <- t.cross_sends + deliver_dst t ~parity:0 ~dst;
    t.cross_sends <- t.cross_sends + deliver_dst t ~parity:1 ~dst
  done;
  Array.fill t.sent_min 0 n Float.infinity

(* Sentinel scan — no [float option] boxing. Only meaningful when the
   mailboxes are empty (after a flush). *)
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

(* From the event frontier [mn] (every pending event, parked mail
   included), do what is due before the next window: fire the globals
   due at or before [mn] within the horizon, each with every clock on
   its time and followed by a flush; then either stop at the horizon or
   open the next window, flipping the mail parity so its sends buffer
   apart from the mail its workers deliver first. Runs on one domain
   while no worker drains: the caller before the job, then the barrier's
   last arriver. A raising global ends the run; it is kept for {!run} to
   re-raise, since escaping here would strand the other parties. *)
let rec next_window t d mn =
  match d.globals with
  | (g_at, fire) :: rest
    when g_at <= d.horizon && g_at <= mn && g_at < Float.infinity -> (
      d.globals <- rest;
      advance_all t ~time:g_at;
      match fire () with
      | () ->
          flush_mail t;
          next_window t d (min_next t)
      | exception e ->
          d.failed <- Some (e, Printexc.get_raw_backtrace ());
          d.running <- false)
  | globals ->
      if mn >= d.until_bound then begin
        (* Done: no pending event inside the horizon. Sends parked past
           the horizon stay in their mailboxes; a later [run] flushes
           them first. *)
        if d.horizon < Float.infinity then advance_all t ~time:d.horizon;
        d.running <- false
      end
      else begin
        let next_global =
          match globals with
          | (g_at, _) :: _ when g_at <= d.horizon -> g_at
          | _ -> Float.infinity
        in
        t.epoch <- t.epoch + 1;
        d.bound <-
          Float.min (mn +. t.lookahead) (Float.min d.until_bound next_global);
        t.parity <- 1 - t.parity;
        d.running <- true
      end

(* The barrier decision: fold the per-worker minima into the frontier
   and choose the next window, or end the run after a handler raised. *)
let decide t d =
  if Atomic.get d.abort then d.running <- false
  else begin
    let mn = ref Float.infinity in
    for w = 0 to d.d_workers - 1 do
      if d.wmin.(w) < !mn then mn := d.wmin.(w)
    done;
    next_window t d !mn
  end

(* One worker's share of a run: windows until the decision ends it. A
   handler exception must not strand the other parties at the barrier,
   so it is trapped, flagged, and re-raised only after the release. The
   clock is read at the window's two internal boundaries and around the
   barrier; a window starts where the last one's barrier ended. *)
let window_worker t d w =
  let lo = d.block_lo.(w) and hi = d.block_hi.(w) in
  let wt = t.wtimes.(w) in
  let decide () = decide t d in
  let mark = ref (Par.now_ns ()) in
  while d.running do
    let ex = ref None in
    (try
       (* Previous window's mail for our destinations: empty after a
          quiet window or a global's flush. *)
       let old_parity = 1 - t.parity in
       let delivered = ref 0 in
       for dst = lo to hi - 1 do
         delivered := !delivered + deliver_dst t ~parity:old_parity ~dst
       done;
       d.wdelivered.(w) <- d.wdelivered.(w) + !delivered;
       for s = lo to hi - 1 do
         t.sent_min.(s) <- Float.infinity
       done;
       let delivered_at = Par.now_ns () in
       wt.deliver_ns <- wt.deliver_ns + (delivered_at - !mark);
       mark := delivered_at;
       let bound = d.bound in
       for s = lo to hi - 1 do
         Engine.drain_below t.shards.(s) ~bound
       done;
       let mn = ref Float.infinity in
       for s = lo to hi - 1 do
         let ti = Engine.next_time_inf t.shards.(s) in
         if ti < !mn then mn := ti;
         if t.sent_min.(s) < !mn then mn := t.sent_min.(s)
       done;
       d.wmin.(w) <- !mn;
       let drained_at = Par.now_ns () in
       wt.drain_ns <- wt.drain_ns + (drained_at - !mark);
       mark := drained_at
     with e ->
       ex := Some (e, Printexc.get_raw_backtrace ());
       Atomic.set d.abort true;
       d.wmin.(w) <- Float.infinity);
    let blocked_at = Par.Barrier.arrive d.bar ~last:decide in
    let released_at = Par.now_ns () in
    if blocked_at < 0 then wt.spin_ns <- wt.spin_ns + (released_at - !mark)
    else begin
      wt.spin_ns <- wt.spin_ns + (blocked_at - !mark);
      wt.block_ns <- wt.block_ns + (released_at - blocked_at)
    end;
    mark := released_at;
    match !ex with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  done

let run ?until ?(globals = []) t =
  let d = t.desc in
  d.horizon <- Option.value until ~default:Float.infinity;
  (* [Float.succ] turns the strict drain bound inclusive: events at
     exactly [until] still run. *)
  d.until_bound <- Float.succ d.horizon;
  d.globals <- globals;
  d.failed <- None;
  Atomic.set d.abort false;
  Array.fill d.wdelivered 0 d.d_workers 0;
  flush_mail t;
  next_window t d (min_next t);
  if d.running then begin
    t.phases <- t.phases + 1;
    on_workers d (window_worker t d) ();
    Array.iter (fun n -> t.cross_sends <- t.cross_sends + n) d.wdelivered
  end;
  d.globals <- [];
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) d.failed
