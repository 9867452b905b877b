(* Domain pool with a reusable start/finish barrier.

   [Pool.run] hands one job — a function of the worker index — to every
   worker and blocks until all of them return. The caller's own domain
   is worker 0, so a pool of size [n] spawns [n - 1] domains, once, and
   reuses them for every subsequent [run]: the sharded simulation engine
   crosses this barrier twice per epoch, and a spawn per crossing (the
   old [map] did one spawn per call) would dominate the epoch cost.

   Synchronization is a mutex plus two condition variables — a job
   generation counter wakes the workers, a running count wakes the
   caller. Workers idle in [Condition.wait] between jobs (no spinning),
   and the mutex acquire/release pairs give every job the happens-before
   edges the engine's mailbox hand-off needs: writes made by worker A
   during job k are visible to every worker during job k+1. *)

let default_cap = 16

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let recommended_domains () =
  match Sys.getenv_opt "LESSLOG_DOMAINS" with
  | Some s ->
      (match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> invalid_arg "LESSLOG_DOMAINS must be a positive integer")
  | None -> min default_cap (Domain.recommended_domain_count ())

(* True while the current domain is executing a pool job: a [map] from
   inside a job must not re-enter the (non-reentrant) pool, so it runs
   sequentially instead. *)
let in_job_key = Domain.DLS.new_key (fun () -> false)

module Pool = struct
  type t = {
    size : int;
    m : Mutex.t;
    wake : Condition.t;  (* workers: a new job (or stop) is posted *)
    idle : Condition.t;  (* caller: all workers finished the job *)
    mutable job : (int -> unit) option;
    mutable generation : int;  (* bumped per job; workers key off it *)
    mutable running : int;
    mutable stop : bool;
    failures : (exn * Printexc.raw_backtrace) option array;
    mutable domains : unit Domain.t list;
  }

  let size t = t.size

  let worker t w () =
    let seen = ref 0 in
    let continue = ref true in
    while !continue do
      Mutex.lock t.m;
      while (not t.stop) && t.generation = !seen do
        Condition.wait t.wake t.m
      done;
      if t.stop then begin
        Mutex.unlock t.m;
        continue := false
      end
      else begin
        seen := t.generation;
        let job = Option.get t.job in
        Mutex.unlock t.m;
        Domain.DLS.set in_job_key true;
        (try job w
         with e -> t.failures.(w) <- Some (e, Printexc.get_raw_backtrace ()));
        Domain.DLS.set in_job_key false;
        Mutex.lock t.m;
        t.running <- t.running - 1;
        if t.running = 0 then Condition.signal t.idle;
        Mutex.unlock t.m
      end
    done

  let create ~domains =
    if domains < 1 then invalid_arg "Par.Pool.create: domains";
    let t =
      {
        size = domains;
        m = Mutex.create ();
        wake = Condition.create ();
        idle = Condition.create ();
        job = None;
        generation = 0;
        running = 0;
        stop = false;
        failures = Array.make domains None;
        domains = [];
      }
    in
    t.domains <- List.init (domains - 1) (fun k -> Domain.spawn (worker t (k + 1)));
    t

  let shutdown t =
    Mutex.lock t.m;
    if not t.stop then begin
      t.stop <- true;
      Condition.broadcast t.wake
    end;
    Mutex.unlock t.m;
    List.iter Domain.join t.domains;
    t.domains <- []

  (* Run [f 0 .. f (size-1)], one call per worker, and join them all.
     Worker exceptions are trapped per worker; after the join the
     exception of the lowest-numbered failing worker is re-raised, so
     the outcome is deterministic at any interleaving. *)
  let run t f =
    if t.stop then invalid_arg "Par.Pool.run: pool is shut down";
    Array.fill t.failures 0 t.size None;
    if t.size = 1 then f 0
    else begin
      Mutex.lock t.m;
      t.job <- Some f;
      t.running <- t.size - 1;
      t.generation <- t.generation + 1;
      Condition.broadcast t.wake;
      Mutex.unlock t.m;
      Domain.DLS.set in_job_key true;
      (try f 0
       with e -> t.failures.(0) <- Some (e, Printexc.get_raw_backtrace ()));
      Domain.DLS.set in_job_key false;
      Mutex.lock t.m;
      while t.running > 0 do
        Condition.wait t.idle t.m
      done;
      t.job <- None;
      Mutex.unlock t.m
    end;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      t.failures
end

(* Phase barrier: a reusable in-job rendezvous for workers that are
   already inside one [Pool.run] job and want to cross several internal
   phases without returning to the coordinator. The last worker to
   arrive runs a decision closure while everyone else holds, then all
   parties are released together — one crossing per phase instead of a
   full job dispatch (wake broadcast + idle join).

   Waiting spins briefly (cheap when every party has its own core, the
   pool's normal regime) and then falls back to a condition variable so
   an oversubscribed host — more workers than cores — blocks instead of
   burning scheduler slices. The atomic generation counter doubles as
   the release flag and the memory fence: plain writes made before
   [Atomic.incr gen] by the last arriver (the decision's outputs) are
   visible to every party after it observes the new generation, and
   plain writes made by a party before its arrival RMW are visible to
   the last arriver. *)
module Barrier = struct
  type t = {
    parties : int;
    arrivals : int Atomic.t;
    gen : int Atomic.t;
    m : Mutex.t;
    c : Condition.t;
    spin : int;
  }

  let create ?(spin = 512) ~parties () =
    if parties < 1 then invalid_arg "Par.Barrier.create: parties";
    {
      parties;
      arrivals = Atomic.make 0;
      gen = Atomic.make 0;
      m = Mutex.create ();
      c = Condition.create ();
      spin;
    }

  let parties t = t.parties

  let arrive t ~last =
    if t.parties = 1 then begin
      last ();
      -1
    end
    else begin
      let g = Atomic.get t.gen in
      if Atomic.fetch_and_add t.arrivals 1 = t.parties - 1 then begin
        last ();
        Atomic.set t.arrivals 0;
        Atomic.incr t.gen;
        (* Waiters re-check [gen] under the mutex before sleeping, so
           broadcasting under it closes the missed-wakeup window. *)
        Mutex.lock t.m;
        Condition.broadcast t.c;
        Mutex.unlock t.m;
        -1
      end
      else begin
        let k = ref 0 in
        while Atomic.get t.gen = g && !k < t.spin do
          incr k;
          Domain.cpu_relax ()
        done;
        if Atomic.get t.gen = g then begin
          let blocked_at = now_ns () in
          Mutex.lock t.m;
          while Atomic.get t.gen = g do
            Condition.wait t.c t.m
          done;
          Mutex.unlock t.m;
          blocked_at
        end
        else -1
      end
    end
end

(* The shared pool: sized on first use, regrown (larger only) on demand,
   torn down at exit so no spawned domain outlives the program. *)
let global : Pool.t option ref = ref None
let global_registered = ref false

let ensure_pool n =
  let n = max 1 n in
  match !global with
  | Some p when Pool.size p >= n -> p
  | prev ->
      Option.iter Pool.shutdown prev;
      let p = Pool.create ~domains:n in
      global := Some p;
      if not !global_registered then begin
        global_registered := true;
        at_exit (fun () -> Option.iter Pool.shutdown !global)
      end;
      p

let map ?domains ~f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let domains =
      max 1 (min n (match domains with Some d -> d | None -> recommended_domains ()))
    in
    if domains = 1 || Domain.DLS.get in_job_key then Array.map f a
    else begin
      let pool = ensure_pool domains in
      let results = Array.make n None in
      (* Strided split, as before the pool: worker w owns indices
         w, w + domains, … — the result does not depend on which domain
         runs which stride. *)
      Pool.run pool (fun w ->
          if w < domains then begin
            let i = ref w in
            while !i < n do
              results.(!i) <- Some (f a.(!i));
              i := !i + domains
            done
          end);
      Array.map
        (function
          | Some r -> r
          | None -> assert false (* every index is covered by a stride *))
        results
    end
  end

let map_list ?domains ~f l =
  Array.to_list (map ?domains ~f (Array.of_list l))
