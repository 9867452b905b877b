(** Parallel execution over OCaml 5 domains: a persistent worker pool
    with a reusable start/finish barrier, and a strided parallel map on
    top of it.

    The pool exists because the sharded simulation engine crosses a
    barrier twice per epoch — spawning domains per crossing (as the old
    [map] spawned per call) would dominate the epoch cost. Workers are
    spawned once and idle between jobs on a condition variable; the
    mutex hand-off gives each job the happens-before edges cross-worker
    data exchange (e.g. the engine's shard mailboxes) relies on.

    Determinism: nothing here introduces scheduling-dependent results —
    a job receives its worker index and the split of work across indices
    is fixed by the caller, so outcomes are identical at any domain
    count as long as jobs touch disjoint state. *)

val now_ns : unit -> int
(** The monotonic clock (bechamel's [Monotonic_clock]), in nanoseconds
    from an arbitrary origin. {!Barrier.arrive} stamps the moment it
    starts blocking with it; callers that time their own phases read the
    same clock so the intervals compose. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count], capped at 16 — or the value of
    the [LESSLOG_DOMAINS] environment variable when set (positive
    integer; overrides both the probe and the cap, e.g. to force an
    8-worker pool on a smaller machine or to raise the cap on a larger
    one). *)

module Pool : sig
  type t

  val create : domains:int -> t
  (** Spawn a pool of [domains] workers ([domains - 1] new domains; the
      calling domain is worker 0). [domains >= 1]. *)

  val size : t -> int

  val run : t -> (int -> unit) -> unit
  (** [run t f] executes [f w] on every worker [w] in [0 .. size - 1]
      concurrently and returns when all of them have — one barriered
      step. Worker exceptions are trapped and re-joined; the exception
      of the lowest-numbered failing worker is re-raised after every
      worker has finished, so failure is deterministic too. Not
      reentrant: do not call [run] from inside a job. *)

  val shutdown : t -> unit
  (** Stop and join the workers. Idempotent; [run] after [shutdown]
      raises [Invalid_argument]. *)
end

module Barrier : sig
  (** In-job phase barrier: lets the workers of one {!Pool.run} job cross
      several internal phases without returning to the coordinator — the
      sharded engine's epoch windows, whose last arriver also runs the
      due globals. One {!arrive} per party per phase;
      the last arriver runs a decision closure while the others hold,
      then all are released together. *)

  type t

  val create : ?spin:int -> parties:int -> unit -> t
  (** A barrier for exactly [parties] participants ([>= 1]). [spin] is
      the busy-wait bound before a waiter falls back to blocking on a
      condition variable (default 512) — spinning wins when every party
      has its own core, blocking when the host is oversubscribed. *)

  val parties : t -> int

  val arrive : t -> last:(unit -> unit) -> int
  (** Block until all [parties] have arrived. The last arriver runs
      [last] before anyone is released: its plain writes are visible to
      every party after [arrive] returns, and every party's plain writes
      made before its own [arrive] are visible inside [last]. With
      [parties = 1], [arrive] just runs [last]. Every party must arrive
      exactly once per phase — a party that skips an arrival (e.g. by
      raising) deadlocks the rest, so callers trap exceptions, arrive,
      and re-raise after release.

      Returns the {!now_ns} reading at which this party stopped spinning
      and blocked on the condition variable, or [-1] when it never
      blocked (it was released while spinning, or it was the last
      arriver). A caller that reads {!now_ns} just before and just after
      [arrive] can split its wait into spin and block time; the clock is
      read here only on the blocking path. *)
end

val ensure_pool : int -> Pool.t
(** The shared process-wide pool, created on first use and regrown
    (never shrunk) when more workers are requested; torn down by an
    [at_exit] hook. Callers must not [shutdown] this one. *)

val map : ?domains:int -> f:('a -> 'b) -> 'a array -> 'b array
(** [map ~domains ~f a] applies [f] to every element, splitting the
    index space across [domains] (default {!recommended_domains})
    worker strides of the shared pool. [f] must be safe to run
    concurrently (no shared mutable state). Results are identical at
    any domain count; when several strides fail, the exception of the
    lowest-numbered worker is re-raised after all strides have been
    joined. Called from inside a pool job (a nested [map]), it falls
    back to the sequential path rather than re-entering the pool. *)

val map_list : ?domains:int -> f:('a -> 'b) -> 'a list -> 'b list
