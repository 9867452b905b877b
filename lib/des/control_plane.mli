(** The dynamic-RF policy and the erasure-coded cold tier, decided once,
    for {!Des_sim} — the one simulator that runs them.

    The simulator owns only placement: it tallies accesses into the
    log-driven competitor ({!Lesslog_policy.Rf_policy}), places and
    removes full copies and fragments through {!Lesslog.Ops}, and
    reports the counts here. Everything else is this module's:
    validating the configuration, the order of a policy tick (close the
    interval, run the tier transition, enforce the replica factor while
    the key has full copies), the Cold-streak → demote / Hot → promote
    verdict, the tier flags, and the byte ledger with its stored-byte
    step integral. *)

type cold_tier = {
  code_k : int;  (** Data fragments of the Reed-Solomon code. *)
  code_r : int;  (** Parity fragments; any [code_k] of the [k+r] decode. *)
  file_bytes : int;  (** Logical size of the (single) hot file. *)
  demote_after : int;
      (** Consecutive Cold-classified policy intervals before the key is
          demoted to fragments. *)
}

val default_cold_tier : cold_tier
(** (10, 4) — Snippet 1's production choice — 1 MiB, demote after 2. *)

type cold_stats = {
  demotions : int;
  promotions : int;
  fragment_repairs : int;  (** Fragments rebuilt after churn. *)
  lost_cold : bool;
      (** Fewer than [k] fragments survived at some point — the payload
          became unrecoverable. *)
  coded_at_end : bool;
  coded_serves : int;  (** Requests served by fragment gather+decode. *)
  bytes_stored_end : int;
  mean_bytes_stored : float;
      (** Time average of stored bytes over the run — the numerator of
          storage amplification. *)
  bytes_moved : int;
      (** Bytes that crossed the network for placement, demotion,
          promotion and repair (replica pushes, policy fills and churn
          relocations count [file_bytes] each; a demotion moves the [k+r]
          fragments; a promotion gathers [k] fragments and fans the
          copies out). *)
  repair_bytes : int;
      (** The failure-triggered subset of [bytes_moved]: relocated full
          copies, plus [k] reads and one write per rebuilt fragment. *)
}

(** The cold tier's run state. Simulators read the flags on their
    request path ([coded]: the key is held as fragments; [servable]: and
    at least [k] of them are live) and change it only through the
    functions below. *)
type ledger = private {
  tier : cold_tier;
  frag_bytes : int;  (** [ceil (file_bytes / code_k)]. *)
  mutable coded : bool;
  mutable servable : bool;
  mutable streak : int;  (** Consecutive Cold verdicts while replicated. *)
  mutable demotions : int;
  mutable promotions : int;
  mutable fragment_repairs : int;
  mutable lost : bool;
  mutable tier_bytes : int;
      (** Demotion spreads, promotion gathers and fan-outs, fragment
          rebuilds — the traffic a copy count cannot show. *)
  mutable rebuild_bytes : int;
  mutable byte_seconds : float;
  mutable last_bytes : int;
  mutable last_sample_t : float;
}

type t = private { policy : Lesslog_policy.Rf_policy.t; ledger : ledger option }
(** A run's control plane: the policy, plus the ledger when the cold
    tier is armed. *)

val create :
  nodes:int ->
  Lesslog_policy.Rf_policy.t option ->
  cold_tier option ->
  t option
(** The control plane of one run over a [nodes]-slot PID space; [None]
    when the run has no policy (the native overload trigger). The policy
    must be fresh for the run.
    @raise Invalid_argument, with message prefix ["Des_sim: "], when the
    policy's accessor population is not [nodes], when a [cold_tier] comes
    without a policy, or on invalid code/size parameters. *)

val ticks : t -> duration:float -> float list
(** When the policy ticks in a run of [duration] seconds: at exact
    multiples [k * interval] ([k >= 1]), strictly before the horizon — a
    tick at the horizon could serve no request and would only perturb
    the end state. *)

val tick :
  t ->
  demote:(cold_tier -> int option) ->
  promote:(copies:int -> int option) ->
  enforce:(unit -> unit) ->
  unit
(** One policy tick, after the simulator has handed the interval's
    accesses to the policy: close the analysis interval, run the tier
    transition, then [enforce] the replica factor unless the key is
    held as fragments. [demote tier] trades the full copies for fragments
    and returns how many it placed, or [None] when it cannot (the streak
    then retries at the next Cold tick). [promote ~copies] rebuilds at
    least [copies] full copies and returns how many of them its own
    replica count does not report (their fan-out is charged here), or
    [None] when fewer than [k] fragments survive. *)

val repaired : ledger -> rebuilt:int -> lost:bool -> unit
(** After churn: [rebuilt] fragments were re-seated from the survivors;
    [lost] = fewer than [k] survived. *)

val fragments_live : ledger -> int -> unit
(** The key now has this many live fragments; [servable] follows. *)

val sample : ledger -> t:float -> copies:int -> fragments:int -> unit
(** Stored bytes are [copies] full copies plus [fragments] fragments
    from [t] on: extend the step integral to [t] and restart it. Call it
    at every point where stored bytes may have changed, at [t = 0] and
    at the horizon. *)

val stats :
  ledger ->
  copies_moved:int ->
  relocated:int ->
  coded_serves:int ->
  duration:float ->
  cold_stats
(** The run's ledger, given the full copies pushed or filled onto new
    holders ([copies_moved]), the copies churn relocated ([relocated],
    failure-triggered) and the requests served from fragments. *)
