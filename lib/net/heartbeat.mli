(** Heartbeat failure detector: derive liveness from observed ping
    timeouts instead of oracle knowledge.

    Every [period] seconds the detector runs a round: each monitored peer
    whose previous ping is still unanswered scores a miss, and a fresh
    ping (with a new sequence number) is sent through the caller's [ping]
    callback. A peer that accumulates [suspect_after] consecutive misses
    is {e suspected}; any pong from it — including a late one — resets
    its miss count and, if it was suspected, {e trusts} it again. Both
    transitions are reported through [on_change], which is where a
    simulation drives its membership status word and migration machinery
    from detector output.

    The detector is deliberately fallible in the ways a real one is: under
    message loss it raises false suspicions that later recover, and a
    crash is only detected [suspect_after * period] seconds late.

    Peer state is flat: one array per field (PID, misses, verdict,
    outstanding sequence number, answered), indexed by the peer's
    position, with no record per peer. Peers are found through an int
    array from PID to position, sized to the largest monitored PID, so
    {!pong} and {!suspected} allocate nothing; a round is a loop over the
    positions. *)

open Lesslog_id

type config = { period : float; suspect_after : int }

val default_config : config
(** Half-second rounds, 5 consecutive misses to suspect: under 20%
    symmetric loss a live peer is spuriously suspected at any instant
    with probability ~[(1 - 0.8^2)^5 < 1%]. *)

type verdict = [ `Suspect | `Trust ]

type t

val create :
  engine:Lesslog_sim.Engine.t ->
  ?config:config ->
  peers:Pid.t array ->
  ping:(seq:int -> Pid.t -> unit) ->
  on_change:(Pid.t -> verdict -> unit) ->
  unit ->
  t
(** [ping ~seq peer] must put a ping on the wire; the caller reports the
    matching pong (or any later one) with {!pong}. [on_change] fires on
    every trusted⟷suspected transition. All peers start trusted.
    @raise Invalid_argument when [period <= 0] or [suspect_after < 1]. *)

val start : t -> until:float -> unit
(** Run the first round now, synchronously, then one every [period]
    seconds up to [until] (simulated time), as events of the tick handler
    that {!create} registered with the engine. *)

val pong : t -> peer:Pid.t -> seq:int -> unit
(** Evidence of life. Unmonitored peers (any PID not in [peers],
    including one above the largest monitored PID or a negative one) and
    forged sequence numbers are ignored; stale sequence numbers still
    count. *)

val suspected : t -> Pid.t -> bool
(** Current verdict for a monitored peer ([false] for unmonitored ones,
    whatever their PID). *)

val suspected_count : t -> int

val rounds : t -> int
(** Ping rounds run so far. *)

val suspicions : t -> int
(** Total trusted→suspected transitions. *)

val recoveries : t -> int
(** Total suspected→trusted transitions. *)
