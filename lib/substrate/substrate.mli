(** The pluggable overlay contract: everything the replication core and
    the simulators need from a lookup substrate, as a first-class value.

    LessLog's claim (PAPER.md §1.4) is that logless replication rides on
    the lookup structure alone. This record is that boundary made
    explicit. The simulators' node protocol ([Protocol], under [Des_sim]
    and [Fault_sim]) holds exactly one value of this type — the native
    adapter when the caller names none — and routes every hop through
    [next_hop] and places every replica through [replica_target].
    {!Lesslog.Ops} ([insert_via], [on_membership_via] and the cold-tier
    calls' [?substrate]) speaks the same interface, so the identical
    protocol code, [lib/net] reliability layer, and [Obs] span
    attribution run over the native binomial trees, Chord, Pastry, or
    CAN.

    {2 Determinism obligations}

    Implementations are used inside deterministic simulations that are
    replayed, diffed event-for-event, and pinned by golden digests
    ([lib/check], [test/test_des.ml]). An implementor must therefore
    guarantee:

    - {b No hidden RNG.} Every answer is a pure function of (the key, the
      queried node, a request's origin, the current membership word, and
      construction-time parameters). Randomized construction (e.g. CAN's
      join points) must draw from a seed derived deterministically from
      the parameters —
      never from global state, the clock, or [Random]. The only sanctioned
      randomness at query time is the [rng] explicitly threaded into
      {!field-replica_target}, and implementations must draw from it only
      when they actually randomize (a draw consumes stream state that
      other consumers would otherwise see).
    - {b Epoch semantics.} Membership changes are observed through
      {!Lesslog_membership.Status_word}: its [epoch] bumps on every
      effective mutation. Derived routing state (rings, routing tables)
      must be revalidated against the epoch — {!epoch_cached} packages the
      standard lazy-rebuild idiom — or consult liveness bit-by-bit at
      query time, as the CAN adapter does. Answers may never reflect a
      stale membership view once the epoch has moved.
    - {b Termination.} Following {!field-next_hop} from any live node must
      reach [-1] in finitely many steps, with no visited-set help from
      the caller (messages are stateless). The simulators additionally cap
      walks at [hop cap] hops and count an overflow as a routing fault,
      but a correct substrate never hits the cap.
    - {b Totality.} [next_hop]/[owner]/[neighbors] must not raise on any
      live population, including a node that has just joined or an empty
      system ([owner] = [None], [neighbors] = [[]]). A message can be
      in flight from a node that has since died; routing from such a
      stale sender must still answer, not raise. Every [next_hop] answer
      is [-1] or a live PID in [\[0, 2^m)].

    Implementations satisfying these obligations are automatically
    compatible with the [lib/check] oracles and (for the native adapter)
    the golden trace digests; the shared conformance suite in
    [test/test_substrate.ml] property-checks the last three obligations
    for every adapter. *)

open Lesslog_id

(** How churn is repaired on this substrate. *)
type membership_style =
  | Self_organized
      (** The native LessLog discipline: the simulators run the paper's
          Section 5 join/leave/fail procedures ({!Lesslog.Self_org})
          verbatim — required for bit-for-bit golden-digest equality. *)
  | Generic
      (** Overlay-agnostic repair driven by the key registry: on a
          membership event the simulator re-homes each key to its current
          {!field-owner} ([Ops.on_membership_via]). *)

type t = {
  name : string;  (** Short identifier used in benches and traces. *)
  next_hop : key:string -> origin:int -> int -> int;
      (** [next_hop ~key ~origin p]: one forwarding hop of a request for
          [key], issued at PID [origin], standing at PID [p]. The answer
          is the next PID as an int, or [-1] when [p] is the end of the
          route (the responsible node — or, on substrates without
          {!field-guaranteed_delivery}, a greedy dead end): the
          convention of {!Lesslog_topology.Topology.route}. PIDs travel
          as ints so a forwarded hop boxes no option. The origin rides on
          every GET; the native adapter needs it for the Section 4
          subtree migration, the overlay adapters ignore it. *)
  owner : key:string -> Pid.t option;
      (** The live node currently responsible for [key] — where
          [insert_via] places the inserted copy and where routing is
          expected to terminate. [None] iff no node is live. *)
  neighbors : key:string -> Pid.t -> Pid.t list;
      (** The node's live overlay neighbors (ring successor/predecessor,
          leaf set, zone neighbors, children list...). Key-dependent only
          on the native substrate, whose topology is a per-key tree;
          overlay adapters ignore [key]. *)
  symmetric_neighbors : bool;
      (** Whether [q ∈ neighbors p ⇔ p ∈ neighbors q] is guaranteed; the
          conformance suite checks symmetry exactly when this is set. *)
  guaranteed_delivery : bool;
      (** Whether a route from a live node always terminates at
          {!field-owner}. CAN sets this [false]: greedy geometric routing
          can dead-end when the zone owning the target point is dead. *)
  membership : membership_style;
  notify : unit -> unit;
      (** Failure/membership notification: called by the simulators after
          each batch of status-word mutations. Epoch-cached adapters may
          treat it as a no-op (the next query revalidates); an eager
          implementation may rebuild here. *)
  replica_target :
    rng:Lesslog_prng.Rng.t ->
    holds:(Pid.t -> bool) ->
    overloaded:Pid.t ->
    key:string ->
    Pid.t option;
      (** Replica placement for an overloaded holder: a live node not yet
          holding a copy ([holds]), or [None] when every candidate holds
          one. The native adapter implements the paper's children-list
          walk with the Section 3 proportional choice; overlay adapters
          use {!neighbor_replica_target}. Must draw from [rng] only when
          actually randomizing. *)
}

val route_path :
  t -> key:string -> origin:Pid.t -> max_hops:int -> Pid.t list * bool
(** The full route of a request from [origin]: origin-first node list
    ending at the terminal node, following {!field-next_hop}. The boolean
    is [true] when the route terminated on its own and [false] when it was
    cut by [max_hops] (only possible on a non-conforming substrate). *)

val neighbor_replica_target :
  neighbors:(key:string -> Pid.t -> Pid.t list) ->
  rng:Lesslog_prng.Rng.t ->
  holds:(Pid.t -> bool) ->
  overloaded:Pid.t ->
  key:string ->
  Pid.t option
(** The generic neighbor-set placement policy shared by the overlay
    adapters: a uniform [rng] draw over the overloaded node's non-holding
    live neighbors (no draw when zero or one candidate). Mirrors the
    successor-list / leaf-set replication of the DHT literature
    (PAPERS.md, cs/0507072). *)

val epoch_cached :
  Lesslog_membership.Status_word.t -> build:(unit -> 'a) -> unit -> 'a
(** [epoch_cached status ~build] is a thunk returning [build ()] memoized
    per status-word epoch: the first call at each epoch rebuilds, later
    calls at the same epoch return the cached value. The standard way for
    an adapter to keep a derived ring/table consistent with membership. *)
