(** Per-node local storage.

    Distinguishes the two file categories of Section 5.2: an {e inserted}
    file is the original copy placed by (ADVANCED)INSERTFILE; a
    {e replicated} file was copied in by REPLICATEFILE from an overloaded
    node. Leaving nodes discard replicas but must re-insert their inserted
    files. Every copy carries a version (for UPDATEFILE) and an access
    counter (for counter-based eviction). *)

type origin = Inserted | Replicated

val pp_origin : Format.formatter -> origin -> unit

type tier = Replicated_full | Coded of { index : int; k : int; r : int }
(** Storage class of a copy. [Replicated_full] is a whole-file copy
    (the only tier before the cold tier existed); [Coded] marks a
    single Reed-Solomon fragment — [index] of the [k + r] fragments of
    a [(k, r)] code — stored under a fragment key derived from the
    base key. Coded entries are never touched by counter-based
    eviction; their lifecycle belongs to the demote/promote/repair
    paths in [Ops]. *)

val pp_tier : Format.formatter -> tier -> unit

type entry = {
  key : string;
  origin : origin;
  tier : tier;
  mutable version : int;
  counter : Access_counter.t;
}

type t

val create : unit -> t

val empty : t
(** One shared, frozen store that holds nothing. {!Cluster} hands it out
    for every slot that has never held a file, so a slot costs one
    pointer until its first file arrives. Every read of it answers
    "absent" and every removal (and {!clear}) is a no-op; {!add} and
    {!set_observer} raise [Invalid_argument] on it. *)

val set_observer : t -> (string -> bool -> unit) -> unit
(** [set_observer t f] registers the single change observer: [f key true]
    fires after every {!add} and [f key false] after every removal that
    actually dropped a copy ({!remove}, {!clear}).
    Notifications are idempotent with respect to holding — an [add] of
    an already-held key still fires [f key true] —
    so observers maintaining an index must treat them as "now holds" /
    "now does not hold" statements, not as deltas. {!Cluster} uses this to
    keep a per-key holder bitset exact without scanning stores.
    @raise Invalid_argument on {!empty}. *)

val add :
  ?tier:tier ->
  t ->
  key:string ->
  origin:origin ->
  version:int ->
  now:float ->
  unit
(** Store a copy ([tier] defaults to [Replicated_full]). Re-adding an
    existing key keeps the entry but upgrades its origin to [Inserted]
    if either is inserted, raises the stored version to [version] if
    newer, and takes the new call's [tier].
    @raise Invalid_argument on {!empty}: a cluster slot's first file goes
    through [Lesslog.Cluster.add], which creates the slot's store. *)

val remove : t -> key:string -> unit
val holds : t -> key:string -> bool
val find : t -> key:string -> entry option
val version : t -> key:string -> int option
val origin : t -> key:string -> origin option

val record_access : t -> key:string -> now:float -> unit
(** Bump the access counter; no-op when the key is absent. *)

val set_version : t -> key:string -> version:int -> unit
(** No-op when the key is absent. *)

val tier : t -> key:string -> tier option

(** The key lists below are sorted, and each costs its list cells and
    the sort, which a list of fewer than two keys skips: an empty answer
    allocates nothing. *)

val keys : t -> string list
val inserted_keys : t -> string list
val replicated_keys : t -> string list

val coded_keys : t -> string list
(** Keys of the [Coded]-tier entries (fragment keys), sorted. *)

val inserted_full : t -> entry list
(** The inserted copies of the full tier, sorted by key: the files a
    departing node's store hands on (a fragment is the cold tier's to
    rebuild, and a replica is simply dropped). A list cell each. *)

val holds_inserted_full : t -> bool
(** Whether {!inserted_full} is non-empty. Allocates nothing. *)

val size : t -> int

val demote_to_replica : t -> key:string -> unit
(** Turn an inserted copy into a plain replica — used when the inserted
    copy migrates to a (re)joined node and the old holder keeps serving a
    non-authoritative copy. No-op when the key is absent. *)

val clear : t -> unit
(** Remove every entry (the store of a node that leaves or crashes),
    notifying the observer once per dropped key. Allocates nothing. *)

val is_cold_replica : t -> key:string -> now:float -> min_rate:float -> bool
(** The counter-based mechanism's per-copy test: the store holds a
    replicated (never inserted, never coded) copy of [key] whose
    estimated access rate at [now] fell below [min_rate]. Reading the
    rate decays the copy's counter to [now]. Allocates nothing.

    Removing the copy is the caller's decision, because one store
    cannot see the survivor floor: when every live holder of a key is a
    below-rate replica (the inserted copy's node is down), evicting on
    this test alone drops the last live copy cluster-wide.
    [Des_sim]'s eviction tick walks the key's live holders, tests each
    with this predicate, and re-reads the key's live copy count
    immediately before each removal, keeping the last copy. (This
    replaces [evict_cold_replicas], which swept a whole store behind a
    survivors callback.) *)

val iter : t -> (entry -> unit) -> unit
