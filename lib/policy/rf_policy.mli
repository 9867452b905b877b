(** Weighted dynamic replica-factor policy — the log-driven competitor to
    LessLog's logless placement.

    The classic access-frequency scheme (weighted dynamic replication for
    cloud storage; see SNIPPETS.md Snippet 1 and ROADMAP): time is cut
    into fixed analysis intervals, and for every file [i] the interval's
    access log yields

    - [ac_i] — the access count,
    - [dnc_i] — the number of distinct nodes that accessed it,
    - [w_i = dnc_i / nodes] — the node-coverage weight,
    - [PD_i = w_i *. ac_i] — the weighted popularity degree.

    Classification uses {e dynamic} thresholds derived from the
    system-wide popularity level: a file is Hot when its PD exceeds
    [hot_factor] times the reference popularity, Cold when it falls below
    [cold_factor] times it, Warm in between. The reference is an
    exponential moving average of the per-interval mean PD over accessed
    files, so thresholds track the demand level instead of being tuned
    constants. A Hot file's replica factor steps up (capped at [rf_max]),
    a Cold file's steps down (floored at [rf_min]), and the RF {e carries
    across intervals} — the persistent state that makes the policy
    log-driven, in contrast to LessLog's purely local, logless decision.

    Everything is deterministic and allocation-light: {!record} is an
    O(1) counter bump plus a bitset test, so the per-access hot path adds
    no measurable cost to a simulator, and {!end_interval} is O(files +
    touched-node-words). The module never draws randomness, so
    {!Lesslog_des.Des_sim} runs its interval ticks without perturbing the
    run's RNG stream. *)

type class_ = Hot | Warm | Cold

val class_name : class_ -> string

type config = {
  interval : float;  (** Analysis-window length, seconds. *)
  rf_min : int;  (** Replica-factor floor (>= 1). *)
  rf_max : int;  (** Replica-factor cap. *)
  hot_factor : float;
      (** PD above [hot_factor *. reference] classifies Hot. *)
  cold_factor : float;
      (** PD below [cold_factor *. reference] classifies Cold. *)
  history : float;
      (** EMA weight of past intervals in the reference popularity,
          in [0, 1); 0 = thresholds from the current interval only. *)
  capacity : float option;
      (** [None] (pure mode): classification comes from the PD
          thresholds alone — the classic scheme. [Some c]
          (capacity-aware mode): the access log sizes each file's
          replica set to the observed rate ([ceil (ac / (interval *.
          c))] replicas absorb the interval's accesses at [c] requests/s
          each), and a file whose PD clears the dynamic hot threshold
          pre-provisions one replica of headroom; Hot/Cold then mean
          "below/above that target". Pure PD degenerates on a one-file
          catalogue — the file's PD {e is} the reference, so it can
          never cross its own thresholds — which is why the single-hot-
          file simulators use capacity-aware mode. *)
}

val default_config : config
(** 1 s intervals, RF in [1, 64], hot above 1.5x / cold below 0.5x the
    reference, history 0.5, pure mode (no capacity). *)

type decision = {
  file : int;
  cls : class_;
  ac : int;
  dnc : int;
  pd : float;
  rf_before : int;
  rf_after : int;
}

type t

val create : ?config:config -> ?rf0:int -> nodes:int -> files:int -> unit -> t
(** [nodes] is the accessing population size (the denominator of [w_i]);
    [files] the catalogue size. Every file starts at [rf0] (default
    [config.rf_min]) replicas.
    @raise Invalid_argument on non-positive sizes, [rf_min < 1],
    [rf_max < rf_min], [cold_factor > hot_factor], [history] outside
    [0, 1) or a non-positive [capacity]. *)

val config : t -> config
val files : t -> int
val nodes : t -> int

val record : t -> file:int -> node:int -> unit
(** One access to [file] originated by [node], O(1).
    @raise Invalid_argument on an out-of-range file or node. *)

val note : t -> file:int -> ac:int -> dnc:int -> unit
(** Merge a pre-aggregated observation into the current interval: [ac]
    accesses from [dnc] distinct nodes {e not already counted} — the
    shard-merge entry point for sharded simulators that tally locally and
    combine at a barrier. [dnc] saturates at [nodes]. *)

val rf : t -> file:int -> int
(** The current replica factor (carried across intervals). *)

val classification : t -> file:int -> class_
(** The class assigned at the last {!end_interval} ([Warm] before the
    first). *)

val reference_pd : t -> float
(** The EMA reference popularity the thresholds are derived from. *)

val end_interval : t -> decision array
(** Close the current analysis interval: compute every file's PD,
    refresh the dynamic thresholds, update replica factors, reset the
    interval tallies and return the per-file decisions (indexed by
    file). *)
