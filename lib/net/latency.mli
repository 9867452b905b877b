(** Per-hop network delay models for the overlay simulator. *)

type t =
  | Constant of float  (** Every hop takes exactly this many seconds. *)
  | Uniform of { lo : float; hi : float }  (** Uniform in [\[lo, hi\]]. *)
  | Exponential of { mean : float; floor : float }
      (** [floor] plus an exponential tail — a long-tailed WAN model. *)

val default : t
(** [Uniform {lo = 0.010; hi = 0.080}]: wide-area P2P round-trip
    half-times, in seconds. *)

val validate : who:string -> t -> unit
(** Check a model before a run samples it: every value finite, [lo >= 0],
    [hi >= lo], [floor >= 0], [mean > 0] and a constant [>= 0]. A bad
    model would otherwise fail mid-run (a negative delay) or silently
    corrupt the event order (NaN).
    @raise Invalid_argument ["<who>: latency ..."] naming the bad field. *)

val min : t -> float
(** The smallest delay the model can sample: the constant, [lo] or
    [floor]. The sharded simulator's conservative lookahead. *)

val sample : t -> Lesslog_prng.Rng.t -> float
val mean : t -> float
val pp : Format.formatter -> t -> unit
