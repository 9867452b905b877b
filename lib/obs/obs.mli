(** Observability: a process-wide metrics registry and a span-tracing
    sink, both O(1) and allocation-flat on the hot path, so the
    simulators can stay instrumented even at the m = 16 scale-up
    (see ARCHITECTURE.md, "Observability" — the budget is < 5% on the
    m = 10 [Des_sim] workload, enforced by [bench/obs_bench.ml]).

    {!Registry} holds named counters, gauges and histogram-backed
    timers. Registration hands back a handle; updates through the handle
    are a field write (counters, gauges) or a streaming-sketch insert
    (timers) — no name lookup on the hot path.

    {!Span} records begin/end spans keyed by request id into a bounded
    ring buffer: when the ring is full the oldest spans are overwritten,
    so memory stays constant however long the run. Completed spans
    export as Chrome [trace_event] JSON (load in [chrome://tracing] or
    Perfetto) and as [SPN] {!Lesslog_trace.Trace.Event.Span} lines. *)

module Registry : sig
  type t

  type counter
  type gauge
  type timer

  val create : unit -> t

  val counter : t -> string -> counter
  (** Register (or re-fetch) the counter named [name]. Idempotent.
      @raise Invalid_argument if [name] is registered as another kind. *)

  val gauge : t -> string -> gauge
  val timer : t -> string -> timer

  val timer_backed : t -> string -> Lesslog_metrics.Histogram.t -> timer
  (** Register a timer whose samples {e are} the given live histogram —
      shared, not copied. For code that already keeps a
      {!Lesslog_metrics.Histogram} on its hot path: the existing inserts
      show up in snapshots with no second sketch insert per sample.
      Re-registering re-points the existing timer at [hist]; {!reset}
      detaches the sharing (the timer gets a fresh empty sketch).
      @raise Invalid_argument if [name] is registered as another kind. *)

  val incr : counter -> unit
  (** O(1): one field write. *)

  val add : counter -> int -> unit
  val value : counter -> int
  val set : gauge -> float -> unit
  val read : gauge -> float

  val observe : timer -> float -> unit
  (** O(1): one {!Lesslog_metrics.Histogram} insert. *)

  val observe_int : timer -> int -> unit

  type snapshot = {
    name : string;
    kind : [ `Counter | `Gauge | `Timer ];
    count : int;  (** Counter value, or timer sample count; 0 for gauges. *)
    value : float;  (** Counter value / gauge value / timer mean. *)
    p50 : float;  (** Timers only; [nan] otherwise. *)
    p99 : float;
    max_v : float;
  }

  val snapshot : t -> snapshot list
  (** Every registered metric, sorted by name. *)

  val reset : t -> unit
  (** Zero counters and gauges, empty timers. Handles stay valid. *)

  val to_json_pairs : t -> (string * float) list
  (** Flat [name -> number] pairs: counters and gauges one pair each,
      timers expand to [name/count], [name/mean], [name/p50], [name/p99]
      and [name/max]. Sorted by name. *)

  val to_json : t -> string
  (** {!to_json_pairs} rendered by {!Lesslog_report.Bench_json}. *)
end

module Span : sig
  type sink

  val create_sink : ?open_capacity:int -> ?capacity:int -> unit -> sink
  (** [capacity] bounds the completed-span ring (default 16384, kept
      modest so the ring stays cache-resident under instrumented runs —
      pass more to retain more history); [open_capacity] bounds the
      in-flight table (default 4096). Both are rounded up to powers of
      two. Storage is flat, off the OCaml heap, and allocated up
      front. *)

  val intern : sink -> string -> int
  (** Register a span name once, up front; the returned index is what
      the hot-path calls take. Interning the same name twice returns the
      same index. *)

  val begin_span : sink -> name:int -> id:int -> origin:int -> at:float -> unit
  (** Open a span for request [id]. If a span for [id]'s slot is already
      open (id collision after wraparound, or a request that never
      resolved), the older one is dropped and counted in {!dropped}. *)

  val set_attempt : sink -> id:int -> attempt:int -> unit
  (** Update the open span's attempt number (RPC retransmission). No-op
      when no span is open for [id]. *)

  val end_span : sink -> id:int -> at:float -> server:int option -> hops:int -> unit
  (** Close the span for [id] and push it onto the completed ring. No-op
      when no span is open for [id] (e.g. already closed by the first of
      two duplicate replies). *)

  val end_span_int : sink -> id:int -> at:float -> server:int -> hops:int -> unit
  (** {!end_span} with the fault case encoded as a negative [server] —
      the allocation-free variant for simulator hot paths. *)

  val emit :
    sink ->
    name:int ->
    id:int ->
    origin:int ->
    at:float ->
    dur:float ->
    server:int option ->
    hops:int ->
    attempt:int ->
    unit
  (** Record a complete span in one call — instant markers ([dur = 0])
      and spans whose interval the caller already knows. Never touches
      the open-span table. *)

  val emit_int :
    sink ->
    name:int ->
    id:int ->
    origin:int ->
    at:float ->
    dur:float ->
    server:int ->
    hops:int ->
    attempt:int ->
    unit
  (** {!emit} with the fault case encoded as a negative [server] — the
      allocation-free variant for simulator hot paths. *)

  val completed : sink -> int
  (** Spans pushed onto the ring over the sink's lifetime (may exceed
      the ring capacity; only the newest [capacity] are retained). *)

  val retained : sink -> int
  val dropped : sink -> int
  (** Open spans discarded by a slot collision before ending. *)

  val open_spans : sink -> int

  val merge_into : into:sink -> sink -> unit
(** Append the source sink's retained spans, oldest first, onto
      [into]'s ring (names re-interned, packed fields preserved bit for
      bit; [into]'s ring bound applies). The source is not modified.
      The parallel simulator gives each shard its own sink and merges
      them in shard-id order at export, so the combined ring — and any
      trace or Chrome export taken from it — is deterministic at any
      domain count. [completed into] grows by the number of spans
      appended (spans the source ring had already overwritten are gone;
      sum [completed] over sources for lifetime totals); [dropped] is
      accumulated. *)

  val iter : sink -> (Lesslog_trace.Trace.Event.t -> unit) -> unit
  (** Retained completed spans, oldest first, as
      {!Lesslog_trace.Trace.Event.Span} events. *)

  val to_events : sink -> Lesslog_trace.Trace.Event.t list

  val to_chrome_json : sink -> string
  (** The retained spans as Chrome [trace_event] JSON (the
      [{"traceEvents": [...]}] object form, complete-event ["ph": "X"]
      records, timestamps in microseconds of simulated time, one track
      per origin node). *)

  val write_chrome : path:string -> sink -> unit
end

type t = { registry : Registry.t; spans : Span.sink }
(** The bundle the simulators take: one registry plus one span sink. *)

val create : ?open_capacity:int -> ?span_capacity:int -> unit -> t
