(** Observability: a process-wide metrics registry and a span-tracing
    sink, so every simulator run can explain itself through one scheme
    (see ARCHITECTURE.md, "Observability" — the budget is < 5% on the
    m = 10 [Des_sim] workload, enforced by [bench/obs_bench.ml]).

    {!Registry} holds named counters, gauges and histogram-backed
    timers. The simulators fill it once at end of run: counters from
    their own tallies, timers backed by the result histograms they keep
    anyway ({!Registry.timer_backed}), so nothing on the hot path looks
    a metric up or updates one.

    {!Span} records each span whole, in one {!Span.emit} call, when the
    work it describes settles — a request when it is served or faulted,
    a mark at the instant it happens — into a bounded ring buffer: when
    the ring is full the oldest spans are overwritten, so memory stays
    constant however long the run. Recording allocates nothing. Retained
    spans export as Chrome [trace_event] JSON (load in
    [chrome://tracing] or Perfetto) and as [SPN]
    {!Lesslog_trace.Trace.Event.Span} lines. *)

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

  val timer_backed : t -> string -> Lesslog_metrics.Histogram.t -> timer
  (** Register a timer whose samples {e are} the given live histogram —
      shared, not copied. For code that already keeps a
      {!Lesslog_metrics.Histogram} on its hot path: the existing inserts
      show up in snapshots with no second sketch insert per sample.
      Re-registering re-points the existing timer at [hist]; {!reset}
      detaches the sharing (the timer gets a fresh empty sketch).
      @raise Invalid_argument if [name] is registered as another kind. *)

  val add : counter -> int -> unit
  val value : counter -> int
  val set : gauge -> float -> unit
  val read : gauge -> float

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

  val create_sink : ?capacity:int -> unit -> sink
  (** [capacity] bounds the span ring (default 16384, kept modest so the
      ring stays cache-resident under instrumented runs — pass more to
      retain more history), rounded up to a power of two. Storage is
      flat, off the OCaml heap, and allocated up front. *)

  val intern : sink -> string -> int
  (** Register a span name once, up front; the returned index is what
      the hot-path calls take. Interning the same name twice returns the
      same index. *)

  val emit :
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
  (** Record a complete span starting at [at] and lasting [dur]: an
      instant mark ([dur = 0]) or a request whose issue time the caller
      kept. A negative [server] records a fault (no server). O(1), five
      word writes, no allocation. *)

  val completed : sink -> int
  (** Spans recorded over the sink's lifetime, merged sources' included
      (may exceed the ring capacity; only the newest [capacity] are
      retained). *)

  val retained : sink -> int
  (** Spans still in the ring, at most its capacity. *)

  val merge_into : into:sink -> sink -> unit
  (** Append the source sink's retained spans, oldest first, onto
      [into]'s ring (names re-interned, packed fields preserved bit for
      bit; [into]'s ring bound applies). The source is not modified.
      The parallel simulator gives each shard its own sink and merges
      them in shard-id order at export, so the combined ring — and any
      trace or Chrome export taken from it — is deterministic at any
      domain count. [completed into] grows by [completed src], so it
      stays the lifetime count of spans recorded, spans the source ring
      had already overwritten included (those are gone from the merged
      ring). *)

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

val create : ?span_capacity:int -> unit -> t
