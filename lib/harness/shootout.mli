(** The substrate shootout: one replication core, four overlays.

    Drives the {e same} seeded churn schedule ({!Lesslog_check.Schedule}
    with [sim = Des]) and the same seeded fault schedule ([sim = Faults])
    over every {!Lesslog_substrate.Substrate.t} implementation — native
    LessLog trees, Chord, Pastry, CAN — with identical request workloads,
    per-hop latency, loss, rpc and heartbeat layers, and reports hops,
    latency quantiles, replica counts and availability per overlay. The
    protocol, seeds and first committed numbers are recorded in
    EXPERIMENTS.md ("substrate shootout"); [BENCH_substrates.json] is the
    machine-readable form. *)

type row = {
  name : string;
  (* Des phase: oracle-driven churn (Des_sim). *)
  served : int;
  faults : int;
  availability : float;  (** served / (served + faults). *)
  mean_hops : float;
  p50_latency : float;  (** Seconds; 0 when nothing was served. *)
  p99_latency : float;
  replicas_created : int;
  messages : int;
  file_transfers : int;
  digest : int;  (** FNV digest of the full Des-phase trace. *)
  (* Faults phase: detector-driven membership (Fault_sim). *)
  f_issued : int;
  f_served : int;
  f_faulted : int;
  f_lost_keys : int;
  f_availability : float;  (** f_served / f_issued. *)
}

type report = {
  m : int;
  seed : int;
  des_schedule : Lesslog_check.Schedule.t;
  fault_schedule : Lesslog_check.Schedule.t;
  rows : row list;  (** lesslog, chord, pastry, can — in that order. *)
}

val run : ?quick:bool -> seed:int -> m:int -> unit -> report
(** Generate both schedules from [seed] at space exponent [m] and run all
    four substrates. [quick] caps both schedule durations at 5 simulated
    seconds (CI smoke). Keep [m <= 10]: the CAN adapter builds a
    [2^m]-zone torus with quadratic adjacency setup. *)

val to_bench : report -> (string * float) list
(** Flat [substrates/<name>/<metric>] pairs for
    {!Lesslog_report.Bench_json}, plus [substrates/m] and
    [substrates/seed]. *)

val render : report -> string
(** The CLI comparison table, ready to print. *)
