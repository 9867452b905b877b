(** Exact steady-state request-flow solver.

    Given a lookup tree, the membership, and the per-node demand for one
    file, every request travels its origin's route — the request step
    every simulator and [Ops.get] take, {!Lesslog_topology.Topology.route}
    (the Section 3 climb and, when [b > 0], the Section 4 subtree
    migration) — and is served by the first copy it meets. This module
    computes each node's serve rate in closed form — the quantity the
    paper's evaluation thresholds against the per-node capacity. Routes
    are walked hop by hop from each origin, nothing is precomputed: a
    route is at most [m] hops at [b = 0], so one evaluation costs
    O(N·m) route steps. *)

open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Ptree = Lesslog_ptree.Ptree

type t

val create : Ptree.t -> Status_word.t -> t
(** The solver over a tree and a membership; routes read the status word
    as it is when they are walked. *)

val serving_node :
  t -> holders:(Pid.t -> bool) -> origin:Pid.t -> Pid.t option
(** Which node serves a request originated at a live [origin]; [None] when
    no copy lies on its route (a fault).
    @raise Failure when the route outgrows the hop budget of
    {!Lesslog_topology.Topology.route}, 2^b (m - b + 1) - 1 hops: a
    route rule that cycles fails instead of hanging. *)

type loads = {
  serve : float array;  (** Requests/s served, per PID slot. *)
  unserved : float;  (** Demand whose path met no copy. *)
}

val serve_rates :
  t -> holders:(Pid.t -> bool) -> demand:Lesslog_workload.Demand.t -> loads

val inflows :
  t ->
  holders:(Pid.t -> bool) ->
  demand:Lesslog_workload.Demand.t ->
  at:Pid.t ->
  (Pid.t option * float) list
(** Decompose the traffic served at [at] by where it entered: [Some p] for
    requests forwarded by [p] on the hop [p → at], [None] for requests
    originated at [at] itself. This is exactly the information a log-based
    replication method extracts from client-access logs.
    @raise Failure as {!serving_node} does, on the same hop budget. *)
