(** Multi-axis design-space exploration.

    Runs the machine-independent prefix of the pipeline once
    ({!Core.Pipeline.Prepared.create}) and prices the shared BET on
    every machine of a {!Core.Hw.Designspace} grid
    ({!Core.Pipeline.Prepared.project}) — O(1 build + points x
    projection) instead of O(points x full pipeline).  Evaluation runs
    on an OCaml 5 domain pool with chunked work distribution;
    projection is read-only on the prepared artifact, so concurrent
    pricing is safe.  Consecutive points of a worker's chunk are
    delta-chained so single-axis moves re-price only dependent BET
    nodes. *)

module P = Core.Pipeline
module Machine = Core.Hw.Machine
module Designspace = Core.Hw.Designspace
module Hotspot = Core.Analysis.Hotspot

(** One evaluated grid point. *)
type point = {
  index : int;  (** position in grid order *)
  tag : string;  (** {!Designspace.point} tag, e.g. ["bw=7.0,vec=4"] *)
  values : (string * float) list;  (** axis key -> swept value *)
  machine : Machine.t;
  outcome : P.Prepared.outcome;  (** pricing result (state stripped) *)
  time : float;  (** projected seconds (the outcome total) *)
  cost : float;  (** {!cost_proxy} of [machine] *)
}

type result = {
  points : point list;  (** grid order *)
  pareto : point list;  (** non-dominated points, by increasing time *)
  elapsed : float;  (** wall seconds for the grid evaluation *)
}

(** Dimensionless hardware-budget proxy: grows with issue width x
    clock, SIMD datapath width (doubled under FMA), memory bandwidth
    and L2 capacity.  Only comparisons within one grid are
    meaningful. *)
val cost_proxy : Machine.t -> float

(** Aggregate (compute, memory, overlapped) seconds over all blocks —
    the Tc/Tm/To split of one grid point. *)
val split : P.Prepared.outcome -> float * float * float

(** Minimizing Pareto frontier under [metrics] (both objectives
    smaller-is-better), sorted by increasing first objective. *)
val pareto_by : metrics:('a -> float * float) -> 'a list -> 'a list

(** {!pareto_by} over [(time, cost)]. *)
val pareto_points : point list -> point list

(** The grid to evaluate: cartesian product of [axes] around the base
    machine, or [sample] latin-hypercube points of it.  Each point's
    machine keeps the base's name so results (and service cache
    fingerprints) match an equivalent override query. *)
val grid_points :
  ?sample:int ->
  ?seed:int ->
  Machine.t ->
  Designspace.axis list ->
  Designspace.point list

(** Evaluate the points against a shared prepared BET.

    [jobs] sizes the domain pool (default 1: run in the caller's
    domain).  A point that raises aborts the grid: the first exception
    wins, the pool drains, and it is re-raised.  [on_point] observes
    points as they complete (calls are serialized; order follows
    completion, not grid order). *)
val evaluate :
  ?jobs:int ->
  ?criteria:Hotspot.criteria ->
  ?on_point:(point -> unit) ->
  P.Prepared.t ->
  Designspace.point list ->
  result
