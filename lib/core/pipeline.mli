(** End-to-end analysis pipeline (paper Fig. 1): skeleton -> one local
    profiling run -> BET -> roofline projection -> hot regions, plus a
    ground-truth simulation for validation. *)

open Skope_skeleton
open Skope_bet
open Skope_hw
open Skope_analysis
open Skope_sim
open Skope_workloads

(** A full validation run: the analytic projection (Modl) next to the
    simulator ground truth (Prof). *)
type run = {
  workload : Registry.t;
  machine : Machine.t;
  scale : float;
  program : Ast.program;
  inputs : (string * Value.t) list;
  hints : Hints.t;
  built : Build.result;  (** the BET *)
  projection : Perf.projection;  (** Modl: analytic per-block times *)
  measured : Interp.result;  (** Prof: simulator ground truth *)
  model_sel : Hotspot.selection;
  measured_sel : Hotspot.selection;
}

(** Analytic-only result: what a user studying a not-yet-built machine
    has (no ground truth available). *)
type analysis = {
  a_program : Ast.program;
  a_built : Build.result;
  a_projection : Perf.projection;
  a_selection : Hotspot.selection;
}

(** The machine that plays "local host" for profiling runs. *)
val local_machine : Machine.t

(** One local profiling run: branch statistics and while-loop trip
    counts (the gcov step, §III-B); hardware-independent. *)
val profile :
  ?seed:int64 ->
  libmix:Libmix.t ->
  inputs:(string * Value.t) list ->
  Ast.program ->
  Hints.t

(** The projection API: an abstract handle over the
    machine-independent prefix of the pipeline (workload make,
    validation, lint, optional profiling, BET construction and its
    flattening into an {!Skope_bet.Arena}).  Build it once and price
    it on any number of target machines through {!Arena_price}. *)
module Prepared : sig
  type t

  (** Result of pricing one machine point. *)
  type outcome = {
    o_machine : Machine.t;
    o_blocks : Blockstat.t list;  (** ranked by decreasing time *)
    o_total_time : float;
    o_selection : Hotspot.selection;
  }

  (** Build the machine-independent artifact once.  [profile_hints]
      runs one local profiling pass and uses its hints (the {!run}
      path); otherwise [hints] (default empty) feeds BET construction
      directly (the {!analyze} path).  The arena is flattened eagerly,
      so the handle is safe to share across domains. *)
  val create :
    ?hints:Hints.t ->
    ?profile_hints:bool ->
    ?seed:int64 ->
    workload:Registry.t ->
    scale:float ->
    unit ->
    t

  val built : t -> Build.result
  val workload : t -> Registry.t

  (** Price one machine point: one full {!Arena_price.price} pass
      over the handle's arena, then the hot-spot selection.
      Read-only on the handle: concurrent calls from several domains
      are safe. *)
  val project :
    ?criteria:Hotspot.criteria ->
    ?opts:Roofline.opts ->
    ?cache:Perf.cache_model ->
    t ->
    Machine.t ->
    outcome
end

(** Analytic projection only — nothing executes on [machine].
    {!Prepared.create} followed by one pricing, with the per-node
    tables of [a_projection] filled in. *)
val analyze :
  ?criteria:Hotspot.criteria ->
  ?opts:Roofline.opts ->
  ?cache:Perf.cache_model ->
  ?hints:Hints.t ->
  machine:Machine.t ->
  workload:Registry.t ->
  scale:float ->
  unit ->
  analysis

(** Static performance audit of a bundled workload: symbolic scaling /
    working-set / communication diagnostics (A001..A008) at [scale].
    The workload's own [make] becomes the audit's scale-sweep hook, so
    growth probes rebind every input consistently. *)
val audit :
  ?config:Skope_lint.Audit.config ->
  workload:Registry.t ->
  scale:float ->
  unit ->
  Skope_lint.Audit.report

(** Full validation run: profile locally, project analytically,
    simulate on the target as ground truth. *)
val run :
  ?criteria:Hotspot.criteria ->
  ?opts:Roofline.opts ->
  ?seed:int64 ->
  ?scale:float ->
  machine:Machine.t ->
  Registry.t ->
  run

(** Selection quality of the projection against the ground truth at
    top-[k] (§VI). *)
val model_quality : run -> k:int -> float

(** Hot path of the model-selected spots through the BET (§V-C). *)
val hot_path : run -> Hotpath.t option

(** Measured coverage captured by the model's top-[k] selection — the
    Modl(m) curve of Figs. 5/10-13. *)
val modl_measured_coverage : run -> k:int -> float

(** Projected coverage of the model's top-[k] selection — Modl(p). *)
val modl_projected_coverage : run -> k:int -> float

(** Measured coverage of the measured top-[k] selection — Prof. *)
val prof_coverage : run -> k:int -> float
