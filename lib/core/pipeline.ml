(** End-to-end analysis pipeline (paper Fig. 1).

    For a workload and a target machine the pipeline:

    + builds the skeleton program and its input bindings,
    + profiles it {e once} on a local machine to obtain the
      hardware-independent branch statistics (gcov stand-in, §III-B),
    + constructs the Bayesian Execution Tree (§IV),
    + projects per-block performance on the target with the roofline
      model (§V-A) — no execution on the target is needed,
    + selects hot spots under the coverage/leanness criteria (§V-B),

    and, for validation only, also runs the ground-truth simulator on
    the target to obtain the "measured" profile the paper compares
    against (§VI). *)

open Skope_skeleton
open Skope_bet
open Skope_hw
open Skope_analysis
open Skope_sim
open Skope_workloads

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
    would have (no ground truth available). *)
type analysis = {
  a_program : Ast.program;
  a_built : Build.result;
  a_projection : Perf.projection;
  a_selection : Hotspot.selection;
}

let local_machine = Machines.xeon

module Span = Skope_telemetry.Span

(** Profile the skeleton once on the local machine to gather branch
    outcome statistics and while-loop trip counts. *)
let profile ?(seed = 42L) ~libmix ~inputs program : Hints.t =
  Span.with_ ~name:"profile" (fun () ->
      let config =
        Interp.default_config ~machine:local_machine ~libmix ~seed ()
      in
      (Interp.run ~config ~inputs program).Interp.hints)

(** The projection API: an abstract handle over the
    machine-independent prefix of the pipeline (everything that does
    not depend on the target machine), priced through the arena. *)
module Prepared = struct
  type t = {
    workload : Registry.t;
    program : Ast.program;
    inputs : (string * Value.t) list;
    hints : Hints.t;
    built : Build.result;  (** the BET *)
    arena : Arena.t;  (** the BET, flattened for pricing *)
  }

  (** Result of pricing one machine point. *)
  type outcome = {
    o_machine : Machine.t;
    o_blocks : Blockstat.t list;  (** ranked by decreasing time *)
    o_total_time : float;
    o_selection : Hotspot.selection;
  }

  (* Workload make -> validate -> lint -> (optional local profiling)
     -> BET construction -> arena.  [profile_hints] replaces the
     caller-supplied [hints] with one local profiling run (the [run]
     path); [hints] defaults to empty (the [analyze] path).  The
     arena is built eagerly: OCaml's [Lazy.force] is not safe to race
     from the explorer's domain pool. *)
  let create ?(hints = Hints.empty) ?(profile_hints = false) ?(seed = 42L)
      ~(workload : Registry.t) ~scale () : t =
    let program, inputs =
      Span.with_ ~name:"workload_make"
        ~attrs:[ ("workload", workload.Registry.name) ]
        (fun () -> workload.Registry.make ~scale)
    in
    Span.with_ ~name:"validate" (fun () ->
        Validate.check_exn ~inputs:(List.map fst inputs) program);
    Span.with_ ~name:"lint" (fun () ->
        Skope_lint.Engine.check_exn ~inputs program);
    let libmix = workload.Registry.libmix in
    let hints =
      if profile_hints then profile ~seed ~libmix ~inputs program else hints
    in
    let built =
      Build.build ~hints ~lib_work:(Libmix.work_fn libmix) ~inputs program
    in
    let arena =
      Span.with_ ~name:"arena_build" (fun () -> Arena.of_build built)
    in
    { workload; program; inputs; hints; built; arena }

  let built t = t.built
  let workload t = t.workload

  (* The arena ranks before we get here ([Arena_price.price]), so the
     selection re-sort is skipped. *)
  let select ~criteria t blocks =
    Span.with_ ~name:"hotspot" (fun () ->
        Hotspot.select ~criteria ~assume_ranked:true
          ~total_instructions:(Bst.total_instructions t.built.Build.bst)
          blocks)

  let project ?(criteria = Hotspot.default_criteria)
      ?(opts = Roofline.default_opts) ?(cache = Perf.Constant) (t : t)
      (machine : Machine.t) : outcome =
    let p = Arena_price.price ~opts ~cache t.arena machine in
    let blocks = Arena_price.blocks p in
    {
      o_machine = Arena_price.machine p;
      o_blocks = blocks;
      o_total_time = Arena_price.total_time p;
      o_selection = select ~criteria t blocks;
    }

  (* The full projection, per-node tables included (for [run]'s hot
     path and invocation views). *)
  let projection ~opts ~cache t machine =
    Arena_price.projection t.arena
      (Arena_price.price ~opts ~cache t.arena machine)
end

(** Analytic projection only — no execution on [machine] at all. *)
let analyze ?(criteria = Hotspot.default_criteria)
    ?(opts = Roofline.default_opts) ?(cache = Perf.Constant)
    ?(hints = Hints.empty) ~machine ~(workload : Registry.t) ~scale () :
    analysis =
  let t = Prepared.create ~hints ~workload ~scale () in
  let projection = Prepared.projection ~opts ~cache t machine in
  {
    a_program = t.Prepared.program;
    a_built = t.Prepared.built;
    a_projection = projection;
    a_selection = Prepared.select ~criteria t projection.Perf.blocks;
  }

(** Static performance audit of a bundled workload: symbolic scaling /
    working-set / communication diagnostics at [scale], with the
    workload's own [make] as the scale-sweep [vary] hook so growth
    probes rebind every input consistently. *)
let audit ?(config = Skope_lint.Audit.default_config)
    ~(workload : Registry.t) ~scale () : Skope_lint.Audit.report =
  let program, inputs =
    Span.with_ ~name:"workload_make"
      ~attrs:[ ("workload", workload.Registry.name) ]
      (fun () -> workload.Registry.make ~scale)
  in
  let config =
    {
      config with
      Skope_lint.Audit.vary =
        Some (fun m -> snd (workload.Registry.make ~scale:(scale *. m)));
    }
  in
  Skope_lint.Audit.run ~config ~inputs program

(** Full validation run: profile locally, project analytically, and
    simulate on the target as ground truth. *)
let run ?(criteria = Hotspot.default_criteria) ?(opts = Roofline.default_opts)
    ?(seed = 42L) ?scale ~machine (workload : Registry.t) : run =
  let scale =
    match scale with Some s -> s | None -> workload.Registry.default_scale
  in
  let p = Prepared.create ~profile_hints:true ~seed ~workload ~scale () in
  let built = p.Prepared.built in
  let projection = Prepared.projection ~opts ~cache:Perf.Constant p machine in
  let libmix = workload.Registry.libmix in
  let config = Interp.default_config ~machine ~libmix ~seed () in
  let measured =
    Interp.run ~config ~inputs:p.Prepared.inputs p.Prepared.program
  in
  let total_instructions = Bst.total_instructions built.Build.bst in
  let model_sel, measured_sel =
    Span.with_ ~name:"hotspot" (fun () ->
        ( Hotspot.select ~criteria ~total_instructions projection.Perf.blocks,
          Hotspot.select ~criteria ~total_instructions measured.Interp.blocks
        ))
  in
  {
    workload;
    machine;
    scale;
    program = p.Prepared.program;
    inputs = p.Prepared.inputs;
    hints = p.Prepared.hints;
    built;
    projection;
    measured;
    model_sel;
    measured_sel;
  }

(** Selection quality of the model's projection against the simulator
    ground truth, for top-[k] spots (§VI). *)
let model_quality (r : run) ~k =
  Quality.quality ~measured:r.measured.Interp.blocks
    ~candidate:r.projection.Perf.blocks ~k

(** Hot path of the model-selected spots through the BET (§V-C). *)
let hot_path (r : run) : Hotpath.t option =
  Span.with_ ~name:"hotpath" (fun () ->
      Hotpath.extract
        ~selection:(Hotspot.spot_set r.model_sel)
        ~node_time:r.projection.Perf.node_time
        ~node_enr:r.projection.Perf.node_enr r.built.Build.root)

(** Measured coverage (fraction of simulated time) captured by the
    model's top-[k] selection — the Modl(m) curve of Figs. 5/10-13. *)
let modl_measured_coverage (r : run) ~k =
  let total = Blockstat.total_time r.measured.Interp.blocks in
  if total <= 0. then 0.
  else
    Quality.captured ~measured:r.measured.Interp.blocks
      ~candidate:r.projection.Perf.blocks ~k
    /. total

(** Projected coverage of the model's top-[k] selection — Modl(p). *)
let modl_projected_coverage (r : run) ~k =
  let total = r.projection.Perf.total_time in
  if total <= 0. then 0.
  else
    Quality.captured ~measured:r.projection.Perf.blocks
      ~candidate:r.projection.Perf.blocks ~k
    /. total

(** Measured coverage of the measured top-[k] selection — Prof. *)
let prof_coverage (r : run) ~k =
  let total = Blockstat.total_time r.measured.Interp.blocks in
  if total <= 0. then 0.
  else
    Quality.captured ~measured:r.measured.Interp.blocks
      ~candidate:r.measured.Interp.blocks ~k
    /. total
