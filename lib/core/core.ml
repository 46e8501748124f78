(** Public façade of the reproduction of "Analytically Modeling
    Application Execution for Software-Hardware Co-Design" (IPDPS
    workshops 2014).

    Sub-libraries, re-exported for convenience:

    - {!Skeleton} — the SKOPE-like workload description language
      (AST, parser, pretty-printer, combinator builder, validator);
    - {!Bet} — contexts, hints, the Block Skeleton Tree and the
      Bayesian Execution Tree;
    - {!Hw} — machine models, the extended roofline, library
      instruction mixes;
    - {!Analysis} — performance projection, hot spots, hot paths,
      selection quality;
    - {!Sim} — the ground-truth cache-aware simulator and profiler;
    - {!Workloads} — the paper's five benchmarks plus the pedagogical
      example;
    - {!Report} — plain-text tables and charts;
    - {!Lint} — interval-domain static analysis with rustc-style
      diagnostics ([L001]..[L011]);
    - {!Telemetry} — phase-level tracing spans, counters and
      Prometheus-style exposition;
    - {!Pipeline} — the end-to-end workflow of the paper's Fig. 1.

    Quickstart:

    {[
      let wl = Core.Workloads.Registry.find_exn "sord" in
      let r = Core.Pipeline.run ~machine:Core.Hw.Machines.bgq wl in
      List.iter
        (fun (s : Core.Analysis.Hotspot.spot) ->
          Fmt.pr "%d. %s (%.1f%%)@." s.rank s.stat.name (100. *. s.coverage))
        r.Core.Pipeline.model_sel.spots
    ]} *)

module Skeleton = Skope_skeleton
module Bet = Skope_bet
module Hw = Skope_hw
module Analysis = Skope_analysis
module Sim = Skope_sim
module Workloads = Skope_workloads
module Report = Skope_report
module Lint = Skope_lint
module Multinode = Skope_multinode
module Frontend = Skope_frontend
module Telemetry = Skope_telemetry
module Version = Version
module Pipeline = Pipeline
