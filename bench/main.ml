(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (§VII), plus the quantitative claims made in the
   abstract and §IV (BET size, input-size-independent analysis time,
   mean selection quality).  See DESIGN.md §5 for the experiment
   index and EXPERIMENTS.md for paper-vs-measured commentary.

   Everything prints to stdout; `dune exec bench/main.exe`. *)

open Core
module P = Pipeline
module BS = Analysis.Blockstat
module HS = Analysis.Hotspot
module Q = Analysis.Quality
module Table = Report.Table
module Chart = Report.Chart

let bgq = Hw.Machines.bgq
let xeon = Hw.Machines.xeon

(* Optional CSV artifact directory: `dune exec bench/main.exe -- --csv DIR`. *)
let csv_dir : string option ref = ref None

let emit_csv ~file (t : Table.t) =
  match !csv_dir with
  | None -> ()
  | Some dir ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let oc = open_out (Filename.concat dir file) in
    output_string oc (Table.to_csv t);
    close_out oc

let emit_table ~file t =
  Table.print t;
  emit_csv ~file t

let section id title =
  Fmt.pr "@.============================================================@.";
  Fmt.pr "== [%s] %s@." id title;
  Fmt.pr "============================================================@."

let pct x = Fmt.str "%.1f%%" (100. *. x)

(* ------------------------------------------------------------------ *)
(* Cached pipeline runs: every (workload, machine) pair simulated once. *)

let runs : (string * P.run) list ref = ref []

let run_of name (machine : Hw.Machine.t) =
  let key = name ^ "/" ^ machine.Hw.Machine.name in
  match List.assoc_opt key !runs with
  | Some r -> r
  | None ->
    let t0 = Unix.gettimeofday () in
    let r = P.run ~machine (Workloads.Registry.find_exn name) in
    Fmt.epr "[bench] %s: simulated+analyzed in %.2fs@." key
      (Unix.gettimeofday () -. t0);
    runs := (key, r) :: !runs;
    r

let top_names blocks k =
  HS.top_k ~k blocks |> List.map (fun (b : BS.t) -> b.BS.name)

let rank_table ~title (r : P.run) ~k =
  let prof = top_names r.P.measured.blocks k in
  let modl = top_names r.P.projection.blocks k in
  let rows =
    List.mapi
      (fun i p ->
        let m = List.nth_opt modl i in
        let mname = Option.value ~default:"-" m in
        [
          string_of_int (i + 1);
          p;
          mname;
          (if String.equal p mname then "="
           else if List.mem p modl then "~"
           else "x");
        ])
      prof
  in
  Table.make ~title
    ~headers:[ "rank"; "Prof (measured)"; "Modl (projected)"; "agree" ]
    ~aligns:Table.[ Right; Left; Left; Left ]
    rows

let set_overlap a b k =
  let sa = top_names a k and sb = top_names b k in
  List.length (List.filter (fun x -> List.mem x sb) sa)

(* ------------------------------------------------------------------ *)

let fig2_fig3 () =
  section "fig2_fig3"
    "Pedagogical example: skeleton, BST, BET and hot path  [paper Figs. 2-3]";
  let w = Workloads.Registry.find_exn "pedagogical" in
  let program, inputs = w.Workloads.Registry.make ~scale:1.0 in
  Fmt.pr "--- (a) code skeleton ---------------------------------------@.";
  Fmt.pr "%s@." (Skeleton.Pretty.to_string program);
  Fmt.pr "--- (b) block skeleton tree (static blocks) -----------------@.";
  let bst = Bet.Bst.build program in
  List.iter
    (fun (b : Bet.Bst.block_info) ->
      Fmt.pr "  [%a] %s (in %s, %d static instructions)@." Bet.Block_id.pp
        b.Bet.Bst.id b.Bet.Bst.name b.Bet.Bst.func b.Bet.Bst.size)
    (Bet.Bst.blocks bst);
  Fmt.pr "@.--- (c) Bayesian execution tree -----------------------------@.";
  (* Note the two mounts of foo under different knob contexts, with
     their probabilities.  The example is tiny, so the hot spot
     selection relaxes the leanness criterion. *)
  let r =
    P.run
      ~criteria:{ HS.time_coverage = 0.9; code_leanness = 0.5 }
      ~machine:bgq w
  in
  Fmt.pr "@[<v>%a@]@." (Bet.Node.pp ~indent:2) r.P.built.Bet.Build.root;
  Fmt.pr "--- Fig. 3: merged hot path ---------------------------------@.";
  (match P.hot_path r with
  | Some path ->
    Fmt.pr "%a@."
      (Analysis.Hotpath.pp ~total_time:r.P.projection.Analysis.Perf.total_time)
      path;
    let chains = Analysis.Hotpath.paths path in
    Fmt.pr "(%d individual hot-spot paths merged into %d nodes)@."
      (List.length chains)
      (Analysis.Hotpath.size path)
  | None -> Fmt.pr "(no hot path)@.");
  ignore inputs

let table1 () =
  section "table1"
    "Hot spot selections: SORD (top 10, BG/Q & Xeon), SRAD, CHARGEI, \
     STASSUIJ  [paper Table I]";
  let sb = run_of "sord" bgq and sx = run_of "sord" xeon in
  emit_table ~file:"table1_sord_bgq.csv"
    (rank_table ~title:"SORD on BG/Q (top 10):" sb ~k:10);
  Fmt.pr "@.";
  emit_table ~file:"table1_sord_xeon.csv"
    (rank_table ~title:"SORD on Xeon (top 10):" sx ~k:10);
  Fmt.pr
    "@.Legend: '=' same rank, '~' in model top-k at another rank, 'x' missed.@.";
  List.iter
    (fun (name, k) ->
      Fmt.pr "@.";
      Table.print
        (rank_table
           ~title:(Fmt.str "%s on BG/Q (top %d):" (String.uppercase_ascii name) k)
           (run_of name bgq) ~k))
    [ ("srad", 3); ("chargei", 5); ("stassuij", 2) ];
  (* Measured coverages of the named spots, paper-style commentary. *)
  let srad = run_of "srad" bgq in
  let top3 = HS.top_k ~k:3 srad.P.measured.blocks in
  let total = BS.total_time srad.P.measured.blocks in
  Fmt.pr "@.SRAD top-3 measured coverages (paper: 37%%, 28%%, 25%%): %s@."
    (String.concat ", "
       (List.map (fun (b : BS.t) -> pct (b.BS.time /. total)) top3));
  let chargei = run_of "chargei" bgq in
  let top2 = HS.top_k ~k:2 chargei.P.measured.blocks in
  let totalc = BS.total_time chargei.P.measured.blocks in
  Fmt.pr "CHARGEI top-2 measured coverages (paper: 44%%, 38%%): %s@."
    (String.concat ", "
       (List.map (fun (b : BS.t) -> pct (b.BS.time /. totalc)) top2));
  let st = run_of "stassuij" bgq in
  let top2s = HS.top_k ~k:2 st.P.measured.blocks in
  let totals = BS.total_time st.P.measured.blocks in
  Fmt.pr "STASSUIJ top-2 measured coverages (paper: 68%%, 23%%): %s@."
    (String.concat ", "
       (List.map (fun (b : BS.t) -> pct (b.BS.time /. totals)) top2s));
  (* The STASSUIJ vectorization anecdote: the model overestimates the
     sparse AXPY because it prices it scalar while XL vectorizes it. *)
  let axpy_share blocks =
    let total = BS.total_time blocks in
    match
      List.find_opt (fun (b : BS.t) -> String.equal b.BS.name "sparse_axpy") blocks
    with
    | Some b -> b.BS.time /. total
    | None -> 0.
  in
  Fmt.pr
    "STASSUIJ sparse_axpy share: measured %s vs projected %s (paper: model \
     overestimates the vectorized spot)@."
    (pct (axpy_share st.P.measured.blocks))
    (pct (axpy_share st.P.projection.blocks))

let table2 () =
  section "table2" "CFD top-10 hot spots on BG/Q  [paper Table II]";
  let r = run_of "cfd" bgq in
  emit_table ~file:"table2_cfd_bgq.csv"
    (rank_table ~title:"CFD on BG/Q (top 10):" r ~k:10);
  (* The division anecdote (§VII-B): compute_velocity is underestimated
     because the model prices divisions as ordinary flops. *)
  let share blocks name =
    let total = BS.total_time blocks in
    match List.find_opt (fun (b : BS.t) -> String.equal b.BS.name name) blocks with
    | Some b -> b.BS.time /. total
    | None -> 0.
  in
  Fmt.pr
    "@.compute_velocity share: projected %s vs measured %s (paper: expected \
     <3%%, took 15%% — divisions expand on BG/Q)@."
    (pct (share r.P.projection.blocks "compute_velocity"))
    (pct (share r.P.measured.blocks "compute_velocity"))

let quality_series (r_target : P.run) (r_other : P.run) ~k =
  let measured = r_target.P.measured.blocks in
  let prof_q = List.init k (fun _ -> 1.0) in
  let cross =
    Q.curve ~measured ~candidate:r_other.P.measured.blocks ~k
  in
  let model = Q.curve ~measured ~candidate:r_target.P.projection.blocks ~k in
  (prof_q, cross, model)

let fig4 () =
  section "fig4"
    "SORD selection quality vs number of hot spots  [paper Fig. 4]";
  let sb = run_of "sord" bgq and sx = run_of "sord" xeon in
  let k = 10 in
  let _, cross_b, model_b = quality_series sb sx ~k in
  let _, cross_x, model_x = quality_series sx sb ~k in
  print_string
    (Chart.curves
       ~title:
         "BG/Q: Prof.Q = quality of native profile (1.0 by definition);\n\
          Prof.Q(x) = Xeon-suggested spots used for BG/Q; Modl.Q = model \
          projection"
       ~ylabel:"selection quality"
       ~series:
         [
           ("Prof.Q", List.init k (fun _ -> 1.0));
           ("Prof.Q(x)", cross_b);
           ("Modl.Q", model_b);
         ]
       ());
  Fmt.pr "@.";
  print_string
    (Chart.curves ~title:"Xeon mirror:" ~ylabel:"selection quality"
       ~series:
         [
           ("Prof.X", List.init k (fun _ -> 1.0));
           ("Prof.X(q)", cross_x);
           ("Modl.X", model_x);
         ]
       ());
  Fmt.pr
    "@.Top-10 hot spot overlap between the two machines (measured): %d of 10 \
     (paper: 4 of 10; rank agreement %.2f)@."
    (set_overlap sb.P.measured.blocks sx.P.measured.blocks 10)
    (Q.rank_agreement ~a:sb.P.measured.blocks ~b:sx.P.measured.blocks ~k:10)

let coverage_figure id title name machine =
  section id title;
  let r = run_of name machine in
  let k = 10 in
  let prof = List.init k (fun i -> P.prof_coverage r ~k:(i + 1)) in
  let modl_p = List.init k (fun i -> P.modl_projected_coverage r ~k:(i + 1)) in
  let modl_m = List.init k (fun i -> P.modl_measured_coverage r ~k:(i + 1)) in
  emit_csv ~file:(id ^ "_" ^ name ^ "_coverage.csv")
    (Table.make
       ~headers:[ "k"; "prof"; "modl_p"; "modl_m" ]
       (List.init k (fun i ->
            [
              string_of_int (i + 1);
              Fmt.str "%.6f" (List.nth prof i);
              Fmt.str "%.6f" (List.nth modl_p i);
              Fmt.str "%.6f" (List.nth modl_m i);
            ])));
  print_string
    (Chart.curves
       ~title:
         "cumulative run-time coverage of the first k hot spots\n\
          (Prof = measured selection; Modl(p) = projected coverage of model \
          selection; Modl(m) = measured coverage of model selection)"
       ~ylabel:"coverage"
       ~series:[ ("Prof", prof); ("Modl(p)", modl_p); ("Modl(m)", modl_m) ]
       ());
  Fmt.pr "@.selection quality Q(k=%d): %s@." k (pct (P.model_quality r ~k))

let fig5 () =
  coverage_figure "fig5"
    "SORD runtime coverage curves on BG/Q  [paper Fig. 5]" "sord" bgq

let breakdown_figure id title machine =
  section id title;
  let r = run_of "sord" machine in
  let spots = HS.top_k ~k:10 r.P.projection.blocks in
  let items =
    List.map
      (fun (b : BS.t) ->
        let tc_only = b.BS.tc -. b.BS.t_overlap in
        let tm_only = b.BS.tm -. b.BS.t_overlap in
        ( b.BS.name,
          [
            ('C', Float.max 0. tc_only *. 1e3);
            ('O', Float.max 0. b.BS.t_overlap *. 1e3);
            ('M', Float.max 0. tm_only *. 1e3);
          ] ))
      spots
  in
  print_string
    (Chart.stacked_bars
       ~title:
         "per-hot-spot projected time (ms): C = compute only, O = overlapped, \
          M = memory only"
       items);
  let mem_share =
    let tc, tm =
      List.fold_left
        (fun (c, m) (b : BS.t) -> (c +. b.BS.tc, m +. b.BS.tm))
        (0., 0.) spots
    in
    tm /. (tc +. tm)
  in
  Fmt.pr "@.aggregate memory share of the top-10: %s@." (pct mem_share)

let fig6 () =
  breakdown_figure "fig6"
    "SORD per-hot-spot performance breakdown on BG/Q  [paper Fig. 6]" bgq

let fig7 () =
  breakdown_figure "fig7"
    "SORD per-hot-spot breakdown on Xeon (memory share grows)  [paper Fig. 7]"
    xeon

let fig8 () =
  section "fig8"
    "SORD profiled issue rate and instructions per L1 miss  [paper Fig. 8]";
  let r = run_of "sord" bgq in
  let spots = HS.top_k ~k:10 r.P.measured.blocks in
  let rows =
    List.filter_map
      (fun (b : BS.t) ->
        match Sim.Counters.find r.P.measured.counters b.BS.block with
        | None -> None
        | Some e ->
          Some
            [
              b.BS.name;
              Fmt.str "%.3f" (Sim.Counters.issue_rate e);
              (let ipm = Sim.Counters.instrs_per_l1_miss e in
               if Float.is_finite ipm then Fmt.str "%.1f" ipm else "inf");
            ])
      spots
  in
  Table.print
    (Table.make
       ~title:"(measured by the simulator's hardware counters)"
       ~headers:[ "hot spot"; "issue rate (instr/cyc)"; "instr / L1 miss" ]
       ~aligns:Table.[ Left; Right; Right ]
       rows);
  Fmt.pr
    "@.(paper: the later hot spots show pipeline stalls and a dramatic drop \
     in instructions per L1 miss)@."

let fig9 () =
  section "fig9" "SORD hot path on BG/Q  [paper Fig. 9]";
  let r = run_of "sord" bgq in
  match P.hot_path r with
  | None -> Fmt.pr "no hot path (empty selection)@."
  | Some path ->
    Fmt.pr "%a@."
      (Analysis.Hotpath.pp ~total_time:r.P.projection.Analysis.Perf.total_time)
      path;
    Fmt.pr
      "(%d nodes; %d hot-spot invocations; '*' marks hot spots; x is the \
       expected repetition count, p the reaching probability)@."
      (Analysis.Hotpath.size path)
      (Analysis.Hotpath.hot_invocations path)

let fig10 () =
  coverage_figure "fig10" "CFD coverage curves on BG/Q  [paper Fig. 10]" "cfd"
    bgq

let fig11 () =
  coverage_figure "fig11" "SRAD coverage curves on BG/Q  [paper Fig. 11]"
    "srad" bgq

let fig12 () =
  coverage_figure "fig12"
    "CHARGEI coverage curves on BG/Q  [paper Fig. 12]" "chargei" bgq

let fig13 () =
  coverage_figure "fig13"
    "STASSUIJ coverage curves on BG/Q  [paper Fig. 13]" "stassuij" bgq

let portability () =
  section "portability"
    "Hot spots are not portable across machines  [paper SSI/SSVII-A]";
  let rows =
    List.map
      (fun name ->
        let rb = run_of name bgq and rx = run_of name xeon in
        [
          name;
          string_of_int (set_overlap rb.P.measured.blocks rx.P.measured.blocks 10);
          Fmt.str "%.2f"
            (Q.rank_agreement ~a:rb.P.measured.blocks ~b:rx.P.measured.blocks
               ~k:10);
          pct
            (Q.quality ~measured:rb.P.measured.blocks
               ~candidate:rx.P.measured.blocks ~k:10);
        ])
      [ "sord"; "cfd"; "srad"; "chargei"; "stassuij" ]
  in
  emit_table ~file:"portability.csv"
    (Table.make
       ~title:
         "top-10 measured hot spots: BG/Q vs Xeon (paper: SORD shares only \
          4/10, in different order)"
       ~headers:
         [ "workload"; "common of 10"; "rank agreement"; "Xeon spots used on BG/Q" ]
       ~aligns:Table.[ Left; Right; Right; Right ]
       rows)

let bet_size () =
  section "bet_size"
    "BET size vs source size  [paper SSIV-B: avg 0.88x, never > 2x]";
  let rows, ratios =
    List.fold_left
      (fun (rows, ratios) name ->
        let w = Workloads.Registry.find_exn name in
        let a = P.analyze ~machine:bgq ~workload:w ~scale:0.1 () in
        let src = Skeleton.Ast.program_size a.P.a_program in
        let nodes = a.P.a_built.Bet.Build.node_count in
        let ratio = float_of_int nodes /. float_of_int src in
        ( rows
          @ [
              [
                name; string_of_int src; string_of_int nodes;
                Fmt.str "%.2f" ratio;
              ];
            ],
          ratio :: ratios ))
      ([], [])
      [ "pedagogical"; "sord"; "cfd"; "srad"; "chargei"; "stassuij" ]
  in
  emit_table ~file:"bet_size.csv"
    (Table.make
       ~headers:[ "workload"; "source stmts"; "BET nodes"; "ratio" ]
       ~aligns:Table.[ Left; Right; Right; Right ]
       rows);
  let avg = List.fold_left ( +. ) 0. ratios /. float_of_int (List.length ratios) in
  Fmt.pr "@.average ratio %.2f; max %.2f (paper: 0.88 avg, <= 2)@." avg
    (List.fold_left Float.max 0. ratios)

let scaling () =
  section "scaling"
    "Analysis time is independent of input size; simulation is not  \
     [abstract, SSIV]";
  let w = Workloads.Registry.find_exn "srad" in
  let rows =
    List.map
      (fun scale ->
        let program, inputs = w.Workloads.Registry.make ~scale in
        let npix =
          match List.assoc_opt "npix" inputs with
          | Some v -> Bet.Value.to_float v
          | None -> 0.
        in
        let t0 = Unix.gettimeofday () in
        let a = P.analyze ~machine:bgq ~workload:w ~scale () in
        let t_analyze = Unix.gettimeofday () -. t0 in
        let t1 = Unix.gettimeofday () in
        let config = Sim.Interp.default_config ~machine:bgq () in
        let r = Sim.Interp.run ~config ~inputs program in
        let t_sim = Unix.gettimeofday () -. t1 in
        [
          Fmt.str "%.0f" npix;
          Fmt.str "%.1f" (a.P.a_projection.Analysis.Perf.total_time *. 1e3);
          Fmt.str "%.1f" (r.Sim.Interp.total_time *. 1e3);
          Fmt.str "%.1f" (t_analyze *. 1e3);
          Fmt.str "%.1f" (t_sim *. 1e3);
        ])
      [ 0.06; 0.12; 0.25; 0.5 ]
  in
  emit_table ~file:"scaling.csv"
    (Table.make
       ~title:"SRAD at growing image sizes (times in ms, host wall clock)"
       ~headers:
         [
           "pixels"; "projected app ms"; "simulated app ms"; "analysis wall ms";
           "simulation wall ms";
         ]
       ~aligns:Table.[ Right; Right; Right; Right; Right ]
       rows)

let summary () =
  section "summary"
    "Selection quality across all workloads and machines  [paper SSVIII: avg \
     95.8%, min >= 80%]";
  let cells = ref [] in
  let rows =
    List.map
      (fun name ->
        let q machine =
          let r = run_of name machine in
          let k = (Workloads.Registry.find_exn name).Workloads.Registry.paper_top_k in
          let q = P.model_quality r ~k in
          cells := q :: !cells;
          q
        in
        let qb = q bgq and qx = q xeon in
        [ name; pct qb; pct qx ])
      [ "sord"; "cfd"; "srad"; "chargei"; "stassuij" ]
  in
  emit_table ~file:"summary_quality.csv"
    (Table.make
       ~title:"model selection quality at the paper's per-workload top-k"
       ~headers:[ "workload"; "Q on BG/Q"; "Q on Xeon" ]
       ~aligns:Table.[ Left; Right; Right ]
       rows);
  let n = float_of_int (List.length !cells) in
  let avg = List.fold_left ( +. ) 0. !cells /. n in
  let mn = List.fold_left Float.min 1. !cells in
  Fmt.pr "@.mean quality %s, minimum %s (paper: mean 95.8%%, min >= 80%%)@."
    (pct avg) (pct mn)

(* ------------------------------------------------------------------ *)
(* Ablations: switch on the model refinements the paper leaves out and
   quantify how much of the two documented errors they repair. *)

let ablation () =
  section "ablation"
    "Roofline refinements (division latency, vectorization)  [SSVII-B/C \
     error sources]";
  let share blocks name =
    let total = BS.total_time blocks in
    match
      List.find_opt (fun (b : BS.t) -> String.equal b.BS.name name) blocks
    with
    | Some b -> b.BS.time /. total
    | None -> 0.
  in
  let project name opts machine =
    let w = Workloads.Registry.find_exn name in
    let a = P.analyze ~opts ~machine ~workload:w ~scale:0.25 () in
    a.P.a_projection.Analysis.Perf.blocks
  in
  let base = Hw.Roofline.default_opts in
  let div_on = { base with Hw.Roofline.div_aware = true } in
  let vec_on = { base with Hw.Roofline.vector_aware = true } in
  let cfd_meas = (run_of "cfd" bgq).P.measured.blocks in
  Fmt.pr
    "CFD compute_velocity share on BG/Q: measured %s | model %s | \
     div-aware model %s@."
    (pct (share cfd_meas "compute_velocity"))
    (pct (share (project "cfd" base bgq) "compute_velocity"))
    (pct (share (project "cfd" div_on bgq) "compute_velocity"));
  let st_meas = (run_of "stassuij" bgq).P.measured.blocks in
  Fmt.pr
    "STASSUIJ sparse_axpy share on BG/Q: measured %s | model %s | \
     vector-aware model %s@."
    (pct (share st_meas "sparse_axpy"))
    (pct (share (project "stassuij" base bgq) "sparse_axpy"))
    (pct (share (project "stassuij" vec_on bgq) "sparse_axpy"));
  (* Does any refinement improve overall selection quality?  The
     footprint cache model (lib/analysis Perf.Footprint) replaces the
     paper's constant hit ratios with per-loop working-set checks —
     the hardware-model refinement the paper defers to future work. *)
  List.iter
    (fun name ->
      let r = run_of name bgq in
      let q ?cache opts =
        let w = Workloads.Registry.find_exn name in
        let a =
          P.analyze ~opts ?cache ~machine:bgq ~workload:w ~scale:r.P.scale ()
        in
        Q.quality ~measured:r.P.measured.blocks
          ~candidate:a.P.a_projection.Analysis.Perf.blocks ~k:10
      in
      Fmt.pr
        "%-10s Q(10) baseline %s | div-aware %s | vec-aware %s | footprint \
         cache %s | all %s@."
        name (pct (q base)) (pct (q div_on)) (pct (q vec_on))
        (pct (q ~cache:Analysis.Perf.Footprint base))
        (pct
           (q ~cache:Analysis.Perf.Footprint
              { base with Hw.Roofline.div_aware = true; vector_aware = true })))
    [ "sord"; "cfd"; "srad"; "chargei"; "stassuij" ]

(* ------------------------------------------------------------------ *)

let machine_microbench () =
  section "machine_microbench"
    "Machine characterization via in-house microbenchmarks  [paper SSVI \
     methodology]";
  Fmt.pr
    "(the paper measured BG/Q's 51-cycle L2 and 180-cycle DRAM with \
     microbenchmarks;@.this runs the same probes against the simulator to \
     cross-check the machine models)@.@.";
  List.iter
    (fun machine ->
      Fmt.pr "%s (configured: L1 %.0f cyc, L2 %.0f cyc, mem %.0f cyc, %.1f \
              GB/s, MLP %.1f):@."
        machine.Hw.Machine.name machine.Hw.Machine.l1.Hw.Machine.latency_cycles
        machine.Hw.Machine.l2.Hw.Machine.latency_cycles
        machine.Hw.Machine.mem_latency_cycles machine.Hw.Machine.mem_bw_gbs
        machine.Hw.Machine.mlp;
      List.iter
        (fun (bench : Hw.Microbench.t) ->
          let config = Sim.Interp.default_config ~machine () in
          let r =
            Sim.Interp.run ~config ~inputs:bench.Hw.Microbench.inputs
              bench.Hw.Microbench.program
          in
          let m =
            Hw.Microbench.measure bench ~total_cycles:r.Sim.Interp.total_cycles
              ~freq_ghz:machine.Hw.Machine.freq_ghz
          in
          Fmt.pr "  %a@." Hw.Microbench.pp_measurement m)
        (Hw.Microbench.suite machine);
      Fmt.pr "@.")
    [ bgq; xeon ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the analysis engine itself: the paper's
   selling point is that analysis is cheap; these measure it. *)

let bechamel_section () =
  section "engine_microbench"
    "Analysis-engine micro-benchmarks (Bechamel): the paper's 'projection \
     within a few minutes' claim is milliseconds here";
  let open Bechamel in
  let w = Workloads.Registry.find_exn "sord" in
  let program, inputs = w.Workloads.Registry.make ~scale:1.0 in
  let source = Skeleton.Pretty.to_string program in
  let hints = Bet.Hints.empty in
  let built =
    Bet.Build.build ~hints
      ~lib_work:(Hw.Libmix.work_fn Hw.Libmix.default)
      ~inputs program
  in
  let projection = Analysis.Perf.project bgq built in
  let tests =
    [
      Test.make ~name:"parse sord skeleton" (Staged.stage (fun () ->
          ignore (Skeleton.Parser.parse ~file:"sord.skope" source)));
      Test.make ~name:"build BST" (Staged.stage (fun () ->
          ignore (Bet.Bst.build program)));
      Test.make ~name:"build BET" (Staged.stage (fun () ->
          ignore
            (Bet.Build.build ~hints
               ~lib_work:(Hw.Libmix.work_fn Hw.Libmix.default)
               ~inputs program)));
      Test.make ~name:"roofline projection (BG/Q)" (Staged.stage (fun () ->
          ignore (Analysis.Perf.project bgq built)));
      Test.make ~name:"hot spot selection" (Staged.stage (fun () ->
          ignore
            (Analysis.Hotspot.select
               ~total_instructions:
                 (Bet.Bst.total_instructions built.Bet.Build.bst)
               projection.Analysis.Perf.blocks)));
      Test.make ~name:"hot path extraction" (Staged.stage (fun () ->
          let sel =
            Analysis.Hotspot.select
              ~total_instructions:
                (Bet.Bst.total_instructions built.Bet.Build.bst)
              projection.Analysis.Perf.blocks
          in
          ignore
            (Analysis.Hotpath.extract
               ~selection:(Analysis.Hotspot.spot_set sel)
               ~node_time:projection.Analysis.Perf.node_time
               ~node_enr:projection.Analysis.Perf.node_enr
               built.Bet.Build.root)));
    ]
  in
  let benchmark test =
    let quota = Time.second 0.25 in
    Benchmark.all
      (Benchmark.cfg ~limit:1000 ~quota ())
      [ Toolkit.Instance.monotonic_clock ]
      test
  in
  let analyze raw =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false
         ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Fmt.pr "  %-32s %10.1f ns/run@." name est
          | _ -> Fmt.pr "  %-32s (no estimate)@." name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* The serving layer: cache-warm sweep throughput through the skoped
   dispatcher (no sockets — this measures request handling itself). *)

let service_section () =
  section "service_throughput"
    "skoped dispatcher: cold vs cache-warm sweep throughput (the 'serve \
     thousands of what-if queries' scenario)";
  let module D = Skope_service.Dispatch in
  let dispatch = D.create () in
  let sweep_body =
    {|{"kind":"sweep","workload":"sord","machine":"bgq","axis":"bw","values":[4,8,16,32,64,128,256,512]}|}
  in
  let analyze_body = {|{"kind":"analyze","workload":"sord","machine":"bgq"}|} in
  let time_one body =
    let t0 = Unix.gettimeofday () in
    ignore (D.handle dispatch body);
    Unix.gettimeofday () -. t0
  in
  let cold = time_one sweep_body in
  let reps = 200 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (D.handle dispatch sweep_body)
  done;
  let warm_total = Unix.gettimeofday () -. t0 in
  let warm = warm_total /. float_of_int reps in
  Fmt.pr
    "8-point bandwidth sweep of SORD on BG/Q:@.  cold (8 BET projections)  \
     %8.2f ms@.  cache-warm (x%d)         %8.3f ms  -> %.0f sweeps/s, %.0f \
     projections/s, %.0fx speedup@."
    (cold *. 1e3) reps (warm *. 1e3)
    (1. /. warm)
    (8. /. warm) (cold /. warm);
  let t1 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (D.handle dispatch analyze_body)
  done;
  let a_warm = (Unix.gettimeofday () -. t1) /. float_of_int reps in
  Fmt.pr "cache-warm analyze: %.3f ms -> %.0f req/s@." (a_warm *. 1e3)
    (1. /. a_warm);
  let v = Skope_service.Metrics.view dispatch.D.metrics in
  Fmt.pr "dispatcher cache hit rate over the run: %s (%d lookups)@."
    (pct v.Skope_service.Metrics.hit_rate)
    (v.Skope_service.Metrics.cache_hits + v.Skope_service.Metrics.cache_misses)

(* ------------------------------------------------------------------ *)
(* Design-space exploration: a grid shares one BET, so the marginal
   cost per point is a projection, not a pipeline run.  The acceptance
   bar for lib/explore is >= 3x over independent analyzes on a
   16-point grid. *)

let explore_section () =
  section "explore_reuse"
    "skope explore: shared-BET grid evaluation vs independent analyzes \
     (16-point bw x freq grid)";
  let module Explore = Skope_explore.Explore in
  let w = Workloads.Registry.find_exn "sord" in
  let scale = 0.25 in
  let axes =
    [
      Hw.Designspace.Mem_bandwidth [ 7.; 14.; 28.; 56. ];
      Hw.Designspace.Frequency [ 0.8; 1.2; 1.6; 3.2 ];
    ]
  in
  let pts = Explore.grid_points bgq axes in
  let n = List.length pts in
  (* Independent path: the full pipeline (make, validate, lint, hints,
     BET build, projection) once per grid point. *)
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (p : Hw.Designspace.point) ->
      ignore
        (P.analyze ~machine:p.Hw.Designspace.p_machine ~workload:w ~scale ()))
    pts;
  let indep = Unix.gettimeofday () -. t0 in
  (* Shared path: prepare once, project per point (timed including the
     one-time prepare, so the comparison is end to end). *)
  let t1 = Unix.gettimeofday () in
  let prepared = P.Prepared.create ~workload:w ~scale () in
  let r1 = Explore.evaluate ~jobs:1 prepared pts in
  let shared1 = Unix.gettimeofday () -. t1 in
  let jobs = min (Domain.recommended_domain_count ()) n in
  let t2 = Unix.gettimeofday () in
  let prepared2 = P.Prepared.create ~workload:w ~scale () in
  let rn = Explore.evaluate ~jobs prepared2 pts in
  let sharedn = Unix.gettimeofday () -. t2 in
  Fmt.pr "%d-point grid of SORD (scale %.2f) around BG/Q:@." n scale;
  Fmt.pr "  %d independent analyzes (BET per point)  %8.1f ms@." n
    (indep *. 1e3);
  Fmt.pr "  shared BET, 1 domain                     %8.1f ms  -> %.1fx@."
    (shared1 *. 1e3) (indep /. shared1);
  Fmt.pr "  shared BET, %d domains                    %8.1f ms  -> %.1fx@."
    jobs (sharedn *. 1e3) (indep /. sharedn);
  if indep /. shared1 < 3. then
    Fmt.pr "  WARNING: shared-BET speedup below the 3x acceptance bar@.";
  emit_table ~file:"explore_pareto.csv"
    (Table.make
       ~title:
         (Fmt.str
            "Pareto frontier over (projected time, hardware cost proxy): %d \
             of %d points"
            (List.length r1.Explore.pareto) n)
       ~headers:[ "point"; "projected ms"; "cost proxy" ]
       ~aligns:Table.[ Left; Right; Right ]
       (List.map
          (fun (p : Explore.point) ->
            [
              p.Explore.tag;
              Fmt.str "%.2f" (p.Explore.time *. 1e3);
              Fmt.str "%.1f" (p.Explore.cost);
            ])
          r1.Explore.pareto));
  (* Parallel evaluation must price the grid identically. *)
  let same =
    List.for_all2
      (fun (a : Explore.point) (b : Explore.point) ->
        Float.equal a.Explore.time b.Explore.time)
      r1.Explore.points rn.Explore.points
  in
  Fmt.pr "@.parallel evaluation matches sequential: %s@."
    (if same then "yes" else "NO")

(* ------------------------------------------------------------------ *)
(* Arena pricing: per-point re-pricing cost on a 1024-point grid.  The
   acceptance bar for the arena is >= 5x under the shared-BET tree
   walk (the Perf.project oracle) per point, with bit-identical results
   (the differential suite gates the identity; this section reports
   the cost). *)

let arena_section ?(record = fun _ _ -> ()) ?(scale = 0.25) () =
  section "arena_projection"
    "arena BET engine: per-point re-pricing on a 1024-point grid (tree \
     walk vs arena full pass vs arena delta chain)";
  let module Explore = Skope_explore.Explore in
  let module AP = Analysis.Arena_price in
  let w = Workloads.Registry.find_exn "sord" in
  (* Five 4-level axes = 4^5 = 1024 points.  The last axis varies
     fastest in grid order, so most consecutive points are single-axis
     moves — the case the delta chain exists for. *)
  let axes =
    [
      Hw.Designspace.Frequency [ 0.8; 1.2; 1.6; 3.2 ];
      Hw.Designspace.Issue_width [ 1.; 2.; 4.; 8. ];
      Hw.Designspace.Mem_bandwidth [ 7.; 14.; 28.; 56. ];
      Hw.Designspace.Mem_latency [ 40.; 80.; 160.; 320. ];
      Hw.Designspace.Vector_width [ 1; 2; 4; 8 ];
    ]
  in
  let pts = Explore.grid_points bgq axes in
  let n = List.length pts in
  let machines =
    Array.of_list
      (List.map (fun (p : Hw.Designspace.point) -> p.Hw.Designspace.p_machine) pts)
  in
  (* The one-time prepare/flatten is excluded: the bar is the marginal
     pricing cost per grid point.  Hot-spot selection is excluded from
     all three rows alike — it is the same downstream stage whichever
     code priced the point. *)
  let prepared = P.Prepared.create ~workload:w ~scale () in
  let built = P.Prepared.built prepared in
  let arena = Bet.Arena.of_build built in
  let best f =
    ignore (f ());
    let b = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !b then b := dt
    done;
    !b
  in
  (* Baseline: the recursive tree walk, once per point. *)
  let tree_s =
    best (fun () ->
        Array.iter (fun m -> ignore (Analysis.Perf.project m built)) machines)
  in
  (* Full arena pass per point: flat loops, no delta reuse. *)
  let full_s =
    best (fun () -> Array.iter (fun m -> ignore (AP.price arena m)) machines)
  in
  (* Delta chain: consecutive grid points re-price dependent nodes
     only. *)
  let delta_s =
    best (fun () ->
        let prev = ref None in
        Array.iter
          (fun m ->
            let pr =
              match !prev with
              | None -> AP.price arena m
              | Some pr -> AP.price_delta ~prev:pr arena m
            in
            prev := Some pr)
          machines)
  in
  let us x = x /. float_of_int n *. 1e6 in
  Fmt.pr "%d-point grid of SORD (scale %.2f) around BG/Q, per point:@." n scale;
  Fmt.pr "  tree walk (shared BET)               %8.2f us@." (us tree_s);
  Fmt.pr "  arena, full pass                     %8.2f us  -> %.1fx@."
    (us full_s) (tree_s /. full_s);
  Fmt.pr "  arena, delta chain                   %8.2f us  -> %.1fx@."
    (us delta_s) (tree_s /. delta_s);
  if tree_s /. delta_s < 5. then
    Fmt.pr "  WARNING: arena delta speedup below the 5x acceptance bar@.";
  (* Bit-for-bit identity of the projection API against the tree-walk
     oracle, on every grid point. *)
  let ra = Explore.evaluate ~jobs:1 prepared pts in
  let same =
    List.for_all
      (fun (a : Explore.point) ->
        let t = Analysis.Perf.project a.Explore.machine built in
        Float.equal t.Analysis.Perf.total_time a.Explore.time
        && t.Analysis.Perf.blocks = a.Explore.outcome.P.Prepared.o_blocks)
      ra.Explore.points
  in
  Fmt.pr "@.arena matches tree on all %d points: %s@." n
    (if same then "yes" else "NO");
  record "arena_tree_us_per_point" (us tree_s);
  record "arena_full_us_per_point" (us full_s);
  record "arena_delta_us_per_point" (us delta_s);
  record "arena_delta_speedup_x" (tree_s /. delta_s);
  emit_table ~file:"arena_projection.csv"
    (Table.make
       ~title:(Fmt.str "arena engine, %d-point grid, per-point cost" n)
       ~headers:[ "engine"; "us/point"; "speedup" ]
       ~aligns:Table.[ Left; Right; Right ]
       [
         [ "tree"; Fmt.str "%.2f" (us tree_s); "1.0" ];
         [ "arena"; Fmt.str "%.2f" (us full_s); Fmt.str "%.1f" (tree_s /. full_s) ];
         [ "arena+delta"; Fmt.str "%.2f" (us delta_s);
           Fmt.str "%.1f" (tree_s /. delta_s) ];
       ]);
  (us tree_s, us full_s, us delta_s, tree_s /. delta_s, same, n)

(* ------------------------------------------------------------------ *)
(* Cluster routing: cache-affinity scaling across shard counts.  The
   resource sharding multiplies is cache capacity: the working set (24
   distinct analyze fingerprints, cycled round-robin) overflows one
   shard's 12-entry LRU — cyclic access against a smaller LRU evicts
   every entry before its reuse, so every request pays a full BET
   projection — while 4 shards hold ~6 fingerprints each and serve
   every repeat from cache.  Requests go through a real router over
   TCP, so the numbers include routing and transport. *)

let cluster_working_set = 24
let cluster_cache_capacity = 12
let cluster_rounds = 4

let cluster_measure shards =
  let module Local = Skope_cluster.Local in
  let module C = Skope_service.Client in
  let module A = Skope_service.Service_api in
  let module J = Report.Json in
  let bodies =
    Array.init cluster_working_set (fun i ->
        A.to_body
          (A.analyze
             ~opts:
               {
                 A.default_query_opts with
                 A.scale = Some (0.2 +. (0.002 *. float_of_int i));
               }
             ~workload:"sord" ~machine:"bgq" ()))
  in
  let c =
    Local.start ~shards ~cache_capacity:cluster_cache_capacity ~shard_pool:2
      ~probe_interval_s:1.0 ()
  in
  Fun.protect
    ~finally:(fun () -> Local.stop c)
    (fun () ->
      let port = Local.router_port c in
      let issue body =
        match C.request ~host:"127.0.0.1" ~port body with
        | Ok _ -> ()
        | Error e -> failwith ("cluster bench: " ^ C.error_message e)
      in
      (* Warm round: populate whatever fits each shard's LRU. *)
      Array.iter issue bodies;
      let t0 = Unix.gettimeofday () in
      for _ = 1 to cluster_rounds do
        Array.iter issue bodies
      done;
      let dt = Unix.gettimeofday () -. t0 in
      let rps =
        float_of_int (cluster_rounds * cluster_working_set) /. dt
      in
      (* Cluster-wide cache counters out of cluster_stats: with
         disjoint per-shard caches every fingerprint is built (missed)
         on exactly one shard. *)
      let hits, misses =
        match C.request ~host:"127.0.0.1" ~port (A.to_body A.Cluster_stats) with
        | Error e -> failwith ("cluster bench: " ^ C.error_message e)
        | Ok resp -> (
          match J.of_string resp with
          | Error e -> failwith ("cluster bench: " ^ e)
          | Ok j -> (
            match
              Option.bind (J.member "result" j) (J.member "members")
            with
            | Some (J.List members) ->
              List.fold_left
                (fun (h, m) mem ->
                  let metric key =
                    match
                      Option.bind
                        (Option.bind (J.member "stats" mem)
                           (J.member "metrics"))
                        (J.member key)
                    with
                    | Some (J.Int n) -> n
                    | _ -> 0
                  in
                  (h + metric "cache_hits", m + metric "cache_misses"))
                (0, 0) members
            | _ -> failwith "cluster bench: cluster_stats has no members"))
      in
      (rps, hits, misses))

let cluster_section ?(record = fun _ _ -> ()) () =
  section "cluster_scaling"
    (Fmt.str
       "cluster router: cached throughput vs shard count (working set %d \
        fingerprints, per-shard LRU capacity %d)"
       cluster_working_set cluster_cache_capacity)
  ;
  let results =
    List.map (fun shards -> (shards, cluster_measure shards)) [ 1; 2; 4 ]
  in
  let rps1, _, _ = List.assoc 1 results in
  emit_table ~file:"cluster_scaling.csv"
    (Table.make
       ~title:
         (Fmt.str "%d requests per run through the router, after one warm \
                   round" (cluster_rounds * cluster_working_set))
       ~headers:[ "shards"; "req/s"; "hits"; "misses"; "vs 1 shard" ]
       ~aligns:Table.[ Right; Right; Right; Right; Right ]
       (List.map
          (fun (shards, (rps, hits, misses)) ->
            [
              string_of_int shards;
              Fmt.str "%.0f" rps;
              string_of_int hits;
              string_of_int misses;
              Fmt.str "%.1fx" (rps /. rps1);
            ])
          results));
  List.iter
    (fun (shards, (rps, _, _)) ->
      record (Fmt.str "cluster_cached_rps_%d" shards) rps)
    results;
  let rps4, _, misses4 = List.assoc 4 results in
  record "cluster_scaling_4x_over_1x" (rps4 /. rps1);
  Fmt.pr "@.4-shard vs 1-shard cached throughput: %.1fx (acceptance: >= 3x)@."
    (rps4 /. rps1);
  if rps4 /. rps1 < 3. then
    Fmt.pr "  WARNING: cluster scaling below the 3x acceptance bar@.";
  Fmt.pr
    "4-shard cluster-wide misses: %d for a %d-fingerprint working set — each \
     fingerprint was built on exactly one shard (disjoint caches)@."
    misses4 cluster_working_set;
  results

(* ------------------------------------------------------------------ *)
(* Lint throughput: the interval-domain pass runs before every
   projection, so it must be cheap relative to a BET evaluation. *)

let lint_section () =
  section "lint_throughput"
    "skope lint: interval-domain abstract interpretation throughput";
  let reps = 100 in
  List.iter
    (fun (w : Workloads.Registry.t) ->
      let program, inputs = w.make ~scale:w.default_scale in
      let n_diags = List.length (Lint.Engine.run ~inputs program) in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        ignore (Lint.Engine.run ~inputs program)
      done;
      let per = (Unix.gettimeofday () -. t0) /. float_of_int reps in
      Fmt.pr "  %-12s %8.3f ms/run  %6.0f runs/s  (%d diagnostics)@." w.name
        (per *. 1e3)
        (1. /. per)
        n_diags)
    Workloads.Registry.all

(* ------------------------------------------------------------------ *)
(* Audit throughput: symbolic derivation plus all eight A rules (the
   scale-sweep probes re-derive the tree several times), so it is the
   most expensive static pass; it runs once per `skope audit` target
   and has to stay within interactive latency. *)

let audit_section () =
  section "audit_throughput"
    "skope audit: symbolic derivation + scaling/deadlock rules";
  let reps = 20 in
  List.iter
    (fun (w : Workloads.Registry.t) ->
      let scale = w.default_scale in
      let run () = Pipeline.audit ~workload:w ~scale () in
      let n_diags = List.length (run ()).Lint.Audit.diags in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        ignore (run ())
      done;
      let per = (Unix.gettimeofday () -. t0) /. float_of_int reps in
      Fmt.pr "  %-12s %8.3f ms/run  %6.0f runs/s  (%d diagnostics)@." w.name
        (per *. 1e3)
        (1. /. per)
        n_diags)
    Workloads.Registry.all

(* ------------------------------------------------------------------ *)
(* Telemetry overhead: the tracer must be free when disabled and
   cheap when collecting — instrumented phases run once per request,
   so even the enabled cost only has to beat a projection (~ms). *)

let telemetry_section () =
  section "telemetry_overhead"
    "span tracing: disabled fast path vs Chrome-sink collection";
  let module Span = Telemetry.Span in
  let module Chrome = Telemetry.Chrome in
  let reps = 1_000_000 in
  let bench f =
    let t0 = Unix.gettimeofday () in
    let acc = ref 0 in
    for i = 1 to reps do
      acc := f i
    done;
    ignore !acc;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let baseline = bench (fun i -> i + 1) in
  Span.clear_sinks ();
  let disabled = bench (fun i -> Span.with_ ~name:"noop" (fun () -> i + 1)) in
  let collector = Chrome.create () in
  let sink = Chrome.sink collector in
  Span.add_sink sink;
  let enabled_reps = 100_000 in
  let t0 = Unix.gettimeofday () in
  let acc = ref 0 in
  for i = 1 to enabled_reps do
    acc := Span.with_ ~name:"collected" (fun () -> i + 1)
  done;
  ignore !acc;
  let enabled = (Unix.gettimeofday () -. t0) /. float_of_int enabled_reps in
  Span.remove_sink sink;
  Fmt.pr "  bare closure call        %8.1f ns@." (baseline *. 1e9);
  Fmt.pr "  span, no sink            %8.1f ns  (overhead %.1f ns)@."
    (disabled *. 1e9)
    ((disabled -. baseline) *. 1e9);
  Fmt.pr "  span, chrome sink        %8.1f ns  (%d spans collected)@."
    (enabled *. 1e9) (Chrome.length collector);
  let w = Workloads.Registry.find_exn "pedagogical" in
  let run () =
    ignore (P.analyze ~machine:bgq ~workload:w ~scale:w.default_scale ())
  in
  let pipeline_reps = 50 in
  let time f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to pipeline_reps do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int pipeline_reps
  in
  let untraced = time run in
  let c2 = Chrome.create () in
  let sink2 = Chrome.sink c2 in
  Span.add_sink sink2;
  let traced = time run in
  Span.remove_sink sink2;
  Fmt.pr "  pipeline untraced        %8.3f ms/run@." (untraced *. 1e3);
  Fmt.pr "  pipeline traced          %8.3f ms/run  (+%.1f%%, %d spans)@."
    (traced *. 1e3)
    (100. *. ((traced /. Float.max 1e-12 untraced) -. 1.))
    (Chrome.length c2)

(* ------------------------------------------------------------------ *)
(* Flight recorder overhead: the recorder rides the span-sink bus and
   is always on in the server, so its marginal cost on the hot path —
   a cache-warm analyze request — is the number that matters.  We
   compare the same dispatcher loop with the sink bus silenced
   (begin/commit bookkeeping still runs) against a fresh dispatcher
   whose recorder sink is the only subscriber. *)

let recorder_section ?(record = fun _ _ -> ()) () =
  section "recorder_overhead"
    "flight recorder: marginal cost on the cached-hit dispatch path";
  let module Span = Telemetry.Span in
  let module D = Skope_service.Dispatch in
  (* A fixed trace id keeps the cache-hit responses byte-identical so
     both loops serialize exactly the same bytes. *)
  let body =
    {|{"kind":"analyze","workload":"sord","machine":"bgq","trace":{"id":"bench-rec"}}|}
  in
  let reps = 2_000 in
  let time d =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (D.handle d body)
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  Span.clear_sinks ();
  let d_off = D.create () in
  (* Drop the recorder sink that [create] just installed: the baseline
     keeps the per-request begin/commit bookkeeping but no span
     grouping and no ring writes. *)
  Span.clear_sinks ();
  ignore (D.handle d_off body);
  let off = time d_off in
  Span.clear_sinks ();
  let d_on = D.create () in
  ignore (D.handle d_on body);
  let on = time d_on in
  let pct = 100. *. ((on /. Float.max 1e-12 off) -. 1.) in
  Fmt.pr "  cached hit, recorder off %8.1f us/req@." (off *. 1e6);
  Fmt.pr "  cached hit, recorder on  %8.1f us/req  (+%.1f%%)@." (on *. 1e6) pct;
  record "recorder_off_us" (off *. 1e6);
  record "recorder_on_us" (on *. 1e6);
  record "recorder_hit_overhead_pct" pct;
  (off *. 1e6, on *. 1e6, pct)

(* ------------------------------------------------------------------ *)
(* Quick mode: a seconds-long subset for CI — dispatcher throughput,
   lint throughput, telemetry overhead and a small shared-BET explore
   grid; no paper-scale simulations.  `--json FILE` writes the
   headline numbers as a machine-readable artifact so runs can be
   compared across commits. *)

let quick_run json_file =
  let module J = Report.Json in
  let module D = Skope_service.Dispatch in
  let metrics = ref [] in
  let record key v = metrics := (key, v) :: !metrics in
  let t_start = Unix.gettimeofday () in
  section "quick" "CI quick benchmark (seconds-long subset)";
  (* dispatcher: cache-warm request throughput *)
  let dispatch = D.create () in
  let analyze_body = {|{"kind":"analyze","workload":"sord","machine":"bgq"}|} in
  let sweep_body =
    {|{"kind":"sweep","workload":"sord","machine":"bgq","axis":"bw","values":[7,14,28,56]}|}
  in
  ignore (D.handle dispatch analyze_body);
  ignore (D.handle dispatch sweep_body);
  let time_reps reps f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let a_warm = time_reps 200 (fun () -> ignore (D.handle dispatch analyze_body)) in
  let s_warm = time_reps 100 (fun () -> ignore (D.handle dispatch sweep_body)) in
  Fmt.pr "  dispatcher, cache-warm analyze   %8.0f req/s@." (1. /. a_warm);
  Fmt.pr "  dispatcher, cache-warm sweep     %8.0f req/s@." (1. /. s_warm);
  record "dispatch_analyze_warm_req_per_s" (1. /. a_warm);
  record "dispatch_sweep_warm_req_per_s" (1. /. s_warm);
  (* lint: one representative workload *)
  let w = Workloads.Registry.find_exn "sord" in
  let program, inputs = w.make ~scale:w.default_scale in
  let lint_per = time_reps 50 (fun () -> ignore (Lint.Engine.run ~inputs program)) in
  Fmt.pr "  lint sord                        %8.0f runs/s@." (1. /. lint_per);
  record "lint_sord_runs_per_s" (1. /. lint_per);
  (* telemetry: the disabled fast path *)
  Telemetry.Span.clear_sinks ();
  let span_per =
    time_reps 200_000 (fun () ->
        ignore (Telemetry.Span.with_ ~name:"noop" (fun () -> 0)))
  in
  Fmt.pr "  span, no sink                    %8.1f ns@." (span_per *. 1e9);
  record "span_disabled_ns" (span_per *. 1e9);
  (* explore: shared-BET reuse on a small grid *)
  let module Explore = Skope_explore.Explore in
  let scale = 0.1 in
  let axes =
    [ Hw.Designspace.Mem_bandwidth [ 7.; 28. ];
      Hw.Designspace.Frequency [ 0.8; 1.6 ] ]
  in
  let pts = Explore.grid_points bgq axes in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (p : Hw.Designspace.point) ->
      ignore (P.analyze ~machine:p.Hw.Designspace.p_machine ~workload:w ~scale ()))
    pts;
  let indep = Unix.gettimeofday () -. t0 in
  let t1 = Unix.gettimeofday () in
  let prepared = P.Prepared.create ~workload:w ~scale () in
  ignore (Explore.evaluate ~jobs:1 prepared pts);
  let shared = Unix.gettimeofday () -. t1 in
  Fmt.pr "  explore shared-BET speedup       %8.1fx (%d-point grid)@."
    (indep /. shared) (List.length pts);
  record "explore_shared_speedup_x" (indep /. shared);
  (* arena engine: per-point cost on the 1024-point grid *)
  let arena_tree_us, arena_full_us, arena_delta_us, arena_speedup,
      arena_identical, arena_points =
    arena_section ~record ~scale:0.1 ()
  in
  (* flight recorder: marginal cost on the cached-hit path *)
  let rec_off_us, rec_on_us, rec_pct = recorder_section ~record () in
  (* cluster: cache-affinity scaling over 1/2/4 shards *)
  let cluster_results = cluster_section ~record () in
  let elapsed = Unix.gettimeofday () -. t_start in
  record "elapsed_s" elapsed;
  Fmt.pr "@.quick bench done in %.1fs@." elapsed;
  match json_file with
  | None -> ()
  | Some file ->
    let json =
      J.Obj
        [
          ("schema", J.String "skope-bench-quick/1");
          ("version", J.String Version.version);
          ("git", J.String Version.git);
          ( "metrics",
            J.Obj (List.rev_map (fun (k, v) -> (k, J.Float v)) !metrics) );
        ]
    in
    let oc = open_out file in
    output_string oc (J.to_string json);
    output_string oc "\n";
    close_out oc;
    Fmt.pr "wrote %s@." file;
    (* The cluster numbers also ship as their own artifact, keyed by
       shard count, so scaling regressions diff cleanly across runs. *)
    let cluster_file = "BENCH_cluster.json" in
    let cluster_json =
      J.Obj
        [
          ("schema", J.String "skope-bench-cluster/1");
          ("version", J.String Version.version);
          ("git", J.String Version.git);
          ("working_set", J.Int cluster_working_set);
          ("cache_capacity", J.Int cluster_cache_capacity);
          ( "shards",
            J.List
              (List.map
                 (fun (shards, (rps, hits, misses)) ->
                   J.Obj
                     [
                       ("shards", J.Int shards);
                       ("cached_rps", J.Float rps);
                       ("cache_hits", J.Int hits);
                       ("cache_misses", J.Int misses);
                     ])
                 cluster_results) );
          ( "scaling_4x_over_1x",
            J.Float
              (let rps1, _, _ = List.assoc 1 cluster_results in
               let rps4, _, _ = List.assoc 4 cluster_results in
               rps4 /. rps1) );
        ]
    in
    let oc = open_out cluster_file in
    output_string oc (J.to_string cluster_json);
    output_string oc "\n";
    close_out oc;
    Fmt.pr "wrote %s@." cluster_file;
    (* Tracing cost ships as its own artifact too: the flight recorder
       is always on in production, so its hot-path overhead is a
       budget (<= 5%) that diffs should be able to flag. *)
    let trace_file = "BENCH_trace.json" in
    let trace_json =
      J.Obj
        [
          ("schema", J.String "skope-bench-trace/1");
          ("version", J.String Version.version);
          ("git", J.String Version.git);
          ("recorder_off_us", J.Float rec_off_us);
          ("recorder_on_us", J.Float rec_on_us);
          ("recorder_hit_overhead_pct", J.Float rec_pct);
          ("budget_pct", J.Float 5.);
        ]
    in
    let oc = open_out trace_file in
    output_string oc (J.to_string trace_json);
    output_string oc "\n";
    close_out oc;
    Fmt.pr "wrote %s@." trace_file;
    (* Arena-engine numbers ship as their own artifact: the >= 5x
       per-point bar (and the tree/arena identity) should diff
       cleanly across runs. *)
    let arena_file = "BENCH_arena.json" in
    let arena_json =
      J.Obj
        [
          ("schema", J.String "skope-bench-arena/1");
          ("version", J.String Version.version);
          ("git", J.String Version.git);
          ("grid_points", J.Int arena_points);
          ("tree_us_per_point", J.Float arena_tree_us);
          ("arena_us_per_point", J.Float arena_full_us);
          ("arena_delta_us_per_point", J.Float arena_delta_us);
          ("arena_delta_speedup_x", J.Float arena_speedup);
          ("bar_x", J.Float 5.);
          ("identical_to_tree", J.Bool arena_identical);
        ]
    in
    let oc = open_out arena_file in
    output_string oc (J.to_string arena_json);
    output_string oc "\n";
    close_out oc;
    Fmt.pr "wrote %s@." arena_file

let () =
  let quick = ref false in
  let json_file : string option ref = ref None in
  let rec parse_args = function
    | [] -> ()
    | "--csv" :: dir :: rest ->
      csv_dir := Some dir;
      parse_args rest
    | "--quick" :: rest ->
      quick := true;
      parse_args rest
    | "--json" :: file :: rest ->
      json_file := Some file;
      parse_args rest
    | arg :: _ ->
      Fmt.epr "bench: unknown argument %S (expected --quick, --csv DIR, --json FILE)@." arg;
      exit 2
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  if !quick then quick_run !json_file
  else begin
  let t0 = Unix.gettimeofday () in
  Fmt.pr
    "Reproduction harness: 'Analytically Modeling Application Execution for \
     Software-Hardware Co-Design' (IPDPSW 2014)@.";
  fig2_fig3 ();
  table1 ();
  table2 ();
  fig4 ();
  fig5 ();
  fig6 ();
  fig7 ();
  fig8 ();
  fig9 ();
  fig10 ();
  fig11 ();
  fig12 ();
  fig13 ();
  portability ();
  bet_size ();
  scaling ();
  summary ();
  ablation ();
  machine_microbench ();
  bechamel_section ();
  service_section ();
  explore_section ();
  ignore (arena_section ());
  ignore (cluster_section ());
  lint_section ();
  audit_section ();
  telemetry_section ();
  ignore (recorder_section ());
  Fmt.pr "@.[bench] total wall time %.1fs@." (Unix.gettimeofday () -. t0)
  end
