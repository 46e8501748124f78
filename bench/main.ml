(* Paper harness: regenerates every table and figure of the paper's
   evaluation (§VII), plus the quantitative claims made in the
   abstract and §IV (BET size, input-size-independent analysis time,
   mean selection quality).  See DESIGN.md §5 for the experiment
   index and EXPERIMENTS.md for paper-vs-measured commentary.  The
   serving stack's performance benchmark is bench/serve.

   Everything prints to stdout; `dune exec bench/main.exe`, or
   `-- --csv DIR` to also write the tables as CSV files. *)

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
  (* Production prices a flat arena; flattening is a one-time cost per
     BET, so it stays outside the timed closure. *)
  let arena = Bet.Arena.of_build built in
  let projection =
    Analysis.Arena_price.projection arena (Analysis.Arena_price.price arena bgq)
  in
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
      Test.make ~name:"arena pricing (BG/Q)" (Staged.stage (fun () ->
          ignore (Analysis.Arena_price.price arena bgq)));
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

let () =
  (match List.tl (Array.to_list Sys.argv) with
  | [] -> ()
  | [ "--csv"; dir ] -> csv_dir := Some dir
  | arg :: _ ->
    Fmt.epr "bench: unknown argument %S (expected --csv DIR)@." arg;
    exit 2);
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
  Fmt.pr "@.[bench] total wall time %.1fs@." (Unix.gettimeofday () -. t0)
