(** skope — command line interface to the co-design analysis
    framework.

    Subcommands:
    - [workloads], [machines]: list what is bundled;
    - [show]: print a workload's skeleton in the DSL syntax;
    - [parse]: parse and validate a [.skope] file;
    - [lint]: interval-domain static analysis (rules L001..L011);
    - [analyze]: analytic projection of hot spots for a machine
      (no execution on the target — the paper's use case); works on
      bundled workloads or on a [.skope] file with [--input] bindings;
    - [validate]: run the ground-truth simulator too and compare;
    - [hints]: show the branch/trip statistics one profiling run yields;
    - [miniapp]: generate a mini-application from the hot path;
    - [sweep]: explore one hardware design axis;
    - [explore]: multi-axis design-space grid against one shared BET;
    - [nodes]: multi-node strong-scaling projection;
    - [serve]: run `skoped`, the concurrent projection service;
    - [query]: query a running `skoped` (and generate load);
    - [top]: live dashboard over a running `skoped` or cluster router. *)

open Cmdliner
open Args
module P = Core.Pipeline
module Hotspot = Core.Analysis.Hotspot
module Blockstat = Core.Analysis.Blockstat
module Quality = Core.Analysis.Quality
module Table = Core.Report.Table
module Span = Core.Telemetry.Span

let file_arg =
  let doc = "Analyze this .skope file instead of a bundled workload." in
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

let inputs_arg =
  let doc = "Input binding NAME=INT for --file skeletons (repeatable)." in
  Arg.(value & opt_all string [] & info [ "i"; "input" ] ~docv:"NAME=INT" ~doc)

let read_source file =
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

module Diag = Core.Lint.Diagnostic

(* Parse + validate [file], rendering any issue as a diagnostic.
   Returns the source text alongside so callers can render excerpts. *)
let parse_with_diagnostics ?(inputs = []) file =
  let source = try read_source file with Sys_error _ -> "" in
  match
    Span.with_ ~name:"parse" ~attrs:[ ("file", file) ] (fun () ->
        Core.Skeleton.Parser.parse_file file)
  with
  | program ->
    let issues = Core.Skeleton.Validate.check ~inputs program in
    (Some program, source, List.map Diag.of_validate issues)
  | exception Core.Skeleton.Parser.Error (loc, m) ->
    (None, source, [ Diag.of_parse_error loc m ])
  | exception Core.Skeleton.Lexer.Error (loc, m) ->
    (None, source, [ Diag.of_lex_error loc m ])

(* Load a skeleton for projection: any validation or lint *error*
   aborts (warnings and infos are `skope lint`'s business). *)
let load_file file inputs =
  let source = try read_source file with Sys_error _ -> "" in
  match
    Span.with_ ~name:"parse" ~attrs:[ ("file", file) ] (fun () ->
        Core.Skeleton.Parser.parse_file file)
  with
  | program ->
    let inputs = parse_inputs inputs in
    (match
       Span.with_ ~name:"validate" (fun () ->
           Core.Skeleton.Validate.check ~inputs:(List.map fst inputs) program)
     with
    | [] -> (
      match Core.Lint.Engine.check_exn ~inputs program with
      | () -> (program, inputs)
      | exception Core.Lint.Engine.Rejected errors ->
        Fmt.epr "%a" (Diag.render_all ~source ()) errors;
        exit 1)
    | issues ->
      Fmt.epr "%a"
        (Diag.render_all ~source ())
        (List.map Diag.of_validate issues);
      exit 1)
  | exception Core.Skeleton.Parser.Error (loc, m) ->
    Fmt.epr "%a" (Diag.render ~source ()) (Diag.of_parse_error loc m);
    exit 1
  | exception Core.Skeleton.Lexer.Error (loc, m) ->
    Fmt.epr "%a" (Diag.render ~source ()) (Diag.of_lex_error loc m);
    exit 1

let pct x = Fmt.str "%.1f%%" (100. *. x)

let spot_rows total (blocks : Blockstat.t list) k =
  List.filteri (fun i _ -> i < k) blocks
  |> List.mapi (fun i (b : Blockstat.t) ->
         [
           string_of_int (i + 1);
           b.name;
           Fmt.str "%.4g" (b.time *. 1e3);
           (if total > 0. then pct (b.time /. total) else "-");
           Fmt.str "%.3g" b.enr;
           Core.Hw.Roofline.bound_label b.bound;
         ])

let spots_table title total blocks k =
  Table.make ~title
    ~headers:[ "#"; "block"; "ms"; "share"; "execs"; "bound" ]
    ~aligns:Table.[ Right; Left; Right; Right; Right; Left ]
    (spot_rows total blocks k)

(* --- commands ------------------------------------------------------ *)

let cmd_workloads =
  let run () =
    List.iter
      (fun (w : Core.Workloads.Registry.t) ->
        Fmt.pr "%-12s %s@." w.name w.description)
      Core.Workloads.Registry.all
  in
  Cmd.v (Cmd.info "workloads" ~doc:"List bundled workload models")
    Term.(const run $ const ())

let cmd_machines =
  let run () =
    List.iter
      (fun m -> Fmt.pr "%a@.@." Core.Hw.Machine.pp m)
      Core.Hw.Machines.all
  in
  Cmd.v (Cmd.info "machines" ~doc:"List machine models")
    Term.(const run $ const ())

let cmd_show =
  let run workload scale =
    let w = lookup_workload workload in
    let scale = Option.value ~default:w.default_scale scale in
    let program, inputs = w.make ~scale in
    Fmt.pr "# inputs: %s@."
      (String.concat ", "
         (List.map
            (fun (k, v) -> Fmt.str "%s=%a" k Core.Bet.Value.pp v)
            inputs));
    Fmt.pr "%s@." (Core.Skeleton.Pretty.to_string program)
  in
  Cmd.v (Cmd.info "show" ~doc:"Print a workload's skeleton (DSL syntax)")
    Term.(const run $ workload_arg $ scale_arg)

let cmd_parse =
  let module J = Core.Report.Json in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file inputs format =
    let inputs = parse_inputs inputs in
    let program, source, diags =
      parse_with_diagnostics ~inputs:(List.map fst inputs) file
    in
    (match format with
    | `Json ->
      let stats =
        match program with
        | Some p ->
          [
            ("statements", J.Int (Core.Skeleton.Ast.program_size p));
            ("functions", J.Int (List.length p.Core.Skeleton.Ast.funcs));
            ( "static_instructions",
              J.Int (Core.Skeleton.Ast.instruction_count p) );
          ]
        | None -> []
      in
      print_endline
        (J.to_string
           (J.Obj
              ([
                 ("file", J.String file);
                 ("ok", J.Bool (diags = []));
                 ("diagnostics", Diag.list_to_json diags);
               ]
              @ stats)))
    | `Text -> (
      if diags <> [] then Fmt.epr "%a" (Diag.render_all ~source ()) diags;
      match program with
      | Some p when diags = [] ->
        Fmt.pr "%s: OK (%d statements, %d functions, %d static instructions)@."
          file
          (Core.Skeleton.Ast.program_size p)
          (List.length p.Core.Skeleton.Ast.funcs)
          (Core.Skeleton.Ast.instruction_count p)
      | _ -> ()));
    if diags <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "parse"
       ~doc:
         "Parse and validate a .skope file; issues carry stable codes \
          (P001/P002 syntax, V001..V011 semantics)")
    Term.(const run $ file $ inputs_arg $ format_arg)

let cmd_lint =
  let module J = Core.Report.Json in
  let files_arg =
    let doc = "Skeleton files to lint." in
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let lint_workloads_arg =
    let doc = "Lint this bundled workload (repeatable)." in
    Arg.(value & opt_all string [] & info [ "w"; "workload" ] ~docv:"NAME" ~doc)
  in
  let all_workloads_arg =
    let doc = "Lint every bundled workload." in
    Arg.(value & flag & info [ "workloads" ] ~doc)
  in
  let run files workloads all_workloads scale inputs format deny disable only
      rules trace =
    with_trace trace ~root:"lint" @@ fun () ->
    if rules then begin
      print_rules Core.Lint.Engine.rules;
      exit 0
    end;
    let deny_warnings = deny_warnings_of deny in
    let disabled =
      resolve_disabled ~rules:Core.Lint.Engine.rules ~disable ~only
    in
    let config = { Core.Lint.Engine.disabled } in
    let workloads =
      if all_workloads then
        List.map
          (fun (w : Core.Workloads.Registry.t) -> w.name)
          Core.Workloads.Registry.all
      else workloads
    in
    if files = [] && workloads = [] then begin
      Fmt.epr "nothing to lint: give FILEs, --workload or --workloads@.";
      exit 2
    end;
    let cli_inputs = parse_inputs inputs in
    let file_targets =
      List.map
        (fun file ->
          let program, source, diags =
            parse_with_diagnostics ~inputs:(List.map fst cli_inputs) file
          in
          let diags =
            match program with
            | Some p ->
              diags @ Core.Lint.Engine.run ~config ~inputs:cli_inputs p
            | None -> diags
          in
          (file, Some source, Diag.normalize diags))
        files
    in
    let workload_targets =
      List.map
        (fun name ->
          let w = lookup_workload name in
          let scale = Option.value ~default:w.default_scale scale in
          let program, winputs = w.make ~scale in
          let diags =
            List.map Diag.of_validate
              (Core.Skeleton.Validate.check
                 ~inputs:(List.map fst winputs) program)
            @ Core.Lint.Engine.run ~config ~inputs:winputs program
          in
          (name, None, Diag.normalize diags))
        workloads
    in
    let targets = file_targets @ workload_targets in
    let all_diags = List.concat_map (fun (_, _, ds) -> ds) targets in
    (match format with
    | `Json ->
      let jtargets =
        List.map
          (fun (target, _, ds) ->
            let errors, warnings, infos = Diag.counts ds in
            J.Obj
              [
                ("target", J.String target);
                ("diagnostics", Diag.list_to_json ds);
                ("errors", J.Int errors);
                ("warnings", J.Int warnings);
                ("infos", J.Int infos);
              ])
          targets
      in
      print_endline
        (J.to_string
           (J.Obj
              [
                ("ok", J.Bool (not (Diag.fails ~deny_warnings all_diags)));
                ("targets", J.List jtargets);
              ]))
    | `Text ->
      List.iter
        (fun (target, source, ds) ->
          List.iter (fun d -> Fmt.pr "%a@." (Diag.render ?source ()) d) ds;
          Fmt.pr "%s: %s@." target
            (if ds = [] then "clean" else Diag.summary ds))
        targets);
    if Diag.fails ~deny_warnings all_diags then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Lint skeletons with the interval-domain static analyzer (rules \
          L001..L011; see --rules)")
    Term.(
      const run $ files_arg $ lint_workloads_arg $ all_workloads_arg
      $ scale_arg $ inputs_arg $ format_arg $ deny_arg $ disable_arg
      $ only_arg $ rules_flag $ trace_arg)

let cmd_audit =
  let module J = Core.Report.Json in
  let module Audit = Core.Lint.Audit in
  let files_arg =
    let doc = "Skeleton files to audit." in
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let audit_workloads_arg =
    let doc = "Audit this bundled workload (repeatable)." in
    Arg.(value & opt_all string [] & info [ "w"; "workload" ] ~docv:"NAME" ~doc)
  in
  let all_workloads_arg =
    let doc = "Audit every bundled workload." in
    Arg.(value & flag & info [ "workloads" ] ~doc)
  in
  let ranks_arg =
    let doc =
      "Rank-space size for the load-imbalance and deadlock checks when the \
       program has no process-count input."
    in
    Arg.(value & opt int 4 & info [ "ranks" ] ~docv:"N" ~doc)
  in
  let run files workloads all_workloads scale inputs format deny disable only
      rules machine ranks trace =
    with_trace trace ~root:"audit" @@ fun () ->
    if rules then begin
      print_rules Audit.rules;
      exit 0
    end;
    let deny_warnings = deny_warnings_of deny in
    let disabled = resolve_disabled ~rules:Audit.rules ~disable ~only in
    if ranks < 1 || ranks > 1024 then begin
      Fmt.epr "--ranks must be in [1, 1024]@.";
      exit 2
    end;
    let config =
      { Audit.default_config with disabled; machine = lookup_machine machine;
        ranks }
    in
    let workloads =
      if all_workloads then
        List.map
          (fun (w : Core.Workloads.Registry.t) -> w.name)
          Core.Workloads.Registry.all
      else workloads
    in
    if files = [] && workloads = [] then begin
      Fmt.epr "nothing to audit: give FILEs, --workload or --workloads@.";
      exit 2
    end;
    let cli_inputs = parse_inputs inputs in
    let file_targets =
      List.map
        (fun file ->
          let program, source, diags =
            parse_with_diagnostics ~inputs:(List.map fst cli_inputs) file
          in
          match program with
          | Some p when diags = [] ->
            let report = Audit.run ~config ~inputs:cli_inputs p in
            ( file,
              Some source,
              report.Audit.diags,
              Audit.result_json ~target:file ~deny_warnings config report )
          | _ ->
            let diags = Diag.normalize diags in
            ( file,
              Some source,
              diags,
              Audit.diags_json ~target:file ~deny_warnings diags ))
        files
    in
    let workload_targets =
      List.map
        (fun name ->
          let w = lookup_workload name in
          let scale = Option.value ~default:w.default_scale scale in
          let report = Core.Pipeline.audit ~config ~workload:w ~scale () in
          ( name,
            None,
            report.Audit.diags,
            Audit.result_json ~target:name ~scale ~deny_warnings config report
          ))
        workloads
    in
    let targets = file_targets @ workload_targets in
    let all_diags = List.concat_map (fun (_, _, ds, _) -> ds) targets in
    (match format with
    | `Json ->
      print_endline
        (J.to_string
           (J.Obj
              [
                ("ok", J.Bool (not (Diag.fails ~deny_warnings all_diags)));
                ("targets", J.List (List.map (fun (_, _, _, j) -> j) targets));
              ]))
    | `Text ->
      List.iter
        (fun (target, source, ds, _) ->
          List.iter (fun d -> Fmt.pr "%a@." (Diag.render ?source ()) d) ds;
          Fmt.pr "%s: %s@." target
            (if ds = [] then "clean" else Diag.summary ds))
        targets);
    if Diag.fails ~deny_warnings all_diags then exit 1
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Statically audit skeletons with the symbolic cost model: scaling, \
          working-set and communication-deadlock rules (A001..A008; see \
          --rules)")
    Term.(
      const run $ files_arg $ audit_workloads_arg $ all_workloads_arg
      $ scale_arg $ inputs_arg $ format_arg $ deny_arg $ disable_arg
      $ only_arg $ rules_flag $ machine_arg $ ranks_arg $ trace_arg)

let print_analysis machine program inputs criteria k =
  let built =
    Core.Bet.Build.build
      ~lib_work:(Core.Hw.Libmix.work_fn Core.Hw.Libmix.default)
      ~inputs program
  in
  let module AP = Core.Analysis.Arena_price in
  let priced = AP.price (Core.Bet.Arena.of_build built) machine in
  let blocks = AP.blocks priced and total_time = AP.total_time priced in
  Span.with_ ~name:"report" (fun () ->
      Table.print (spots_table "" total_time blocks k));
  let sel =
    Span.with_ ~name:"hotspot" (fun () ->
        Hotspot.select ~criteria
          ~total_instructions:(Core.Bet.Bst.total_instructions built.bst)
          blocks)
  in
  Fmt.pr "@.selection: %d spots, coverage %s, leanness %s@."
    (List.length sel.spots) (pct sel.coverage) (pct sel.leanness);
  if sel.spots = [] && blocks <> [] then
    Fmt.pr
      "hint: no block fits the %s leanness budget — kernels without \
       cold-code bulk usually need a looser --leanness@."
      (pct criteria.Hotspot.code_leanness);
  Fmt.pr "BET: %d nodes (program: %d statements); total projected %.4g ms@."
    built.node_count
    (Core.Skeleton.Ast.program_size program)
    (total_time *. 1e3);
  List.iter (fun w -> Fmt.pr "warning: %s@." w) built.warnings

let cmd_analyze =
  let run workload machine scale k file inputs coverage leanness trace =
    let m = lookup_machine machine in
    let criteria =
      { Hotspot.time_coverage = coverage; code_leanness = leanness }
    in
    with_trace trace ~root:"analyze" @@ fun () ->
    match file with
    | Some f ->
      let program, inputs = load_file f inputs in
      Fmt.pr "Projected hot spots of %s on %s:@.@." f m.name;
      finite_or_exit
        ~what:(fun m -> Printf.sprintf "%s on %s" f m.Core.Hw.Machine.name)
        (fun () -> print_analysis m program inputs criteria k)
    | None ->
      let w = lookup_workload workload in
      let scale = Option.value ~default:w.default_scale scale in
      let program, winputs =
        Span.with_ ~name:"workload_make" ~attrs:[ ("workload", w.name) ]
          (fun () -> w.make ~scale)
      in
      Fmt.pr "Projected hot spots of %s on %s (no target execution):@.@."
        w.name m.name;
      finite_or_exit
        ~what:(fun m ->
          Printf.sprintf "%s at scale %g on %s" w.name scale m.Core.Hw.Machine.name)
        (fun () -> print_analysis m program winputs criteria k)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Project hot spots analytically for a target machine")
    Term.(
      const run $ workload_arg $ machine_arg $ scale_arg $ top_arg $ file_arg
      $ inputs_arg $ coverage_arg $ leanness_arg $ trace_arg)

let cmd_validate =
  let run workload machine scale k coverage leanness trace =
    let w = lookup_workload workload in
    let m = lookup_machine machine in
    let criteria =
      { Hotspot.time_coverage = coverage; code_leanness = leanness }
    in
    with_trace trace ~root:"validate" @@ fun () ->
    let r = P.run ~criteria ?scale ~machine:m w in
    Fmt.pr "=== %s on %s (scale %.3g) ===@.@." w.name m.name r.P.scale;
    Table.print
      (spots_table
         (Fmt.str "Prof: measured (simulated) hot spots, total %.4g ms"
            (r.P.measured.total_time *. 1e3))
         (Blockstat.total_time r.P.measured.blocks)
         r.P.measured.blocks k);
    Fmt.pr "@.";
    Table.print
      (spots_table
         (Fmt.str "Modl: projected hot spots, total %.4g ms"
            (r.P.projection.total_time *. 1e3))
         r.P.projection.total_time r.P.projection.blocks k);
    Fmt.pr "@.selection quality Q(%d) = %s@." k (pct (P.model_quality r ~k));
    match P.hot_path r with
    | Some path ->
      Fmt.pr "@.Hot path (model selection):@.%a@."
        (Core.Analysis.Hotpath.pp ~total_time:r.P.projection.total_time)
        path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Compare the projection against the simulator ground truth")
    Term.(
      const run $ workload_arg $ machine_arg $ scale_arg $ top_arg
      $ coverage_arg $ leanness_arg $ trace_arg)

let cmd_spots =
  let run workload machine scale k =
    let w = lookup_workload workload in
    let m = lookup_machine machine in
    let r = P.run ?scale ~machine:m w in
    let sel = r.P.model_sel in
    Fmt.pr
      "Hot spot invocation contexts for %s on %s (paper SSV-C: \"different \
       invocations of the same hot spot\"):@."
      w.name m.name;
    List.iteri
      (fun i (stat, invocations) ->
        if i < k then begin
          Fmt.pr "@.%d. %s (%.4g ms total, %d invocation site%s)@." (i + 1)
            stat.Blockstat.name
            (stat.Blockstat.time *. 1e3)
            (List.length invocations)
            (if List.length invocations = 1 then "" else "s");
          List.iter
            (fun inv ->
              Fmt.pr "   %a@." Core.Analysis.Invocations.pp_invocation inv)
            invocations
        end)
      (Core.Analysis.Invocations.of_selection r.P.built r.P.projection sel)
  in
  Cmd.v
    (Cmd.info "spots"
       ~doc:"Show every invocation context of each hot spot")
    Term.(const run $ workload_arg $ machine_arg $ scale_arg $ top_arg)

let cmd_path =
  let dot_arg =
    let doc = "Write the hot path as Graphviz DOT to this file." in
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)
  in
  let run workload machine scale dot =
    let w = lookup_workload workload in
    let m = lookup_machine machine in
    let r = P.run ?scale ~machine:m w in
    match P.hot_path r with
    | None ->
      Fmt.epr "no hot path@.";
      exit 1
    | Some path -> (
      Fmt.pr "%a@."
        (Core.Analysis.Hotpath.pp ~total_time:r.P.projection.total_time)
        path;
      match dot with
      | Some file ->
        let oc = open_out file in
        output_string oc
          (Core.Report.Render.dot_of_hotpath ~graph_name:w.name path);
        close_out oc;
        Fmt.pr "wrote %s@." file
      | None -> ())
  in
  Cmd.v
    (Cmd.info "path" ~doc:"Print (and optionally export) the hot path")
    Term.(const run $ workload_arg $ machine_arg $ scale_arg $ dot_arg)

let cmd_compare =
  let other_arg =
    let doc = "Second machine to compare against." in
    Arg.(value & opt string "xeon" & info [ "against" ] ~docv:"MACHINE" ~doc)
  in
  let run workload machine other scale k =
    let w = lookup_workload workload in
    let ma = lookup_machine machine and mb = lookup_machine other in
    let scale = Option.value ~default:w.default_scale scale in
    let blocks m =
      (P.analyze ~machine:m ~workload:w ~scale ()).P.a_projection.blocks
    in
    let ba = blocks ma and bb = blocks mb in
    let total l = Blockstat.total_time l in
    let ta = total ba and tb = total bb in
    let rank l id =
      let rec go i = function
        | [] -> "-"
        | (b : Blockstat.t) :: rest ->
          if Core.Bet.Block_id.equal b.block id then string_of_int i
          else go (i + 1) rest
      in
      go 1 l
    in
    let rows =
      Hotspot.top_k ~k ba
      |> List.map (fun (b : Blockstat.t) ->
             let share l t =
               match Blockstat.find l b.block with
               | Some x when t > 0. -> pct (x.Blockstat.time /. t)
               | _ -> "-"
             in
             [ b.name; share ba ta; rank ba b.block; share bb tb;
               rank bb b.block ])
    in
    Table.print
      (Table.make
         ~title:
           (Fmt.str "%s: %s (%.4g ms) vs %s (%.4g ms)" w.name ma.name
              (ta *. 1e3) mb.name (tb *. 1e3))
         ~headers:
           [ "block"; ma.name ^ " share"; "rank"; mb.name ^ " share"; "rank" ]
         ~aligns:Table.[ Left; Right; Right; Right; Right ]
         rows);
    Fmt.pr "@.top-%d overlap: %d; rank agreement: %.2f@." k
      (Quality.overlap ~a:ba ~b:bb ~k)
      (Quality.rank_agreement ~a:ba ~b:bb ~k)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare projected hot spots across two machines")
    Term.(
      const run $ workload_arg $ machine_arg $ other_arg $ scale_arg $ top_arg)

let cmd_import =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.c") in
  let out_arg =
    let doc = "Write the generated skeleton to this file." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run file out =
    match Core.Frontend.C_parser.parse_file file with
    | exception Core.Frontend.C_lexer.Error (line, m) ->
      Fmt.epr "%s:%d: %s@." file line m;
      exit 1
    | exception Core.Frontend.C_parser.Error (line, m) ->
      Fmt.epr "%s:%d: %s@." file line m;
      exit 1
    | cprog -> (
      match Core.Frontend.Abstract.lower ~name:(Filename.remove_extension (Filename.basename file)) cprog with
      | exception Core.Frontend.Abstract.Error (line, m) ->
        Fmt.epr "%s:%d: %s@." file line m;
        exit 1
      | r ->
        List.iter (fun w -> Fmt.epr "warning: %s@." w) r.warnings;
        let text = Core.Skeleton.Pretty.to_string r.program in
        (match out with
        | Some path ->
          let oc = open_out path in
          output_string oc text;
          close_out oc;
          Fmt.pr "wrote %s (%d statements; bind inputs: %s)@." path
            (Core.Skeleton.Ast.program_size r.program)
            (String.concat ", " (List.map fst r.params))
        | None ->
          Fmt.pr "# inputs to bind: %s@."
            (String.concat ", " (List.map fst r.params));
          Fmt.pr "%s@." text))
  in
  Cmd.v
    (Cmd.info "import"
       ~doc:
         "Convert a mini-C source file into a code skeleton (the paper's \
          source-to-source analysis engine)")
    Term.(const run $ file $ out_arg)

let cmd_roofline =
  let run workload machine scale k =
    let w = lookup_workload workload in
    let m = lookup_machine machine in
    let scale = Option.value ~default:w.default_scale scale in
    let a = P.analyze ~machine:m ~workload:w ~scale () in
    Table.print
      (Core.Report.Render.roofline_table m a.P.a_projection.blocks ~k)
  in
  Cmd.v
    (Cmd.info "roofline"
       ~doc:"Position each hot spot under the machine's roofline")
    Term.(const run $ workload_arg $ machine_arg $ scale_arg $ top_arg)

let cmd_json =
  let run workload machine scale =
    let w = lookup_workload workload in
    let m = lookup_machine machine in
    let scale = Option.value ~default:w.default_scale scale in
    let a = P.analyze ~machine:m ~workload:w ~scale () in
    let json =
      Core.Report.Json.Obj
        [
          ("workload", Core.Report.Json.String w.name);
          ("scale", Core.Report.Json.Float scale);
          ( "projection",
            Core.Report.Render.json_of_projection a.P.a_projection );
          ("selection", Core.Report.Render.json_of_selection a.P.a_selection);
        ]
    in
    print_endline (Core.Report.Json.to_string json)
  in
  Cmd.v
    (Cmd.info "json"
       ~doc:"Emit the analytic projection as JSON for downstream tools")
    Term.(const run $ workload_arg $ machine_arg $ scale_arg)

let cmd_hints =
  let run workload scale =
    let w = lookup_workload workload in
    let scale = Option.value ~default:w.default_scale scale in
    let program, inputs = w.make ~scale in
    let hints = P.profile ~libmix:w.libmix ~inputs program in
    Fmt.pr "%a@." Core.Bet.Hints.pp hints
  in
  Cmd.v
    (Cmd.info "hints"
       ~doc:"Show the branch statistics one local profiling run collects")
    Term.(const run $ workload_arg $ scale_arg)

let cmd_miniapp =
  let out_arg =
    let doc = "Write the generated skeleton to this file." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run workload machine scale out =
    let w = lookup_workload workload in
    let m = lookup_machine machine in
    let r = P.run ?scale ~machine:m w in
    match P.hot_path r with
    | None ->
      Fmt.epr "no hot path@.";
      exit 1
    | Some path ->
      let mini =
        Core.Analysis.Miniapp.generate ~program:r.P.program ~inputs:r.P.inputs
          path
      in
      let text = Core.Skeleton.Pretty.to_string mini.program in
      (match out with
      | Some file ->
        let oc = open_out file in
        output_string oc text;
        close_out oc;
        Fmt.pr "wrote %s (%d statements, from %d)@." file
          mini.retained_statements mini.original_statements
      | None -> Fmt.pr "%s@." text)
  in
  Cmd.v
    (Cmd.info "miniapp"
       ~doc:"Generate a mini-application skeleton from the hot path")
    Term.(const run $ workload_arg $ machine_arg $ scale_arg $ out_arg)

let cmd_sweep =
  let axis_arg =
    let doc = "Design axis: bw, lat, vec, issue, freq, l2, div." in
    Arg.(value & opt string "bw" & info [ "axis" ] ~docv:"AXIS" ~doc)
  in
  let values_arg =
    let doc = "Comma-separated values for the axis." in
    Arg.(value & opt string "1,2,4,8" & info [ "values" ] ~docv:"V1,V2,.." ~doc)
  in
  let run workload machine axis values trace =
    with_trace trace ~root:"sweep" @@ fun () ->
    let w = lookup_workload workload in
    let base = lookup_machine machine in
    let axis = axis_of_parts axis values in
    Fmt.pr "Sweeping %s of %s for %s:@."
      (Core.Hw.Designspace.axis_name axis)
      base.name w.name;
    (* One prepared BET, priced on every value, as the service's
       sweep does. *)
    let pts = Core.Hw.Designspace.grid base [ axis ] in
    let prepared = P.Prepared.create ~workload:w ~scale:w.default_scale () in
    let outcomes =
      finite_or_exit ~what:(point_of_machine pts) (fun () ->
          List.map
            (fun (pt : Core.Hw.Designspace.point) ->
              P.Prepared.project prepared pt.p_machine)
            pts)
    in
    List.iter2
      (fun (pt : Core.Hw.Designspace.point) (o : P.Prepared.outcome) ->
        let top =
          match o.P.Prepared.o_blocks with
          | b :: _ ->
            Fmt.str "#1 %s (%s)" b.Blockstat.name
              (Core.Hw.Roofline.bound_label b.Blockstat.bound)
          | [] -> "-"
        in
        Fmt.pr "  %8s -> %10.3f ms | %s@." pt.p_tag
          (o.P.Prepared.o_total_time *. 1e3)
          top)
      pts outcomes
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Explore one hardware design axis analytically")
    Term.(
      const run $ workload_arg $ machine_arg $ axis_arg $ values_arg
      $ trace_arg)

let cmd_explore =
  let module J = Core.Report.Json in
  let module Explore = Skope_explore.Explore in
  let sample_arg =
    let doc = "Latin-hypercube sample this many grid points instead of the \
               full cartesian product." in
    Arg.(value & opt (some int) None & info [ "sample" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Sampling seed (with --sample)." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let jobs_arg =
    let doc = "Worker domains for grid evaluation (0: one per core)." in
    Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"J" ~doc)
  in
  let json_of_point (p : Explore.point) =
    let tc, tm, ov = Explore.split p.Explore.outcome in
    J.Obj
      [
        ("tag", J.String p.Explore.tag);
        ( "values",
          J.Obj (List.map (fun (k, v) -> (k, J.Float v)) p.Explore.values) );
        ("total_ms", J.Float (p.Explore.time *. 1e3));
        ( "split",
          J.Obj
            [
              ("tc_ms", J.Float (tc *. 1e3));
              ("tm_ms", J.Float (tm *. 1e3));
              ("to_ms", J.Float (ov *. 1e3));
            ] );
        ("cost", J.Float p.Explore.cost);
      ]
  in
  let run workload machine scale axes sample seed jobs coverage leanness
      format trace =
    with_trace trace ~root:"explore" @@ fun () ->
    if axes = [] then begin
      Fmt.epr "nothing to explore: give at least one --axis KEY=V1,V2,...@.";
      exit 2
    end;
    let axes = List.map parse_axis_spec axes in
    (match Core.Hw.Designspace.distinct axes with
    | Ok () -> ()
    | Error msg ->
      Fmt.epr "%s@." msg;
      exit 2);
    let w = lookup_workload workload in
    let base = lookup_machine machine in
    let scale = Option.value ~default:w.default_scale scale in
    let criteria =
      { Hotspot.time_coverage = coverage; code_leanness = leanness }
    in
    let pts = Explore.grid_points ?sample ~seed base axes in
    let jobs =
      if jobs > 0 then jobs
      else min (Domain.recommended_domain_count ()) (List.length pts)
    in
    (* The machine-independent prefix runs exactly once; every grid
       point below only re-prices the shared BET. *)
    let prepared = P.Prepared.create ~workload:w ~scale () in
    let on_point =
      match format with
      | `Ndjson ->
        Some
          (fun p ->
            print_endline (J.to_string (json_of_point p));
            flush stdout)
      | `Text | `Json -> None
    in
    let r =
      finite_or_exit ~what:(point_of_machine pts) (fun () ->
          Explore.evaluate ~jobs ~criteria ?on_point prepared pts)
    in
    let pareto_tags =
      List.map (fun (p : Explore.point) -> p.Explore.tag) r.Explore.pareto
    in
    match format with
    | `Ndjson ->
      print_endline
        (J.to_string
           (J.Obj
              [
                ("points", J.Int (List.length r.Explore.points));
                ("pareto", J.List (List.map (fun t -> J.String t) pareto_tags));
                ("elapsed_ms", J.Float (r.Explore.elapsed *. 1e3));
              ]))
    | `Json ->
      print_endline
        (J.to_string
           (J.Obj
              [
                ("workload", J.String w.name);
                ("machine", J.String base.name);
                ( "axes",
                  J.List
                    (List.map
                       (fun a ->
                         J.String (Core.Hw.Designspace.axis_key a))
                       axes) );
                ( "points",
                  J.List (List.map json_of_point r.Explore.points) );
                ("pareto", J.List (List.map (fun t -> J.String t) pareto_tags));
                ("elapsed_ms", J.Float (r.Explore.elapsed *. 1e3));
              ]))
    | `Text ->
      let rows =
        List.map
          (fun (p : Explore.point) ->
            let tc, tm, ov = Explore.split p.Explore.outcome in
            [
              p.Explore.tag;
              Fmt.str "%.4g" (p.Explore.time *. 1e3);
              Fmt.str "%.4g" (tc *. 1e3);
              Fmt.str "%.4g" (tm *. 1e3);
              Fmt.str "%.4g" (ov *. 1e3);
              Fmt.str "%.1f" p.Explore.cost;
              (if List.mem p.Explore.tag pareto_tags then "*" else "");
            ])
          r.Explore.points
      in
      Table.print
        (Table.make
           ~title:
             (Fmt.str "%s on %s: %d-point design space" w.name base.name
                (List.length r.Explore.points))
           ~headers:[ "point"; "ms"; "Tc"; "Tm"; "To"; "cost"; "pareto" ]
           ~aligns:Table.[ Left; Right; Right; Right; Right; Right; Left ]
           rows);
      Fmt.pr
        "@.%d points priced against one BET (%d nodes) with %d domain%s in \
         %.0f ms; pareto: %s@."
        (List.length r.Explore.points)
        (P.Prepared.built prepared).Core.Bet.Build.node_count jobs
        (if jobs = 1 then "" else "s")
        (r.Explore.elapsed *. 1e3)
        (String.concat ", " pareto_tags)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Explore a multi-axis hardware design space against one shared BET \
          (build once, price per point) and report the Pareto frontier over \
          projected time and a hardware cost proxy")
    Term.(
      const run $ workload_arg $ machine_arg $ scale_arg $ axes_arg
      $ sample_arg $ seed_arg $ jobs_arg $ coverage_arg
      $ leanness_arg $ format_stream_arg $ trace_arg)

let cmd_nodes =
  let ranks_arg =
    let doc = "Comma-separated rank counts." in
    Arg.(
      value
      & opt string "1,2,4,8,16,32,64,128"
      & info [ "ranks" ] ~docv:"P1,P2,.." ~doc)
  in
  let network_arg =
    let doc = "Interconnect: torus, infiniband, ethernet." in
    Arg.(value & opt string "torus" & info [ "network" ] ~docv:"NET" ~doc)
  in
  let run machine scale ranks network =
    let w = lookup_workload "sord" in
    let m = lookup_machine machine in
    let scale = Option.value ~default:w.default_scale scale in
    let network =
      match String.lowercase_ascii network with
      | "torus" -> Core.Multinode.Network.bgq_torus
      | "infiniband" | "ib" -> Core.Multinode.Network.infiniband
      | "ethernet" | "eth" -> Core.Multinode.Network.ethernet
      | other ->
        Fmt.epr "unknown network %S@." other;
        exit 2
    in
    let ranks =
      String.split_on_char ',' ranks |> List.filter_map int_of_string_opt
    in
    let a = P.analyze ~machine:m ~workload:w ~scale () in
    let _, inputs = w.make ~scale in
    let dim name =
      match List.assoc_opt name inputs with
      | Some v -> int_of_float (Core.Bet.Value.to_float v)
      | None -> 1
    in
    let spec =
      Core.Multinode.Project.sord_spec ~nx:(dim "nx") ~ny:(dim "ny")
        ~nz:(dim "nz") ~steps:(dim "nt")
    in
    let s =
      Core.Multinode.Project.strong_scaling ~spec ~network
        ~t_single:a.P.a_projection.total_time ~ranks_list:ranks ()
    in
    Fmt.pr "SORD strong scaling on %s over %a:@." m.name
      Core.Multinode.Network.pp network;
    List.iter
      (fun p -> Fmt.pr "  %a@." Core.Multinode.Project.pp_point p)
      s.points
  in
  Cmd.v
    (Cmd.info "nodes" ~doc:"Multi-node strong-scaling projection (SORD)")
    Term.(const run $ machine_arg $ scale_arg $ ranks_arg $ network_arg)

let cmd_serve =
  let port_arg =
    let doc = "TCP port to listen on (0 picks an ephemeral port)." in
    Arg.(value & opt int 7777 & info [ "p"; "port" ] ~docv:"PORT" ~doc)
  in
  let host_arg =
    let doc = "Address to bind." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)
  in
  let pool_arg =
    let doc = "Worker domains (default: cores - 1)." in
    Arg.(value & opt (some int) None & info [ "pool" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc = "Bounded work-queue capacity." in
    Arg.(value & opt int 128 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let cache_arg =
    let doc = "Projection-cache capacity (LRU entries)." in
    Arg.(value & opt int 4096 & info [ "cache" ] ~docv:"N" ~doc)
  in
  let sock_timeout_arg =
    let doc =
      "Per-connection socket read/write deadline, seconds; also how long \
       a connection may sit idle between requests."
    in
    Arg.(value & opt float 10. & info [ "sock-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let fault_inject_arg =
    let doc =
      "Arm fault injection, e.g. \
       $(b,drop=0.3,delay_p=0.2,delay_ms=50,overload=0.1,truncate=0.05) \
       (probabilities per request).  For resilience testing only."
    in
    Arg.(
      value & opt (some string) None & info [ "fault-inject" ] ~docv:"SPEC" ~doc)
  in
  let fault_seed_arg =
    let doc = "Seed for the fault-injection decision stream." in
    Arg.(value & opt int 42 & info [ "fault-seed" ] ~docv:"N" ~doc)
  in
  let cluster_arg =
    let doc =
      "Run an in-process cluster: N skoped shards on ephemeral ports plus a \
       cache-affinity router on --port."
    in
    Arg.(value & opt int 0 & info [ "cluster" ] ~docv:"N" ~doc)
  in
  let run port host pool queue cache sock_timeout fault_spec fault_seed cluster =
    let module S = Skope_service.Server in
    let module F = Skope_service.Faults in
    let faults =
      match fault_spec with
      | None -> None
      | Some spec -> (
        match F.spec_of_string spec with
        | Ok s -> Some (F.create ~seed:fault_seed s)
        | Error msg ->
          Fmt.epr "skope serve: bad --fault-inject: %s@." msg;
          exit 2)
    in
    if cluster > 0 then begin
      if faults <> None then begin
        Fmt.epr
          "skope serve: --fault-inject only applies to a single skoped; fault \
           a shard directly instead@.";
        exit 2
      end;
      let module Local = Skope_cluster.Local in
      let stop = Atomic.make false in
      let on_signal = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
      ignore (Sys.signal Sys.sigint on_signal);
      ignore (Sys.signal Sys.sigterm on_signal);
      match
        Local.start ~stop ~host ~router_port:port ~shards:cluster
          ?shard_pool:pool ~shard_queue:queue ~cache_capacity:cache ()
      with
      | exception Failure msg ->
        Fmt.epr "skope serve: %s@." msg;
        exit 1
      | exception Unix.Unix_error (e, fn, _) ->
        Fmt.epr "skope serve: %s (%s %s:%d)@." (Unix.error_message e) fn host
          port;
        exit 1
      | c ->
        let ids = Local.shard_ids c and ports = Local.shard_ports c in
        Array.iteri
          (fun i id -> Fmt.pr "shard %s on %s:%d@." id host ports.(i))
          ids;
        Fmt.pr "skoped cluster router listening on %s:%d (%d shards)@." host
          (Local.router_port c) cluster;
        Local.join c;
        exit 0
    end;
    let config =
      {
        S.net =
          {
            S.n_host = host;
            n_port = port;
            n_pool = Option.value ~default:S.default_net.S.n_pool pool;
            n_queue_capacity = queue;
            n_read_timeout_s = sock_timeout;
            n_write_timeout_s = sock_timeout;
          };
        faults;
        dispatch = { Skope_service.Dispatch.cache_capacity = cache };
      }
    in
    try S.run config with
    | Failure msg ->
      Fmt.epr "skope serve: %s@." msg;
      exit 1
    | Unix.Unix_error (e, fn, _) ->
      Fmt.epr "skope serve: %s (%s %s:%d)@." (Unix.error_message e) fn host
        port;
      exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run skoped: serve analyze/sweep/catalog/stats queries over \
          JSON-over-TCP with a domain worker pool, a projection cache, load \
          shedding and optional fault injection")
    Term.(
      const run $ port_arg $ host_arg $ pool_arg $ queue_arg $ cache_arg
      $ sock_timeout_arg $ fault_inject_arg $ fault_seed_arg $ cluster_arg)

let cmd_route =
  let module Router = Skope_cluster.Router in
  let shards_arg =
    let doc =
      "A shard to route to, as HOST:PORT, PORT, or ID=HOST:PORT (repeatable; \
       ids default to s0, s1, ... in flag order)."
    in
    Arg.(value & opt_all string [] & info [ "shard" ] ~docv:"SPEC" ~doc)
  in
  let port_arg =
    let doc = "TCP port the router listens on (0 picks an ephemeral port)." in
    Arg.(value & opt int 7878 & info [ "p"; "port" ] ~docv:"PORT" ~doc)
  in
  let host_arg =
    let doc = "Address to bind." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)
  in
  let pool_arg =
    let doc = "Router worker domains." in
    Arg.(value & opt int 4 & info [ "pool" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc = "Bounded work-queue capacity." in
    Arg.(value & opt int 128 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let vnodes_arg =
    let doc = "Virtual nodes per shard on the hash ring." in
    Arg.(value & opt int 128 & info [ "vnodes" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Ring placement seed (same seed, same placement)." in
    Arg.(value & opt int 42 & info [ "ring-seed" ] ~docv:"SEED" ~doc)
  in
  let probe_arg =
    let doc = "Health-probe interval, milliseconds." in
    Arg.(value & opt float 2000. & info [ "probe-interval-ms" ] ~docv:"MS" ~doc)
  in
  let fall_arg =
    let doc = "Consecutive failures before a shard is ejected." in
    Arg.(value & opt int 3 & info [ "fall" ] ~docv:"N" ~doc)
  in
  let rise_arg =
    let doc = "Consecutive probe successes before readmission." in
    Arg.(value & opt int 2 & info [ "rise" ] ~docv:"N" ~doc)
  in
  let load_factor_arg =
    let doc =
      "Bounded-load factor: divert a key when its owner carries more than \
       FACTOR times the mean in-flight load (0 disables)."
    in
    Arg.(value & opt float 1.25 & info [ "load-factor" ] ~docv:"FACTOR" ~doc)
  in
  let parse_member i spec =
    let fail () =
      Fmt.epr "skope route: invalid --shard %S (expected HOST:PORT, PORT or \
               ID=HOST:PORT)@." spec;
      exit 2
    in
    let id, addr =
      match String.index_opt spec '=' with
      | Some j ->
        ( String.sub spec 0 j,
          String.sub spec (j + 1) (String.length spec - j - 1) )
      | None -> (Printf.sprintf "s%d" i, spec)
    in
    let host, port_s =
      match String.rindex_opt addr ':' with
      | Some j ->
        ( String.sub addr 0 j,
          String.sub addr (j + 1) (String.length addr - j - 1) )
      | None -> ("127.0.0.1", addr)
    in
    match int_of_string_opt port_s with
    | Some port when port > 0 && id <> "" && host <> "" ->
      { Router.m_id = id; m_host = host; m_port = port }
    | _ -> fail ()
  in
  let run shards port host pool queue vnodes ring_seed probe_ms fall rise
      load_factor =
    if shards = [] then begin
      Fmt.epr "skope route: no shards (give at least one --shard HOST:PORT)@.";
      exit 2
    end;
    let members = List.mapi parse_member shards in
    let config =
      {
        Router.default_config with
        Router.net =
          {
            Router.default_config.Router.net with
            Skope_service.Server.n_host = host;
            n_port = port;
            n_pool = pool;
            n_queue_capacity = queue;
          };
        members;
        vnodes;
        ring_seed;
        probe_interval_s = probe_ms /. 1e3;
        health = { Skope_cluster.Health.fall; rise };
        load_factor;
      }
    in
    match Router.run config with
    | () -> ()
    | exception Invalid_argument msg ->
      Fmt.epr "skope route: %s@." msg;
      exit 2
    | exception Failure msg ->
      Fmt.epr "skope route: %s@." msg;
      exit 1
    | exception Unix.Unix_error (e, fn, _) ->
      Fmt.epr "skope route: %s (%s %s:%d)@." (Unix.error_message e) fn host
        port;
      exit 1
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Run the cluster router: forward queries to skoped shards by \
          projection fingerprint over a consistent-hash ring, with health \
          probes, ejection and failover")
    Term.(
      const run $ shards_arg $ port_arg $ host_arg $ pool_arg $ queue_arg
      $ vnodes_arg $ seed_arg $ probe_arg $ fall_arg $ rise_arg
      $ load_factor_arg)

let cmd_query =
  let module J = Core.Report.Json in
  let port_arg =
    let doc = "Server port." in
    Arg.(value & opt int 7777 & info [ "p"; "port" ] ~docv:"PORT" ~doc)
  in
  let host_arg =
    let doc = "Server address." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)
  in
  let kind_arg =
    let doc =
      "Request kind: analyze, sweep, explore, lint, workloads, machines, \
       stats, metrics_prom, version, capabilities, cluster_stats (router \
       only), recent (flight-recorder readback), trace (one request's span \
       tree; needs --trace-id)."
    in
    Arg.(value & opt string "analyze" & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let stats_flag =
    let doc =
      "Fetch server stats and render the per-phase latency breakdown as a \
       table (shorthand for --kind stats plus formatting)."
    in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let axis_arg =
    let doc = "Sweep axis: bw, lat, vec, issue, freq, l2, div." in
    Arg.(value & opt string "bw" & info [ "axis" ] ~docv:"AXIS" ~doc)
  in
  let values_arg =
    let doc = "Comma-separated sweep values." in
    Arg.(value & opt string "1,2,4,8" & info [ "values" ] ~docv:"V1,V2,.." ~doc)
  in
  let axes_arg =
    let doc =
      "Explore axis as KEY=V1,V2,... (repeatable; for --kind explore)."
    in
    Arg.(value & opt_all string [] & info [ "axes" ] ~docv:"KEY=V1,V2,.." ~doc)
  in
  let sample_arg =
    let doc = "Latin-hypercube sample size for --kind explore." in
    Arg.(value & opt (some int) None & info [ "sample" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Sampling seed for --kind explore." in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let override_arg =
    let doc = "Machine-parameter override KEY=VALUE (repeatable)." in
    Arg.(value & opt_all string [] & info [ "O"; "override" ] ~docv:"K=V" ~doc)
  in
  let timeout_arg =
    let doc = "Per-request deadline in milliseconds." in
    Arg.(value & opt (some float) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)
  in
  let body_arg =
    let doc = "Send this raw JSON body instead of building one from flags." in
    Arg.(value & opt (some string) None & info [ "body" ] ~docv:"JSON" ~doc)
  in
  let trace_id_arg =
    let doc =
      "Propagate this trace id with the request (the server adopts it \
       instead of minting one, and echoes it in the response); with --kind \
       trace, the id to look up in the flight recorder."
    in
    Arg.(value & opt (some string) None & info [ "trace-id" ] ~docv:"ID" ~doc)
  in
  let chrome_arg =
    let doc =
      "With --kind trace: also write the merged result as Chrome \
       trace_event JSON to $(docv) (load it in chrome://tracing or \
       Perfetto)."
    in
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE" ~doc)
  in
  let last_arg =
    let doc = "With --kind recent: how many records to return." in
    Arg.(value & opt int 20 & info [ "last" ] ~docv:"N" ~doc)
  in
  let errors_only_arg =
    let doc = "With --kind recent: only failed requests." in
    Arg.(value & flag & info [ "errors-only" ] ~doc)
  in
  let min_ms_arg =
    let doc = "With --kind recent: only requests at least this slow." in
    Arg.(value & opt (some float) None & info [ "min-ms" ] ~docv:"MS" ~doc)
  in
  let repeat_arg =
    let doc = "Send the request N times (load-generator mode when > 1)." in
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N" ~doc)
  in
  let corpus_arg =
    let doc =
      "Replay a generated corpus (a directory written by $(b,skope gen \
       --out)) as load-generator traffic: one --kind lint or audit request \
       per skeleton, cycled round-robin.  --repeat defaults to one pass \
       over the corpus."
    in
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR" ~doc)
  in
  let concurrency_arg =
    let doc = "Client threads for load-generator mode." in
    Arg.(value & opt int 1 & info [ "concurrency" ] ~docv:"K" ~doc)
  in
  let retries_arg =
    let doc =
      "Retry budget per request (0 disables retries).  Retries use capped \
       exponential backoff with seeded jitter and honor the server's \
       retry_after_ms hint on overloaded responses."
    in
    Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let retry_base_arg =
    let doc = "First backoff step, milliseconds." in
    Arg.(value & opt float 50. & info [ "retry-base-ms" ] ~docv:"MS" ~doc)
  in
  let retry_max_arg =
    let doc = "Backoff cap, milliseconds." in
    Arg.(value & opt float 2000. & info [ "retry-max-ms" ] ~docv:"MS" ~doc)
  in
  let retry_seed_arg =
    let doc = "Backoff jitter seed (same seed, same schedule)." in
    Arg.(value & opt int 42 & info [ "retry-seed" ] ~docv:"N" ~doc)
  in
  let connect_timeout_arg =
    let doc = "TCP connect deadline, milliseconds." in
    Arg.(
      value & opt float 5000. & info [ "connect-timeout-ms" ] ~docv:"MS" ~doc)
  in
  let io_timeout_arg =
    let doc = "Socket read/write deadline, milliseconds." in
    Arg.(value & opt float 30000. & info [ "io-timeout-ms" ] ~docv:"MS" ~doc)
  in
  (* Typed request construction: a missing or misspelled field is
     caught here instead of coming back as a server error.  The --body
     flag below remains the raw-JSON escape hatch. *)
  let build_body kind workload machine scale top coverage leanness axis values
      axes sample seed overrides timeout_ms trace_id last errors_only min_ms =
    let module A = Skope_service.Service_api in
    let overrides =
      List.map
        (fun spec ->
          match String.index_opt spec '=' with
          | Some i -> (
            let k = String.sub spec 0 i in
            let v = String.sub spec (i + 1) (String.length spec - i - 1) in
            match float_of_string_opt v with
            | Some f -> (k, f)
            | None ->
              Fmt.epr "invalid override %S (expected KEY=NUMBER)@." spec;
              exit 2)
          | None ->
            Fmt.epr "invalid override %S (expected KEY=NUMBER)@." spec;
            exit 2)
        overrides
    in
    let opts = { A.scale; top; coverage; leanness; overrides } in
    let axis_spec spec =
      match String.index_opt spec '=' with
      | Some i ->
        ( String.sub spec 0 i,
          parse_values (String.sub spec (i + 1) (String.length spec - i - 1))
        )
      | None ->
        Fmt.epr "invalid axis %S (expected KEY=V1,V2,...)@." spec;
        exit 2
    in
    let request =
      match kind with
      | "analyze" -> A.analyze ~opts ~workload ~machine ()
      | "sweep" ->
        A.sweep ~opts ~workload ~machine ~axis ~values:(parse_values values) ()
      | "explore" ->
        if axes = [] then begin
          Fmt.epr "--kind explore needs at least one --axes KEY=V1,V2,...@.";
          exit 2
        end;
        A.explore ~opts ?sample ?seed ~workload ~machine
          ~axes:(List.map axis_spec axes) ()
      | "lint" -> A.lint_workload workload
      | "workloads" -> A.Workloads
      | "machines" -> A.Machines
      | "stats" -> A.Stats
      | "metrics_prom" -> A.Metrics_prom
      | "version" -> A.Version
      | "capabilities" -> A.Capabilities
      | "cluster_stats" -> A.Cluster_stats
      | "recent" -> A.recent ~n:last ~errors_only ?min_ms ()
      | "trace" -> (
        match trace_id with
        | Some id -> A.trace ~id ()
        | None ->
          Fmt.epr "--kind trace needs --trace-id ID@.";
          exit 2)
      | other ->
        Fmt.epr "unknown request kind %S@." other;
        exit 2
    in
    (* A trace *lookup* must not adopt the id it is looking up: the
       lookup's own record would shadow the target in the recorder. *)
    let trace_id = if kind = "trace" then None else trace_id in
    A.to_body ?timeout_ms ?trace_id request
  in
  (* Render the stats response's per-phase histograms as a table. *)
  let print_stats response =
    match J.of_string response with
    | Ok r when J.member "ok" r = Some (J.Bool true) ->
      let result = Option.value ~default:(J.Obj []) (J.member "result" r) in
      let metrics = Option.value ~default:(J.Obj []) (J.member "metrics" result) in
      let int_of key json =
        Option.bind (J.member key json) J.to_int_opt |> Option.value ~default:0
      in
      let num_of key json =
        Option.bind (J.member key json) J.to_float_opt
        |> Option.value ~default:0.
      in
      let phases =
        match J.member "phases" metrics with
        | Some (J.List ps) -> ps
        | _ -> []
      in
      let rows =
        List.map
          (fun p ->
            let str key =
              Option.bind (J.member key p) J.to_string_opt
              |> Option.value ~default:"?"
            in
            let ms key = Fmt.str "%.3f" (num_of key p) in
            [
              str "phase"; string_of_int (int_of "count" p); ms "total_ms";
              ms "p50_ms"; ms "p95_ms"; ms "p99_ms";
            ])
          phases
      in
      Table.print
        (Table.make ~title:"Per-phase latency (ms)"
           ~headers:[ "phase"; "count"; "total"; "p50"; "p95"; "p99" ]
           ~aligns:Table.[ Left; Right; Right; Right; Right; Right ]
           rows);
      Fmt.pr "@.requests: %d | cache hit rate: %.1f%% | request p95: %.3f ms@."
        (int_of "total_requests" metrics)
        (100. *. num_of "cache_hit_rate" metrics)
        (num_of "latency_p95_ms" metrics);
      (* Reliability counters (shed, timed out, injected faults, ...)
         ride the same stats response. *)
      (match J.member "counters" metrics with
      | Some (J.Obj ((_ :: _) as counters)) ->
        Fmt.pr "counters: %a@."
          Fmt.(
            list ~sep:(any " | ") (fun ppf (k, v) ->
                pf ppf "%s: %.0f" k
                  (Option.value ~default:0. (J.to_float_opt v))))
          counters
      | _ -> ())
    | _ ->
      Fmt.pr "%s@." response;
      exit 1
  in
  (* metrics_prom wraps the exposition in JSON transport; print the
     decoded body so the output pipes straight into promtool. *)
  let print_metrics_prom response =
    match J.of_string response with
    | Ok r when J.member "ok" r = Some (J.Bool true) ->
      (match
         Option.bind (J.member "result" r) (J.member "body")
         |> Fun.flip Option.bind J.to_string_opt
       with
      | Some prom_body -> print_string prom_body
      | None ->
        Fmt.pr "%s@." response;
        exit 1)
    | _ ->
      Fmt.pr "%s@." response;
      exit 1
  in
  (* With --kind trace --chrome FILE, convert the merged trace result
     into a Chrome trace_event file spanning every process. *)
  let write_chrome file response =
    let fail msg =
      Fmt.epr "skope query: %s@." msg;
      exit 1
    in
    match J.of_string response with
    | Ok r -> (
      match J.member "result" r with
      | Some result -> (
        match Skope_service.Traceview.chrome_of_trace result with
        | Ok text ->
          let oc = open_out file in
          output_string oc text;
          close_out oc;
          Fmt.epr "wrote Chrome trace to %s@." file
        | Error msg -> fail msg)
      | None -> fail "trace response has no result to export")
    | Error msg -> fail msg
  in
  let run host port kind workload machine scale top coverage leanness axis
      values axes sample seed overrides timeout_ms body repeat concurrency stats
      retries retry_base_ms retry_max_ms retry_seed connect_timeout_ms
      io_timeout_ms trace_id chrome last errors_only min_ms corpus =
    let kind = if stats then "stats" else kind in
    (* Built lazily: in --corpus mode the flag-derived single body is
       never sent (and may not even be constructible, e.g. no
       --workload). *)
    let body () =
      match body with
      | Some b -> b
      | None ->
        build_body kind workload machine scale top coverage leanness axis
          values axes sample seed overrides timeout_ms trace_id last
          errors_only min_ms
    in
    (* A corpus replays every generated skeleton as an inline-source
       request — the server has never seen these workloads, so only
       the source-carrying kinds make sense. *)
    let corpus_bodies =
      match corpus with
      | None -> None
      | Some dir -> (
        let module A = Skope_service.Service_api in
        let request_of_source src =
          match kind with
          | "lint" -> A.lint_source src
          | "audit" -> A.audit_source src
          | other ->
            Fmt.epr
              "--corpus replays inline sources; use --kind lint or audit \
               (got %S)@."
              other;
            exit 2
        in
        match Skope_gen.Corpus.read_manifest ~dir with
        | Error msg ->
          Fmt.epr "skope query: %s@." msg;
          exit 2
        | Ok [] ->
          Fmt.epr "skope query: corpus %s is empty@." dir;
          exit 2
        | Ok cases ->
          let body_of (file, _, _) =
            let path = Filename.concat dir file in
            match In_channel.with_open_bin path In_channel.input_all with
            | src -> A.to_body ?timeout_ms (request_of_source src)
            | exception Sys_error msg ->
              Fmt.epr "skope query: %s@." msg;
              exit 2
          in
          Some (Array.of_list (List.map body_of cases)))
    in
    let module C = Skope_service.Client in
    let timeouts =
      {
        C.connect_s = connect_timeout_ms /. 1e3;
        read_s = io_timeout_ms /. 1e3;
        write_s = io_timeout_ms /. 1e3;
      }
    in
    let retry =
      {
        C.attempts = max 0 retries;
        base_ms = retry_base_ms;
        max_ms = retry_max_ms;
        seed = retry_seed;
      }
    in
    if corpus_bodies = None && repeat <= 1 then
      match C.request ~timeouts ~retry ~host ~port (body ()) with
      | Error e ->
        Fmt.epr "skope query: %a@." C.pp_error e;
        exit 1
      | Ok response when stats -> print_stats response
      | Ok response when kind = "metrics_prom" -> print_metrics_prom response
      | Ok response ->
        Fmt.pr "%s@." response;
        (match J.of_string response with
        | Ok r when J.member "ok" r = Some (J.Bool true) ->
          if kind = "trace" then Option.iter (fun f -> write_chrome f response) chrome
        | _ -> exit 1)
    else begin
      (* Against a cluster router every response names its shard; tally
         latency and retries per shard so affinity (and failover drift,
         and a slow shard) are visible per target. *)
      let shard_stats = Hashtbl.create 8 in
      let shard_lock = Mutex.create () in
      let on_result ~result ~latency_s ~retries =
        match result with
        | Error _ -> ()
        | Ok resp -> (
          match Skope_cluster.Router.shard_of_response resp with
          | None -> ()
          | Some shard ->
            Mutex.lock shard_lock;
            let lats, rets =
              match Hashtbl.find_opt shard_stats shard with
              | Some cell -> cell
              | None ->
                let cell = (ref [], ref 0) in
                Hashtbl.add shard_stats shard cell;
                cell
            in
            lats := latency_s :: !lats;
            rets := !rets + retries;
            Mutex.unlock shard_lock)
      in
      let report =
        match corpus_bodies with
        | Some bodies ->
          (* Default --repeat to one full pass over the corpus. *)
          let repeat = if repeat <= 1 then Array.length bodies else repeat in
          C.load_multi ~timeouts ~retry ~on_result ~host ~port ~repeat
            ~concurrency bodies
        | None ->
          C.load_multi ~timeouts ~retry ~on_result ~host ~port ~repeat
            ~concurrency [| body () |]
      in
      Fmt.pr "%a@." C.pp_load_report report;
      if Hashtbl.length shard_stats > 0 then begin
        let percentile sorted q =
          let n = Array.length sorted in
          if n = 0 then 0.
          else begin
            let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
            sorted.(min (n - 1) (max 0 (rank - 1)))
          end
        in
        let shards =
          Hashtbl.fold (fun s cell acc -> (s, cell) :: acc) shard_stats []
          |> List.sort compare
        in
        let total =
          List.fold_left
            (fun acc (_, (lats, _)) -> acc + List.length !lats)
            0 shards
        in
        let rows =
          List.map
            (fun (shard, (lats, rets)) ->
              let sorted = Array.of_list !lats in
              Array.sort Float.compare sorted;
              let n = Array.length sorted in
              [
                shard;
                string_of_int n;
                Fmt.str "%.1f%%" (100. *. float_of_int n /. float_of_int total);
                Fmt.str "%.3f" (percentile sorted 0.50 *. 1e3);
                Fmt.str "%.3f" (percentile sorted 0.95 *. 1e3);
                string_of_int !rets;
              ])
            shards
        in
        Table.print
          (Table.make ~title:"Per-shard latency (client-observed, ms)"
             ~headers:[ "shard"; "hits"; "share"; "p50"; "p95"; "retries" ]
             ~aligns:Table.[ Left; Right; Right; Right; Right; Right ]
             rows)
      end;
      if report.C.failures > 0 then exit 1
    end
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Query a running skoped with retries and deadlines; with --repeat N \
          --concurrency K, act as a load generator and report throughput, \
          retry volume and latency percentiles")
    Term.(
      const run $ host_arg $ port_arg $ kind_arg $ workload_arg $ machine_arg
      $ scale_arg $ top_arg $ coverage_arg $ leanness_arg $ axis_arg
      $ values_arg $ axes_arg $ sample_arg $ seed_arg $ override_arg
      $ timeout_arg $ body_arg $ repeat_arg $ concurrency_arg $ stats_flag
      $ retries_arg $ retry_base_arg $ retry_max_arg $ retry_seed_arg
      $ connect_timeout_arg $ io_timeout_arg $ trace_id_arg $ chrome_arg
      $ last_arg $ errors_only_arg $ min_ms_arg $ corpus_arg)

let cmd_top =
  let module J = Core.Report.Json in
  let module C = Skope_service.Client in
  let module A = Skope_service.Service_api in
  let port_arg =
    let doc = "Server (or router) port." in
    Arg.(value & opt int 7777 & info [ "p"; "port" ] ~docv:"PORT" ~doc)
  in
  let host_arg =
    let doc = "Server address." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)
  in
  let interval_arg =
    let doc = "Refresh interval, milliseconds." in
    Arg.(value & opt float 2000. & info [ "interval-ms" ] ~docv:"MS" ~doc)
  in
  let iterations_arg =
    let doc = "Stop after N frames (0: run until interrupted)." in
    Arg.(value & opt int 0 & info [ "n"; "iterations" ] ~docv:"N" ~doc)
  in
  let recent_arg =
    let doc = "How many recent slow/errored traces to show." in
    Arg.(value & opt int 8 & info [ "recent" ] ~docv:"N" ~doc)
  in
  let min_ms_arg =
    let doc =
      "Slow threshold for the recent-traces pane: show errors plus requests \
       at least this slow (0 shows everything)."
    in
    Arg.(value & opt float 0. & info [ "min-ms" ] ~docv:"MS" ~doc)
  in
  let int_of key json =
    Option.bind (J.member key json) J.to_int_opt |> Option.value ~default:0
  in
  let num_of key json =
    Option.bind (J.member key json) J.to_float_opt |> Option.value ~default:0.
  in
  let str_of key json =
    Option.bind (J.member key json) J.to_string_opt |> Option.value ~default:"?"
  in
  let run host port interval_ms iterations recent_n min_ms =
    let interval_s = Float.max 0.1 (interval_ms /. 1e3) in
    let timeouts =
      { C.connect_s = 2.; read_s = interval_s +. 5.; write_s = 5. }
    in
    (* One fetch per pane per frame; a missing pane (shard down, plain
       skoped without cluster_stats) renders as absent, not an error. *)
    let fetch body =
      match C.request ~timeouts ~retry:C.no_retry ~host ~port body with
      | Error _ -> None
      | Ok resp -> (
        match J.of_string resp with
        | Ok r when J.member "ok" r = Some (J.Bool true) -> J.member "result" r
        | _ -> None)
    in
    let stats_body = A.to_body A.Stats in
    let cluster_body = A.to_body A.Cluster_stats in
    let recent_body =
      A.to_body
        (A.recent ~n:recent_n
           ?min_ms:(if min_ms > 0. then Some min_ms else None)
           ())
    in
    (* QPS needs a delta: remember the last frame's request counters. *)
    let prev_total = ref None in
    let prev_forwarded : (string, int) Hashtbl.t = Hashtbl.create 8 in
    let qps_cell prev now =
      match prev with
      | Some p when now >= p ->
        Fmt.str "%.1f" (float_of_int (now - p) /. interval_s)
      | _ -> "-"
    in
    let render_server stats =
      match stats with
      | None -> Fmt.pr "server: (stats unavailable)@."
      | Some result ->
        let metrics =
          Option.value ~default:(J.Obj []) (J.member "metrics" result)
        in
        let total = int_of "total_requests" metrics in
        Fmt.pr
          "server: %d requests | %s req/s | cache hit %.1f%% | p95 %.3f ms@."
          total
          (qps_cell !prev_total total)
          (100. *. num_of "cache_hit_rate" metrics)
          (num_of "latency_p95_ms" metrics);
        prev_total := Some total;
        (match J.member "counters" metrics with
        | Some (J.Obj ((_ :: _) as counters)) ->
          Fmt.pr "counters: %a@."
            Fmt.(
              list ~sep:(any " | ") (fun ppf (k, v) ->
                  pf ppf "%s: %.0f" k
                    (Option.value ~default:0. (J.to_float_opt v))))
            counters
        | _ -> ())
    in
    let render_cluster cluster =
      match cluster with
      | None -> ()
      | Some result ->
        Fmt.pr "@.cluster: %d/%d shards healthy@." (int_of "healthy" result)
          (int_of "shards" result);
        let members =
          match J.member "members" result with
          | Some (J.List ms) -> ms
          | _ -> []
        in
        let rows =
          List.map
            (fun m ->
              let id = str_of "id" m in
              let fwd = int_of "forwarded" m in
              let qps = qps_cell (Hashtbl.find_opt prev_forwarded id) fwd in
              Hashtbl.replace prev_forwarded id fwd;
              (* Per-shard hit rate and p95 come from the shard's own
                 stats, forwarded inside the cluster_stats answer. *)
              let hit, p95 =
                match
                  Option.bind (J.member "stats" m) (J.member "metrics")
                with
                | Some sm ->
                  ( Fmt.str "%.1f%%" (100. *. num_of "cache_hit_rate" sm),
                    Fmt.str "%.3f" (num_of "latency_p95_ms" sm) )
                | None -> ("-", "-")
              in
              [
                id; str_of "state" m; string_of_int (int_of "in_flight" m);
                string_of_int fwd; qps; hit; p95;
                string_of_int (int_of "failovers" m);
                string_of_int (int_of "errors" m);
              ])
            members
        in
        Table.print
          (Table.make ~title:""
             ~headers:
               [
                 "shard"; "state"; "inflight"; "fwd"; "qps"; "hit"; "p95 ms";
                 "failover"; "errors";
               ]
             ~aligns:
               Table.
                 [
                   Left; Left; Right; Right; Right; Right; Right; Right; Right;
                 ]
             rows)
    in
    let render_recent recent =
      match recent with
      | None -> ()
      | Some result ->
        let records =
          match J.member "records" result with
          | Some (J.List rs) -> rs
          | _ -> []
        in
        Fmt.pr "@.recent (%d of last %d):@." (List.length records)
          (int_of "capacity" result);
        let rows =
          List.map
            (fun r ->
              [
                str_of "trace_id" r; str_of "kind" r; str_of "outcome" r;
                Fmt.str "%.3f" (num_of "duration_ms" r);
                (match J.member "shard" r with
                | Some (J.String s) -> s
                | _ -> "-");
                string_of_int (int_of "retries" r);
              ])
            records
        in
        Table.print
          (Table.make ~title:""
             ~headers:
               [ "trace_id"; "kind"; "outcome"; "ms"; "shard"; "retries" ]
             ~aligns:Table.[ Left; Left; Left; Right; Left; Right ]
             rows)
    in
    let rec loop frame =
      (* Clear from the second frame on: single-shot output (smoke, CI)
         stays pipeable, a live session repaints in place. *)
      if frame > 1 then Fmt.pr "\027[2J\027[H";
      let stats = fetch stats_body in
      let cluster = fetch cluster_body in
      let recent = fetch recent_body in
      Fmt.pr "skope top — %s:%d — frame %d@." host port frame;
      (match (stats, cluster, recent) with
      | None, None, None ->
        Fmt.epr "skope top: no response from %s:%d@." host port;
        exit 1
      | _ -> ());
      render_server stats;
      render_cluster cluster;
      render_recent recent;
      Fmt.pr "@?";
      if iterations = 0 || frame < iterations then begin
        Thread.delay interval_s;
        loop (frame + 1)
      end
    in
    loop 1
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard over a running skoped or cluster router: polls \
          stats, cluster_stats and the flight recorder to show per-shard \
          QPS, hit rate, p95, health state and the last slow/errored traces")
    Term.(
      const run $ host_arg $ port_arg $ interval_arg $ iterations_arg
      $ recent_arg $ min_ms_arg)

(* --- gen + fuzz ------------------------------------------------------ *)

module G = Skope_gen.Gen
module GA = Skope_gen.Archetype
module GC = Skope_gen.Corpus
module GF = Skope_gen.Fuzzcheck

let gen_seed_arg =
  let doc = "Generator master seed (SplitMix64); same seed, same corpus." in
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc)

let gen_count_arg default =
  let doc = "Number of skeletons to generate." in
  Arg.(value & opt int default & info [ "n"; "count" ] ~docv:"N" ~doc)

let gen_jobs_arg =
  let doc =
    "Worker domains.  Output is byte-identical for every value: each case \
     derives its own stream from (seed, index)."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"K" ~doc)

let archetype_conv =
  Arg.conv
    ( (fun s ->
        match GA.of_string s with Ok a -> Ok a | Error e -> Error (`Msg e)),
      fun ppf a -> Fmt.string ppf (GA.to_string a) )

let gen_archetype_arg =
  let doc =
    "Force one archetype (compute, memory, branchy, comm) instead of \
     drawing from --mix.  Note the forced stream differs from a mixed \
     corpus that happened to draw the same archetype."
  in
  Arg.(
    value & opt (some archetype_conv) None & info [ "archetype" ] ~docv:"NAME" ~doc)

let range_conv what =
  Arg.conv
    ( (fun s ->
        let bad () = Error (`Msg (what ^ ": expected LO:HI integers, LO <= HI")) in
        match String.split_on_char ':' s with
        | [ lo; hi ] -> (
          match (int_of_string_opt lo, int_of_string_opt hi) with
          | Some lo, Some hi when lo <= hi -> Ok (lo, hi)
          | _ -> bad ())
        | _ -> bad ()),
      fun ppf (lo, hi) -> Fmt.pf ppf "%d:%d" lo hi )

let mix_conv =
  Arg.conv
    ( (fun s ->
        match GA.mix_of_string s with Ok m -> Ok m | Error e -> Error (`Msg e)),
      GA.pp_mix )

let gen_config_term =
  let d = G.default in
  let depth_arg =
    let doc = "Max loop/branch nesting below a function body." in
    Arg.(value & opt int d.G.depth & info [ "depth" ] ~docv:"D" ~doc)
  in
  let stmts_arg =
    let doc = "Max statements drawn per block." in
    Arg.(value & opt int d.G.max_stmts & info [ "stmts" ] ~docv:"N" ~doc)
  in
  let funcs_arg =
    let doc = "Max helper functions per program." in
    Arg.(value & opt int d.G.funcs & info [ "funcs" ] ~docv:"N" ~doc)
  in
  let ranks_arg =
    let doc = "Max rank count for comm skeletons (rounded up to even)." in
    Arg.(value & opt int d.G.ranks & info [ "ranks" ] ~docv:"P" ~doc)
  in
  let trips_arg =
    let doc = "Literal loop-trip range." in
    Arg.(
      value
      & opt (range_conv "--trips") (d.G.trip_lo, d.G.trip_hi)
      & info [ "trips" ] ~docv:"LO:HI" ~doc)
  in
  let sizes_arg =
    let doc = "Range of the $(b,n) input (array extents)." in
    Arg.(
      value
      & opt (range_conv "--sizes") (d.G.size_lo, d.G.size_hi)
      & info [ "sizes" ] ~docv:"LO:HI" ~doc)
  in
  let mix_arg =
    let doc =
      "Archetype weights for mixed corpora, e.g. \
       $(b,compute=4,memory=3,branchy=2,comm=1)."
    in
    Arg.(value & opt mix_conv d.G.mix & info [ "mix" ] ~docv:"A=W,.." ~doc)
  in
  let make depth max_stmts funcs ranks (trip_lo, trip_hi) (size_lo, size_hi)
      mix =
    G.clamp
      { d with G.depth; max_stmts; funcs; ranks; trip_lo; trip_hi; size_lo;
        size_hi; mix }
  in
  Term.(
    const make $ depth_arg $ stmts_arg $ funcs_arg $ ranks_arg $ trips_arg
    $ sizes_arg $ mix_arg)

let cmd_gen =
  let out_arg =
    let doc =
      "Write skeletons plus a corpus.json manifest into this directory \
       (created when missing); without it, sources print to stdout."
    in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"DIR" ~doc)
  in
  let run config archetype seed count jobs out =
    if count <= 0 then begin
      Fmt.epr "skope gen: --count must be positive@.";
      exit 2
    end;
    let cases = GC.generate ~config ?archetype ~jobs ~seed ~count () in
    match out with
    | None ->
      List.iter (fun c -> print_string (G.to_source c)) cases
    | Some dir ->
      let files = GC.write ?archetype ~config ~seed ~dir cases in
      let per_arch =
        List.map
          (fun a ->
            ( a,
              List.length
                (List.filter (fun c -> c.G.archetype = a) cases) ))
          GA.all
        |> List.filter (fun (_, n) -> n > 0)
      in
      Fmt.pr "wrote %d skeletons + corpus.json to %s (%s)@."
        (List.length files) dir
        (String.concat ", "
           (List.map
              (fun (a, n) -> Fmt.str "%s %d" (GA.to_string a) n)
              per_arch))
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate seeded random skeleton workloads (compute, memory, \
          branchy, comm archetypes); deterministic per (seed, index, \
          config)")
    Term.(
      const run $ gen_config_term $ gen_archetype_arg $ gen_seed_arg
      $ gen_count_arg 10 $ gen_jobs_arg $ out_arg)

let cmd_fuzz =
  let index_arg =
    let doc =
      "Re-run exactly one case by corpus index (the reproducer form \
       printed on failure) and show its source plus gate verdicts."
    in
    Arg.(value & opt (some int) None & info [ "index" ] ~docv:"I" ~doc)
  in
  let sim_bound_arg =
    let doc =
      "Allowed analyze/sim total-time ratio (either direction) for the \
       sanity gate."
    in
    Arg.(value & opt float 1e4 & info [ "sim-bound" ] ~docv:"R" ~doc)
  in
  let json_flag =
    let doc = "Emit the fuzz report as JSON." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let print_failure f =
    Fmt.pr "FAIL case %d (%s) [%s]: %s@.  repro: %s@." f.GF.index
      (GA.to_string f.GF.archetype)
      (GF.gate_name f.GF.gate)
      f.GF.detail f.GF.repro
  in
  let run config archetype seed count jobs sim_bound index json =
    match index with
    | Some index ->
      let case = G.generate ~config ?archetype ~seed ~index () in
      let repro = GF.repro_command ~config ?archetype ~seed ~index () in
      let fails = GF.check_case ~sim_bound ~repro case in
      Fmt.pr "# case %d: %s (%s), inputs %s@." index case.G.name
        (GA.to_string case.G.archetype)
        (String.concat ", "
           (List.map
              (fun (k, v) -> Fmt.str "%s=%s" k (Core.Bet.Value.to_string v))
              case.G.inputs));
      print_string (Core.Skeleton.Pretty.to_string case.G.program);
      if fails = [] then Fmt.pr "all %d gates pass@." GF.n_gates
      else begin
        List.iter print_failure fails;
        exit 1
      end
    | None ->
      if count <= 0 then begin
        Fmt.epr "skope fuzz: --count must be positive@.";
        exit 2
      end;
      let report = GF.run ~config ?archetype ~jobs ~sim_bound ~seed ~count () in
      let failed = report.GF.failures <> [] in
      if json then
        print_endline
          (Core.Report.Json.to_string (GF.report_json ~seed report))
      else begin
        Fmt.pr "fuzz: %d cases x %d gates, seed %Ld (%s)@." report.GF.total
          report.GF.gates_per_case seed
          (String.concat ", "
             (List.map
                (fun (a, n) -> Fmt.str "%s %d" (GA.to_string a) n)
                report.GF.by_archetype));
        match report.GF.failures with
        | [] -> Fmt.pr "all gates pass@."
        | fs ->
          List.iter print_failure fs;
          Fmt.pr "%d gate failure(s) across %d case(s)@." (List.length fs)
            (List.length
               (List.sort_uniq compare (List.map (fun f -> f.GF.index) fs)))
      end;
      if failed then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate seeded skeletons and gate each on \
          pretty/parse round-trip, lint and audit health, arena pricing vs \
          its tree-walk oracle bit-parity, and analyze-vs-simulate sanity \
          bounds; failures print a one-line reproducer")
    Term.(
      const run $ gen_config_term $ gen_archetype_arg $ gen_seed_arg
      $ gen_count_arg 100 $ gen_jobs_arg $ sim_bound_arg $ index_arg
      $ json_flag)

let cmd_json_check =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    match Core.Report.Json.of_string (read_source file) with
    | Ok _ -> Fmt.pr "%s: valid JSON@." file
    | Error msg ->
      Fmt.epr "%s: %s@." file msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "json-check"
       ~doc:
         "Validate that a file is well-formed JSON (e.g. an exported \
          --trace file)")
    Term.(const run $ file)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "skope" ~version:Core.Version.describe
      ~doc:"Analytic application-execution modeling for co-design"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            cmd_workloads; cmd_machines; cmd_show; cmd_parse; cmd_lint;
            cmd_audit;
            cmd_analyze; cmd_validate; cmd_hints; cmd_miniapp; cmd_sweep;
            cmd_explore;
            cmd_nodes; cmd_roofline; cmd_json; cmd_import; cmd_spots;
            cmd_path; cmd_compare; cmd_gen; cmd_fuzz; cmd_serve; cmd_route;
            cmd_query; cmd_top; cmd_json_check;
          ]))
