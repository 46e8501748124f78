(** Shared command-line vocabulary for skope subcommands.

    analyze, sweep, lint, explore and query all accept the same core
    flags; defining them once keeps names, defaults and docstrings
    from drifting apart. *)

open Cmdliner
module Span = Core.Telemetry.Span
module Chrome = Core.Telemetry.Chrome
module Designspace = Core.Hw.Designspace

let trace_arg =
  let doc =
    "Write a Chrome trace_event JSON trace of this run to $(docv) (load it \
     in chrome://tracing or Perfetto)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* Collect spans for the duration of [f] and write them out.  The root
   span is named after the subcommand so nested phase spans have a
   common ancestor in the trace view. *)
let with_trace trace ~root f =
  match trace with
  | None -> f ()
  | Some file ->
    let collector = Chrome.create () in
    let sink = Chrome.sink collector in
    Span.add_sink sink;
    Fun.protect
      ~finally:(fun () ->
        Span.remove_sink sink;
        Chrome.write_file collector file;
        Fmt.epr "wrote %d spans to %s@." (Chrome.length collector) file)
      (fun () -> Span.with_ ~name:root f)

let machine_arg =
  let doc = "Target machine (bgq, xeon, future)." in
  Arg.(value & opt string "bgq" & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc)

let workload_arg =
  let doc = "Workload name (see `skope workloads')." in
  Arg.(value & opt string "sord" & info [ "w"; "workload" ] ~docv:"NAME" ~doc)

let scale_arg =
  let doc = "Input scale factor (defaults to the workload's default)." in
  Arg.(value & opt (some float) None & info [ "s"; "scale" ] ~docv:"S" ~doc)

let top_arg =
  let doc = "Number of hot spots to display." in
  Arg.(value & opt int 10 & info [ "k"; "top" ] ~docv:"K" ~doc)

let coverage_arg =
  let doc = "Time-coverage criterion for hot spot selection." in
  Arg.(value & opt float 0.90 & info [ "coverage" ] ~docv:"FRAC" ~doc)

let leanness_arg =
  let doc = "Code-leanness criterion for hot spot selection." in
  Arg.(value & opt float 0.10 & info [ "leanness" ] ~docv:"FRAC" ~doc)

let format_arg =
  let doc = "Output format." in
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"text|json" ~doc)

(** Like {!format_arg} plus streaming [ndjson] (one JSON object per
    line, emitted as results complete). *)
let format_stream_arg =
  let doc = "Output format; ndjson streams one point per line." in
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json); ("ndjson", `Ndjson) ]) `Text
    & info [ "format" ] ~docv:"text|json|ndjson" ~doc)

let lookup_workload name =
  match Core.Workloads.Registry.find name with
  | Some w -> w
  | None ->
    Fmt.epr "unknown workload %S; try `skope workloads'@." name;
    exit 2

let lookup_machine name =
  match Core.Hw.Machines.find name with
  | Some m -> m
  | None ->
    Fmt.epr "unknown machine %S; try `skope machines'@." name;
    exit 2

let parse_inputs specs =
  List.map
    (fun spec ->
      match String.index_opt spec '=' with
      | Some i ->
        let name = String.sub spec 0 i in
        let v = String.sub spec (i + 1) (String.length spec - i - 1) in
        (match int_of_string_opt v with
        | Some n -> (name, Core.Bet.Value.int n)
        | None -> (
          match float_of_string_opt v with
          | Some f -> (name, Core.Bet.Value.float f)
          | None ->
            Fmt.epr "invalid input %S (expected NAME=NUMBER)@." spec;
            exit 2))
      | None ->
        Fmt.epr "invalid input %S (expected NAME=NUMBER)@." spec;
        exit 2)
    specs

let parse_values s =
  String.split_on_char ',' s |> List.filter_map float_of_string_opt

(** Build one design axis from a short key and comma-separated values
    (the sweep form: [--axis bw --values 1,2,4]). *)
let axis_of_parts key values =
  let values = parse_values values in
  if values = [] then begin
    Fmt.epr "no numeric values for axis %S@." key;
    exit 2
  end;
  match Designspace.axis_of_key key values with
  | Ok axis -> axis
  | Error msg ->
    Fmt.epr "%s@." msg;
    exit 2

(** Parse one [KEY=V1,V2,...] axis spec (the explore form:
    repeatable [--axis bw=25,50,100]). *)
let parse_axis_spec spec =
  match String.index_opt spec '=' with
  | Some i ->
    let key = String.sub spec 0 i in
    let values = String.sub spec (i + 1) (String.length spec - i - 1) in
    axis_of_parts key values
  | None ->
    Fmt.epr "invalid axis %S (expected KEY=V1,V2,...)@." spec;
    exit 2

(** Repeatable [--axis KEY=V1,V2,...] for multi-axis grids. *)
let axes_arg =
  let doc =
    "Design axis as KEY=V1,V2,... where KEY is one of bw, lat, vec, issue, \
     freq, l2, div (repeatable; the grid is their cartesian product)."
  in
  Arg.(value & opt_all string [] & info [ "axis" ] ~docv:"KEY=V1,V2,.." ~doc)

(* --- rule gating (lint + audit) ------------------------------------- *)

(** The diagnostic-gating flags are shared verbatim between [skope
    lint] and [skope audit]; one definition keeps their names,
    semantics and exit codes identical. *)

let deny_arg =
  let doc = "Fail on this class of findings; only `warnings' is recognized." in
  Arg.(value & opt_all string [] & info [ "deny" ] ~docv:"WHAT" ~doc)

let disable_arg =
  let doc = "Disable a rule by code, e.g. L008 or A003 (repeatable)." in
  Arg.(value & opt_all string [] & info [ "disable" ] ~docv:"CODE" ~doc)

let only_arg =
  let doc = "Enable only these rule codes (repeatable)." in
  Arg.(value & opt_all string [] & info [ "only" ] ~docv:"CODE" ~doc)

let rules_flag =
  let doc = "List the rules and exit." in
  Arg.(value & flag & info [ "rules" ] ~doc)

(** Validate the repeatable [--deny] values (only ["warnings"] is
    recognized; anything else exits 2) and fold them to a flag. *)
let deny_warnings_of deny =
  List.iter
    (fun d ->
      if d <> "warnings" then begin
        Fmt.epr "unknown --deny %S (only `warnings' is recognized)@." d;
        exit 2
      end)
    deny;
  List.mem "warnings" deny

(** Resolve [--disable]/[--only] against a rule registry: [--only]
    disables the complement of the named codes. *)
let resolve_disabled ~rules ~disable ~only =
  if only = [] then disable
  else
    disable
    @ (rules
      |> List.filter (fun (c, _) -> not (List.mem c only))
      |> List.map fst)

(** Print a rule registry as aligned [CODE  summary] lines. *)
let print_rules rules = List.iter (fun (c, d) -> Fmt.pr "%s  %s@." c d) rules
