open Skope_hw
module Json = Skope_report.Json

type query = {
  workload : string;
  machine : string;
  overrides : (string * float) list;
  scale : float option;
  coverage : float;
  leanness : float;
  top : int;
  engine : string option;
      (** accepted v1 engine name, lower-cased; selects nothing *)
}

(** Lint either a bundled workload (by name) or an inline DSL source
    string — exactly one of the two. *)
type lint_query = {
  l_workload : string option;
  l_source : string option;
  l_scale : float option;
  l_deny_warnings : bool;
  l_disabled : string list;
}

(** Audit either a bundled workload (by name) or an inline DSL source
    string — exactly one of the two.  [a_machine] selects the cache
    geometry/balance for the working-set rules; [a_ranks] sizes the
    rank space for imbalance/deadlock checks when the workload has no
    rank-count input. *)
type audit_query = {
  a_workload : string option;
  a_source : string option;
  a_scale : float option;
  a_machine : string;
  a_ranks : int;
  a_deny_warnings : bool;
  a_disabled : string list;
}

(** Multi-axis exploration: the cartesian grid of [e_axes] (optionally
    latin-hypercube sampled down to [e_sample] points). *)
type explore_spec = {
  e_axes : Designspace.axis list;
  e_sample : int option;
  e_seed : int;
}

(** Flight-recorder readback: the last requests the server handled,
    newest first, optionally filtered to errors or slow requests. *)
type recent_query = {
  rc_n : int;
  rc_errors_only : bool;
  rc_min_ms : float option;
}

type request =
  | Analyze of query
  | Sweep of query * Designspace.axis
  | Explore of query * explore_spec
  | Lint of lint_query
  | Audit of audit_query
  | Workloads
  | Machines
  | Stats
  | Metrics_prom
  | Version
  | Capabilities
  | Cluster_stats
  | Recent of recent_query
  | Trace of string

(* Cross-process trace context: the id the caller minted (and wants
   echoed back) plus an opaque parent hop label for the span tree. *)
type trace_context = { t_id : string; t_parent : string option }

type envelope = { timeout_ms : float option; trace : trace_context option }

type error_code =
  | Parse_error
  | Invalid_request
  | Unknown_workload
  | Unknown_machine
  | Oversized
  | Deadline_exceeded
  | Overloaded
  | Internal

let error_code_to_string = function
  | Parse_error -> "parse_error"
  | Invalid_request -> "invalid_request"
  | Unknown_workload -> "unknown_workload"
  | Unknown_machine -> "unknown_machine"
  | Oversized -> "oversized"
  | Deadline_exceeded -> "deadline_exceeded"
  | Overloaded -> "overloaded"
  | Internal -> "internal"

let kind_label = function
  | Analyze _ -> "analyze"
  | Sweep _ -> "sweep"
  | Explore _ -> "explore"
  | Lint _ -> "lint"
  | Audit _ -> "audit"
  | Workloads -> "workloads"
  | Machines -> "machines"
  | Stats -> "stats"
  | Metrics_prom -> "metrics_prom"
  | Version -> "version"
  | Capabilities -> "capabilities"
  | Cluster_stats -> "cluster_stats"
  | Recent _ -> "recent"
  | Trace _ -> "trace"

(* Bump on any change a v1 client could not safely ignore; see the
   compatibility rules in protocol.mli. *)
let protocol_version = 1

(* [cluster_stats] is deliberately absent: every server parses it, but
   only the cluster router serves it — a plain skoped answers with
   [invalid_request], and the router appends the kind to the
   capabilities it proxies. *)

let request_kinds =
  [
    "analyze";
    "sweep";
    "explore";
    "lint";
    "audit";
    "workloads";
    "machines";
    "stats";
    "metrics_prom";
    "version";
    "capabilities";
    "recent";
    "trace";
  ]

(* --- request parsing ---------------------------------------------- *)

let ( let* ) = Result.bind

let invalid msg = Error (Invalid_request, msg)

let string_field json key =
  match Json.member key json with
  | Some (Json.String s) -> Ok s
  | Some _ -> invalid (Printf.sprintf "field %S must be a string" key)
  | None -> invalid (Printf.sprintf "missing required field %S" key)

let opt_number json key =
  match Json.member key json with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match Json.to_float_opt v with
    | Some f -> Ok (Some f)
    | None -> invalid (Printf.sprintf "field %S must be a number" key))

let opt_int json key ~default =
  match Json.member key json with
  | None | Some Json.Null -> Ok default
  | Some v -> (
    match Json.to_int_opt v with
    | Some i -> Ok i
    | None -> invalid (Printf.sprintf "field %S must be an integer" key))

let parse_overrides json =
  match Json.member "overrides" json with
  | None | Some Json.Null -> Ok []
  | Some (Json.Obj fields) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (k, v) :: rest -> (
        match Json.to_float_opt v with
        | Some f -> go ((k, f) :: acc) rest
        | None ->
          invalid (Printf.sprintf "override %S must be a number" k))
    in
    go [] fields
  | Some _ -> invalid "field \"overrides\" must be an object"

let opt_string json key =
  match Json.member key json with
  | None | Some Json.Null -> Ok None
  | Some (Json.String s) -> Ok (Some s)
  | Some _ -> invalid (Printf.sprintf "field %S must be a string" key)

let opt_bool json key ~default =
  match Json.member key json with
  | None | Some Json.Null -> Ok default
  | Some (Json.Bool b) -> Ok b
  | Some _ -> invalid (Printf.sprintf "field %S must be a boolean" key)

let opt_string_list json key =
  match Json.member key json with
  | None | Some Json.Null -> Ok []
  | Some (Json.List vs) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | Json.String s :: rest -> go (s :: acc) rest
      | _ -> invalid (Printf.sprintf "field %S must be a list of strings" key)
    in
    go [] vs
  | Some _ -> invalid (Printf.sprintf "field %S must be a list of strings" key)

let parse_lint json =
  let* l_workload = opt_string json "workload" in
  let* l_source = opt_string json "source" in
  let* () =
    match (l_workload, l_source) with
    | Some _, Some _ ->
      invalid "fields \"workload\" and \"source\" are mutually exclusive"
    | None, None -> invalid "one of \"workload\" or \"source\" is required"
    | _ -> Ok ()
  in
  let* l_scale = opt_number json "scale" in
  let* () =
    match l_scale with
    | Some s when s <= 0. || not (Float.is_finite s) ->
      invalid "field \"scale\" must be positive and finite"
    | _ -> Ok ()
  in
  let* l_deny_warnings = opt_bool json "deny_warnings" ~default:false in
  let* l_disabled = opt_string_list json "disable" in
  Ok { l_workload; l_source; l_scale; l_deny_warnings; l_disabled }

let parse_audit json =
  let* a_workload = opt_string json "workload" in
  let* a_source = opt_string json "source" in
  let* () =
    match (a_workload, a_source) with
    | Some _, Some _ ->
      invalid "fields \"workload\" and \"source\" are mutually exclusive"
    | None, None -> invalid "one of \"workload\" or \"source\" is required"
    | _ -> Ok ()
  in
  let* a_scale = opt_number json "scale" in
  let* () =
    match a_scale with
    | Some s when s <= 0. || not (Float.is_finite s) ->
      invalid "field \"scale\" must be positive and finite"
    | _ -> Ok ()
  in
  let* a_machine = opt_string json "machine" in
  let a_machine = Option.value ~default:"bgq" a_machine in
  let* a_ranks = opt_int json "ranks" ~default:4 in
  let* () =
    if a_ranks < 1 || a_ranks > 1024 then
      invalid "field \"ranks\" must be in [1, 1024]"
    else Ok ()
  in
  let* a_deny_warnings = opt_bool json "deny_warnings" ~default:false in
  let* a_disabled = opt_string_list json "disable" in
  Ok { a_workload; a_source; a_scale; a_machine; a_ranks; a_deny_warnings; a_disabled }

let engine_names = [ "tree"; "arena" ]

let parse_query json =
  let* workload = string_field json "workload" in
  let* machine = string_field json "machine" in
  let* overrides = parse_overrides json in
  let* scale = opt_number json "scale" in
  let* () =
    match scale with
    | Some s when s <= 0. || not (Float.is_finite s) ->
      invalid "field \"scale\" must be positive and finite"
    | _ -> Ok ()
  in
  let* coverage = opt_number json "coverage" in
  let coverage = Option.value ~default:0.90 coverage in
  let* () =
    if coverage <= 0. || coverage > 1. then
      invalid "field \"coverage\" must be in (0, 1]"
    else Ok ()
  in
  let* leanness = opt_number json "leanness" in
  let leanness = Option.value ~default:0.10 leanness in
  let* () =
    if leanness <= 0. || leanness > 1. then
      invalid "field \"leanness\" must be in (0, 1]"
    else Ok ()
  in
  let* top = opt_int json "top" ~default:10 in
  let* () =
    if top < 1 || top > 1000 then invalid "field \"top\" must be in [1, 1000]"
    else Ok ()
  in
  let* engine =
    match Json.member "engine" json with
    | None | Some Json.Null -> Ok None
    | Some (Json.String s) ->
      let name = String.lowercase_ascii s in
      if List.mem name engine_names then Ok (Some name)
      else
        invalid
          (Printf.sprintf "unknown engine %S (expected one of: %s)" s
             (String.concat ", " engine_names))
    | Some _ -> invalid "field \"engine\" must be a string"
  in
  Ok { workload; machine; overrides; scale; coverage; leanness; top; engine }

(* One axis from a {"axis":KEY,"values":[...]} object; the axis keys
   and the rule their values obey live in Designspace so every layer
   agrees. *)
let parse_one_axis json =
  let* name = string_field json "axis" in
  let* values =
    match Json.member "values" json with
    | Some (Json.List vs) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | v :: rest -> (
          match Json.to_float_opt v with
          | Some f -> go (f :: acc) rest
          | None -> invalid "field \"values\" must be a list of numbers")
      in
      go [] vs
    | Some _ -> invalid "field \"values\" must be a list"
    | None -> invalid "missing required field \"values\""
  in
  let* () =
    if values = [] then invalid "field \"values\" must be non-empty"
    else if List.length values > 256 then
      invalid "field \"values\" is limited to 256 points"
    else Ok ()
  in
  Result.map_error
    (fun msg -> (Invalid_request, msg))
    (Designspace.axis_of_key name values)

let parse_axis json = parse_one_axis json

(* Explore carries {"axes":[{"axis":..,"values":..}, ...]} plus
   optional "sample" and "seed"; the full grid is capped so one
   request cannot monopolize a worker domain forever. *)
let max_grid_points = 4096

(* Both listeners stop reading a request one byte past this, and the
   request lifecycle answers such a body [Oversized]. *)
let max_request_bytes = 1 lsl 20

let parse_explore json =
  let* axes =
    match Json.member "axes" json with
    | Some (Json.List objs) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (Json.Obj _ as o) :: rest ->
          let* a = parse_one_axis o in
          go (a :: acc) rest
        | _ ->
          invalid "field \"axes\" must be a list of {axis, values} objects"
      in
      go [] objs
    | Some _ -> invalid "field \"axes\" must be a list of {axis, values} objects"
    | None -> invalid "missing required field \"axes\""
  in
  let* () = if axes = [] then invalid "field \"axes\" must be non-empty" else Ok () in
  let* () =
    let dup =
      List.find_opt
        (fun k ->
          List.length
            (List.filter (fun a -> Designspace.axis_key a = k)
               axes)
          > 1)
        (List.map Designspace.axis_key axes)
    in
    match dup with
    | Some k -> invalid (Printf.sprintf "axis %S appears more than once" k)
    | None -> Ok ()
  in
  let* e_sample =
    let* s = opt_int json "sample" ~default:0 in
    if s < 0 then invalid "field \"sample\" must be non-negative"
    else Ok (if s = 0 then None else Some s)
  in
  let* e_seed = opt_int json "seed" ~default:42 in
  let points =
    match e_sample with
    | Some n -> min n (Designspace.grid_size axes)
    | None -> Designspace.grid_size axes
  in
  let* () =
    if points > max_grid_points then
      invalid
        (Printf.sprintf
           "grid of %d points exceeds the limit of %d (use \"sample\")" points
           max_grid_points)
    else Ok ()
  in
  Ok { e_axes = axes; e_sample; e_seed }

let parse_recent json =
  let* rc_n = opt_int json "n" ~default:20 in
  let* () =
    if rc_n < 1 || rc_n > 1000 then invalid "field \"n\" must be in [1, 1000]"
    else Ok ()
  in
  let* rc_errors_only = opt_bool json "errors_only" ~default:false in
  let* rc_min_ms = opt_number json "min_ms" in
  let* () =
    match rc_min_ms with
    | Some v when v < 0. || not (Float.is_finite v) ->
      invalid "field \"min_ms\" must be non-negative and finite"
    | _ -> Ok ()
  in
  Ok { rc_n; rc_errors_only; rc_min_ms }

let max_trace_id_bytes = 128

let parse_trace json =
  match Json.member "trace" json with
  | None | Some Json.Null -> Ok None
  | Some (Json.Obj _ as obj) ->
    let* t_id = string_field obj "id" in
    let* () =
      if t_id = "" || String.length t_id > max_trace_id_bytes then
        invalid
          (Printf.sprintf
             "field \"trace\".\"id\" must be a non-empty string of at most %d \
              bytes"
             max_trace_id_bytes)
      else Ok ()
    in
    let* t_parent = opt_string obj "parent" in
    Ok (Some { t_id; t_parent })
  | Some _ -> invalid "field \"trace\" must be an object"

let parse_request body =
  match Json.of_string body with
  | Error msg -> Error (Parse_error, msg)
  | Ok json ->
    let* () =
      match json with
      | Json.Obj _ -> Ok ()
      | _ -> invalid "request must be a JSON object"
    in
    let* trace = parse_trace json in
    let* timeout_ms = opt_number json "timeout_ms" in
    let* () =
      match timeout_ms with
      | Some t when t <= 0. || not (Float.is_finite t) ->
        invalid "field \"timeout_ms\" must be positive and finite"
      | _ -> Ok ()
    in
    let* kind = string_field json "kind" in
    let* request =
      match kind with
      | "analyze" ->
        let* q = parse_query json in
        Ok (Analyze q)
      | "sweep" ->
        let* q = parse_query json in
        let* axis = parse_axis json in
        Ok (Sweep (q, axis))
      | "explore" ->
        let* q = parse_query json in
        let* spec = parse_explore json in
        Ok (Explore (q, spec))
      | "lint" ->
        let* q = parse_lint json in
        Ok (Lint q)
      | "audit" ->
        let* q = parse_audit json in
        Ok (Audit q)
      | "workloads" -> Ok Workloads
      | "machines" -> Ok Machines
      | "stats" -> Ok Stats
      | "metrics_prom" -> Ok Metrics_prom
      | "version" -> Ok Version
      | "capabilities" -> Ok Capabilities
      | "cluster_stats" -> Ok Cluster_stats
      | "recent" ->
        let* q = parse_recent json in
        Ok (Recent q)
      | "trace" ->
        let* id = string_field json "id" in
        let* () =
          if id = "" then invalid "field \"id\" must be a non-empty string"
          else Ok ()
        in
        Ok (Trace id)
      | other -> invalid (Printf.sprintf "unknown request kind %S" other)
    in
    Ok (request, { timeout_ms; trace })

(* --- machine resolution ------------------------------------------- *)

let apply_override (m : Machine.t) key value =
  let checked rule set =
    match rule (Printf.sprintf "override %S" key) value with
    | Ok v -> Ok (set v)
    | Error msg -> invalid msg
  in
  let real = checked Designspace.positive in
  let count = checked Designspace.positive_int in
  match key with
  | "freq_ghz" -> real (fun v -> { m with Machine.freq_ghz = v })
  | "issue_width" -> real (fun v -> { m with Machine.issue_width = v })
  | "vector_width" -> count (fun v -> { m with Machine.vector_width = v })
  | "flop_issue_per_cycle" ->
    real (fun v -> { m with Machine.flop_issue_per_cycle = v })
  | "div_latency" -> real (fun v -> { m with Machine.div_latency = v })
  | "vec_efficiency" ->
    if value < 0. || value > 1. then
      invalid "override \"vec_efficiency\" must be in [0, 1]"
    else Ok { m with Machine.vec_efficiency = value }
  | "mem_latency_cycles" ->
    real (fun v -> { m with Machine.mem_latency_cycles = v })
  | "mem_bw_gbs" -> real (fun v -> { m with Machine.mem_bw_gbs = v })
  | "mlp" -> real (fun v -> { m with Machine.mlp = v })
  | "l2_size_bytes" ->
    count (fun v ->
        { m with Machine.l2 = { m.Machine.l2 with Machine.size_bytes = v } })
  | other -> invalid (Printf.sprintf "unknown machine override %S" other)

let resolve_machine (q : query) =
  match Machines.find q.machine with
  | None ->
    Error
      ( Unknown_machine,
        Printf.sprintf "unknown machine %S (try the machines request)"
          q.machine )
  | Some base ->
    List.fold_left
      (fun acc (k, v) ->
        let* m = acc in
        apply_override m k v)
      (Ok base) q.overrides

(* --- responses ----------------------------------------------------- *)

(* Every response leads with the protocol version stamp so clients
   can detect incompatible servers before touching the payload.
   [trace_id] (when the handler knows it) is echoed on success and
   failure alike — an additive field, so v stays 1. *)
let trace_field = function
  | Some id -> [ ("trace_id", Json.String id) ]
  | None -> []

let ok_response ?trace_id result =
  Json.to_string
    (Json.Obj
       ([ ("v", Json.Int protocol_version); ("ok", Json.Bool true) ]
       @ trace_field trace_id
       @ [ ("result", result) ]))

let ok_prefix = Printf.sprintf {|{"v":%d,"ok":true|} protocol_version

let frame body =
  let n = String.length body in
  let line = Bytes.create (n + 1) in
  Bytes.blit_string body 0 line 0 n;
  Bytes.set line n '\n';
  line

let error_response ?retry_after_ms ?trace_id code message =
  Json.to_string
    (Json.Obj
       ([ ("v", Json.Int protocol_version); ("ok", Json.Bool false) ]
       @ trace_field trace_id
       @ [
           ( "error",
             Json.Obj
               ([
                  ("code", Json.String (error_code_to_string code));
                  ("message", Json.String message);
                ]
               @
               match retry_after_ms with
               | Some ms -> [ ("retry_after_ms", Json.Float ms) ]
               | None -> []) );
         ]))
