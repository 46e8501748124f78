(** Typed builders for skoped request bodies.

    The client-side counterpart of {!Protocol}: every request the
    server parses can be built here without hand-assembling JSON, so
    [skope query], the tests and the load generator all speak the same
    dialect.  A raw-JSON escape hatch remains available (pass any
    string straight to {!Client.roundtrip}); these builders are for
    the common path where a typo should be a type error. *)

module Json = Skope_report.Json

type query_opts = {
  scale : float option;  (** [None]: the workload's default scale *)
  top : int;
  coverage : float;
  leanness : float;
  overrides : (string * float) list;
}

let default_query_opts =
  {
    scale = None;
    top = 10;
    coverage = 0.90;
    leanness = 0.10;
    overrides = [];
  }

type request =
  | Analyze of { workload : string; machine : string; opts : query_opts }
  | Sweep of {
      workload : string;
      machine : string;
      opts : query_opts;
      axis : string;
      values : float list;
    }
  | Explore of {
      workload : string;
      machine : string;
      opts : query_opts;
      axes : (string * float list) list;
      sample : int option;
      seed : int option;
    }
  | Lint of {
      workload : string option;
      source : string option;
      scale : float option;
      deny_warnings : bool;
      disable : string list;
    }
  | Audit of {
      workload : string option;
      source : string option;
      scale : float option;
      machine : string option;
      ranks : int option;
      deny_warnings : bool;
      disable : string list;
    }
  | Workloads
  | Machines
  | Stats
  | Metrics_prom
  | Version
  | Capabilities
  | Cluster_stats
  | Recent of { n : int option; errors_only : bool; min_ms : float option }
  | Trace of { id : string }

let recent ?n ?(errors_only = false) ?min_ms () = Recent { n; errors_only; min_ms }
let trace ~id () = Trace { id }

let analyze ?(opts = default_query_opts) ~workload ~machine () =
  Analyze { workload; machine; opts }

let sweep ?(opts = default_query_opts) ~workload ~machine ~axis ~values () =
  Sweep { workload; machine; opts; axis; values }

let explore ?(opts = default_query_opts) ?sample ?seed ~workload ~machine ~axes
    () =
  Explore { workload; machine; opts; axes; sample; seed }

let lint_workload ?scale ?(deny_warnings = false) ?(disable = []) workload =
  Lint { workload = Some workload; source = None; scale; deny_warnings; disable }

let lint_source ?(deny_warnings = false) ?(disable = []) source =
  Lint
    {
      workload = None;
      source = Some source;
      scale = None;
      deny_warnings;
      disable;
    }

let audit_workload ?scale ?machine ?ranks ?(deny_warnings = false)
    ?(disable = []) workload =
  Audit
    {
      workload = Some workload;
      source = None;
      scale;
      machine;
      ranks;
      deny_warnings;
      disable;
    }

let audit_source ?machine ?ranks ?(deny_warnings = false) ?(disable = []) source
    =
  Audit
    {
      workload = None;
      source = Some source;
      scale = None;
      machine;
      ranks;
      deny_warnings;
      disable;
    }

let kind = function
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

let query_fields ~workload ~machine (o : query_opts) =
  [ ("workload", Json.String workload); ("machine", Json.String machine) ]
  @ (match o.scale with Some s -> [ ("scale", Json.Float s) ] | None -> [])
  @ [
      ("top", Json.Int o.top);
      ("coverage", Json.Float o.coverage);
      ("leanness", Json.Float o.leanness);
    ]
  @
  if o.overrides = [] then []
  else
    [
      ( "overrides",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) o.overrides) );
    ]

let axis_obj (axis, values) =
  Json.Obj
    [
      ("axis", Json.String axis);
      ("values", Json.List (List.map (fun v -> Json.Float v) values));
    ]

let to_json ?timeout_ms ?trace_id ?trace_parent request =
  let base =
    [ ("kind", Json.String (kind request)) ]
    @ (match timeout_ms with
      | Some t -> [ ("timeout_ms", Json.Float t) ]
      | None -> [])
    @
    match trace_id with
    | Some id ->
      [
        ( "trace",
          Json.Obj
            ([ ("id", Json.String id) ]
            @
            match trace_parent with
            | Some p -> [ ("parent", Json.String p) ]
            | None -> []) );
      ]
    | None -> []
  in
  let fields =
    match request with
    | Analyze { workload; machine; opts } ->
      query_fields ~workload ~machine opts
    | Sweep { workload; machine; opts; axis; values } ->
      query_fields ~workload ~machine opts
      @ [
          ("axis", Json.String axis);
          ("values", Json.List (List.map (fun v -> Json.Float v) values));
        ]
    | Explore { workload; machine; opts; axes; sample; seed } ->
      query_fields ~workload ~machine opts
      @ [ ("axes", Json.List (List.map axis_obj axes)) ]
      @ (match sample with
        | Some n -> [ ("sample", Json.Int n) ]
        | None -> [])
      @ (match seed with Some s -> [ ("seed", Json.Int s) ] | None -> [])
    | Lint { workload; source; scale; deny_warnings; disable } ->
      (match workload with
      | Some w -> [ ("workload", Json.String w) ]
      | None -> [])
      @ (match source with
        | Some s -> [ ("source", Json.String s) ]
        | None -> [])
      @ (match scale with Some s -> [ ("scale", Json.Float s) ] | None -> [])
      @ (if deny_warnings then [ ("deny_warnings", Json.Bool true) ] else [])
      @
      if disable = [] then []
      else
        [ ("disable", Json.List (List.map (fun c -> Json.String c) disable)) ]
    | Audit { workload; source; scale; machine; ranks; deny_warnings; disable }
      ->
      (match workload with
      | Some w -> [ ("workload", Json.String w) ]
      | None -> [])
      @ (match source with
        | Some s -> [ ("source", Json.String s) ]
        | None -> [])
      @ (match scale with Some s -> [ ("scale", Json.Float s) ] | None -> [])
      @ (match machine with
        | Some m -> [ ("machine", Json.String m) ]
        | None -> [])
      @ (match ranks with Some r -> [ ("ranks", Json.Int r) ] | None -> [])
      @ (if deny_warnings then [ ("deny_warnings", Json.Bool true) ] else [])
      @
      if disable = [] then []
      else
        [ ("disable", Json.List (List.map (fun c -> Json.String c) disable)) ]
    | Recent { n; errors_only; min_ms } ->
      (match n with Some n -> [ ("n", Json.Int n) ] | None -> [])
      @ (if errors_only then [ ("errors_only", Json.Bool true) ] else [])
      @ (match min_ms with
        | Some ms -> [ ("min_ms", Json.Float ms) ]
        | None -> [])
    | Trace { id } -> [ ("id", Json.String id) ]
    | Workloads | Machines | Stats | Metrics_prom | Version | Capabilities
    | Cluster_stats -> []
  in
  Json.Obj (base @ fields)

let to_body ?timeout_ms ?trace_id ?trace_parent request =
  Json.to_string (to_json ?timeout_ms ?trace_id ?trace_parent request)

(* --- response decoding ---------------------------------------------- *)

type response = {
  r_v : int option;
  r_ok : bool;
  r_trace_id : string option;
  r_result : Json.t option;
  r_error_code : string option;
  r_error_message : string option;
  r_retry_after_ms : float option;
}

let parse_response body =
  match Json.of_string body with
  | Error e -> Error (Printf.sprintf "response is not JSON: %s" e)
  | Ok json -> (
    match json with
    | Json.Obj _ ->
      let error = Json.member "error" json in
      let str key =
        Option.bind (Option.bind error (Json.member key)) Json.to_string_opt
      in
      Ok
        {
          r_v = Option.bind (Json.member "v" json) Json.to_int_opt;
          r_ok = Json.member "ok" json = Some (Json.Bool true);
          r_trace_id =
            Option.bind (Json.member "trace_id" json) Json.to_string_opt;
          r_result = Json.member "result" json;
          r_error_code = str "code";
          r_error_message = str "message";
          r_retry_after_ms =
            Option.bind
              (Option.bind error (Json.member "retry_after_ms"))
              Json.to_float_opt;
        }
    | _ -> Error "response is not a JSON object")
