module Json = Skope_report.Json
module Span = Skope_telemetry.Span
module Log = Skope_telemetry.Log
module Recorder = Skope_telemetry.Recorder
module P = Core.Pipeline
module Registry = Core.Workloads.Registry
module Machine = Core.Hw.Machine
module Machines = Core.Hw.Machines
module Designspace = Core.Hw.Designspace
module Hotspot = Core.Analysis.Hotspot
module Blockstat = Core.Analysis.Blockstat
module Roofline = Core.Hw.Roofline
module Arena_price = Core.Analysis.Arena_price
module Explore = Skope_explore.Explore

type config = { cache_capacity : int }

let default_config = { cache_capacity = 4096 }

type entry = { rendered : string; total_ms : float }

type t = {
  config : config;
  cache : entry Lru.t;
  metrics : Metrics.t;
  recorder : Recorder.t;
}

let create ?(config = default_config) () =
  let cache = Lru.create ~capacity:config.cache_capacity in
  let metrics = Metrics.create () in
  let recorder = Recorder.create () in
  (* Fold pipeline spans into this dispatcher's per-phase histograms.
     The sink is process-global, so spans opened by CLI-embedded
     pipelines also land here — harmless, and it keeps the service
     path allocation-free when no dispatcher exists. *)
  Span.add_sink (Metrics.sink metrics);
  (* The flight recorder rides the same sink bus: spans carrying a
     ["trace_id"] context attribute land in that request's record. *)
  Span.add_sink (Recorder.sink recorder);
  Metrics.register_gauge metrics ~name:"skope_lru_entries"
    ~help:"Projection cache occupancy." (fun () ->
      float_of_int (Lru.length cache));
  Metrics.register_gauge metrics ~name:"skope_lru_capacity"
    ~help:"Projection cache capacity." (fun () ->
      float_of_int (Lru.capacity cache));
  { config; cache; metrics; recorder }

exception Reject of {
  code : Protocol.error_code;
  message : string;
  retry_after_ms : float option;
}

let reject ?retry_after_ms code message =
  raise (Reject { code; message; retry_after_ms })

(* --- resolved queries ------------------------------------------------ *)

type query_parts = {
  workload : Registry.t;
  machine : Machine.t;
  scale : float;
  criteria : Hotspot.criteria;
  top : int;
  engine : string;
  fingerprint : string;
}

let keyed p =
  {
    p with
    fingerprint =
      Fingerprint.of_query ~workload:p.workload.Registry.name ~machine:p.machine
        ~scale:p.scale ~criteria:p.criteria ~top:p.top
        ~engine:p.engine;
  }

let unknown_workload name =
  ( Protocol.Unknown_workload,
    Printf.sprintf "unknown workload %S (try the workloads request)" name )

let query_parts (q : Protocol.query) =
  match Registry.find q.Protocol.workload with
  | None -> Error (unknown_workload q.Protocol.workload)
  | Some workload ->
    Result.map
      (fun machine ->
        keyed
          {
            workload;
            machine;
            scale =
              Option.value ~default:workload.Registry.default_scale
                q.Protocol.scale;
            criteria =
              {
                Hotspot.time_coverage = q.Protocol.coverage;
                code_leanness = q.Protocol.leanness;
              };
            top = q.Protocol.top;
            engine = Option.value ~default:"tree" q.Protocol.engine;
            fingerprint = "";
          })
      (Protocol.resolve_machine q)

(* The same query priced on another machine: a sweep variant or an
   explore grid point. *)
let at_machine p machine = keyed { p with machine }

(* --- result rendering ---------------------------------------------- *)

let json_of_spot rank total (b : Blockstat.t) =
  Json.Obj
    [
      ("rank", Json.Int rank);
      ("block", Json.String b.name);
      ("ms", Json.Float (b.time *. 1e3));
      ("share", Json.Float (if total > 0. then b.time /. total else 0.));
      ("enr", Json.Float b.enr);
      ("bound", Json.String (Roofline.bound_label b.bound));
    ]

let json_of_outcome p ~bet_nodes (o : P.Prepared.outcome) =
  let total = o.P.Prepared.o_total_time in
  let spots =
    List.filteri (fun i _ -> i < p.top) o.P.Prepared.o_blocks
    |> List.mapi (fun i b -> json_of_spot (i + 1) total b)
  in
  let sel = o.P.Prepared.o_selection in
  let tc, tm, ov = Explore.split o in
  Json.Obj
    [
      ("workload", Json.String p.workload.Registry.name);
      ("machine", Json.String p.machine.Machine.name);
      ("scale", Json.Float p.scale);
      ("total_ms", Json.Float (total *. 1e3));
      ( "split",
        Json.Obj
          [
            ("tc_ms", Json.Float (tc *. 1e3));
            ("tm_ms", Json.Float (tm *. 1e3));
            ("to_ms", Json.Float (ov *. 1e3));
          ] );
      ("bet_nodes", Json.Int bet_nodes);
      ("spots", Json.List spots);
      ( "selection",
        Json.Obj
          [
            ("count", Json.Int (List.length sel.Hotspot.spots));
            ("coverage", Json.Float sel.Hotspot.coverage);
            ("leanness", Json.Float sel.Hotspot.leanness);
          ] );
    ]

(* Shared outcome renderer: analyze, sweep points and explore points
   all render here, once, when the point is priced.  The cache keeps
   the bytes, so an entry written by any of them is spliced
   byte-identically into the others' replies.  The v1 engine name is
   not part of a point's JSON; sweep and explore echo it at the top
   level. *)
let render_outcome p ~bet_nodes (o : P.Prepared.outcome) =
  Span.with_ ~name:"report" (fun () ->
      {
        rendered = Json.to_string (json_of_outcome p ~bet_nodes o);
        total_ms = o.P.Prepared.o_total_time *. 1e3;
      })

let analysis_result p =
  let prep = P.Prepared.create ~workload:p.workload ~scale:p.scale () in
  let o = P.Prepared.project ~criteria:p.criteria prep p.machine in
  render_outcome p ~bet_nodes:(P.Prepared.built prep).node_count o

(* --- cached projection --------------------------------------------- *)

let lookup_workload name =
  match Registry.find name with
  | Some w -> w
  | None ->
    let code, msg = unknown_workload name in
    reject code msg

(* One projection, through the cache.  The fingerprint covers every
   machine parameter (but the response embeds the machine's catalog
   name), so an [analyze] with overrides and a [sweep] variant with
   the same parameters share a slot. *)
let cached t p compute =
  match Lru.find t.cache p.fingerprint with
  | Some entry ->
    Metrics.cache_hit t.metrics;
    entry
  | None ->
    Metrics.cache_miss t.metrics;
    let entry = compute () in
    Lru.add t.cache p.fingerprint entry;
    entry

let cached_analysis t p = cached t p (fun () -> analysis_result p)

(* One fan-out point (sweep variant or explore grid point), through
   the cache.  Unlike [cached_analysis] a miss does NOT rerun the full
   pipeline: it re-prices the shared prepared BET, and consecutive
   misses delta-chain through [prev] so a single-axis step re-prices
   only dependent nodes. *)
let cached_point t ~prepared ~prev p =
  cached t p (fun () ->
      let prep = Lazy.force prepared in
      let o =
        match !prev with
        | Some o -> P.Prepared.project_delta ~criteria:p.criteria ~prev:o prep p.machine
        | None -> P.Prepared.project ~criteria:p.criteria prep p.machine
      in
      prev := Some o;
      Span.count "explore_bet_reuse_hits" 1.;
      render_outcome p ~bet_nodes:(P.Prepared.built prep).node_count o)

(* A machine the model prices to an infinite or NaN time (a positive
   but tiny parameter) is a bad request, named by [what ()]; pricing
   raised before the cache could keep anything. *)
let finite ~what f =
  try f ()
  with Arena_price.Non_finite_time _ ->
    reject Protocol.Invalid_request
      (Printf.sprintf "%s gives a non-finite projected time" (what ()))

(* A sweep or explore point through the cache, as a reply fragment
   that splices the stored bytes. *)
let grid_point t ~prepared ~prev p (pt : Designspace.point) =
  let entry =
    finite
      ~what:(fun () -> Designspace.values_label pt.Designspace.p_values)
      (fun () ->
        cached_point t ~prepared ~prev (at_machine p pt.Designspace.p_machine))
  in
  ( entry,
    Json.Obj
      [
        ("tag", Json.String pt.Designspace.p_tag);
        ("analysis", Json.Raw entry.rendered);
      ] )

(* The machine-independent prefix, built at most once per request —
   and not at all when every point is served from the cache. *)
let prepare p =
  lazy
    (Span.with_ ~name:"prepare" (fun () ->
         P.Prepared.create ~workload:p.workload ~scale:p.scale ()))

(* --- request kinds ------------------------------------------------- *)

let run_sweep t p axis ~check_deadline =
  (* All variants share one prepared BET and delta-chain through it.
     They are a one-axis grid: the sweep's tags, on machines that keep
     the base's name, so a point's fingerprint (and rendered result)
     matches an equivalent override query. *)
  let prepared = prepare p in
  let prev = ref None in
  let points =
    Designspace.grid p.machine [ axis ]
    |> List.map (fun pt ->
           (* Cooperative cancellation between fan-out points. *)
           check_deadline ();
           snd (grid_point t ~prepared ~prev p pt))
  in
  Json.Obj
    [
      ("workload", Json.String p.workload.Registry.name);
      ("machine", Json.String p.machine.Machine.name);
      ("engine", Json.String p.engine);
      ("axis", Json.String (Designspace.axis_name axis));
      ("points", Json.List points);
    ]

let run_explore t p (spec : Protocol.explore_spec) ~check_deadline =
  let pts =
    Explore.grid_points ?sample:spec.Protocol.e_sample ~seed:spec.Protocol.e_seed
      p.machine spec.Protocol.e_axes
  in
  let n = List.length pts in
  let prepared = prepare p in
  let prev = ref None in
  let completed = ref 0 in
  let points =
    List.map
      (fun (pt : Designspace.point) ->
        (* Cooperative cancellation between grid points: a deadline
           mid-grid reports partial progress instead of hanging. *)
        (try check_deadline ()
         with Reject { code; message; _ } ->
           reject code
             (Printf.sprintf "%s after %d of %d points" message !completed n));
        let entry, json = grid_point t ~prepared ~prev p pt in
        Span.count "explore_points_evaluated" 1.;
        incr completed;
        (pt, entry.total_ms, Explore.cost_proxy pt.Designspace.p_machine, json))
      pts
  in
  let pareto =
    Explore.pareto_by ~metrics:(fun (_, t_ms, cost, _) -> (t_ms, cost)) points
    |> List.map (fun ((pt : Designspace.point), t_ms, cost, _) ->
           Json.Obj
             [
               ("tag", Json.String pt.Designspace.p_tag);
               ("total_ms", Json.Float t_ms);
               ("cost", Json.Float cost);
             ])
  in
  let axes =
    List.map
      (fun axis ->
        Json.Obj
          [
            ("axis", Json.String (Designspace.axis_key axis));
            ( "values",
              Json.List
                (List.map (fun v -> Json.Float v) (Designspace.axis_values axis))
            );
          ])
      spec.Protocol.e_axes
  in
  Json.Obj
    ([
       ("workload", Json.String p.workload.Registry.name);
       ("machine", Json.String p.machine.Machine.name);
       ("engine", Json.String p.engine);
       ("axes", Json.List axes);
       ("grid", Json.Int (Designspace.grid_size spec.Protocol.e_axes));
     ]
    @ (match spec.Protocol.e_sample with
      | Some s ->
        [ ("sample", Json.Int s); ("seed", Json.Int spec.Protocol.e_seed) ]
      | None -> [])
    @ [
        ("points", Json.List (List.map (fun (_, _, _, j) -> j) points));
        ("pareto", Json.List pareto);
      ])

let run_capabilities () =
  let strings ss = Json.List (List.map (fun s -> Json.String s) ss) in
  Json.Obj
    [
      ("protocol", Json.Int Protocol.protocol_version);
      ("kinds", strings Protocol.request_kinds);
      ("axes", strings Designspace.axis_keys);
      ("bet_engines", strings Protocol.engine_names);
      ("max_grid_points", Json.Int Protocol.max_grid_points);
      ("version", Json.String Core.Version.version);
    ]

(* Lint requests are cheap (no projection) and parameterized by
   free-form source, so they bypass the cache. *)
let run_lint (q : Protocol.lint_query) =
  let module L = Core.Lint in
  let config =
    { L.Engine.default_config with L.Engine.disabled = q.Protocol.l_disabled }
  in
  let target, diags =
    match (q.Protocol.l_workload, q.Protocol.l_source) with
    | Some name, _ ->
      let w = lookup_workload name in
      let scale =
        Option.value ~default:w.Registry.default_scale q.Protocol.l_scale
      in
      let program, inputs = w.Registry.make ~scale in
      let validation =
        Core.Skeleton.Validate.check ~inputs:(List.map fst inputs) program
      in
      ( w.Registry.name,
        List.map L.Diagnostic.of_validate validation
        @ L.Engine.run ~config ~inputs program )
    | None, Some source -> (
      let file = "<request>" in
      match
        Span.with_ ~name:"parse" (fun () ->
            Core.Skeleton.Parser.parse ~file source)
      with
      | exception Core.Skeleton.Lexer.Error (loc, m) ->
        (file, [ L.Diagnostic.of_lex_error loc m ])
      | exception Core.Skeleton.Parser.Error (loc, m) ->
        (file, [ L.Diagnostic.of_parse_error loc m ])
      | program ->
        let validation = Core.Skeleton.Validate.check program in
        ( file,
          List.map L.Diagnostic.of_validate validation
          @ L.Engine.run ~config program ))
    | None, None ->
      (* unreachable: Protocol.parse_lint requires one of the two *)
      reject Protocol.Invalid_request "lint request has no target"
  in
  L.Audit.diags_json ~target ~deny_warnings:q.Protocol.l_deny_warnings
    (L.Diagnostic.normalize diags)

(* Audit requests follow the lint shape (free-form source, no
   projection cache); the per-target JSON comes from
   [Audit.result_json], the same renderer the CLI uses, so the two
   paths stay at parity. *)
let run_audit (q : Protocol.audit_query) =
  let module L = Core.Lint in
  let machine =
    match Machines.find q.Protocol.a_machine with
    | Some m -> m
    | None ->
      reject Protocol.Unknown_machine
        (Printf.sprintf "unknown machine %S" q.Protocol.a_machine)
  in
  let config =
    {
      L.Audit.default_config with
      L.Audit.disabled = q.Protocol.a_disabled;
      machine;
      ranks = q.Protocol.a_ranks;
    }
  in
  let deny_warnings = q.Protocol.a_deny_warnings in
  match (q.Protocol.a_workload, q.Protocol.a_source) with
  | Some name, _ ->
    let w = lookup_workload name in
    let scale =
      Option.value ~default:w.Registry.default_scale q.Protocol.a_scale
    in
    let report = P.audit ~config ~workload:w ~scale () in
    L.Audit.result_json ~target:w.Registry.name ~scale ~deny_warnings config report
  | None, Some source -> (
    let file = "<request>" in
    match
      Span.with_ ~name:"parse" (fun () -> Core.Skeleton.Parser.parse ~file source)
    with
    | exception Core.Skeleton.Lexer.Error (loc, m) ->
      L.Audit.diags_json ~target:file ~deny_warnings
        [ L.Diagnostic.of_lex_error loc m ]
    | exception Core.Skeleton.Parser.Error (loc, m) ->
      L.Audit.diags_json ~target:file ~deny_warnings
        [ L.Diagnostic.of_parse_error loc m ]
    | program -> (
      match
        List.map L.Diagnostic.of_validate (Core.Skeleton.Validate.check program)
      with
      | [] ->
        let report = L.Audit.run ~config program in
        L.Audit.result_json ~target:file ~deny_warnings config report
      | validation ->
        L.Audit.diags_json ~target:file ~deny_warnings
          (L.Diagnostic.normalize validation)))
  | None, None ->
    (* unreachable: Protocol.parse_audit requires one of the two *)
    reject Protocol.Invalid_request "audit request has no target"

let run_workloads () =
  Json.List
    (List.map
       (fun (w : Registry.t) ->
         Json.Obj
           [
             ("name", Json.String w.name);
             ("description", Json.String w.description);
             ("default_scale", Json.Float w.default_scale);
             ("paper_top_k", Json.Int w.paper_top_k);
           ])
       Registry.all)

let run_machines () =
  Json.List
    (List.map
       (fun (m : Machine.t) ->
         Json.Obj
           [
             ("name", Json.String m.name);
             ("freq_ghz", Json.Float m.freq_ghz);
             ("issue_width", Json.Float m.issue_width);
             ("vector_width", Json.Int m.vector_width);
             ("fma", Json.Bool m.fma);
             ("mem_bw_gbs", Json.Float m.mem_bw_gbs);
             ("mem_latency_cycles", Json.Float m.mem_latency_cycles);
             ("l2_size_bytes", Json.Int m.l2.size_bytes);
             ( "peak_gflops",
               Json.Float (Machine.peak_flops m /. 1e9) );
           ])
       Machines.all)

let run_metrics_prom t =
  Json.Obj
    [
      ("content_type", Json.String "text/plain; version=0.0.4");
      ("body", Json.String (Metrics.prom_metrics t.metrics));
    ]

let run_version () =
  Json.Obj
    [
      ("version", Json.String Core.Version.version);
      ("git", Json.String Core.Version.git);
      ("describe", Json.String Core.Version.describe);
    ]

let run_stats t =
  let v = Metrics.view t.metrics in
  Json.Obj
    [
      ("metrics", Metrics.to_json v);
      ( "cache",
        Json.Obj
          [
            ("entries", Json.Int (Lru.length t.cache));
            ("capacity", Json.Int (Lru.capacity t.cache));
          ] );
    ]

(* --- flight recorder readback -------------------------------------- *)

let run_trace t id =
  match Recorder.find t.recorder id with
  | Some r -> Traceview.trace_result ~trace_id:id [ ("skoped", r) ]
  | None ->
    reject Protocol.Invalid_request
      (Printf.sprintf
         "no record of trace %S (the flight recorder keeps the last %d \
          requests)"
         id
         (Recorder.capacity t.recorder))

(* --- the request lifecycle ------------------------------------------ *)

type call = {
  trace_id : string;
  received_at : float;
  timeout_ms : float option;
  mutable fingerprint : string option;
  mutable shard : string option;
  mutable retries : int;
}

type reply = Answer of Json.t | Relay of string

(* Per-request trace ids, process-wide so concurrent worker domains
   never collide.  Minted only when the caller did not send a trace
   context of its own: a request arriving through the cluster router
   (or from a client that wants to follow its query) already carries
   the id, and adopting it is what makes the id span processes. *)
let next_trace = Atomic.make 1

let answer ~recorder ?metrics ~span ~prefix ?received_at body handler =
  let received_at =
    match received_at with Some x -> x | None -> Unix.gettimeofday ()
  in
  let queue_wait_ms =
    Float.max 0. ((Unix.gettimeofday () -. received_at) *. 1e3)
  in
  let parsed =
    if String.length body > Protocol.max_request_bytes then
      Error
        ( Protocol.Oversized,
          Printf.sprintf "request body exceeds %d bytes"
            Protocol.max_request_bytes )
    else Protocol.parse_request body
  in
  let envelope =
    match parsed with
    | Ok (_, envelope) -> envelope
    | Error _ -> { Protocol.timeout_ms = None; trace = None }
  in
  let trace_id, trace_parent =
    match envelope.Protocol.trace with
    | Some tc -> (tc.Protocol.t_id, tc.Protocol.t_parent)
    | None ->
      (Printf.sprintf "%s-%06d" prefix (Atomic.fetch_and_add next_trace 1), None)
  in
  Recorder.begin_request recorder trace_id;
  let call =
    {
      trace_id;
      received_at;
      timeout_ms = envelope.Protocol.timeout_ms;
      fingerprint = None;
      shard = None;
      retries = 0;
    }
  in
  let kind = ref "?" in
  let outcome = ref "ok" in
  let response =
    Span.with_context ~attrs:[ ("trace_id", trace_id) ] @@ fun () ->
    Span.with_ ~name:span @@ fun () ->
    Option.iter (Span.set_attr "trace_parent") trace_parent;
    try
      let request =
        match parsed with Ok (r, _) -> r | Error (code, msg) -> reject code msg
      in
      kind := Protocol.kind_label request;
      Span.set_attr "kind" !kind;
      match handler call request with
      | Answer result -> Protocol.ok_response ~trace_id result
      | Relay response -> response
    with
    | Reject { code; message; retry_after_ms } ->
      outcome := Protocol.error_code_to_string code;
      (match code with
      | Protocol.Deadline_exceeded ->
        Log.emit ~level:Log.Warn ~trace_id "deadline_exceeded"
          [ ("kind", Log.Str !kind); ("message", Log.Str message) ]
      | _ -> ());
      Protocol.error_response ?retry_after_ms ~trace_id code message
    | exn ->
      outcome := Protocol.error_code_to_string Protocol.Internal;
      Log.emit ~level:Log.Error ~trace_id "internal_error"
        [ ("kind", Log.Str !kind); ("exn", Log.Str (Printexc.to_string exn)) ];
      Protocol.error_response ~trace_id Protocol.Internal
        (Printexc.to_string exn)
  in
  let finished_at = Unix.gettimeofday () in
  Option.iter
    (fun m ->
      Metrics.incr_request m ~kind:!kind ~outcome:!outcome;
      Metrics.observe_latency m (finished_at -. received_at))
    metrics;
  Recorder.commit recorder ~trace_id ~kind:!kind ?fingerprint:call.fingerprint
    ?shard:call.shard ~outcome:!outcome ~retries:call.retries ~queue_wait_ms
    ~start:received_at
    ~duration_ms:((finished_at -. received_at) *. 1e3)
    ();
  response

(* --- entry point --------------------------------------------------- *)

let handle ?received_at t body =
  answer ~recorder:t.recorder ~metrics:t.metrics ~span:"request" ~prefix:"req"
    ?received_at body
  @@ fun call request ->
  (* Resolved once per request: the recorded fingerprint is the key an
     analyze looks up, and the one the router routed on. *)
  let resolve q =
    match query_parts q with
    | Ok p ->
      call.fingerprint <- Some p.fingerprint;
      p
    | Error (code, msg) -> reject code msg
  in
  let check_deadline () =
    match call.timeout_ms with
    | Some ms when Unix.gettimeofday () -. call.received_at > ms /. 1e3 ->
      reject Protocol.Deadline_exceeded
        (Printf.sprintf "deadline of %g ms exceeded" ms)
    | _ -> ()
  in
  check_deadline ();
  Answer
    (match request with
    | Protocol.Analyze q ->
      let p = resolve q in
      let what () =
        match q.Protocol.overrides with
        | [] ->
          Printf.sprintf "%s at scale %g on %s" p.workload.Registry.name
            p.scale p.machine.Machine.name
        | overrides -> "override " ^ Designspace.values_label overrides
      in
      Json.Raw (finite ~what (fun () -> cached_analysis t p)).rendered
    | Protocol.Sweep (q, axis) -> run_sweep t (resolve q) axis ~check_deadline
    | Protocol.Explore (q, spec) -> run_explore t (resolve q) spec ~check_deadline
    | Protocol.Lint q -> run_lint q
    | Protocol.Audit q -> run_audit q
    | Protocol.Workloads -> run_workloads ()
    | Protocol.Machines -> run_machines ()
    | Protocol.Stats -> run_stats t
    | Protocol.Metrics_prom -> run_metrics_prom t
    | Protocol.Version -> run_version ()
    | Protocol.Capabilities -> run_capabilities ()
    | Protocol.Recent q -> Traceview.recent_result t.recorder q
    | Protocol.Trace id -> run_trace t id
    | Protocol.Cluster_stats ->
      reject Protocol.Invalid_request
        "cluster_stats is served by the cluster router (skope route), not by \
         a single skoped")
