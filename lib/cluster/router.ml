module Json = Skope_report.Json
module Span = Skope_telemetry.Span
module Log = Skope_telemetry.Log
module Recorder = Skope_telemetry.Recorder
module Prom = Skope_telemetry.Prom
module Traceview = Skope_service.Traceview
module Client = Skope_service.Client
module Protocol = Skope_service.Protocol
module Service_api = Skope_service.Service_api
module Server = Skope_service.Server
module Dispatch = Skope_service.Dispatch

type member_spec = { m_id : string; m_host : string; m_port : int }

type config = {
  net : Server.net;
  members : member_spec list;
  vnodes : int;
  ring_seed : int;
  health : Health.config;
  probe_interval_s : float;
  probe_timeouts : Client.timeouts;
  forward_timeouts : Client.timeouts;
  forward_retry : Client.retry;
  load_factor : float;
}

let default_config =
  {
    net = { Server.default_net with Server.n_port = 7878; n_pool = 4 };
    members = [];
    vnodes = 128;
    ring_seed = 42;
    health = Health.default_config;
    probe_interval_s = 2.;
    probe_timeouts = { Client.connect_s = 1.; read_s = 2.; write_s = 2. };
    forward_timeouts = Client.default_timeouts;
    forward_retry = { Client.default_retry with Client.attempts = 1; base_ms = 25. };
    load_factor = 1.25;
  }

type t = {
  config : config;
  members : Member.t array;
  mutable ring : Ring.t;
  ring_lock : Mutex.t;
  requests : int Atomic.t;
  forwards : int Atomic.t;
  failovers : int Atomic.t;
  rejects : int Atomic.t;
  spread : int Atomic.t;  (* rotating key for unkeyed kinds *)
  recorder : Recorder.t;  (* router-side flight recorder *)
}

let create (config : config) =
  if config.members = [] then
    invalid_arg "Router.create: at least one member is required";
  let ids = List.map (fun m -> m.m_id) config.members in
  if List.length (List.sort_uniq String.compare ids) <> List.length ids then
    invalid_arg "Router.create: member ids must be distinct";
  let members =
    Array.of_list
      (List.map
         (fun m ->
           Member.create ~id:m.m_id ~host:m.m_host ~port:m.m_port
             ~timeouts:config.forward_timeouts)
         config.members)
  in
  let recorder = Recorder.create () in
  Span.add_sink (Recorder.sink recorder);
  {
    config;
    members;
    ring = Ring.create ~vnodes:config.vnodes ~seed:config.ring_seed ids;
    ring_lock = Mutex.create ();
    requests = Atomic.make 0;
    forwards = Atomic.make 0;
    failovers = Atomic.make 0;
    rejects = Atomic.make 0;
    spread = Atomic.make 0;
    recorder;
  }

let current_ring t =
  Mutex.lock t.ring_lock;
  let ring = t.ring in
  Mutex.unlock t.ring_lock;
  ring

(* Membership changed (ejection or readmission): the ring is rebuilt
   over the currently-routable members.  Seeded placement means
   survivors keep their keys — only the ejected member's share moves,
   and it moves back on readmission. *)
let rebuild_ring t =
  let ids =
    Array.to_list t.members
    |> List.filter Member.available
    |> List.map Member.id
  in
  Mutex.lock t.ring_lock;
  t.ring <- Ring.create ~vnodes:t.config.vnodes ~seed:t.config.ring_seed ids;
  Mutex.unlock t.ring_lock

let member_by_id t id =
  Array.to_seq t.members |> Seq.find (fun m -> Member.id m = id)

let healthy_count t =
  Array.fold_left
    (fun acc m -> if Member.available m then acc + 1 else acc)
    0 t.members

let observe_health t m ~ok =
  match Member.observe t.config.health m ~ok with
  | None -> ()
  | Some Health.Ejection ->
    Span.count "cluster_ejections" 1.;
    Log.emit ~level:Log.Warn "shard_ejected"
      [ ("shard", Log.Str (Member.id m)); ("healthy", Log.I (healthy_count t)) ];
    rebuild_ring t
  | Some Health.Readmission ->
    Span.count "cluster_readmissions" 1.;
    Log.emit "shard_readmitted" [ ("shard", Log.Str (Member.id m)) ];
    rebuild_ring t

(* --- affinity -------------------------------------------------------- *)

let body_key body = Digest.to_hex (Digest.string body)

(* Sweep and explore key on their base query: the whole fan-out lands
   on one shard, where its points share the LRU (and explore its
   prepared BET).  Spreading the points instead would defeat both. *)
let affinity_key t request body =
  match request with
  | Protocol.Analyze q | Protocol.Sweep (q, _) | Protocol.Explore (q, _) -> (
    (* The shard's own cache key; a query that fails to resolve
       still routes deterministically, and its owner answers the
       structured error. *)
    match Dispatch.query_parts q with
    | Ok p -> p.Dispatch.fingerprint
    | Error _ -> body_key body)
  | Protocol.Lint _ | Protocol.Audit _ -> body_key body
  | Protocol.Workloads | Protocol.Machines | Protocol.Stats
  | Protocol.Metrics_prom | Protocol.Version | Protocol.Capabilities
  | Protocol.Cluster_stats | Protocol.Recent _ | Protocol.Trace _ ->
    (* Recent/Trace are served router-locally before routing; the
       spread key is only a fallback should that ever change. *)
    Printf.sprintf "spread-%d" (Atomic.fetch_and_add t.spread 1)

let route_order t key =
  let ring = current_ring t in
  let ids =
    if t.config.load_factor > 0. then
      Ring.route
        ~load:(fun id ->
          match member_by_id t id with
          | Some m -> Member.in_flight m
          | None -> 0)
        ~factor:t.config.load_factor ring key
    else Ring.route ring key
  in
  List.filter_map (member_by_id t) ids
  |> List.filter Member.available

(* --- forwarding ------------------------------------------------------ *)

type forward_outcome =
  | Forwarded of Member.t * string
  | Shard_overloaded of { retry_after_ms : float option; message : string }
  | No_shard

let json_string s = Json.to_string (Json.String s)

(* Inject the router's trace context into the forwarded body, so the
   shard adopts the router's id instead of minting its own — the one
   id then follows query → route → shard → pipeline phases.  A body
   that reaches a forward parsed as an object with at least a ["kind"]
   member, so its first ['{'] opens it and a member follows.  The
   context goes first: {!Json.member} takes a name's first member, so
   it wins over a ["trace"] the caller sent.  Copies the body once and
   never parses it again. *)
let with_trace_context ~trace_id body =
  match String.index_opt body '{' with
  | None -> body
  | Some i ->
    let ctx =
      "\"trace\":{\"id\":" ^ json_string trace_id ^ ",\"parent\":\"router\"},"
    in
    let n = String.length body and m = String.length ctx in
    let out = Bytes.create (n + m) in
    Bytes.blit_string body 0 out 0 (i + 1);
    Bytes.blit_string ctx 0 out (i + 1) m;
    Bytes.blit_string body (i + 1) out (i + 1 + m) (n - i - 1);
    Bytes.unsafe_to_string out

(* Returns the outcome plus how many shards this request failed over
   past (the record's retries column).  Each attempt runs in its own
   child span, so a failover chain is visible in the trace tree. *)
let forward t ~trace_id ~key body =
  let failovers = ref 0 in
  let rec go = function
    | [] -> (No_shard, !failovers)
    | m :: rest -> (
      Member.begin_request m;
      let result =
        Span.with_ ~name:"forward" ~attrs:[ ("shard", Member.id m) ]
          (fun () ->
            Client.pooled_request ~retry:t.config.forward_retry
              (Member.pool m) body)
      in
      match result with
      | Ok resp ->
        Member.end_request m ~ok:true;
        observe_health t m ~ok:true;
        Atomic.incr t.forwards;
        (Forwarded (m, resp), !failovers)
      | Error (Client.Overloaded { retry_after_ms; message }) ->
        (* The shard answered: it is alive, just shedding.  Surface its
           backoff hint instead of stampeding the successor (whose
           cache is cold for this key anyway). *)
        Member.end_request m ~ok:true;
        observe_health t m ~ok:true;
        (Shard_overloaded { retry_after_ms; message }, !failovers)
      | Error e ->
        Member.end_request m ~ok:false;
        (match e with
        | Client.Refused _ | Client.Timeout _ -> observe_health t m ~ok:false
        | _ -> ());
        Member.skip m;
        Atomic.incr t.failovers;
        incr failovers;
        Span.count "cluster_failovers" 1.;
        Log.emit ~level:Log.Warn ~trace_id "failover"
          [
            ("shard", Log.Str (Member.id m));
            ("error", Log.Str (Client.error_label e));
            ("remaining", Log.I (List.length rest));
          ];
        go rest)
  in
  go (route_order t key)

(* [needle] occurs in [s] at [i]; compares in place. *)
let occurs_at s i needle =
  let m = String.length needle in
  let rec go j =
    j = m || (String.unsafe_get s (i + j) = String.unsafe_get needle j && go (j + 1))
  in
  i >= 0 && i + m <= String.length s && go 0

(* Append ["trace_id"] — unless the shard, having adopted the forwarded
   trace context, already echoes one — and ["shard"] to a proxied
   response's top-level object, copying it once.  Proxied bodies can
   be large, so this never re-serializes. *)
let splice_reply ~trace_id ~shard resp =
  let n = String.length resp in
  if n < 2 || resp.[n - 1] <> '}' then resp
  else begin
    let marker = "\"trace_id\":" in
    let rec has_trace i =
      i + String.length marker <= n && (occurs_at resp i marker || has_trace (i + 1))
    in
    let fields =
      (if has_trace 0 then [] else [ marker ^ json_string trace_id ])
      @ [ "\"shard\":" ^ json_string shard ]
    in
    let sep = if resp.[n - 2] = '{' then "" else "," in
    let tail = sep ^ String.concat "," fields ^ "}" in
    let out = Bytes.create (n - 1 + String.length tail) in
    Bytes.blit_string resp 0 out 0 (n - 1);
    Bytes.blit_string tail 0 out (n - 1) (String.length tail);
    Bytes.unsafe_to_string out
  end

let shard_of_response resp =
  let marker = "\"shard\":\"" in
  (* The router appends the field, so scan backwards from the tail. *)
  let rec find i =
    if i < 0 then None else if occurs_at resp i marker then Some i else find (i - 1)
  in
  match find (String.length resp - String.length marker) with
  | None -> None
  | Some i -> (
    let start = i + String.length marker in
    match String.index_from_opt resp start '"' with
    | Some j -> Some (String.sub resp start (j - start))
    | None -> None)

(* --- router-local kinds ---------------------------------------------- *)

let stats_body = Service_api.to_body Service_api.Stats
let version_body = Service_api.to_body Service_api.Version
let capabilities_body = Service_api.to_body Service_api.Capabilities
let metrics_prom_body = Service_api.to_body Service_api.Metrics_prom

(* A side request to one shard (stats / capabilities / metrics
   scrapes): probe timeouts, no retries — a slow shard must not stall
   a cluster_stats answer for long. *)
let side_request t m body =
  match
    Client.request ~timeouts:t.config.probe_timeouts ~retry:Client.no_retry
      ~host:(Member.host m) ~port:(Member.port m) body
  with
  | Error _ -> None
  | Ok resp -> (
    match Service_api.parse_response resp with
    | Ok { Service_api.r_ok = true; r_result = Some r; _ } -> Some r
    | _ -> None)

let ring_json t =
  let ring = current_ring t in
  Json.Obj
    [
      ("seed", Json.Int (Ring.seed ring));
      ("vnodes", Json.Int (Ring.vnodes ring));
      ( "members",
        Json.List (List.map (fun m -> Json.String m) (Ring.members ring)) );
    ]

let member_json ?stats m =
  let s = Member.snapshot m in
  Json.Obj
    ([
       ("id", Json.String (Member.id m));
       ("host", Json.String (Member.host m));
       ("port", Json.Int (Member.port m));
       ("state", Json.String (Health.label s.Member.s_health));
       ("in_flight", Json.Int s.Member.s_in_flight);
       ("forwarded", Json.Int s.Member.s_forwarded);
       ("failovers", Json.Int s.Member.s_failovers);
       ("errors", Json.Int s.Member.s_errors);
       ("probes_ok", Json.Int s.Member.s_probes_ok);
       ("probes_failed", Json.Int s.Member.s_probes_failed);
     ]
    @ match stats with Some j -> [ ("stats", j) ] | None -> [])

let run_cluster_stats t =
  let members =
    Array.to_list t.members
    |> List.map (fun m ->
           let stats =
             if Member.available m then side_request t m stats_body else None
           in
           member_json ?stats m)
  in
  Json.Obj
    [
      ("shards", Json.Int (Array.length t.members));
      ("healthy", Json.Int (healthy_count t));
      ("ring", ring_json t);
      ("members", Json.List members);
      ( "router",
        Json.Obj
          [
            ("requests", Json.Int (Atomic.get t.requests));
            ("forwards", Json.Int (Atomic.get t.forwards));
            ("failovers", Json.Int (Atomic.get t.failovers));
            ("rejects", Json.Int (Atomic.get t.rejects));
          ] );
    ]

let cluster_topology t =
  Json.Obj
    [
      ("shards", Json.Int (Array.length t.members));
      ("healthy", Json.Int (healthy_count t));
      ("ring", ring_json t);
      ( "members",
        Json.List
          (Array.to_list t.members
          |> List.map (fun m ->
                 Json.Obj
                   [
                     ("id", Json.String (Member.id m));
                     ("state", Json.String (Health.label (Member.health m)));
                   ])) );
    ]

(* Capabilities: a shard's own answer (protocol version, kinds, axes)
   extended with the kind only the router serves and the cluster
   topology.  With every shard down, fall back to what Protocol
   guarantees statically. *)
let run_capabilities t =
  let add_cluster_stats = function
    | Json.List kinds
      when not (List.mem (Json.String "cluster_stats") kinds) ->
      Json.List (kinds @ [ Json.String "cluster_stats" ])
    | v -> v
  in
  let base =
    Array.to_list t.members
    |> List.filter Member.available
    |> List.find_map (fun m -> side_request t m capabilities_body)
  in
  let fields =
    match base with
    | Some (Json.Obj fields) ->
      List.map
        (fun (k, v) ->
          if k = "kinds" then (k, add_cluster_stats v) else (k, v))
        fields
    | _ ->
      [
        ("protocol", Json.Int Protocol.protocol_version);
        ( "kinds",
          Json.List
            (List.map
               (fun s -> Json.String s)
               (Protocol.request_kinds @ [ "cluster_stats" ])) );
        ("version", Json.String Core.Version.version);
      ]
  in
  Json.Obj (fields @ [ ("cluster", cluster_topology t) ])

let router_exposition t =
  let count n = [ ([], float_of_int n) ] in
  let per_member value =
    Array.to_list t.members
    |> List.map (fun m ->
           ([ ("shard", Member.id m) ], float_of_int (value (Member.snapshot m))))
  in
  Prom.render
    [
      Prom.Gauge
        {
          name = "skope_cluster_shards";
          help = "Configured cluster shards.";
          values = count (Array.length t.members);
        };
      Prom.Gauge
        {
          name = "skope_cluster_healthy";
          help = "Routable (non-ejected) shards.";
          values = count (healthy_count t);
        };
      Prom.Counter
        {
          name = "skope_cluster_requests_total";
          help = "Requests handled by the router.";
          values = count (Atomic.get t.requests);
        };
      Prom.Gauge
        {
          name = "skope_cluster_member_available";
          help = "Per-shard availability (1 = routable).";
          values =
            per_member (fun s ->
                if Health.available s.Member.s_health then 1 else 0);
        };
      Prom.Counter
        {
          name = "skope_cluster_forwards_total";
          help = "Responses obtained from each shard.";
          values = per_member (fun s -> s.Member.s_forwarded);
        };
      Prom.Counter
        {
          name = "skope_cluster_failovers_total";
          help = "Requests that failed over past each shard.";
          values = per_member (fun s -> s.Member.s_failovers);
        };
      Prom.Counter
        {
          name = "skope_cluster_probe_failures_total";
          help = "Failed health probes per shard.";
          values = per_member (fun s -> s.Member.s_probes_failed);
        };
    ]

let run_metrics_prom t =
  let parts =
    Array.to_list t.members
    |> List.filter Member.available
    |> List.filter_map (fun m ->
           match side_request t m metrics_prom_body with
           | Some r -> (
             match Json.member "body" r with
             | Some (Json.String text) -> Some (Member.id m, text)
             | _ -> None)
           | None -> None)
  in
  Json.Obj
    [
      ("content_type", Json.String "text/plain; version=0.0.4");
      ("body", Json.String (router_exposition t ^ Aggregate.merge parts));
    ]

(* --- flight recorder: merged traces ---------------------------------- *)

(* Fetch one shard's record of [id], relabelling its generic process
   name ("skoped") with the member id so a merged trace names both
   sides of the hop. *)
let shard_trace t m id =
  match side_request t m (Service_api.to_body (Service_api.trace ~id ())) with
  | None -> []
  | Some result ->
    Traceview.processes_of_trace
      (Traceview.relabel_processes ~process:(Member.id m) result)

(* The merged trace: the router's own record (which knows the owning
   shard) plus that shard's span tree.  When the router's ring entry
   has already rotated out, every routable shard is asked in turn. *)
let run_trace t id =
  let own = Recorder.find t.recorder id in
  let shard_processes =
    match Option.bind own (fun r -> r.Recorder.shard) with
    | Some sid -> (
      match member_by_id t sid with
      | Some m -> shard_trace t m id
      | None -> [])
    | None ->
      Array.to_list t.members
      |> List.filter Member.available
      |> List.fold_left
           (fun acc m -> if acc <> [] then acc else shard_trace t m id)
           []
  in
  let own_processes =
    match own with
    | Some r ->
      [
        Json.Obj
          [
            ("process", Json.String "router");
            ("record", Traceview.record_to_json r);
          ];
      ]
    | None -> []
  in
  match own_processes @ shard_processes with
  | [] -> None
  | processes ->
    Some
      (Json.Obj
         [
           ("trace_id", Json.String id); ("processes", Json.List processes);
         ])

(* --- entry points ---------------------------------------------------- *)

let handle ?received_at t body =
  Atomic.incr t.requests;
  Dispatch.answer ~recorder:t.recorder ~span:"route" ~prefix:"rtr" ?received_at
    body
  @@ fun call request ->
  match request with
  | Protocol.Cluster_stats -> Dispatch.Answer (run_cluster_stats t)
  | Protocol.Capabilities -> Dispatch.Answer (run_capabilities t)
  | Protocol.Metrics_prom -> Dispatch.Answer (run_metrics_prom t)
  | Protocol.Recent q -> Dispatch.Answer (Traceview.recent_result t.recorder q)
  | Protocol.Trace id -> (
    match run_trace t id with
    | Some result -> Dispatch.Answer result
    | None ->
      Dispatch.reject Protocol.Invalid_request
        (Printf.sprintf
           "no record of trace %S on the router or any routable shard" id))
  | _ -> (
    (* The shard enforces timeout_ms itself — queue wait is included
       via the forward timeouts.  The forwarded body carries the
       router's trace context. *)
    let trace_id = call.Dispatch.trace_id in
    let outcome, fails =
      forward t ~trace_id
        ~key:(affinity_key t request body)
        (with_trace_context ~trace_id body)
    in
    call.Dispatch.retries <- fails;
    match outcome with
    | Forwarded (m, resp) ->
      call.Dispatch.shard <- Some (Member.id m);
      Dispatch.Relay (splice_reply ~trace_id ~shard:(Member.id m) resp)
    | Shard_overloaded { retry_after_ms; message } ->
      Dispatch.reject ?retry_after_ms Protocol.Overloaded message
    | No_shard ->
      Atomic.incr t.rejects;
      Log.emit ~level:Log.Error ~trace_id "no_shard"
        [ ("kind", Log.Str (Protocol.kind_label request)) ];
      Dispatch.reject
        ~retry_after_ms:(1000. *. t.config.probe_interval_s)
        Protocol.Overloaded
        "no healthy shard available; retry after the next probe cycle")

(* Routable members get a cheap [version] probe; ejected ones must
   answer [capabilities] with a matching protocol version before
   readmission — a shard restarted with an incompatible binary stays
   out of the ring. *)
let probe_member t m =
  let ejected = not (Member.available m) in
  let body = if ejected then capabilities_body else version_body in
  let ok =
    match
      Client.request ~timeouts:t.config.probe_timeouts ~retry:Client.no_retry
        ~host:(Member.host m) ~port:(Member.port m) body
    with
    | Error _ -> false
    | Ok resp -> (
      match Service_api.parse_response resp with
      | Ok { Service_api.r_ok = true; r_result; _ } ->
        if not ejected then true
        else (
          match Option.bind r_result (Json.member "protocol") with
          | Some (Json.Int p) -> p = Protocol.protocol_version
          | _ -> false)
      | _ -> false)
  in
  Member.probe_result m ~ok;
  observe_health t m ~ok

let probe_once t = Array.iter (probe_member t) t.members

let run ?stop ?on_ready ?handle_signals (config : config) =
  let t = create config in
  let stop = match stop with Some s -> s | None -> Atomic.make false in
  let prober =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          probe_once t;
          (* Sleep in slices so shutdown stays prompt. *)
          let slices =
            max 1 (int_of_float (Float.ceil (config.probe_interval_s /. 0.05)))
          in
          let i = ref 0 in
          while !i < slices && not (Atomic.get stop) do
            Thread.delay 0.05;
            incr i
          done
        done)
      ()
  in
  let on_ready =
    match on_ready with
    | Some f -> f
    | None ->
      fun port ->
        Fmt.pr
          "skope router listening on %s:%d (%d shards, %d vnodes, seed %d)@."
          config.net.Server.n_host port
          (List.length config.members)
          config.vnodes config.ring_seed;
        (* Scripts wait for this line before issuing queries. *)
        Format.pp_print_flush Format.std_formatter ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join prober;
      Array.iter (fun m -> Client.close_idle (Member.pool m)) t.members)
  @@ fun () ->
  Server.serve ~stop ~on_ready ?handle_signals ~recorder:t.recorder config.net
    ~handler:(fun ~received_at body -> handle ~received_at t body)
