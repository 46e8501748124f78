(* The traced run: per-layer numbers for one workload.

   Live part (separate processes, untraced): a fresh cluster runs the
   closed loop while the shards' counters, flight recorders and reply
   sizes are read around it; then single-request probes time a raw
   connect, a direct round trip to the owning shard, and the same body
   through the router.

   In-process part: the workload's bodies are replayed in order.  Each
   is first answered by [Dispatch.handle] (on a dispatcher in the cache
   state of the live phase), then taken apart by calling each layer's
   public function in dispatch order, every call wrapped in a
   harness-side span [bench.<layer>] under a [bench.request] root.
   Spans stay in memory; the first requests' spans are written as one
   Chrome trace at the end.  A layer's self time is its span's duration
   minus what its child spans cover. *)

module Json = Core.Report.Json
module Span = Core.Telemetry.Span
module A = Skope_service.Service_api
module Protocol = Skope_service.Protocol
module Dispatch = Skope_service.Dispatch
module Fingerprint = Skope_service.Fingerprint
module Lru = Skope_service.Lru
module Registry = Core.Workloads.Registry
module Machine = Core.Hw.Machine
module Machines = Core.Hw.Machines
module Designspace = Core.Hw.Designspace
module Libmix = Core.Hw.Libmix
module Hotspot = Core.Analysis.Hotspot
module Perf = Core.Analysis.Perf
module Arena_price = Core.Analysis.Arena_price
module Arena = Core.Bet.Arena
module Build = Core.Bet.Build
module Bst = Core.Bet.Bst
module Hints = Core.Bet.Hints
module Validate = Core.Skeleton.Validate
module Parser = Core.Skeleton.Parser
module Lint = Core.Lint
module Explore = Skope_explore.Explore

(* --- harness spans -------------------------------------------------- *)

type span = {
  id : int;
  name : string;
  req : int;
  parent : int;  (** -1 for a root *)
  t0 : int;  (** ns *)
  t1 : int;
}

let spans : span list ref = ref []
let next_id = ref 0
let current = ref (-1)
let current_req = ref 0

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = !current in
  current := id;
  let t0 = Mono.now_ns () in
  match f () with
  | r ->
    let t1 = Mono.now_ns () in
    current := parent;
    spans := { id; name; req = !current_req; parent; t0; t1 } :: !spans;
    r
  | exception e ->
    current := parent;
    raise e

(* Span names; a layer's metric is its name plus "_us". *)
let handle = "dispatch.handle"
let root = "request"
let side = "side"

(* Layers on the dispatch path, in order; their self times should add
   up to [dispatch.handle]. *)
let path_layers =
  [
    "protocol.parse_request"; "fingerprint.of_query"; "lru.find";
    "registry.make"; "validate.check"; "lint.engine"; "build.bet";
    "perf.project"; "hotspot.select"; "explore.grid_points";
    "explore.pareto"; "parser.parse"; "audit.run"; "protocol.ok_response";
  ]

(* --- the decomposition ---------------------------------------------- *)

type state = {
  dispatch : Dispatch.t;
  lru : float Lru.t;  (** harness-owned: fingerprint -> total ms *)
  mutable skipped : float;  (** arena delta-chain counters, summed *)
  mutable priced : float;
}

let criteria (q : Protocol.query) =
  { Hotspot.time_coverage = q.Protocol.coverage; code_leanness = q.Protocol.leanness }

let parts (q : Protocol.query) =
  let w = Registry.find_exn q.Protocol.workload in
  let machine =
    match Protocol.resolve_machine q with Ok m -> m | Error (_, msg) -> failwith msg
  in
  (w, machine, Option.value ~default:w.Registry.default_scale q.Protocol.scale)

let fingerprint (q : Protocol.query) (w : Registry.t) ~scale machine =
  span "fingerprint.of_query" (fun () ->
      Fingerprint.of_query ~workload:w.Registry.name ~machine ~scale
        ~criteria:(criteria q) ~top:q.Protocol.top ~engine:"tree")

(* The machine-independent prefix: make -> validate -> lint -> build. *)
let prepare (w : Registry.t) ~scale =
  let program, inputs = span "registry.make" (fun () -> w.Registry.make ~scale) in
  ignore
    (span "validate.check" (fun () ->
         Validate.check ~inputs:(List.map fst inputs) program));
  ignore (span "lint.engine" (fun () -> Lint.Engine.run ~inputs program));
  span "build.bet" (fun () ->
      Build.build ~hints:Hints.empty
        ~lib_work:(Libmix.work_fn w.Registry.libmix)
        ~inputs program)

let price q (built : Build.result) machine =
  let p = span "perf.project" (fun () -> Perf.project machine built) in
  ignore
    (span "hotspot.select" (fun () ->
         Hotspot.select ~criteria:(criteria q) ~assume_ranked:true
           ~total_instructions:(Bst.total_instructions built.Build.bst)
           p.Perf.blocks));
  p.Perf.total_time *. 1e3

(* One projection through the cache; a miss under the default (tree)
   engine reruns the whole pipeline, as [Dispatch] does. *)
let cached st q w ~scale ~miss machine =
  let key = fingerprint q w ~scale machine in
  match span "lru.find" (fun () -> Lru.find st.lru key) with
  | Some t_ms -> t_ms
  | None ->
    let t_ms = miss machine in
    Lru.add st.lru key t_ms;
    t_ms

let explore st q spec =
  let w, base, scale = parts q in
  ignore (fingerprint q w ~scale base);
  let pts =
    span "explore.grid_points" (fun () ->
        Explore.grid_points ?sample:spec.Protocol.e_sample ~seed:spec.Protocol.e_seed
          base spec.Protocol.e_axes)
  in
  let built = lazy (prepare w ~scale) in
  let points =
    List.map
      (fun (pt : Designspace.point) ->
        let m = pt.Designspace.p_machine in
        ( cached st q w ~scale ~miss:(fun m -> price q (Lazy.force built) m) m,
          Explore.cost_proxy m ))
      pts
  in
  ignore (span "explore.pareto" (fun () -> Explore.pareto_by ~metrics:Fun.id points));
  if Lazy.is_val built then
    Some (Lazy.force built, List.map (fun (p : Designspace.point) -> p.Designspace.p_machine) pts)
  else None

let lint source =
  let program = span "parser.parse" (fun () -> Parser.parse ~file:"<request>" source) in
  ignore (span "validate.check" (fun () -> Validate.check program));
  ignore (span "lint.engine" (fun () -> Lint.Engine.run program))

let audit (q : Protocol.audit_query) source =
  let program = span "parser.parse" (fun () -> Parser.parse ~file:"<request>" source) in
  if span "validate.check" (fun () -> Validate.check program) = [] then begin
    let machine = Option.get (Machines.find q.Protocol.a_machine) in
    let config =
      {
        Lint.Audit.default_config with
        Lint.Audit.disabled = q.Protocol.a_disabled;
        machine;
        ranks = q.Protocol.a_ranks;
      }
    in
    ignore (span "audit.run" (fun () -> Lint.Audit.run ~config program))
  end

(* Returns the re-rendered reply, plus the BET and machines of an
   explore request for the arena side measurement. *)
let decompose st ~trace_id ~result body =
  let arena_input =
    match span "protocol.parse_request" (fun () -> Protocol.parse_request body) with
    | Ok (Protocol.Analyze q, _) ->
      let w, machine, scale = parts q in
      ignore (fingerprint q w ~scale machine);
      ignore
        (cached st q w ~scale machine ~miss:(fun m -> price q (prepare w ~scale) m));
      None
    | Ok (Protocol.Sweep (q, axis), _) ->
      let w, base, scale = parts q in
      ignore (fingerprint q w ~scale base);
      List.iter
        (fun (_, variant) ->
          let machine = { variant with Machine.name = base.Machine.name } in
          ignore
            (cached st q w ~scale machine ~miss:(fun m ->
                 price q (prepare w ~scale) m)))
        (Designspace.variants base axis);
      None
    | Ok (Protocol.Explore (q, spec), _) -> explore st q spec
    | Ok (Protocol.Lint { Protocol.l_source = Some source; _ }, _) ->
      lint source;
      None
    | Ok (Protocol.Audit ({ Protocol.a_source = Some source; _ } as q), _) ->
      audit q source;
      None
    | Ok _ | Error _ -> failwith ("no decomposition for body " ^ body)
  in
  (span "protocol.ok_response" (fun () -> Protocol.ok_response ~trace_id result), arena_input)

let counter name = Option.value ~default:0. (List.assoc_opt name (Span.counters ()))

(* Timed beside the path, under a [bench.side] root: serialization
   alone (it is also inside ok_response) and, for explore requests, the
   arena engine, which the default tree engine does not run but which
   prices the same points. *)
let side_measurements st result arena_input =
  ignore (span "json.to_string" (fun () -> Json.to_string result));
  Option.iter
    (fun (built, machines) ->
      let arena = span "arena.of_build" (fun () -> Arena.of_build built) in
      List.iter
        (fun m -> ignore (span "arena_price.price" (fun () -> Arena_price.price arena m)))
        machines;
      let skipped0 = counter "arena_reprice_skipped"
      and priced0 = counter "arena_nodes_priced" in
      ignore
        (List.fold_left
           (fun prev m ->
             Some
               (span "arena_price.delta" (fun () ->
                    match prev with
                    | None -> Arena_price.price arena m
                    | Some p -> Arena_price.price_delta ~prev:p arena m)))
           None machines);
      st.skipped <- st.skipped +. (counter "arena_reprice_skipped" -. skipped0);
      st.priced <- st.priced +. (counter "arena_nodes_priced" -. priced0))
    arena_input

(* Answer [body] as the server would, then take it apart.  Returns
   whether the decomposition re-rendered the same reply. *)
let replay_one st i body =
  current_req := i;
  let reply = span handle (fun () -> Dispatch.handle st.dispatch body) in
  match A.parse_response reply with
  | Ok { A.r_ok = true; r_result = Some result; r_trace_id = Some trace_id; _ } ->
    let rendered, arena_input = span root (fun () -> decompose st ~trace_id ~result body) in
    span side (fun () -> side_measurements st result arena_input);
    rendered = reply
  | _ -> failwith ("in-process dispatch failed: " ^ reply)

(* --- live phase ----------------------------------------------------- *)

type live = {
  p50_ms : float;  (** untraced closed-loop median, for attribution *)
  requests : int;
  failed : int;
  response_kb : float;
  hit_ratio : float;
  evictions : float;
  failovers : float;
  nodes_per_request : float;
  queue_wait_ms : float array;
  connect_us : float array;
  direct_us : float array;
  routed_us : float array;
}

let number path j = Option.value ~default:0. (Report.number path j)

(* A shard statistic summed over the members of a cluster_stats reply. *)
let shard_sum path stats =
  List.fold_left
    (fun acc m -> acc +. number ("stats" :: "metrics" :: path) m)
    0. (Report.items [ "members" ] stats)

let snapshot c =
  match Cluster.cluster_stats c with
  | Some s -> s
  | None -> failwith "cluster_stats failed"

(* Queue waits of the shards' most recent requests (their flight
   recorders keep the last 512). *)
let queue_waits (c : Cluster.t) =
  Array.to_list c.Cluster.shards
  |> List.concat_map (fun (s : Cluster.proc) ->
         match Cluster.query ~port:s.Cluster.port (A.recent ~n:512 ()) with
         | Some r -> List.map (number [ "queue_wait_ms" ]) (Report.items [ "records" ] r)
         | None -> [])
  |> Array.of_list

let timed_us f =
  let t0 = Mono.now_ns () in
  let r = f () in
  (r, float_of_int (Mono.now_ns () - t0) /. 1e3)

let connect_us port =
  snd
    (timed_us (fun () ->
         let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
         Fun.protect
           ~finally:(fun () -> Unix.close sock)
           (fun () ->
             Unix.connect sock
               (Unix.ADDR_INET (Unix.inet_addr_of_string Cluster.host, port)))))

(* Single-request probes, one at a time.  Each probe body goes through
   the router once (which also caches it on its owner and names the
   owner), then directly to that owner, then through the router again:
   the last two see the same cache state.  A bare connect to the owner
   rides along; spacing those out keeps dead connections from piling up
   in a shard's accept queue. *)
let hop_probes (c : Cluster.t) traffic ~first ~deadline =
  let connect = ref [] and direct = ref [] and routed = ref [] in
  let rport = c.Cluster.router.Cluster.port in
  let rec go i =
    if i < first + 200 && Mono.now_ns () < deadline then begin
      let b = Traffic.body traffic i in
      (match Cluster.request ~port:rport b with
      | Ok r -> (
        match Cluster.owner c r with
        | Some owner ->
          connect := connect_us owner.Cluster.port :: !connect;
          let _, d = timed_us (fun () -> Cluster.request ~port:owner.Cluster.port b) in
          let _, r2 = timed_us (fun () -> Cluster.request ~port:rport b) in
          direct := d :: !direct;
          routed := r2 :: !routed
        | None -> ())
      | Error _ -> ());
      go (i + 1)
    end
  in
  go first;
  (Array.of_list !connect, Array.of_list !direct, Array.of_list !routed)

let live ~skope ~log_dir ~seconds ~probe_seconds traffic =
  Cluster.with_cluster ~skope ~log_dir (fun c ->
      E2e.warm c traffic;
      let before = snapshot c in
      let load =
        Load.run ~port:c.Cluster.router.Cluster.port ~seconds
          (Traffic.body traffic)
      in
      let after = snapshot c in
      let delta path = shard_sum path after -. shard_sum path before in
      let hits = delta [ "cache_hits" ] and misses = delta [ "cache_misses" ] in
      (* Read before the probes add their own records. *)
      let queue_wait_ms = queue_waits c in
      let deadline = Mono.now_ns () + int_of_float (probe_seconds *. 1e9) in
      let connect_us, direct_us, routed_us =
        hop_probes c traffic ~first:load.Load.next_index ~deadline
      in
      let ok = load.Load.attempted - load.Load.failed in
      let per_request x = if load.Load.attempted = 0 then 0. else x /. float_of_int load.Load.attempted in
      {
        p50_ms = Stats.percentile load.Load.latencies_ms 50;
        requests = load.Load.attempted;
        failed = load.Load.failed;
        response_kb =
          (if ok = 0 then 0. else float_of_int load.Load.reply_bytes /. float_of_int ok /. 1024.);
        hit_ratio = (if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
        evictions = delta [ "counters"; "lru_evictions" ];
        failovers =
          number [ "router"; "failovers" ] after -. number [ "router"; "failovers" ] before;
        nodes_per_request = per_request (delta [ "counters"; "bet_nodes_built" ]);
        queue_wait_ms;
        connect_us;
        direct_us;
        routed_us;
      })

(* --- overhead loops ------------------------------------------------- *)

(* Median per-call cost of [b] against [a], as a percentage change.
   Calls alternate one by one for [seconds], each after its untimed
   set-up, so drift in machine speed hits both sides alike. *)
let overhead_pct ~seconds (setup_a, a) (setup_b, b) =
  let deadline = Mono.now_ns () + int_of_float (seconds *. 1e9) in
  let xs = ref [] and ys = ref [] in
  while !xs = [] || Mono.now_ns () < deadline do
    setup_a ();
    xs := snd (timed_us a) :: !xs;
    setup_b ();
    ys := snd (timed_us b) :: !ys
  done;
  let median l = Stats.median (Array.of_list l) in
  100. *. ((median !ys /. median !xs) -. 1.)

(* The harness span around [Dispatch.handle], on vs off. *)
let trace_overhead_pct ~seconds st body =
  overhead_pct ~seconds
    (ignore, fun () -> ignore (Dispatch.handle st.dispatch body))
    ( (fun () -> spans := []),
      fun () -> ignore (span handle (fun () -> Dispatch.handle st.dispatch body)) )

(* The flight recorder's marginal cost, measured as bench/main.ml's
   recorder section does: one dispatcher answering the same repeated
   body with the span-sink bus silenced (its begin/commit bookkeeping
   still runs) against the same dispatcher with its own sinks
   subscribed.  Leaves those sinks installed. *)
let recorder_overhead_pct ~seconds body =
  Span.clear_sinks ();
  let d = Dispatch.create () in
  ignore (Dispatch.handle d body);
  let subscribe () =
    Span.clear_sinks ();
    Span.add_sink (Skope_service.Metrics.sink d.Dispatch.metrics);
    Span.add_sink (Core.Telemetry.Recorder.sink d.Dispatch.recorder)
  in
  let run () = ignore (Dispatch.handle d body) in
  overhead_pct ~seconds (Span.clear_sinks, run) (subscribe, run)

(* --- the traced run ------------------------------------------------- *)

let dur_us s = float_of_int (s.t1 - s.t0) /. 1e3

(* Self time of every span: its duration minus what its children cover
   (children never overlap: one domain, nested calls). *)
let self_us all =
  let covered = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (dur_us s +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    all;
  fun s -> dur_us s -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)

let write_chrome file ~requests all =
  let kept = List.filter (fun s -> s.req >= 0 && s.req < requests) all in
  let origin = List.fold_left (fun acc s -> min acc s.t0) max_int kept in
  let event s =
    Json.Obj
      [
        ("name", Json.String ("bench." ^ s.name));
        ("ph", Json.String "X");
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("ts", Json.Float (float_of_int (s.t0 - origin) /. 1e3));
        ("dur", Json.Float (dur_us s));
        ( "args",
          Json.Obj
            [ ("req", Json.Int s.req); ("id", Json.Int s.id); ("parent", Json.Int s.parent) ] );
      ]
  in
  let json =
    Json.Obj
      [
        ("displayTimeUnit", Json.String "ms");
        ("traceEvents", Json.List (List.rev_map event kept));
      ]
  in
  Out_channel.with_open_bin file (fun oc -> output_string oc (Json.to_string json))

type result = {
  metrics : Report.metric list;  (** the per-layer metrics, fixed order *)
  notes : Report.metric list;  (** diagnostics printed but not gated *)
  attempted : int;  (** live requests plus replayed ones *)
  failed : int;
  rerender_mismatches : int;
}

(* [seconds] is split: 50% closed loop (long enough for cold-analyze
   to fill the shards' LRUs and start evicting), up to 10% hop probes,
   25% in-process replay, 15% overhead loops. *)
let run ~skope ~log_dir ~seconds ~trace_file ~trace_requests traffic =
  let live =
    live ~skope ~log_dir ~seconds:(0.5 *. seconds) ~probe_seconds:(0.1 *. seconds)
      traffic
  in
  Span.clear_sinks ();
  spans := [];
  next_id := 0;
  let st =
    { dispatch = Dispatch.create (); lru = Lru.create ~capacity:4096; skipped = 0.; priced = 0. }
  in
  Array.iteri (fun j b -> ignore (replay_one st (-1 - j) b)) (Traffic.warm_bodies traffic);
  spans := [];
  st.skipped <- 0.;
  st.priced <- 0.;
  let deadline = Mono.now_ns () + int_of_float (0.25 *. seconds *. 1e9) in
  let rec replay i bad =
    if i > 0 && Mono.now_ns () >= deadline then (i, bad)
    else replay (i + 1) (if replay_one st i (Traffic.body traffic i) then bad else bad + 1)
  in
  let replayed, rerender_mismatches = replay 0 0 in
  let by_name = Hashtbl.create 32 in
  let () =
    let all = !spans in
    spans := [];
    write_chrome trace_file ~requests:trace_requests all;
    let self = self_us all in
    List.iter
      (fun s ->
        Hashtbl.replace by_name s.name
          (self s :: Option.value ~default:[] (Hashtbl.find_opt by_name s.name)))
      all
  in
  let samples name = Array.of_list (Option.value ~default:[] (Hashtbl.find_opt by_name name)) in
  (* The overhead loops compare small differences; the replay's spans
     are dropped first so their heap does not load the GC during them. *)
  Gc.compact ();
  let body0 = Traffic.body traffic 0 in
  let trace_pct = trace_overhead_pct ~seconds:(0.075 *. seconds) st body0 in
  let recorder_pct = recorder_overhead_pct ~seconds:(0.075 *. seconds) body0 in
  let per_request name = Array.fold_left ( +. ) 0. (samples name) /. float_of_int replayed in
  let layer name = Report.dist (name ^ "_us") "us" (samples name) in
  let path_sum = List.fold_left (fun acc l -> acc +. per_request l) 0. path_layers in
  let handle_mean = per_request handle in
  let p50_us = live.p50_ms *. 1e3 in
  let direct = Report.dist "server.rtt_direct_us" "us" live.direct_us in
  let routed = Stats.percentile (Stats.sorted live.routed_us) 50 in
  let m = Report.metric in
  let metrics =
    [
      Report.dist "client.connect_us" "us" live.connect_us;
      direct;
      m "router.overhead_us" "us"
        (if Array.length live.routed_us = 0 then 0. else routed -. direct.Report.value)
        ~detail:(Printf.sprintf "n=%d" (Array.length live.routed_us));
      Report.dist "server.queue_wait_ms" "ms" live.queue_wait_ms;
      m "server.response_kb" "KB" live.response_kb;
      m "lru.hit_ratio" "ratio" live.hit_ratio;
      m "lru.evictions" "count" live.evictions;
      m "router.failovers" "count" live.failovers;
      layer handle;
      layer "protocol.parse_request";
      layer "fingerprint.of_query";
      layer "lru.find";
      layer "protocol.ok_response";
      m "recorder.overhead_pct" "%" recorder_pct;
      layer "registry.make";
      layer "validate.check";
      layer "lint.engine";
      layer "build.bet";
      m "build.nodes_per_request" "count" live.nodes_per_request;
      layer "arena.of_build";
      layer "perf.project";
      layer "arena_price.price";
      layer "arena_price.delta";
      m "arena_price.skip_ratio" "ratio"
        (if st.skipped +. st.priced > 0. then st.skipped /. (st.skipped +. st.priced) else 0.);
      layer "hotspot.select";
      layer "explore.grid_points";
      layer "explore.pareto";
      layer "json.to_string";
      layer "parser.parse";
      layer "audit.run";
      m "trace.unattributed_pct" "%" (100. *. (p50_us -. path_sum) /. p50_us);
      m "trace.overhead_pct" "%" trace_pct;
    ]
  in
  let notes =
    [
      m "trace.live_requests" "count" (float_of_int live.requests);
      m "trace.live_p50_ms" "ms" live.p50_ms;
      m "trace.replayed" "count" (float_of_int replayed);
      m "trace.handle_mean_us" "us" handle_mean;
      m "trace.layer_sum_us" "us" path_sum
        ~detail:(Printf.sprintf "%.1f%% of the mean dispatch.handle" (100. *. path_sum /. handle_mean));
      m "trace.rerender_mismatches" "count" (float_of_int rerender_mismatches);
    ]
  in
  {
    metrics;
    notes;
    attempted = live.requests + replayed;
    failed = live.failed;
    rerender_mismatches;
  }
