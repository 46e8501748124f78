(* Tests for the design-space exploration engine and its service
   surface: grid/sampling, shared-BET reuse equivalence, the Pareto
   frontier, explore-vs-sweep byte identity through Dispatch, the
   capabilities request, protocol versioning and the typed
   Service_api builders. *)

module Json = Core.Report.Json
module Service = Skope_service
module Explore = Skope_explore.Explore
module P = Core.Pipeline
module Designspace = Core.Hw.Designspace
module Machines = Core.Hw.Machines
module Registry = Core.Workloads.Registry
module Span = Core.Telemetry.Span

let bgq () = Option.get (Machines.find "bgq")
let sord () = Option.get (Registry.find "sord")

let handle ?received_at ?(dispatch = Service.Dispatch.create ()) body =
  Service.Dispatch.handle ?received_at dispatch body

let result_of response =
  match Json.of_string response with
  | Error e -> Alcotest.failf "response is not JSON (%s): %s" e response
  | Ok r -> (
    match (Json.member "ok" r, Json.member "result" r) with
    | Some (Json.Bool true), Some result -> result
    | _ -> Alcotest.failf "expected ok response: %s" response)

let error_of response =
  match Json.of_string response with
  | Error e -> Alcotest.failf "response is not JSON (%s): %s" e response
  | Ok r -> (
    match Json.member "ok" r with
    | Some (Json.Bool true) -> Alcotest.failf "expected error: %s" response
    | _ ->
      let err = Option.get (Json.member "error" r) in
      let str key =
        match Json.member key err with
        | Some (Json.String s) -> s
        | _ -> Alcotest.failf "error without %s: %s" key response
      in
      (str "code", str "message"))

(* --- grids and sampling -------------------------------------------- *)

let test_grid_shape () =
  let base = bgq () in
  let axes =
    [ Designspace.Mem_bandwidth [ 7.; 14. ]; Designspace.Vector_width [ 2; 4 ] ]
  in
  let pts = Designspace.grid base axes in
  Alcotest.(check int) "grid size" 4 (List.length pts);
  Alcotest.(check int) "grid_size agrees" 4 (Designspace.grid_size axes);
  Alcotest.(check (list string))
    "tags, first axis slowest"
    [ "bw=7.0,vec=2"; "bw=7.0,vec=4"; "bw=14.0,vec=2"; "bw=14.0,vec=4" ]
    (List.map (fun (p : Designspace.point) -> p.Designspace.p_tag) pts);
  (* single-axis tags are the bare sweep tags *)
  let single = Designspace.grid base [ Designspace.Mem_bandwidth [ 7.; 14. ] ] in
  Alcotest.(check (list string))
    "single-axis bare tags" [ "7.0"; "14.0" ]
    (List.map (fun (p : Designspace.point) -> p.Designspace.p_tag) single);
  (* values land on the machine *)
  let p = List.nth pts 3 in
  Alcotest.(check (float 1e-9)) "bw applied" 14.
    p.Designspace.p_machine.Core.Hw.Machine.mem_bw_gbs;
  Alcotest.(check int) "vec applied" 4
    p.Designspace.p_machine.Core.Hw.Machine.vector_width

let test_sample_deterministic () =
  let base = bgq () in
  let axes =
    [
      Designspace.Mem_bandwidth [ 1.; 2.; 4.; 8. ];
      Designspace.Frequency [ 0.8; 1.6; 3.2 ];
    ]
  in
  let tags seed =
    Designspace.sample ~seed ~n:6 base axes
    |> List.map (fun (p : Designspace.point) -> p.Designspace.p_tag)
  in
  Alcotest.(check (list string)) "same seed, same sample" (tags 7) (tags 7);
  let s = Designspace.sample ~n:6 base axes in
  Alcotest.(check bool) "at most n points" true (List.length s <= 6);
  Alcotest.(check bool) "non-empty" true (s <> []);
  (* latin-hypercube property: with n a multiple of the axis arity,
     every level of every axis is covered *)
  let covered key =
    List.sort_uniq compare
      (List.concat_map
         (fun (p : Designspace.point) ->
           List.filter_map
             (fun (k, v) -> if k = key then Some v else None)
             p.Designspace.p_values)
         (Designspace.sample ~seed:1 ~n:12 base axes))
  in
  Alcotest.(check int) "all bw levels drawn" 4 (List.length (covered "bw"));
  Alcotest.(check int) "all freq levels drawn" 3 (List.length (covered "freq"))

(* --- shared-BET reuse ---------------------------------------------- *)

(* The whole point of the engine: pricing a shared prepared BET must
   give exactly the result of running the full pipeline per point. *)
let test_reuse_equivalence () =
  let w = sord () in
  let scale = w.Registry.default_scale in
  let base = bgq () in
  let axes =
    [ Designspace.Frequency [ 0.8; 1.6 ]; Designspace.Mem_bandwidth [ 7.; 28. ] ]
  in
  let pts = Explore.grid_points base axes in
  let prepared = P.Prepared.create ~workload:w ~scale () in
  let r = Explore.evaluate prepared pts in
  Alcotest.(check int) "every point evaluated" 4 (List.length r.Explore.points);
  List.iter
    (fun (p : Explore.point) ->
      let fresh =
        P.analyze ~machine:p.Explore.machine ~workload:w ~scale ()
      in
      Alcotest.(check (float 0.))
        (p.Explore.tag ^ " total time identical")
        fresh.P.a_projection.Core.Analysis.Perf.total_time p.Explore.time;
      Alcotest.(check int)
        (p.Explore.tag ^ " same selection")
        (List.length fresh.P.a_selection.Core.Analysis.Hotspot.spots)
        (List.length
           p.Explore.outcome.P.Prepared.o_selection.Core.Analysis.Hotspot.spots))
    r.Explore.points

let test_parallel_matches_sequential () =
  let w = sord () in
  let scale = w.Registry.default_scale in
  let base = bgq () in
  let axes =
    [
      Designspace.Frequency [ 0.8; 1.6; 3.2 ];
      Designspace.Mem_bandwidth [ 7.; 14.; 28. ];
    ]
  in
  let pts = Explore.grid_points base axes in
  let prepared = P.Prepared.create ~workload:w ~scale () in
  let streamed = Atomic.make 0 in
  let seq = Explore.evaluate ~jobs:1 prepared pts in
  let par =
    Explore.evaluate ~jobs:4
      ~on_point:(fun _ -> Atomic.incr streamed)
      prepared pts
  in
  Alcotest.(check int) "on_point saw every point" 9 (Atomic.get streamed);
  Alcotest.(check (list string))
    "same order"
    (List.map (fun (p : Explore.point) -> p.Explore.tag) seq.Explore.points)
    (List.map (fun (p : Explore.point) -> p.Explore.tag) par.Explore.points);
  List.iter2
    (fun (a : Explore.point) (b : Explore.point) ->
      Alcotest.(check (float 0.)) "same time" a.Explore.time b.Explore.time)
    seq.Explore.points par.Explore.points;
  Alcotest.(check (list string))
    "same pareto"
    (List.map (fun (p : Explore.point) -> p.Explore.tag) seq.Explore.pareto)
    (List.map (fun (p : Explore.point) -> p.Explore.tag) par.Explore.pareto)

let test_explore_counters () =
  let w = sord () in
  let base = bgq () in
  let pts = Explore.grid_points base [ Designspace.Frequency [ 0.8; 1.6 ] ] in
  let prepared = P.Prepared.create ~workload:w ~scale:w.Registry.default_scale () in
  let before name =
    Option.value ~default:0. (List.assoc_opt name (Span.counters ()))
  in
  let pts_before = before "explore_points_evaluated" in
  let reuse_before = before "explore_bet_reuse_hits" in
  let built_before = before "bet_nodes_built" in
  ignore (Explore.evaluate prepared pts);
  Alcotest.(check (float 0.))
    "points counter" (pts_before +. 2.)
    (before "explore_points_evaluated");
  Alcotest.(check (float 0.))
    "reuse counter" (reuse_before +. 2.)
    (before "explore_bet_reuse_hits");
  (* the grid shares the prepared BET: evaluating builds no node *)
  Alcotest.(check (float 0.))
    "no BET built" built_before (before "bet_nodes_built")

(* --- pareto -------------------------------------------------------- *)

let test_pareto_hand_built () =
  (* (time, cost): b dominates c; a and b trade off. *)
  let items = [ ("a", (1., 3.)); ("b", (2., 1.)); ("c", (3., 2.)) ] in
  let frontier = Explore.pareto_by ~metrics:snd items in
  Alcotest.(check (list string))
    "dominated point dropped, sorted by time" [ "a"; "b" ]
    (List.map fst frontier);
  (* duplicates of a frontier metric all survive *)
  let dup = [ ("a", (1., 1.)); ("b", (1., 1.)) ] in
  Alcotest.(check int) "ties survive" 2
    (List.length (Explore.pareto_by ~metrics:snd dup));
  (* a single point is always the frontier *)
  Alcotest.(check int) "singleton" 1
    (List.length (Explore.pareto_by ~metrics:snd [ ("x", (5., 5.)) ]))

(* --- service surface ----------------------------------------------- *)

let points_of result =
  match Json.member "points" result with
  | Some (Json.List ps) -> ps
  | _ -> Alcotest.failf "no points in %s" (Json.to_string result)

let test_explore_matches_sweep () =
  (* A 1-axis explore must reproduce the sweep's points byte for
     byte, computed independently on fresh dispatchers. *)
  let sweep_resp =
    handle
      {|{"kind":"sweep","workload":"sord","machine":"bgq","axis":"bw","values":[7,14,28]}|}
  in
  let explore_resp =
    handle
      {|{"kind":"explore","workload":"sord","machine":"bgq","axes":[{"axis":"bw","values":[7,14,28]}]}|}
  in
  let sweep_pts = points_of (result_of sweep_resp) in
  let explore_pts = points_of (result_of explore_resp) in
  Alcotest.(check (list string))
    "points byte-identical"
    (List.map Json.to_string sweep_pts)
    (List.map Json.to_string explore_pts)

let test_explore_response_shape () =
  let dispatch = Service.Dispatch.create () in
  let resp =
    handle ~dispatch
      {|{"kind":"explore","workload":"sord","machine":"bgq","axes":[{"axis":"freq","values":[0.8,1.6]},{"axis":"bw","values":[7,28]}]}|}
  in
  let result = result_of resp in
  Alcotest.(check int) "4 points" 4 (List.length (points_of result));
  Alcotest.(check bool) "grid size" true
    (Json.member "grid" result = Some (Json.Int 4));
  (match Json.member "pareto" result with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.failf "missing pareto: %s" (Json.to_string result));
  (* every point's analysis carries the Tc/Tm/To split *)
  List.iter
    (fun pt ->
      match Option.bind (Json.member "analysis" pt) (Json.member "split") with
      | Some (Json.Obj fields) ->
        List.iter
          (fun k ->
            if not (List.mem_assoc k fields) then
              Alcotest.failf "split lacks %s" k)
          [ "tc_ms"; "tm_ms"; "to_ms" ]
      | _ -> Alcotest.failf "point lacks split: %s" (Json.to_string pt))
    (points_of result);
  (* a repeat of the same grid is fully served from the cache *)
  let v0 = Service.Metrics.view dispatch.Service.Dispatch.metrics in
  ignore
    (handle ~dispatch
       {|{"kind":"explore","workload":"sord","machine":"bgq","axes":[{"axis":"freq","values":[0.8,1.6]},{"axis":"bw","values":[7,28]}]}|});
  let v1 = Service.Metrics.view dispatch.Service.Dispatch.metrics in
  Alcotest.(check int) "all cache hits" 4
    (v1.Service.Metrics.cache_hits - v0.Service.Metrics.cache_hits);
  Alcotest.(check int) "no new misses" 0
    (v1.Service.Metrics.cache_misses - v0.Service.Metrics.cache_misses)

let test_explore_sampled () =
  let resp =
    handle
      {|{"kind":"explore","workload":"sord","machine":"bgq","axes":[{"axis":"freq","values":[0.8,1.6,3.2]},{"axis":"bw","values":[7,14,28]}],"sample":4,"seed":9}|}
  in
  let result = result_of resp in
  Alcotest.(check bool) "at most 4 points" true
    (List.length (points_of result) <= 4);
  Alcotest.(check bool) "echoes sample" true
    (Json.member "sample" result = Some (Json.Int 4))

let test_explore_validation () =
  let code body = fst (error_of (handle body)) in
  Alcotest.(check string) "missing axes" "invalid_request"
    (code {|{"kind":"explore","workload":"sord","machine":"bgq"}|});
  Alcotest.(check string) "empty axes" "invalid_request"
    (code {|{"kind":"explore","workload":"sord","machine":"bgq","axes":[]}|});
  Alcotest.(check string) "duplicate axis" "invalid_request"
    (code
       {|{"kind":"explore","workload":"sord","machine":"bgq","axes":[{"axis":"bw","values":[1]},{"axis":"bw","values":[2]}]}|});
  (* [skope explore] applies the same rule to its --axis list. *)
  Alcotest.(check (result unit string))
    "duplicate axis rule" (Error {|axis "bw" appears more than once|})
    (Designspace.distinct
       [
         Designspace.Frequency [ 0.8 ];
         Designspace.Mem_bandwidth [ 7. ];
         Designspace.Mem_bandwidth [ 14. ];
       ]);
  Alcotest.(check string) "unknown axis key" "invalid_request"
    (code
       {|{"kind":"explore","workload":"sord","machine":"bgq","axes":[{"axis":"warp","values":[1]}]}|});
  List.iter
    (fun (axis, values) ->
      Alcotest.(check string)
        (Printf.sprintf "axis %s %s" axis values)
        "invalid_request"
        (code
           (Printf.sprintf
              {|{"kind":"explore","workload":"sord","machine":"bgq","axes":[{"axis":"bw","values":[7,14]},{"axis":"%s","values":%s}]}|}
              axis values)))
    [
      ("freq", "[0.8,0]"); ("issue", "[0,2]"); ("lat", "[-100]");
      ("vec", "[0.5]"); ("l2", "[0]"); ("div", "[-1]");
    ];
  (* A positive but tiny bandwidth prices to an infinite time: an
     error naming the point, not a point on the Pareto frontier. *)
  let non_finite, msg =
    error_of
      (handle
         {|{"kind":"explore","workload":"sord","machine":"bgq","axes":[{"axis":"bw","values":[1e-320,7,28]}]}|})
  in
  Alcotest.(check string) "non-finite time" "invalid_request" non_finite;
  Alcotest.(check bool) ("names the value: " ^ msg) true
    (String.length msg > 3 && String.sub msg 0 3 = "bw=");
  (* 65^3 > 4096 points without sampling *)
  let values =
    String.concat "," (List.init 65 (fun i -> string_of_int (i + 1)))
  in
  let big =
    Printf.sprintf
      {|{"kind":"explore","workload":"sord","machine":"bgq","axes":[{"axis":"bw","values":[%s]},{"axis":"lat","values":[%s]},{"axis":"freq","values":[%s]}]}|}
      values values values
  in
  Alcotest.(check string) "grid too large" "invalid_request" (code big)

let test_explore_deadline_partial () =
  (* A deadline expiring mid-grid aborts with a partial-progress
     error, not a hang and not an ok response.  The 16x16x16 grid
     cannot finish inside 30 ms (the shared BET alone takes longer to
     prepare), while request parsing comfortably does. *)
  let values =
    String.concat "," (List.init 16 (fun i -> string_of_int (i + 1)))
  in
  let body =
    Printf.sprintf
      {|{"kind":"explore","workload":"sord","machine":"bgq","axes":[{"axis":"bw","values":[%s]},{"axis":"lat","values":[%s]},{"axis":"freq","values":[%s]}],"timeout_ms":30}|}
      values values values
  in
  let code, msg = error_of (handle body) in
  Alcotest.(check string) "deadline code" "deadline_exceeded" code;
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) ("progress in message: " ^ msg) true
    (contains msg "of 4096 points")

(* --- capabilities and versioning ----------------------------------- *)

let test_capabilities () =
  let result = result_of (handle {|{"kind":"capabilities"}|}) in
  Alcotest.(check bool) "protocol version" true
    (Json.member "protocol" result
    = Some (Json.Int Service.Protocol.protocol_version));
  let strings key =
    match Json.member key result with
    | Some (Json.List l) ->
      List.filter_map (function Json.String s -> Some s | _ -> None) l
    | _ -> Alcotest.failf "capabilities lack %s" key
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) ("kind " ^ k) true (List.mem k (strings "kinds")))
    [ "analyze"; "sweep"; "explore"; "lint"; "capabilities" ];
  Alcotest.(check (list string)) "axes advertised" Designspace.axis_keys
    (strings "axes")

let test_version_stamp () =
  (* every response, ok or error, carries the protocol version *)
  List.iter
    (fun body ->
      let r = Result.get_ok (Json.of_string (handle body)) in
      Alcotest.(check bool)
        ("v stamp on " ^ body)
        true
        (Json.member "v" r
        = Some (Json.Int Service.Protocol.protocol_version)))
    [ {|{"kind":"version"}|}; {|{"kind":"nope"}|}; "{" ]

(* --- typed request builders ---------------------------------------- *)

let parse_ok body =
  match Service.Protocol.parse_request body with
  | Ok (req, envelope) -> (req, envelope.Service.Protocol.timeout_ms)
  | Error (_, msg) -> Alcotest.failf "parse of %s failed: %s" body msg

let test_service_api_roundtrip () =
  let module A = Service.Service_api in
  (* analyze with options and overrides *)
  let body =
    A.to_body ~timeout_ms:250.
      (A.analyze
         ~opts:
           {
             A.default_query_opts with
             A.scale = Some 2.;
             overrides = [ ("mem_bw_gbs", 50.) ];
           }
         ~workload:"sord" ~machine:"bgq" ())
  in
  (match parse_ok body with
  | Service.Protocol.Analyze q, Some 250. ->
    Alcotest.(check string) "workload" "sord" q.Service.Protocol.workload;
    Alcotest.(check (float 0.)) "scale" 2.
      (Option.get q.Service.Protocol.scale);
    Alcotest.(check bool) "override" true
      (q.Service.Protocol.overrides = [ ("mem_bw_gbs", 50.) ])
  | _ -> Alcotest.fail "analyze did not round trip");
  (* sweep *)
  (match
     parse_ok
       (A.to_body
          (A.sweep ~workload:"sord" ~machine:"bgq" ~axis:"bw"
             ~values:[ 1.; 2. ] ()))
   with
  | Service.Protocol.Sweep (_, Designspace.Mem_bandwidth [ 1.; 2. ]), None -> ()
  | _ -> Alcotest.fail "sweep did not round trip");
  (* explore *)
  (match
     parse_ok
       (A.to_body
          (A.explore ~sample:5 ~seed:3 ~workload:"sord" ~machine:"bgq"
             ~axes:[ ("bw", [ 1.; 2. ]); ("vec", [ 4.; 8. ]) ] ()))
   with
  | Service.Protocol.Explore (_, spec), None ->
    Alcotest.(check int) "two axes" 2
      (List.length spec.Service.Protocol.e_axes);
    Alcotest.(check bool) "sample" true
      (spec.Service.Protocol.e_sample = Some 5);
    Alcotest.(check int) "seed" 3 spec.Service.Protocol.e_seed
  | _ -> Alcotest.fail "explore did not round trip");
  (* lint, catalog kinds *)
  (match parse_ok (A.to_body (A.lint_workload ~deny_warnings:true "sord")) with
  | Service.Protocol.Lint q, None ->
    Alcotest.(check bool) "deny" true q.Service.Protocol.l_deny_warnings
  | _ -> Alcotest.fail "lint did not round trip");
  List.iter
    (fun (req, expected) ->
      Alcotest.(check string)
        ("kind " ^ expected)
        expected
        (Service.Protocol.kind_label (fst (parse_ok (A.to_body req)))))
    [
      (A.Workloads, "workloads");
      (A.Machines, "machines");
      (A.Stats, "stats");
      (A.Metrics_prom, "metrics_prom");
      (A.Version, "version");
      (A.Capabilities, "capabilities");
    ]

let test_service_api_through_dispatch () =
  let module A = Service.Service_api in
  let body =
    A.to_body
      (A.explore ~workload:"sord" ~machine:"bgq"
         ~axes:[ ("freq", [ 0.8; 1.6 ]) ] ())
  in
  let result = result_of (handle body) in
  Alcotest.(check int) "two points" 2 (List.length (points_of result))

let suite =
  [
    ( "explore.grid",
      [
        Alcotest.test_case "cartesian shape" `Quick test_grid_shape;
        Alcotest.test_case "sampling deterministic" `Quick
          test_sample_deterministic;
      ] );
    ( "explore.engine",
      [
        Alcotest.test_case "reuse equivalence" `Quick test_reuse_equivalence;
        Alcotest.test_case "parallel matches sequential" `Quick
          test_parallel_matches_sequential;
        Alcotest.test_case "counters" `Quick test_explore_counters;
        Alcotest.test_case "pareto" `Quick test_pareto_hand_built;
      ] );
    ( "explore.service",
      [
        Alcotest.test_case "matches sweep byte-for-byte" `Quick
          test_explore_matches_sweep;
        Alcotest.test_case "response shape and cache" `Quick
          test_explore_response_shape;
        Alcotest.test_case "sampled grid" `Quick test_explore_sampled;
        Alcotest.test_case "validation" `Quick test_explore_validation;
        Alcotest.test_case "deadline is partial error" `Quick
          test_explore_deadline_partial;
      ] );
    ( "explore.protocol",
      [
        Alcotest.test_case "capabilities" `Quick test_capabilities;
        Alcotest.test_case "version stamp" `Quick test_version_stamp;
        Alcotest.test_case "service_api round trip" `Quick
          test_service_api_roundtrip;
        Alcotest.test_case "service_api through dispatch" `Quick
          test_service_api_through_dispatch;
      ] );
  ]
