(* Tests for the service layer: the JSON parser round trip, the
   skoped protocol (through Dispatch, no sockets needed), the
   projection cache, and the small concurrent primitives. *)

module Json = Core.Report.Json
module Service = Skope_service

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- Json.of_string ------------------------------------------------ *)

let json = Alcotest.testable (Fmt.of_to_string Json.to_string) ( = )

let parse_ok s =
  match Json.of_string s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

let parse_err s =
  match Json.of_string s with
  | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
  | Error e -> e

let test_parse_scalars () =
  Alcotest.check json "null" Json.Null (parse_ok "null");
  Alcotest.check json "true" (Json.Bool true) (parse_ok " true ");
  Alcotest.check json "int" (Json.Int (-42)) (parse_ok "-42");
  Alcotest.check json "float" (Json.Float 2.5) (parse_ok "2.5");
  Alcotest.check json "exponent" (Json.Float 1500.) (parse_ok "1.5e3");
  Alcotest.check json "huge literal is infinite" (Json.Float infinity)
    (parse_ok "1e999");
  Alcotest.check json "zero" (Json.Int 0) (parse_ok "0")

let test_parse_structures () =
  Alcotest.check json "empty array" (Json.List []) (parse_ok "[]");
  Alcotest.check json "empty object" (Json.Obj []) (parse_ok "{ }");
  Alcotest.check json "nested"
    (Json.Obj
       [
         ("a", Json.List [ Json.Int 1; Json.Null ]);
         ("b", Json.Obj [ ("c", Json.Bool false) ]);
       ])
    (parse_ok {|{"a": [1, null], "b": {"c": false}}|})

let test_parse_string_escapes () =
  Alcotest.check json "basic escapes"
    (Json.String "a\"b\\c\nd\te")
    (parse_ok {|"a\"b\\c\nd\te"|});
  Alcotest.check json "solidus" (Json.String "/") (parse_ok {|"\/"|});
  Alcotest.check json "unicode escape" (Json.String "\xc3\xa9")
    (parse_ok {|"\u00e9"|});
  Alcotest.check json "control escape" (Json.String "\x01")
    (parse_ok {|"\u0001"|});
  (* surrogate pair: U+1D11E (musical G clef) in UTF-8 *)
  Alcotest.check json "surrogate pair"
    (Json.String "\xf0\x9d\x84\x9e")
    (parse_ok {|"\ud834\udd1e"|})

let test_parse_errors () =
  List.iter
    (fun s -> ignore (parse_err s))
    [
      "";
      "nul";
      "{";
      "[1,]";
      "{\"a\":}";
      "{\"a\" 1}";
      "\"unterminated";
      "\"bad \\x escape\"";
      "\"unpaired \\ud834\"";
      "01";
      "1.";
      "+1";
      "[1] trailing";
      "\"ctrl \x01 raw\"";
    ];
  (* error messages carry a byte offset *)
  Alcotest.(check bool) "offset in message" true
    (String.length (parse_err "[1,]") > 0
    && String.sub (parse_err "[1,]") 0 4 = "byte")

(* Round trip: any emitted tree (NaN-free — NaN serializes as null by
   design) parses back to an equal tree. *)
let gen_json : Json.t QCheck.Gen.t =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f)
          (oneof [ float; return infinity; return neg_infinity ]);
        map (fun s -> Json.String s) string_printable;
        map (fun s -> Json.String s) string;
      ]
  in
  sized @@ fix (fun self n ->
      if n <= 0 then scalar
      else
        oneof
          [
            scalar;
            map (fun l -> Json.List l) (list_size (0 -- 4) (self (n / 2)));
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (0 -- 4)
                 (pair string_printable (self (n / 2))));
          ])

(* A tree rendered once and spliced back through [Raw] emits the
   bytes of the tree itself, in an object or a list. *)
let prop_roundtrip =
  QCheck.Test.make ~name:"emit/parse round trip" ~count:500
    (QCheck.make ~print:Json.to_string gen_json)
    (fun t ->
      let raw = Json.Raw (Json.to_string t) in
      let same a b = Json.to_string a = Json.to_string b in
      if
        not
          (same (Json.Obj [ ("k", raw) ]) (Json.Obj [ ("k", t) ])
          && same (Json.List [ raw; raw ]) (Json.List [ t; t ]))
      then QCheck.Test.fail_reportf "Raw splice differs from the tree";
      match Json.of_string (Json.to_string t) with
      | Ok t' -> t = t'
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e)

(* --- protocol / dispatch ------------------------------------------- *)

let handle ?received_at ?(dispatch = Service.Dispatch.create ()) body =
  Service.Dispatch.handle ?received_at dispatch body

let error_code response =
  match Json.of_string response with
  | Error e -> Alcotest.failf "response is not JSON (%s): %s" e response
  | Ok r -> (
    match Json.member "ok" r with
    | Some (Json.Bool true) -> Alcotest.failf "expected error: %s" response
    | _ -> (
      match Option.bind (Json.member "error" r) (Json.member "code") with
      | Some (Json.String c) -> c
      | _ -> Alcotest.failf "error without code: %s" response))

let is_ok response =
  match Json.of_string response with
  | Ok r -> Json.member "ok" r = Some (Json.Bool true)
  | Error _ -> false

let check_error name expected body =
  Alcotest.(check string) name expected (error_code (handle body))

let test_protocol_errors () =
  check_error "malformed JSON" "parse_error" "{\"kind\":";
  check_error "not an object" "invalid_request" "[1,2]";
  check_error "missing kind" "invalid_request" "{}";
  check_error "unknown kind" "invalid_request" {|{"kind":"frobnicate"}|};
  check_error "unknown workload" "unknown_workload"
    {|{"kind":"analyze","workload":"nope","machine":"bgq"}|};
  check_error "unknown machine" "unknown_machine"
    {|{"kind":"analyze","workload":"sord","machine":"cray"}|};
  check_error "bad coverage" "invalid_request"
    {|{"kind":"analyze","workload":"sord","machine":"bgq","coverage":2.0}|};
  check_error "bad scale" "invalid_request"
    {|{"kind":"analyze","workload":"sord","machine":"bgq","scale":-1}|};
  check_error "bad axis" "invalid_request"
    {|{"kind":"sweep","workload":"sord","machine":"bgq","axis":"warp","values":[1]}|};
  check_error "empty sweep" "invalid_request"
    {|{"kind":"sweep","workload":"sord","machine":"bgq","axis":"bw","values":[]}|};
  check_error "unknown override" "invalid_request"
    {|{"kind":"analyze","workload":"sord","machine":"bgq","overrides":{"warp_speed":9}}|};
  (* Swept values and overrides obey one rule: real parameters
     positive and finite, vector width and L2 size positive integers. *)
  List.iter
    (fun (axis, values) ->
      check_error
        (Printf.sprintf "sweep %s %s" axis values)
        "invalid_request"
        (Printf.sprintf
           {|{"kind":"sweep","workload":"sord","machine":"bgq","axis":"%s","values":%s}|}
           axis values))
    [
      ("bw", "[0]"); ("freq", "[0]"); ("issue", "[0]"); ("bw", "[-4]");
      ("lat", "[-100]"); ("vec", "[0.5]"); ("l2", "[0]"); ("div", "[7,0]");
      ("freq", "[1e999]");
    ];
  List.iter
    (fun (key, value) ->
      check_error
        (Printf.sprintf "override %s %s" key value)
        "invalid_request"
        (Printf.sprintf
           {|{"kind":"analyze","workload":"sord","machine":"bgq","overrides":{"%s":%s}}|}
           key value))
    [
      ("vector_width", "0.5"); ("l2_size_bytes", "0.5"); ("mem_bw_gbs", "0");
      ("freq_ghz", "1e999");
    ];
  check_error "bad timeout" "invalid_request"
    {|{"kind":"analyze","workload":"sord","machine":"bgq","timeout_ms":0}|};
  (* Positive but tiny parameters pass that rule and price to an
     infinite time: the reply names the value, and nothing enters the
     cache.  A finite but absurd time is still an answer. *)
  let dispatch = Service.Dispatch.create () in
  List.iter
    (fun (body, names) ->
      let r = handle ~dispatch body in
      Alcotest.(check string) body "invalid_request" (error_code r);
      let contains sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length r && (String.sub r i n = sub || go (i + 1))
        in
        go 0
      in
      if not (contains names) then Alcotest.failf "%s does not name %S" r names)
    [
      ( {|{"kind":"sweep","workload":"sord","machine":"bgq","axis":"bw","values":[1e-320,7]}|},
        "bw=" );
      ( {|{"kind":"analyze","workload":"sord","machine":"bgq","overrides":{"freq_ghz":1e-310}}|},
        "freq_ghz=1e-310" );
    ];
  Alcotest.(check int) "nothing cached" 0
    (Service.Lru.length dispatch.Service.Dispatch.cache);
  let absurd =
    handle ~dispatch
      {|{"kind":"analyze","workload":"sord","machine":"bgq","overrides":{"mem_bw_gbs":1e-300}}|}
  in
  match
    Option.bind (Result.to_option (Json.of_string absurd)) (fun j ->
        Option.bind (Json.member "result" j) (Json.member "total_ms"))
  with
  | Some (Json.Float ms) when Float.is_finite ms && ms > 1e300 -> ()
  | _ -> Alcotest.failf "finite absurd time not answered: %s" absurd

(* A stats body of exactly [n] bytes. *)
let padded_stats n =
  let prefix = {|{"kind":"stats","pad":"|} and suffix = {|"}|} in
  prefix
  ^ String.make (n - String.length prefix - String.length suffix) 'x'
  ^ suffix

let test_oversized () =
  let dispatch = Service.Dispatch.create () in
  let limit = Service.Protocol.max_request_bytes in
  Alcotest.(check string) "one byte over" "oversized"
    (error_code (handle ~dispatch (padded_stats (limit + 1))));
  Alcotest.(check bool) "at the limit still fine" true
    (is_ok (handle ~dispatch (padded_stats limit)))

let test_deadline_exceeded () =
  let body =
    {|{"kind":"analyze","workload":"pedagogical","machine":"bgq","timeout_ms":5}|}
  in
  let stale = Unix.gettimeofday () -. 1.0 in
  Alcotest.(check string) "deadline" "deadline_exceeded"
    (error_code (handle ~received_at:stale body));
  (* a generous deadline passes *)
  Alcotest.(check bool) "fresh deadline ok" true
    (is_ok
       (handle
          {|{"kind":"analyze","workload":"pedagogical","machine":"bgq","timeout_ms":60000}|}))

let test_catalogs_and_stats () =
  Alcotest.(check bool) "workloads" true (is_ok (handle {|{"kind":"workloads"}|}));
  Alcotest.(check bool) "machines" true (is_ok (handle {|{"kind":"machines"}|}));
  let dispatch = Service.Dispatch.create () in
  let resp = handle ~dispatch {|{"kind":"stats"}|} in
  Alcotest.(check bool) "stats ok" true (is_ok resp);
  let v = Service.Metrics.view dispatch.Service.Dispatch.metrics in
  Alcotest.(check int) "stats counted" 1 v.Service.Metrics.total_requests

let test_worker_never_crashes () =
  (* A grab bag of hostile bodies must all produce JSON envelopes. *)
  let dispatch = Service.Dispatch.create () in
  List.iter
    (fun body ->
      let resp = handle ~dispatch body in
      match Json.of_string resp with
      | Ok (Json.Obj fields) ->
        Alcotest.(check bool) "has ok field" true (List.mem_assoc "ok" fields)
      | Ok _ | Error _ -> Alcotest.failf "bad envelope for %S: %s" body resp)
    [
      "";
      "\x00\x01\x02";
      "{\"kind\":\"analyze\"}";
      "{\"kind\":123}";
      "[{}]";
      "{\"kind\":\"sweep\",\"workload\":\"sord\",\"machine\":\"bgq\",\"axis\":\"bw\",\"values\":[1e999]}";
      String.concat "" (List.init 100 (fun _ -> "["));
      {|{"kind":"analyze","workload":"sord","machine":"bgq","top":0}|};
    ]

(* --- lint requests -------------------------------------------------- *)

let result_of resp =
  match Json.of_string resp with
  | Ok j -> (
    match Json.member "result" j with
    | Some r -> r
    | None -> Alcotest.failf "no result in %s" resp)
  | Error e -> Alcotest.failf "response is not JSON (%s): %s" e resp

let test_lint_workload () =
  let dispatch = Service.Dispatch.create () in
  let r = result_of (handle ~dispatch {|{"kind":"lint","workload":"sord"}|}) in
  Alcotest.(check bool) "sord is clean" true
    (Json.member "clean" r = Some (Json.Bool true));
  Alcotest.(check bool) "no errors" true
    (Json.member "errors" r = Some (Json.Int 0));
  (match Json.member "diagnostics" r with
  | Some (Json.List _) -> ()
  | _ -> Alcotest.fail "diagnostics is not a list");
  (* lint requests are counted in the metrics like analyze/sweep *)
  let v = Service.Metrics.view dispatch.Service.Dispatch.metrics in
  Alcotest.(check int) "lint counted by kind" 1
    (try List.assoc ("lint", "ok") v.Service.Metrics.requests
     with Not_found -> 0)

let test_lint_source () =
  (* An inline source with a certain division by zero: the response is
     still ok:true (the lint ran), but not clean. *)
  let body =
    Json.to_string
      (Json.Obj
         [
           ("kind", Json.String "lint");
           ( "source",
             Json.String
               "program p\ndef main()\n{\n  let z = 2 - 2\n  comp flops=1/z\n}\n"
           );
         ])
  in
  let r = result_of (handle body) in
  Alcotest.(check bool) "not clean" true
    (Json.member "clean" r = Some (Json.Bool false));
  (match Json.member "diagnostics" r with
  | Some (Json.List (d :: _)) ->
    Alcotest.(check bool) "carries the L002 code" true
      (Json.member "code" d = Some (Json.String "L002"))
  | _ -> Alcotest.fail "expected at least one diagnostic");
  (* A syntax error also arrives as a diagnostic, not an envelope
     error. *)
  let r =
    result_of
      (handle {|{"kind":"lint","source":"program p\ndef main( {"}|})
  in
  Alcotest.(check bool) "syntax errors are diagnostics" true
    (match Json.member "diagnostics" r with
    | Some (Json.List [ d ]) ->
      Json.member "code" d = Some (Json.String "P002")
    | _ -> false)

let test_lint_request_validation () =
  check_error "lint without target" "invalid_request" {|{"kind":"lint"}|};
  check_error "lint with both targets" "invalid_request"
    {|{"kind":"lint","workload":"sord","source":"program p"}|};
  check_error "lint unknown workload" "unknown_workload"
    {|{"kind":"lint","workload":"nope"}|};
  check_error "lint bad scale" "invalid_request"
    {|{"kind":"lint","workload":"sord","scale":0}|};
  check_error "lint bad disable list" "invalid_request"
    {|{"kind":"lint","workload":"sord","disable":[1]}|};
  (* deny_warnings only flips the clean verdict (infos never fail) *)
  let r =
    result_of
      (handle {|{"kind":"lint","workload":"sord","deny_warnings":true}|})
  in
  Alcotest.(check bool) "clean under deny_warnings" true
    (Json.member "clean" r = Some (Json.Bool true))

(* --- cache behaviour ----------------------------------------------- *)

(* A fixed trace id keeps repeated responses byte-identical: the
   dispatcher adopts the caller's id instead of minting a fresh one. *)
let analyze_body =
  {|{"kind":"analyze","workload":"pedagogical","machine":"bgq","top":5,"trace":{"id":"t-cache"}}|}

let sweep_body =
  {|{"kind":"sweep","workload":"pedagogical","machine":"bgq","axis":"bw","values":[1,2,4],"trace":{"id":"t-sweep"}}|}

let view d = Service.Metrics.view d.Service.Dispatch.metrics

let test_analyze_cache_hit () =
  let dispatch = Service.Dispatch.create () in
  let r1 = handle ~dispatch analyze_body in
  let v1 = view dispatch in
  Alcotest.(check int) "first is a miss" 1 v1.Service.Metrics.cache_misses;
  Alcotest.(check int) "no hit yet" 0 v1.Service.Metrics.cache_hits;
  let r2 = handle ~dispatch analyze_body in
  let v2 = view dispatch in
  Alcotest.(check string) "byte-identical responses" r1 r2;
  Alcotest.(check int) "second is a hit" 1 v2.Service.Metrics.cache_hits;
  Alcotest.(check int) "no new miss" 1 v2.Service.Metrics.cache_misses

let test_sweep_cache () =
  let dispatch = Service.Dispatch.create () in
  let r1 = handle ~dispatch sweep_body in
  let v1 = view dispatch in
  Alcotest.(check bool) "sweep ok" true (is_ok r1);
  Alcotest.(check int) "one miss per point" 3 v1.Service.Metrics.cache_misses;
  let r2 = handle ~dispatch sweep_body in
  let v2 = view dispatch in
  Alcotest.(check string) "re-sweep byte-identical" r1 r2;
  Alcotest.(check int) "re-sweep fully cache-served" 3
    v2.Service.Metrics.cache_hits;
  Alcotest.(check int) "re-sweep adds no misses" 3
    v2.Service.Metrics.cache_misses

(* A sweep shares one prepared BET across its points: on a fresh
   dispatcher (every point a miss) eight bw variants build one BET's
   worth of nodes, not eight. *)
let test_sweep_builds_one_bet () =
  let dispatch = Service.Dispatch.create () in
  let built () =
    Option.value ~default:0.
      (List.assoc_opt "bet_nodes_built" (Core.Telemetry.Span.counters ()))
  in
  let before = built () in
  let r =
    handle ~dispatch
      {|{"kind":"sweep","workload":"sord","machine":"bgq","axis":"bw","values":[1,2,4,7,14,28,56,112]}|}
  in
  let added = built () -. before in
  let points =
    match Json.of_string r with
    | Ok j -> (
      match Json.member "result" j with
      | Some res -> (
        match Json.member "points" res with
        | Some (Json.List ps) -> ps
        | _ -> Alcotest.failf "sweep reply has no points: %s" r)
      | None -> Alcotest.failf "sweep failed: %s" r)
    | Error e -> Alcotest.failf "reply is not JSON (%s)" e
  in
  Alcotest.(check int) "eight points" 8 (List.length points);
  Alcotest.(check int) "every point a miss" 8
    (view dispatch).Service.Metrics.cache_misses;
  let bet_nodes =
    match
      Option.bind
        (Json.member "analysis" (List.hd points))
        (Json.member "bet_nodes")
    with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.failf "point has no bet_nodes: %s" r
  in
  Alcotest.(check (float 0.)) "one BET built" (float_of_int bet_nodes) added

let test_override_shares_sweep_slot () =
  (* A sweep point and an equivalent parameter-override analyze have
     the same fingerprint, so the second is served from the first's
     cache slot. *)
  let dispatch = Service.Dispatch.create () in
  ignore (handle ~dispatch sweep_body);
  let misses_after_sweep = (view dispatch).Service.Metrics.cache_misses in
  let resp =
    handle ~dispatch
      {|{"kind":"analyze","workload":"pedagogical","machine":"bgq","overrides":{"mem_bw_gbs":2.0}}|}
  in
  Alcotest.(check bool) "override analyze ok" true (is_ok resp);
  let v = view dispatch in
  Alcotest.(check int) "no recompute" misses_after_sweep
    v.Service.Metrics.cache_misses;
  Alcotest.(check int) "served from sweep's slot" 1 v.Service.Metrics.cache_hits;
  (* An explore over the swept values splices the stored bytes: no
     miss, and its points are the sweep's, byte for byte. *)
  let explore =
    handle ~dispatch
      {|{"kind":"explore","workload":"pedagogical","machine":"bgq","axes":[{"axis":"bw","values":[1,2,4]}]}|}
  in
  Alcotest.(check int) "explore adds no miss" misses_after_sweep
    (view dispatch).Service.Metrics.cache_misses;
  let points r =
    match Option.bind (Result.to_option (Json.of_string r)) (Json.member "result") with
    | Some res -> (
      match Json.member "points" res with
      | Some (Json.List ps) -> List.map Json.to_string ps
      | _ -> Alcotest.failf "no points: %s" r)
    | None -> Alcotest.failf "failed: %s" r
  in
  Alcotest.(check (list string)) "explore points are the sweep's"
    (points (handle ~dispatch sweep_body))
    (points explore)

let test_different_queries_different_results () =
  let dispatch = Service.Dispatch.create () in
  let r1 = handle ~dispatch analyze_body in
  let r2 =
    handle ~dispatch
      {|{"kind":"analyze","workload":"pedagogical","machine":"bgq","top":5,"overrides":{"mem_bw_gbs":0.5}}|}
  in
  Alcotest.(check bool) "distinct machines, distinct responses" true (r1 <> r2);
  let v = view dispatch in
  Alcotest.(check int) "both computed" 2 v.Service.Metrics.cache_misses

(* --- fingerprint --------------------------------------------------- *)

let fp ?(scale = 1.0) ?(bw = 28.5) ?(engine = "tree") () =
  let machine = { Core.Hw.Machines.bgq with Core.Hw.Machine.mem_bw_gbs = bw } in
  Service.Fingerprint.of_query ~workload:"sord" ~machine ~scale
    ~criteria:Core.Analysis.Hotspot.default_criteria ~top:10 ~engine

let test_fingerprint () =
  Alcotest.(check string) "deterministic" (fp ()) (fp ());
  Alcotest.(check bool) "scale matters" true (fp () <> fp ~scale:2.0 ());
  Alcotest.(check bool) "machine parameter matters" true
    (fp () <> fp ~bw:28.6 ());
  Alcotest.(check bool) "engine matters" true (fp () <> fp ~engine:"arena" ());
  Alcotest.(check int) "hex digest" 32 (String.length (fp ()))

(* --- lru ----------------------------------------------------------- *)

let test_lru_eviction () =
  let c = Service.Lru.create ~capacity:2 in
  Service.Lru.add c "a" 1;
  Service.Lru.add c "b" 2;
  ignore (Service.Lru.find c "a");
  (* "a" is now MRU, so adding "c" evicts "b" *)
  Service.Lru.add c "c" 3;
  Alcotest.(check (list string)) "recency order" [ "c"; "a" ]
    (Service.Lru.keys c);
  Alcotest.(check bool) "b evicted" false (Service.Lru.mem c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Service.Lru.find c "a");
  Service.Lru.add c "a" 10;
  Alcotest.(check (option int)) "replace updates" (Some 10)
    (Service.Lru.find c "a");
  Alcotest.(check int) "replace keeps length" 2 (Service.Lru.length c);
  Service.Lru.clear c;
  Alcotest.(check int) "clear empties" 0 (Service.Lru.length c)

(* --- metrics ------------------------------------------------------- *)

let test_metrics_percentiles () =
  let m = Service.Metrics.create () in
  for i = 1 to 100 do
    Service.Metrics.observe_latency m (float_of_int i /. 1e3)
  done;
  let v = Service.Metrics.view m in
  Alcotest.(check (float 1e-9)) "p50" 0.050 v.Service.Metrics.p50;
  Alcotest.(check (float 1e-9)) "p95" 0.095 v.Service.Metrics.p95;
  Alcotest.(check (float 1e-9)) "p99" 0.099 v.Service.Metrics.p99;
  Alcotest.(check int) "count" 100 v.Service.Metrics.latency_count

let test_metrics_counters () =
  let m = Service.Metrics.create () in
  Service.Metrics.incr_request m ~kind:"analyze" ~outcome:"ok";
  Service.Metrics.incr_request m ~kind:"analyze" ~outcome:"ok";
  Service.Metrics.incr_request m ~kind:"sweep" ~outcome:"deadline_exceeded";
  Service.Metrics.cache_hit m;
  Service.Metrics.cache_hit m;
  Service.Metrics.cache_hit m;
  Service.Metrics.cache_miss m;
  let v = Service.Metrics.view m in
  Alcotest.(check int) "total" 3 v.Service.Metrics.total_requests;
  Alcotest.(check (float 1e-9)) "hit rate" 0.75 v.Service.Metrics.hit_rate;
  Alcotest.(check int) "by kind/outcome" 2
    (List.assoc ("analyze", "ok") v.Service.Metrics.requests)

(* --- workqueue ----------------------------------------------------- *)

let test_workqueue_fifo () =
  let q = Service.Workqueue.create ~capacity:3 in
  Alcotest.(check bool) "push 1" true (Service.Workqueue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Service.Workqueue.try_push q 2);
  Alcotest.(check bool) "push 3" true (Service.Workqueue.try_push q 3);
  Alcotest.(check bool) "bounded" false (Service.Workqueue.try_push q 4);
  Alcotest.(check int) "fifo 1" 1 (Service.Workqueue.pop q);
  Alcotest.(check int) "fifo 2" 2 (Service.Workqueue.pop q);
  Alcotest.(check bool) "room again" true (Service.Workqueue.try_push q 5);
  Alcotest.(check int) "fifo 3" 3 (Service.Workqueue.pop q);
  Alcotest.(check int) "fifo 5" 5 (Service.Workqueue.pop q);
  Alcotest.(check int) "empty" 0 (Service.Workqueue.length q)

let test_workqueue_threads () =
  (* One producer, one consumer, values arrive exactly once in order. *)
  let q = Service.Workqueue.create ~capacity:4 in
  let n = 200 in
  let received = ref [] in
  let consumer =
    Thread.create
      (fun () ->
        for _ = 1 to n do
          received := Service.Workqueue.pop q :: !received
        done)
      ()
  in
  for i = 1 to n do
    Service.Workqueue.push q i
  done;
  Thread.join consumer;
  Alcotest.(check (list int)) "all values in order" (List.init n (fun i -> i + 1))
    (List.rev !received)

(* --- reliability: faults, backoff, and real sockets ---------------- *)

module Faults = Service.Faults
module Client = Service.Client
module Server = Service.Server

let test_faults_spec () =
  (match Faults.spec_of_string "drop=0.3,delay_p=0.2,delay_ms=50,overload=0.1" with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok s ->
    Alcotest.(check (float 1e-9)) "drop" 0.3 s.Faults.drop;
    Alcotest.(check (float 1e-9)) "overload" 0.1 s.Faults.overload;
    Alcotest.(check (float 1e-9)) "truncate" 0. s.Faults.truncate;
    Alcotest.(check (float 1e-9)) "delay_p" 0.2 s.Faults.delay_p;
    Alcotest.(check (float 1e-9)) "delay_ms" 50. s.Faults.delay_ms);
  let rejected spec =
    match Faults.spec_of_string spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "spec %S unexpectedly accepted" spec
  in
  rejected "drop=1.5";
  rejected "drop=-0.1";
  rejected "drop=abc";
  rejected "unknown_key=0.5";
  rejected "delay_ms=-5";
  (* round trip through the printer *)
  let s = { Faults.drop = 0.25; overload = 0.; truncate = 0.5; delay_p = 1.;
            delay_ms = 10. } in
  Alcotest.(check bool) "spec_to_string round trips" true
    (Faults.spec_of_string (Faults.spec_to_string s) = Ok s)

let test_faults_determinism () =
  let spec =
    { Faults.drop = 0.3; overload = 0.2; truncate = 0.1; delay_p = 0.5;
      delay_ms = 10. }
  in
  let stream seed =
    let t = Faults.create ~seed spec in
    List.init 200 (fun _ -> Faults.decide t)
  in
  Alcotest.(check bool) "same seed, same stream" true
    (stream 42 = stream 42);
  Alcotest.(check bool) "different seed, different stream" true
    (stream 42 <> stream 43);
  (* the stream actually exercises every enabled class *)
  let ds = stream 42 in
  Alcotest.(check bool) "some drops" true
    (List.exists (fun d -> d.Faults.d_drop) ds);
  Alcotest.(check bool) "some clean" true
    (List.exists (fun d -> Faults.injected d = 0) ds)

let test_backoff_deterministic () =
  let retry = { Client.default_retry with base_ms = 100.; max_ms = 1000. } in
  for k = 0 to 9 do
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "retry %d reproducible" k)
      (Client.backoff_ms retry k) (Client.backoff_ms retry k);
    let step = Float.min retry.Client.max_ms (100. *. (2. ** float_of_int k)) in
    let b = Client.backoff_ms retry k in
    Alcotest.(check bool)
      (Printf.sprintf "retry %d within [step/2, step]" k)
      true
      (b >= (step /. 2.) -. 1e-9 && b <= step +. 1e-9)
  done;
  (* the cap is a hard ceiling even far down the schedule *)
  Alcotest.(check bool) "capped" true (Client.backoff_ms retry 40 <= 1000.);
  (* different seeds decorrelate the jitter *)
  Alcotest.(check bool) "seed changes jitter" true
    (Client.backoff_ms retry 0
    <> Client.backoff_ms { retry with seed = retry.Client.seed + 1 } 0)

let test_parse_overloaded_response () =
  let body =
    Json.to_string
      (Service.Protocol.error_envelope ~retry_after_ms:75.
         Service.Protocol.Overloaded "queue full")
  in
  match Service.Service_api.parse_response body with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok r ->
    Alcotest.(check bool) "not ok" false r.Service.Service_api.r_ok;
    Alcotest.(check (option string)) "code" (Some "overloaded")
      r.Service.Service_api.r_error_code;
    Alcotest.(check (option (float 1e-9))) "hint" (Some 75.)
      r.Service.Service_api.r_retry_after_ms

(* Run a real server on an ephemeral port for the duration of [f].
   The [stop] flag (not a signal) ends the accept loop so the server
   drains and joins deterministically inside the test process. *)
let with_server ?faults ?(host = Server.default_net.n_host) ?(pool = 2)
    ?(queue = 8) ?read_timeout f =
  let stop = Atomic.make false in
  let port = ref 0 in
  let config =
    {
      Server.net =
        {
          Server.default_net with
          n_host = host;
          n_pool = pool;
          n_queue_capacity = queue;
          n_read_timeout_s =
            Option.value read_timeout
              ~default:Server.default_net.n_read_timeout_s;
        };
      faults;
      dispatch = { Service.Dispatch.cache_capacity = 64 };
    }
  in
  let server =
    Thread.create
      (fun () -> Server.run ~stop ~on_ready:(fun p -> port := p) config)
      ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while !port = 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  if !port = 0 then Alcotest.fail "server did not come up";
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join server)
    (fun () -> f !port)

let version_body = Service.Service_api.to_body Service.Service_api.Version

let test_server_roundtrip_and_drain () =
  (* In-flight requests finish during graceful shutdown: start a
     delayed request, stop the server while it is being served, and
     the response must still arrive complete. *)
  let faults =
    Faults.create ~seed:1
      { Faults.no_faults with delay_p = 1.; delay_ms = 300. }
  in
  let result = ref (Error (Client.Protocol "never ran")) in
  with_server ~faults ~pool:1 (fun port ->
      let t =
        Thread.create
          (fun () ->
            result := Client.roundtrip ~host:"127.0.0.1" ~port version_body)
          ()
      in
      Thread.delay 0.1;
      (* exiting [with_server] now sets [stop] while the request is
         still sleeping in the worker *)
      ignore t);
  (* server has joined: the delayed request must have completed *)
  Thread.delay 0.1;
  match !result with
  | Ok response ->
    Alcotest.(check bool) "response is ok:true" true
      (match Json.of_string response with
      | Ok r -> Json.member "ok" r = Some (Json.Bool true)
      | Error _ -> false)
  | Error e -> Alcotest.failf "drained request failed: %a" Client.pp_error e

let test_server_sheds_when_saturated () =
  (* pool=1, queue=1, every response delayed 400 ms: one request pins
     the worker, one fills the queue, and the third must come back as
     a structured overloaded error immediately — not after a delay. *)
  let faults =
    Faults.create ~seed:1
      { Faults.no_faults with delay_p = 1.; delay_ms = 400. }
  in
  with_server ~faults ~pool:1 ~queue:1 (fun port ->
      let fire () =
        Thread.create
          (fun () ->
            ignore (Client.roundtrip ~host:"127.0.0.1" ~port version_body))
          ()
      in
      let a = fire () in
      Thread.delay 0.1;
      let b = fire () in
      Thread.delay 0.1;
      let t0 = Unix.gettimeofday () in
      (match
         Client.request ~retry:Client.no_retry ~host:"127.0.0.1" ~port
           version_body
       with
      | Error (Client.Overloaded { retry_after_ms; _ }) ->
        Alcotest.(check bool) "shed response is immediate" true
          (Unix.gettimeofday () -. t0 < 0.1);
        Alcotest.(check bool) "carries a retry hint" true
          (retry_after_ms <> None)
      | Error e -> Alcotest.failf "expected overloaded, got %a" Client.pp_error e
      | Ok _ -> Alcotest.fail "expected overloaded, got a response");
      Thread.join a;
      Thread.join b)

let test_client_times_out_on_slow_server () =
  let faults =
    Faults.create ~seed:1
      { Faults.no_faults with delay_p = 1.; delay_ms = 1500. }
  in
  with_server ~faults ~pool:1 (fun port ->
      let timeouts =
        { Client.default_timeouts with read_s = 0.2 }
      in
      match
        Client.request ~timeouts ~retry:Client.no_retry ~host:"127.0.0.1"
          ~port version_body
      with
      | Error (Client.Timeout _) -> ()
      | Error e -> Alcotest.failf "expected timeout, got %a" Client.pp_error e
      | Ok _ -> Alcotest.fail "expected timeout, got a response")

let test_client_detects_truncation () =
  let faults =
    Faults.create ~seed:1 { Faults.no_faults with truncate = 1. }
  in
  with_server ~faults ~pool:1 (fun port ->
      match
        Client.request ~retry:Client.no_retry ~host:"127.0.0.1" ~port
          version_body
      with
      | Error (Client.Protocol msg) ->
        Alcotest.(check bool) "mentions truncation" true
          (let lower = String.lowercase_ascii msg in
           String.length lower >= 9 && String.sub lower 0 9 = "truncated")
      | Error e ->
        Alcotest.failf "expected protocol error, got %a" Client.pp_error e
      | Ok _ -> Alcotest.fail "expected protocol error, got a response")

let test_client_refused_is_structured () =
  (* A freshly bound-then-closed ephemeral port is not listening:
     connect must come back as a structured Refused, not a timeout or
     an opaque string. *)
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "no port"
  in
  Unix.close sock;
  (* A host that does not resolve is refused too, and leaves no
     descriptor open.  The empty name fails without a name server. *)
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let fds = open_fds () in
  List.iter
    (fun host ->
      match Client.request ~retry:Client.no_retry ~host ~port version_body with
      | Error (Client.Refused _) -> ()
      | Error e ->
        Alcotest.failf "%S: expected refused, got %a" host Client.pp_error e
      | Ok _ -> Alcotest.failf "%S: expected refused, got a response" host)
    [ "127.0.0.1"; "" ];
  Alcotest.(check int) "no descriptor left open" fds (open_fds ())

(* A listener and its clients may name the host: "localhost" comes
   from the hosts file, without a name server.  A listener whose host
   does not resolve fails before it binds. *)
let test_host_names () =
  with_server ~host:"localhost" (fun port ->
      match
        Client.request ~retry:Client.no_retry ~host:"localhost" ~port
          version_body
      with
      | Ok resp -> ignore (result_of resp)
      | Error e -> Alcotest.failf "round trip failed: %a" Client.pp_error e);
  let config =
    {
      Server.default_config with
      Server.net = { Server.default_net with n_host = ""; n_port = 0 };
    }
  in
  match Server.run ~handle_signals:false ~on_ready:ignore config with
  | () -> Alcotest.fail "served on a host that does not resolve"
  | exception Failure msg ->
    Alcotest.(check string) "message" {|cannot resolve host ""|} msg

let test_retries_ride_through_drops () =
  (* 30% connection drops under a fixed fault seed: every one of 50
     sequential requests must still succeed through the retry loop,
     and the drops must actually have forced retries. *)
  let faults =
    Faults.create ~seed:7 { Faults.no_faults with drop = 0.3 }
  in
  with_server ~faults ~pool:2 (fun port ->
      let retries = ref 0 in
      let on_retry _ _ = incr retries in
      for i = 1 to 50 do
        let retry =
          { Client.attempts = 6; base_ms = 5.; max_ms = 20.; seed = i }
        in
        match
          Client.request ~retry ~on_retry ~host:"127.0.0.1" ~port version_body
        with
        | Ok _ -> ()
        | Error e ->
          Alcotest.failf "request %d failed after retries: %a" i
            Client.pp_error e
      done;
      Alcotest.(check bool) "drops forced retries" true (!retries > 0))

(* --- trace propagation + flight recorder --------------------------- *)

let trace_id_of resp =
  match Json.of_string resp with
  | Ok r -> Option.bind (Json.member "trace_id" r) Json.to_string_opt
  | Error e -> Alcotest.failf "response is not JSON (%s): %s" e resp

let test_trace_id_echoed () =
  let dispatch = Service.Dispatch.create () in
  (* Caller-supplied ids are adopted verbatim... *)
  Alcotest.(check (option string))
    "ok response echoes caller id" (Some "caller-1")
    (trace_id_of
       (handle ~dispatch
          {|{"kind":"analyze","workload":"pedagogical","machine":"bgq","trace":{"id":"caller-1"}}|}));
  (* ...errors carry the id too... *)
  Alcotest.(check (option string))
    "error response echoes caller id" (Some "caller-2")
    (trace_id_of
       (handle ~dispatch
          {|{"kind":"analyze","workload":"nope","machine":"bgq","trace":{"id":"caller-2"}}|}));
  (* ...and without a caller id the server mints one. *)
  (match
     trace_id_of
       (handle ~dispatch {|{"kind":"analyze","workload":"sord","machine":"bgq"}|})
   with
  | Some id ->
    Alcotest.(check bool)
      (Printf.sprintf "minted id %S has req- prefix" id)
      true
      (String.length id > 4 && String.sub id 0 4 = "req-")
  | None -> Alcotest.fail "no trace_id on minted response");
  (* Even a parse error gets a (minted) id: the envelope invariant
     holds on every response. *)
  Alcotest.(check bool) "parse error carries trace_id" true
    (trace_id_of (handle ~dispatch "{\"kind\":") <> None)

(* An exception out of a handler becomes an [internal] reply under the
   request's id, an [internal_error] log line and a recorder entry;
   the router's lifecycle ([span "route"], ids "rtr-") is this one. *)
let test_lifecycle_internal_error () =
  let module Log = Skope_telemetry.Log in
  let module Recorder = Skope_telemetry.Recorder in
  let recorder = Recorder.create () in
  let lines = ref [] in
  Log.set_output (fun l -> lines := l :: !lines);
  Log.set_rate ~burst:0 ~per_s:0.;
  let resp =
    Fun.protect
      ~finally:(fun () ->
        Log.use_stderr ();
        Log.set_rate ~burst:50 ~per_s:10.)
      (fun () ->
        Service.Dispatch.unframed (fun out ->
            Service.Dispatch.answer ~recorder ~span:"route" ~prefix:"rtr" out
              {|{"kind":"stats"}|} (fun _ _ -> failwith "boom")))
  in
  Alcotest.(check string) "code" "internal" (error_code resp);
  let id =
    match trace_id_of resp with
    | Some id when String.starts_with ~prefix:"rtr-" id -> id
    | _ -> Alcotest.failf "expected a minted rtr- id: %s" resp
  in
  let logged line =
    match Json.of_string line with
    | Ok j ->
      Json.member "event" j = Some (Json.String "internal_error")
      && Json.member "trace_id" j = Some (Json.String id)
    | Error _ -> false
  in
  Alcotest.(check bool) "internal_error logged" true (List.exists logged !lines);
  match Recorder.find recorder id with
  | Some r ->
    Alcotest.(check string) "kind" "stats" r.Recorder.kind;
    Alcotest.(check string) "outcome" "internal" r.Recorder.outcome
  | None -> Alcotest.fail "no flight-recorder entry"

let test_trace_validation () =
  check_error "empty trace id" "invalid_request"
    {|{"kind":"stats","trace":{"id":""}}|};
  check_error "oversized trace id" "invalid_request"
    (Printf.sprintf {|{"kind":"stats","trace":{"id":%S}}|}
       (String.make 200 'x'));
  check_error "non-object trace" "invalid_request"
    {|{"kind":"stats","trace":"t-1"}|}

let test_recent_roundtrip () =
  let module A = Service.Service_api in
  let dispatch = Service.Dispatch.create () in
  ignore
    (handle ~dispatch
       {|{"kind":"analyze","workload":"pedagogical","machine":"bgq","trace":{"id":"seen-1"}}|});
  ignore
    (handle ~dispatch
       {|{"kind":"analyze","workload":"nope","machine":"bgq","trace":{"id":"seen-2"}}|});
  (* The builder's body round-trips through the wire parser... *)
  let body = A.to_body (A.recent ~n:10 ()) in
  (match Service.Protocol.parse_request body with
  | Ok (Service.Protocol.Recent q, _) ->
    Alcotest.(check int) "n" 10 q.Service.Protocol.rc_n
  | _ -> Alcotest.failf "recent body did not parse: %s" body);
  (* ...and the dispatcher answers it with the recorded requests,
     newest first. *)
  let r = result_of (handle ~dispatch body) in
  let ids =
    match Json.member "records" r with
    | Some (Json.List records) ->
      List.filter_map
        (fun rec_ ->
          Option.bind (Json.member "trace_id" rec_) Json.to_string_opt)
        records
    | _ -> Alcotest.fail "records missing"
  in
  Alcotest.(check (list string)) "both recorded, newest first"
    [ "seen-2"; "seen-1" ] ids;
  (* errors_only keeps just the failed request *)
  let r =
    result_of (handle ~dispatch (A.to_body (A.recent ~errors_only:true ())))
  in
  (match Json.member "records" r with
  | Some (Json.List [ rec_ ]) ->
    Alcotest.(check (option string))
      "the error" (Some "seen-2")
      (Option.bind (Json.member "trace_id" rec_) Json.to_string_opt);
    Alcotest.(check (option string))
      "outcome" (Some "unknown_workload")
      (Option.bind (Json.member "outcome" rec_) Json.to_string_opt)
  | _ -> Alcotest.fail "expected exactly the failed record")

let test_trace_kind_roundtrip () =
  let module A = Service.Service_api in
  let dispatch = Service.Dispatch.create () in
  ignore
    (handle ~dispatch
       {|{"kind":"analyze","workload":"pedagogical","machine":"bgq","trace":{"id":"deep-1"}}|});
  let body = A.to_body (A.trace ~id:"deep-1" ()) in
  (match Service.Protocol.parse_request body with
  | Ok (Service.Protocol.Trace id, _) ->
    Alcotest.(check string) "id" "deep-1" id
  | _ -> Alcotest.failf "trace body did not parse: %s" body);
  let resp = handle ~dispatch body in
  let r = result_of resp in
  Alcotest.(check (option string))
    "trace_id in result" (Some "deep-1")
    (Option.bind (Json.member "trace_id" r) Json.to_string_opt);
  (match Json.member "processes" r with
  | Some (Json.List [ p ]) ->
    Alcotest.(check (option string))
      "process label" (Some "skoped")
      (Option.bind (Json.member "process" p) Json.to_string_opt);
    let spans =
      match Option.bind (Json.member "record" p) (Json.member "spans") with
      | Some (Json.List spans) -> spans
      | _ -> Alcotest.fail "spans missing"
    in
    Alcotest.(check bool) "pipeline spans captured" true
      (List.length spans >= 3);
    (* Every span carries the trace id attribute the recorder grouped
       it by. *)
    List.iter
      (fun s ->
        Alcotest.(check (option string))
          "span trace_id attr" (Some "deep-1")
          (Option.bind (Json.member "attrs" s) (Json.member "trace_id")
          |> Fun.flip Option.bind Json.to_string_opt))
      spans;
    (* The merged result converts to a loadable Chrome trace. *)
    (match Service.Traceview.chrome_of_trace r with
    | Ok text -> (
      match Json.of_string text with
      | Ok chrome ->
        (match Json.member "traceEvents" chrome with
        | Some (Json.List evs) ->
          Alcotest.(check bool) "chrome has events" true
            (List.length evs >= List.length spans)
        | _ -> Alcotest.fail "traceEvents missing")
      | Error e -> Alcotest.failf "chrome output not JSON: %s" e)
    | Error e -> Alcotest.failf "chrome_of_trace failed: %s" e)
  | _ -> Alcotest.fail "expected one process");
  (* An unknown id is a structured miss. *)
  Alcotest.(check string) "unknown trace" "invalid_request"
    (error_code (handle ~dispatch (A.to_body (A.trace ~id:"never" ()))))

let test_parse_response_trace_id () =
  let module A = Service.Service_api in
  match A.parse_response {|{"v":1,"ok":true,"trace_id":"t-9","result":{}}|} with
  | Ok r ->
    Alcotest.(check (option string)) "r_trace_id" (Some "t-9") r.A.r_trace_id;
    Alcotest.(check bool) "r_ok" true r.A.r_ok
  | Error e -> Alcotest.failf "parse_response failed: %s" e

(* --- the parse-free reply path -------------------------------------- *)

(* What [Json.float_repr] must keep emitting: Printf's bytes. *)
let printf_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else if Float.is_nan f then "null"
  else if f > 0. then "1e999"
  else "-1e999"

let float_edges =
  [
    0.; -0.; 1.; -1.; 42.; 0.1; 1. /. 3.; 1e15; -1e15; Float.pred 1e15;
    Float.succ 1e15; -.Float.pred 1e15; 1e15 -. 1.; 1e15 +. 2.; 1e16; 2. ** 53.;
    123456789012345.6; Float.min_float; Int64.float_of_bits 1L;
    Int64.float_of_bits 0x000FFFFFFFFFFFFFL; -.Int64.float_of_bits 1L;
    Float.max_float; -.Float.max_float; Float.epsilon; float_of_int max_int;
    nan; -.nan; infinity; neg_infinity;
  ]

(* Random bit patterns cover every exponent; random integers and small
   reals hit the ["%.1f"] branch and the common reply values. *)
let random_floats ~seed n =
  let st = Random.State.make [| seed |] in
  List.init n (fun i ->
      match i mod 4 with
      | 0 | 1 -> Int64.float_of_bits (Random.State.bits64 st)
      | 2 -> float_of_int (Random.State.int st 0x3FFFFFFF - 0x1FFFFFFF)
      | _ -> Random.State.float st 1e6 -. 5e5)

(* The printer computes digits itself for 1e-10 <= |x| < 1e17 and
   calls the C primitive elsewhere, so most draws land in that range:
   log-uniform values, three-decimal values like the bench's, exact
   decimal ties at the 17th digit (q 2^-j with q 5^j of 18 digits),
   other odd multiples of 2^-j, and decimal powers with their
   neighbours and both range edges; each with both signs. *)
let fast_range_floats ~seed n =
  let st = Random.State.make [| seed |] in
  let log_uniform lo hi = 10. ** (lo +. Random.State.float st (hi -. lo)) in
  let pow5 j = int_of_float (5. ** float_of_int j) in
  let pow10 k = int_of_float (10. ** float_of_int k) in
  let tie () =
    let j = 2 + Random.State.int st 20 in
    let lo = (pow10 17 + pow5 j - 1) / pow5 j
    and hi = min (pow10 18 / pow5 j) (1 lsl 53) in
    let q = (lo + Random.State.full_int st (max 1 (hi - lo))) lor 1 in
    Float.ldexp (float_of_int q) (-j)
  in
  let dyadic () =
    let q = Random.State.full_int st (1 lsl 53) lor 1 in
    let j = Random.State.int st 90 in
    Float.min (Float.ldexp (float_of_int q) (-j)) (Float.pred 1e17)
  in
  let drawn =
    List.init n (fun i ->
        let x =
          match i mod 4 with
          | 0 -> log_uniform (-10.) 17.
          | 1 -> Float.round (log_uniform (-3.) 7. *. 1000.) /. 1000.
          | 2 -> tie ()
          | _ -> dyadic ()
        in
        if i land 4 = 0 then x else -.x)
  in
  let powers =
    List.concat_map
      (fun k ->
        let p = float_of_string (Printf.sprintf "1e%d" k) in
        [ p; Float.pred p; Float.succ p; Float.pred (Float.pred p) ])
      (List.init 28 (fun i -> i - 10))
  in
  let edges =
    [
      2. ** 52.; Float.pred (2. ** 52.); Float.succ (2. ** 52.); 2. ** 53. +. 2.;
      Float.pred 1e15 +. 0.5; 0.5; 0.25; 0.125; 1.5e-10; 9.5e-5; 9.5e16;
    ]
  in
  drawn @ List.concat_map (fun x -> [ x; -.x ]) (powers @ edges)

let test_float_repr_matches_printf () =
  List.iter
    (fun f ->
      let want = printf_repr f in
      if Json.float_repr f <> want then
        Alcotest.failf "float_repr %h: %S, Printf says %S" f (Json.float_repr f) want)
    (float_edges @ random_floats ~seed:12 140_000 @ fast_range_floats ~seed:14 520_000)

(* Fingerprint keys render machine floats with "%.17g" too. *)
let test_fingerprint_floats_match_printf () =
  let bgq = Core.Hw.Machines.bgq in
  List.iter
    (fun x ->
      let machine = { bgq with Core.Hw.Machine.freq_ghz = x } in
      let key =
        Service.Fingerprint.canonical ~workload:"sord" ~machine ~scale:1.
          ~criteria:Core.Analysis.Hotspot.default_criteria ~top:10 ~engine:"tree"
      in
      let want = Printf.sprintf ";freq=%.17g;" x in
      let n = String.length want in
      let rec found i =
        i + n <= String.length key && (String.sub key i n = want || found (i + 1))
      in
      if not (found 0) then Alcotest.failf "key %S lacks %S" key want)
    (float_edges @ random_floats ~seed:13 4_000 @ fast_range_floats ~seed:15 20_000)

(* [s] as a buffer's content, with bytes past it that would close an
   open container, end a string or extend a number: a scan that read
   past the content would answer differently. *)
let in_buf s =
  let b = Json.Buf.create 16 in
  Json.Buf.add_string b s;
  Json.Buf.add_string b "0]}\"";
  Json.Buf.truncate b (String.length s);
  b

let agree s =
  let parsed = Result.map ignore (Json.of_string s) in
  let show = function Ok () -> "ok" | Error e -> e in
  if Json.check s <> parsed then
    Alcotest.failf "check and of_string disagree on %S: %s vs %s" s
      (show (Json.check s)) (show parsed);
  let scanned = Json.check_buf (in_buf s) in
  if scanned <> parsed then
    Alcotest.failf "check_buf and of_string disagree on %S: %s vs %s" s
      (show scanned) (show parsed)

(* Bytes that steer a flip into structure, escapes and numbers. *)
let flip_bytes = "{}[],:\"\\ \n0123456789.eE+-tfnu\x00\x1f\xff"

let mutants ~seed ~flips ~cuts s =
  let st = Random.State.make [| seed |] in
  let n = String.length s in
  List.init flips (fun _ ->
      let b = Bytes.of_string s in
      let c =
        if Random.State.bool st then flip_bytes.[Random.State.int st (String.length flip_bytes)]
        else Char.chr (Random.State.int st 256)
      in
      Bytes.set b (Random.State.int st n) c;
      Bytes.to_string b)
  @ List.init cuts (fun _ -> String.sub s 0 (Random.State.int st n))

let prop_check_agrees =
  QCheck.Test.make ~name:"check agrees with of_string" ~count:500
    (QCheck.make ~print:Json.to_string gen_json)
    (fun t ->
      let s = Json.to_string t in
      if Json.check s <> Ok () then QCheck.Test.fail_reportf "rejected %S" s;
      if String.length s > 0 then
        List.iter agree (mutants ~seed:(Hashtbl.hash s) ~flips:4 ~cuts:2 s);
      true)

let test_check_edge_texts () =
  List.iter agree
    [
      ""; " "; "nul"; "null"; "nullx"; "[nullx]"; "{"; "[1,]"; "[ ]"; "{ }";
      {|{"a":}|}; {|{"a" 1}|}; {|{"a":1,}|}; {|{1:2}|}; "\"unterminated";
      "\"bad \\x escape\""; "\"unpaired \\ud834\""; "\"lone \\udd1e\"";
      "\"pair \\ud834\\udd1e\""; "\"\\ud834\\u0041\""; "\"\\u00e\""; "\"\\";
      "\"ctrl \x01 raw\""; "\"nul \x00\""; "\x00"; "01"; "1."; "+1"; "-";
      "-0"; "1e"; "1e+"; "1E-7"; "99999999999999999999"; "[1] trailing";
      "[1]  "; "\"esc \\n then plain\""; {|{"k\"ey":[true,false,null]}|};
    ]

(* The scanner allocates nothing per byte: a text with every token
   kind (nested containers, fractions, exponents, literals, plain
   strings) costs the same few minor words checked once or repeated a
   hundred times, as a string or where it lies in a buffer. *)
let test_check_allocates_nothing () =
  let unit_text =
    {|{"a":[1,-2.5,3e10,{"b":null,"c":[true,false]}],"d":"plain text","e":{"f":[[-0.125E-3,0]],"g":""}}|}
  in
  let words prepare k =
    let text = "[" ^ String.concat ", " (List.init k (fun _ -> unit_text)) ^ "]" in
    let scan = prepare text in
    let before = Gc.minor_words () in
    let result = scan () in
    let after = Gc.minor_words () in
    Alcotest.(check bool) "well formed" true (result = Ok ());
    after -. before
  in
  List.iter
    (fun (name, prepare) ->
      let once = words prepare 1 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: a few words (%.0f)" name once)
        true (once <= 16.);
      List.iter
        (fun k ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s: %d copies" name k)
            once (words prepare k))
        [ 10; 100 ])
    [
      ("check", fun text () -> Json.check text);
      ( "check_buf",
        fun text ->
          let b = in_buf text in
          fun () -> Json.check_buf b );
    ]

let explore_body =
  {|{"kind":"explore","workload":"pedagogical","machine":"bgq","axes":[{"axis":"bw","values":[1,2,4,8]},{"axis":"freq","values":[0.8,1.2,1.6,2.0]}],"trace":{"id":"t-explore"}}|}

(* Flips and cuts of real replies: a 16-point explore grid, and the
   analyze and sweep replies hot-hits serves from the cache. *)
let test_check_real_replies () =
  let dispatch = Service.Dispatch.create () in
  List.iteri
    (fun i body ->
      let reply = handle ~dispatch body in
      Alcotest.(check bool) "reply ok" true (is_ok reply);
      agree reply;
      List.iter agree (mutants ~seed:i ~flips:300 ~cuts:60 reply))
    [ explore_body; analyze_body; sweep_body ]

let test_client_classify_body () =
  let module P = Service.Protocol in
  let classify_body reply =
    let out = Json.Buf.create 16 in
    Json.Buf.add_string out reply;
    Client.classify_body out
  in
  let ok = P.ok_response ~trace_id:"t" (Json.Obj [ ("x", Json.Float 1.5) ]) in
  Alcotest.(check bool) "ok replies carry the prefix" true
    (String.starts_with ~prefix:P.ok_prefix ok);
  (match classify_body ok with
  | Ok () -> ()
  | Error e -> Alcotest.failf "ok reply refused: %a" Client.pp_error e);
  List.iter
    (fun bad ->
      match classify_body bad with
      | Error (Client.Protocol _) -> ()
      | Error e -> Alcotest.failf "%S: expected protocol, got %a" bad Client.pp_error e
      | Ok _ -> Alcotest.failf "malformed ok reply %S accepted" bad)
    [
      String.sub ok 0 (String.length ok - 1);
      P.ok_prefix ^ {|,"result":[1,]}|};
      P.ok_prefix ^ "}x";
      "not json";
    ];
  let shed =
    Json.to_string
      (P.error_envelope ~retry_after_ms:75. ~trace_id:"t" P.Overloaded "queue full")
  in
  Alcotest.(check bool) "errors lack the prefix" false
    (String.starts_with ~prefix:P.ok_prefix shed);
  (match classify_body shed with
  | Error (Client.Overloaded { retry_after_ms = Some 75.; message = "queue full" }) -> ()
  | _ -> Alcotest.fail "overloaded envelope not surfaced with its hint");
  let invalid = Json.to_string (P.error_envelope P.Invalid_request "bad") in
  Alcotest.(check bool) "other errors are replies" true
    (classify_body invalid = Ok ())

(* --- connections that carry many requests ---------------------------- *)

(* A raw client connection with a 2 s read deadline. *)
let connect_raw port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.;
  fd

let send_raw fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let version_line id =
  Printf.sprintf {|{"kind":"version","trace":{"id":"%s"}}|} id ^ "\n"

(* The first [n] reply lines, or those that came before EOF. *)
let read_lines fd n =
  let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
  let complete () =
    match List.rev (String.split_on_char '\n' (Buffer.contents buf)) with
    | _partial :: lines -> List.rev lines
    | [] -> []
  in
  let rec go () =
    if List.length (complete ()) < n then
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | k ->
        Buffer.add_subbytes buf chunk 0 k;
        go ()
  in
  go ();
  List.filteri (fun i _ -> i < n) (complete ())

let reads_eof fd = Unix.read fd (Bytes.create 1) 0 1 = 0

let ask fd id =
  send_raw fd (version_line id);
  match read_lines fd 1 with
  | [ reply ] ->
    Alcotest.(check (option string)) "reply to its request" (Some id)
      (trace_id_of reply)
  | _ -> Alcotest.failf "no reply to %s" id

let test_connection_carries_requests () =
  with_server (fun port ->
      let fd = connect_raw port in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          List.iter (ask fd) [ "k1"; "k2"; "k3" ];
          (* two requests in one write: answered in order *)
          send_raw fd (version_line "p1" ^ version_line "p2");
          Alcotest.(check (list (option string)))
            "pipelined replies in order" [ Some "p1"; Some "p2" ]
            (List.map trace_id_of (read_lines fd 2))))

let test_idle_connection_pins_no_worker () =
  with_server ~pool:1 (fun port ->
      let idle = connect_raw port in
      Fun.protect
        ~finally:(fun () -> Unix.close idle)
        (fun () ->
          ask idle "first";
          let t0 = Unix.gettimeofday () in
          (match Client.roundtrip ~host:"127.0.0.1" ~port version_body with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "second connection: %a" Client.pp_error e);
          Alcotest.(check bool) "answered within 100 ms" true
            (Unix.gettimeofday () -. t0 < 0.1);
          ask idle "again"))

let test_stop_closes_idle_connections () =
  let idle = ref None and stopping = ref 0. in
  with_server (fun port ->
      let fd = connect_raw port in
      idle := Some fd;
      ask fd "before-stop";
      stopping := Unix.gettimeofday ());
  let fd = Option.get !idle in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Alcotest.(check bool) "stop returns promptly" true
        (Unix.gettimeofday () -. !stopping < 1.);
      Alcotest.(check bool) "idle peer reads EOF" true (reads_eof fd))

let test_idle_set_capped () =
  with_server ~queue:2 (fun port ->
      let conns = ref [] in
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close !conns)
        (fun () ->
          for i = 0 to 2 do
            let fd = connect_raw port in
            conns := !conns @ [ fd ];
            ask fd (Printf.sprintf "idle-%d" i);
            Thread.delay 0.02
          done;
          let conns = !conns in
          (match Client.roundtrip ~host:"127.0.0.1" ~port version_body with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "fresh request: %a" Client.pp_error e);
          Alcotest.(check bool) "longest idle reads EOF" true
            (reads_eof (List.hd conns));
          ask (List.nth conns 2) "newest"))

let suite =
  [
    ( "service.json",
      [
        Alcotest.test_case "scalars" `Quick test_parse_scalars;
        Alcotest.test_case "structures" `Quick test_parse_structures;
        Alcotest.test_case "string escapes" `Quick test_parse_string_escapes;
        Alcotest.test_case "errors" `Quick test_parse_errors;
        to_alcotest prop_roundtrip;
        Alcotest.test_case "float_repr matches Printf" `Quick
          test_float_repr_matches_printf;
        Alcotest.test_case "fingerprint floats match Printf" `Quick
          test_fingerprint_floats_match_printf;
        to_alcotest prop_check_agrees;
        Alcotest.test_case "check edge texts" `Quick test_check_edge_texts;
        Alcotest.test_case "check on mutated replies" `Quick
          test_check_real_replies;
        Alcotest.test_case "check allocates nothing" `Quick
          test_check_allocates_nothing;
      ] );
    ( "service.protocol",
      [
        Alcotest.test_case "structured errors" `Quick test_protocol_errors;
        Alcotest.test_case "oversized" `Quick test_oversized;
        Alcotest.test_case "deadline" `Quick test_deadline_exceeded;
        Alcotest.test_case "catalogs and stats" `Quick test_catalogs_and_stats;
        Alcotest.test_case "hostile bodies" `Quick test_worker_never_crashes;
      ] );
    ( "service.lint",
      [
        Alcotest.test_case "workload request" `Quick test_lint_workload;
        Alcotest.test_case "inline source request" `Quick test_lint_source;
        Alcotest.test_case "request validation" `Quick
          test_lint_request_validation;
      ] );
    ( "service.cache",
      [
        Alcotest.test_case "analyze hits" `Quick test_analyze_cache_hit;
        Alcotest.test_case "sweep fully served" `Quick test_sweep_cache;
        Alcotest.test_case "sweep builds one BET" `Quick
          test_sweep_builds_one_bet;
        Alcotest.test_case "override shares slot" `Quick
          test_override_shares_sweep_slot;
        Alcotest.test_case "distinct queries distinct" `Quick
          test_different_queries_different_results;
        Alcotest.test_case "fingerprint" `Quick test_fingerprint;
      ] );
    ( "service.primitives",
      [
        Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
        Alcotest.test_case "metrics percentiles" `Quick
          test_metrics_percentiles;
        Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
        Alcotest.test_case "workqueue fifo" `Quick test_workqueue_fifo;
        Alcotest.test_case "workqueue threads" `Quick test_workqueue_threads;
      ] );
    ( "service.trace",
      [
        Alcotest.test_case "trace id echoed" `Quick test_trace_id_echoed;
        Alcotest.test_case "trace validation" `Quick test_trace_validation;
        Alcotest.test_case "lifecycle internal error" `Quick
          test_lifecycle_internal_error;
        Alcotest.test_case "recent round-trip" `Quick test_recent_roundtrip;
        Alcotest.test_case "trace kind round-trip" `Quick
          test_trace_kind_roundtrip;
        Alcotest.test_case "response trace id parsed" `Quick
          test_parse_response_trace_id;
      ] );
    ( "service.reliability",
      [
        Alcotest.test_case "fault spec parsing" `Quick test_faults_spec;
        Alcotest.test_case "fault stream determinism" `Quick
          test_faults_determinism;
        Alcotest.test_case "backoff determinism and cap" `Quick
          test_backoff_deterministic;
        Alcotest.test_case "client classifies replies" `Quick
          test_client_classify_body;
        Alcotest.test_case "overloaded response decoding" `Quick
          test_parse_overloaded_response;
        Alcotest.test_case "drain on shutdown" `Quick
          test_server_roundtrip_and_drain;
        Alcotest.test_case "saturated queue sheds" `Quick
          test_server_sheds_when_saturated;
        Alcotest.test_case "client timeout" `Quick
          test_client_times_out_on_slow_server;
        Alcotest.test_case "truncated response detected" `Quick
          test_client_detects_truncation;
        Alcotest.test_case "refused is structured" `Quick
          test_client_refused_is_structured;
        Alcotest.test_case "host names resolve" `Quick test_host_names;
        Alcotest.test_case "retries ride through drops" `Quick
          test_retries_ride_through_drops;
      ] );
    ( "service.connections",
      [
        Alcotest.test_case "many requests per connection" `Quick
          test_connection_carries_requests;
        Alcotest.test_case "idle connection pins no worker" `Quick
          test_idle_connection_pins_no_worker;
        Alcotest.test_case "stop closes idle connections" `Quick
          test_stop_closes_idle_connections;
        Alcotest.test_case "idle set capped" `Quick test_idle_set_capped;
      ] );
  ]
