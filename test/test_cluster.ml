(* Tests for the cluster layer: the consistent-hash ring (determinism,
   balance, minimal disruption, failover order, bounded load), the
   health state machine, Prometheus aggregation, and an in-process
   router + shards end-to-end (affinity, disjoint caches, failover,
   topology reporting). *)

module Json = Core.Report.Json
module Service = Skope_service
module Client = Skope_service.Client
module Api = Skope_service.Service_api
module Ring = Skope_cluster.Ring
module Health = Skope_cluster.Health
module Aggregate = Skope_cluster.Aggregate
module Router = Skope_cluster.Router
module Local = Skope_cluster.Local
module Span = Skope_telemetry.Span

(* Fingerprint-shaped keys (32 hex chars), deterministic. *)
let keys n = List.init n (fun i -> Digest.to_hex (Digest.string (string_of_int i)))

let owners ring ks =
  List.map (fun k -> (k, Option.get (Ring.owner ring k))) ks

(* --- ring ----------------------------------------------------------- *)

let test_ring_determinism () =
  let members = [ "s0"; "s1"; "s2"; "s3" ] in
  let a = Ring.create ~vnodes:128 ~seed:42 members in
  let b = Ring.create ~vnodes:128 ~seed:42 (List.rev members) in
  let ks = keys 200 in
  List.iter
    (fun k ->
      Alcotest.(check string)
        (Printf.sprintf "same owner for %s" k)
        (Option.get (Ring.owner a k))
        (Option.get (Ring.owner b k)))
    ks;
  let c = Ring.create ~vnodes:128 ~seed:43 members in
  let differs =
    List.exists (fun k -> Ring.owner a k <> Ring.owner c k) ks
  in
  Alcotest.(check bool) "different seed reshuffles" true differs

let test_ring_balance () =
  let members = [ "s0"; "s1"; "s2"; "s3" ] in
  let ring = Ring.create ~vnodes:128 ~seed:42 members in
  let counts = Hashtbl.create 4 in
  List.iter
    (fun k ->
      let o = Option.get (Ring.owner ring k) in
      Hashtbl.replace counts o
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts o)))
    (keys 1000);
  let max_share =
    List.fold_left
      (fun acc m ->
        max acc (Option.value ~default:0 (Hashtbl.find_opt counts m)))
      0 members
  in
  let mean = 1000. /. 4. in
  Alcotest.(check bool)
    (Printf.sprintf "max/mean = %.3f <= 1.25" (float_of_int max_share /. mean))
    true
    (float_of_int max_share /. mean <= 1.25);
  (* every member owns something at 128 vnodes *)
  Alcotest.(check int) "all members used" 4 (Hashtbl.length counts)

let test_ring_minimal_disruption () =
  let ring = Ring.create ~vnodes:128 ~seed:42 [ "s0"; "s1"; "s2"; "s3" ] in
  let ks = keys 1000 in
  let before = owners ring ks in
  let after = owners (Ring.remove ring "s2") ks in
  List.iter2
    (fun (k, o1) (_, o2) ->
      if o1 = "s2" then
        Alcotest.(check bool) "dead shard's key moved" true (o2 <> "s2")
      else
        Alcotest.(check string)
          (Printf.sprintf "surviving key %s stays put" k)
          o1 o2)
    before after;
  (* readmission restores the original placement exactly *)
  let restored = owners (Ring.add (Ring.remove ring "s2") "s2") ks in
  List.iter2
    (fun (_, o1) (_, o2) -> Alcotest.(check string) "restored" o1 o2)
    before restored

let test_ring_successors () =
  let ring = Ring.create ~vnodes:128 ~seed:42 [ "s0"; "s1"; "s2"; "s3" ] in
  let key = "a-fingerprint" in
  let order = Ring.successors ring key in
  Alcotest.(check int) "covers every member" 4 (List.length order);
  Alcotest.(check int) "distinct" 4
    (List.length (List.sort_uniq String.compare order));
  let o = Option.get (Ring.owner ring key) in
  Alcotest.(check string) "head is the owner" o (List.hd order);
  (* killing the owner hands the key to the ring successor *)
  let next = List.nth order 1 in
  Alcotest.(check string) "failover target is the successor" next
    (Option.get (Ring.owner (Ring.remove ring o) key))

let test_ring_bounded_load () =
  let ring = Ring.create ~vnodes:128 ~seed:7 [ "a"; "b"; "c" ] in
  let key = "hot-key" in
  let order = Ring.successors ring key in
  let owner = List.hd order and next = List.nth order 1 in
  (* all idle: the owner keeps its key *)
  let idle = Ring.route ~load:(fun _ -> 0) ~factor:1.25 ring key in
  Alcotest.(check string) "idle ring routes to owner" owner (List.hd idle);
  (* the owner far over capacity spills to the successor, but stays in
     the failover order *)
  let load m = if m = owner then 10 else 0 in
  let routed = Ring.route ~load ~factor:1.25 ring key in
  Alcotest.(check string) "overloaded owner spills" next (List.hd routed);
  Alcotest.(check bool) "owner still routable" true (List.mem owner routed);
  Alcotest.(check int) "nobody dropped" 3 (List.length routed)

(* --- health --------------------------------------------------------- *)

let test_health_state_machine () =
  let cfg = { Health.fall = 3; rise = 2 } in
  let step state ok = Health.observe cfg state ~ok in
  (* two failures stay routable, a success resets *)
  let s, e = step Health.Healthy false in
  Alcotest.(check bool) "no event" true (e = None);
  let s, _ = step s false in
  Alcotest.(check bool) "suspect still available" true (Health.available s);
  let s, _ = step s true in
  Alcotest.(check bool) "success resets" true (s = Health.Healthy);
  (* fall consecutive failures eject *)
  let s, _ = step Health.Healthy false in
  let s, _ = step s false in
  let s, e = step s false in
  Alcotest.(check bool) "ejection event" true (e = Some Health.Ejection);
  Alcotest.(check bool) "ejected unavailable" false (Health.available s);
  (* a lone success does not readmit; rise consecutive ones do *)
  let s, e = step s true in
  Alcotest.(check bool) "not yet readmitted" true
    (e = None && not (Health.available s));
  (* an intervening failure resets the rise count *)
  let s2, _ = step s false in
  let s2, e2 = step s2 true in
  Alcotest.(check bool) "failure reset the streak" true
    (e2 = None && not (Health.available s2));
  let s, e = step s true in
  Alcotest.(check bool) "readmission event" true (e = Some Health.Readmission);
  Alcotest.(check bool) "healthy again" true (s = Health.Healthy)

(* --- aggregate ------------------------------------------------------ *)

let count_substring hay needle =
  let n = String.length needle in
  let rec go i acc =
    if i + n > String.length hay then acc
    else if String.sub hay i n = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_aggregate_merge () =
  let shard v =
    Printf.sprintf
      "# HELP skope_requests_total Total requests.\n\
       # TYPE skope_requests_total counter\n\
       skope_requests_total{kind=\"analyze\"} %d\n\
       skope_requests_total %d\n\
       # HELP skope_request_seconds Latency.\n\
       # TYPE skope_request_seconds histogram\n\
       skope_request_seconds_bucket{le=\"0.1\"} %d\n\
       skope_request_seconds_sum %d.5\n\
       # HELP skope_lru_entries Cache entries.\n\
       # TYPE skope_lru_entries gauge\n\
       skope_lru_entries %d\n"
      v (v * 2) v v (v * 3)
  in
  let merged = Aggregate.merge [ ("s0", shard 5); ("s1", shard 9) ] in
  (* one header per family, regardless of shard count *)
  List.iter
    (fun fam ->
      Alcotest.(check int)
        (Printf.sprintf "one HELP for %s" fam)
        1
        (count_substring merged (Printf.sprintf "# HELP %s " fam));
      Alcotest.(check int)
        (Printf.sprintf "one TYPE for %s" fam)
        1
        (count_substring merged (Printf.sprintf "# TYPE %s " fam)))
    [ "skope_requests_total"; "skope_request_seconds"; "skope_lru_entries" ];
  (* labels injected first into existing sets, fresh sets on bare names *)
  Alcotest.(check int) "labelled sample kept labels" 1
    (count_substring merged
       "skope_requests_total{shard=\"s0\",kind=\"analyze\"} 5");
  Alcotest.(check int) "bare sample got a label set" 1
    (count_substring merged "skope_lru_entries{shard=\"s1\"} 27");
  (* histogram samples stayed inside their family block *)
  Alcotest.(check int) "bucket samples labelled" 1
    (count_substring merged
       "skope_request_seconds_bucket{shard=\"s1\",le=\"0.1\"} 9");
  (* every sample of both shards survived *)
  Alcotest.(check int) "all s0 samples" 5 (count_substring merged "{shard=\"s0\"");
  Alcotest.(check int) "all s1 samples" 5 (count_substring merged "{shard=\"s1\"")

let test_inject_label_edge_cases () =
  Alcotest.(check string) "empty label set"
    "foo{shard=\"s0\"} 1"
    (Aggregate.inject_label ~shard:"s0" "foo{} 1");
  Alcotest.(check string) "bare counter"
    "foo_total{shard=\"s0\"} 2"
    (Aggregate.inject_label ~shard:"s0" "foo_total 2")

let test_inject_label_escaping () =
  (* Prometheus label values escape backslash and double-quote; a
     hostile shard id must not break the exposition syntax. *)
  Alcotest.(check string) "quote escaped"
    "foo{shard=\"s\\\"0\"} 1"
    (Aggregate.inject_label ~shard:"s\"0" "foo 1");
  Alcotest.(check string) "backslash escaped"
    "foo{shard=\"s\\\\0\"} 1"
    (Aggregate.inject_label ~shard:"s\\0" "foo 1");
  Alcotest.(check string) "newline escaped"
    "foo{shard=\"s\\n0\"} 1"
    (Aggregate.inject_label ~shard:"s\n0" "foo 1")

let test_aggregate_histogram_family () =
  (* A full histogram family from two shards, with the second shard
     emitting its families in a different order: bucket/sum/count
     samples must stay grouped under one header block. *)
  let shard ?(flip = false) v =
    let hist =
      Printf.sprintf
        "# HELP skope_phase_duration_seconds Phase latency.\n\
         # TYPE skope_phase_duration_seconds histogram\n\
         skope_phase_duration_seconds_bucket{phase=\"eval\",le=\"0.01\"} %d\n\
         skope_phase_duration_seconds_bucket{phase=\"eval\",le=\"+Inf\"} %d\n\
         skope_phase_duration_seconds_sum{phase=\"eval\"} %d.25\n\
         skope_phase_duration_seconds_count{phase=\"eval\"} %d\n"
        v (v + 1) v (v + 1)
    in
    let gauge =
      Printf.sprintf
        "# HELP skope_lru_entries Cache entries.\n\
         # TYPE skope_lru_entries gauge\n\
         skope_lru_entries %d\n"
        v
    in
    if flip then gauge ^ hist else hist ^ gauge
  in
  let merged =
    Aggregate.merge [ ("s0", shard 3); ("s1", shard ~flip:true 7) ]
  in
  Alcotest.(check int) "one histogram header" 1
    (count_substring merged "# TYPE skope_phase_duration_seconds histogram");
  (* all eight histogram samples survived, each with its shard label *)
  List.iter
    (fun (shard, v) ->
      List.iter
        (fun line -> Alcotest.(check int) line 1 (count_substring merged line))
        [
          Printf.sprintf
            "skope_phase_duration_seconds_bucket{shard=%S,phase=\"eval\",le=\"0.01\"} %d"
            shard v;
          Printf.sprintf
            "skope_phase_duration_seconds_bucket{shard=%S,phase=\"eval\",le=\"+Inf\"} %d"
            shard (v + 1);
          Printf.sprintf
            "skope_phase_duration_seconds_sum{shard=%S,phase=\"eval\"} %d.25"
            shard v;
          Printf.sprintf
            "skope_phase_duration_seconds_count{shard=%S,phase=\"eval\"} %d"
            shard (v + 1);
        ])
    [ ("s0", 3); ("s1", 7) ];
  (* the family block is contiguous: every histogram sample sits
     between the family header and the next family header *)
  let find hay needle =
    let n = String.length needle in
    let rec go i =
      if i + n > String.length hay then -1
      else if String.sub hay i n = needle then i
      else go (i + 1)
    in
    go 0
  in
  let rfind hay needle =
    let n = String.length needle in
    let rec go i best =
      if i + n > String.length hay then best
      else if String.sub hay i n = needle then go (i + 1) i
      else go (i + 1) best
    in
    go 0 (-1)
  in
  let header_at = find merged "# TYPE skope_phase_duration_seconds" in
  let gauge_header_at = find merged "# TYPE skope_lru_entries" in
  let last_sample_at = rfind merged "skope_phase_duration_seconds_count" in
  Alcotest.(check bool) "samples follow their header" true
    (header_at < last_sample_at);
  Alcotest.(check bool) "family blocks do not interleave" true
    (last_sample_at < gauge_header_at || gauge_header_at < header_at)

(* --- protocol plumbing ---------------------------------------------- *)

let test_cluster_stats_kind () =
  let body = Api.to_body Api.Cluster_stats in
  (match Service.Protocol.parse_request body with
  | Ok (Service.Protocol.Cluster_stats, { Service.Protocol.timeout_ms = None; _ })
    -> ()
  | Ok _ -> Alcotest.fail "parsed to the wrong request"
  | Error (_, m) -> Alcotest.failf "parse failed: %s" m);
  (* a single-process skoped refuses it, pointing at the router *)
  let d = Service.Dispatch.create () in
  let resp = Service.Dispatch.handle d body in
  match Api.parse_response resp with
  | Ok r ->
    Alcotest.(check bool) "rejected" false r.Api.r_ok;
    Alcotest.(check (option string)) "code" (Some "invalid_request")
      r.Api.r_error_code;
    Alcotest.(check bool) "mentions the router" true
      (match r.Api.r_error_message with
      | Some m -> count_substring m "skope route" = 1
      | None -> false)
  | Error e -> Alcotest.failf "undecodable response: %s" e

(* The router appends "trace_id" (unless the shard echoed one) and
   "shard" in one pass, and its shard scan reads them back. *)
let test_splice_reply () =
  let splice = Router.splice_reply ~trace_id:"rtr-1" ~shard:"s0" in
  let echoed = {|{"v":1,"ok":true,"trace_id":"t-9","result":{"x":1}}|} in
  Alcotest.(check string) "shard echoed its trace id"
    {|{"v":1,"ok":true,"trace_id":"t-9","result":{"x":1},"shard":"s0"}|}
    (splice echoed);
  Alcotest.(check string) "trace id spliced when absent"
    {|{"v":1,"ok":false,"trace_id":"rtr-1","shard":"s0"}|}
    (splice {|{"v":1,"ok":false}|});
  Alcotest.(check string) "empty object" {|{"trace_id":"rtr-1","shard":"s0"}|}
    (splice "{}");
  Alcotest.(check string) "not an object: untouched" "[1]" (splice "[1]");
  List.iter
    (fun resp ->
      let spliced = splice resp in
      Alcotest.(check (option string)) "shard read back" (Some "s0")
        (Router.shard_of_response spliced);
      Alcotest.(check bool) "still JSON" true (Json.check spliced = Ok ()))
    [ echoed; {|{"v":1,"ok":false}|}; "{}" ];
  Alcotest.(check (option string)) "no shard field" None
    (Router.shard_of_response echoed)

(* Router affinity and the shard's cache share one resolution: the
   key is the shard's LRU fingerprint, so a query spelled with another
   workload case lands in the same slot. *)
let test_one_fingerprint () =
  let parts workload =
    match
      Service.Protocol.parse_request
        (Printf.sprintf {|{"kind":"analyze","workload":%S,"machine":"bgq"}|}
           workload)
    with
    | Ok (Service.Protocol.Analyze q, _) -> Service.Dispatch.query_parts q
    | _ -> Alcotest.fail "analyze body did not parse"
  in
  let key w =
    match parts w with
    | Ok p -> p.Service.Dispatch.fingerprint
    | Error (_, m) -> Alcotest.failf "resolution failed: %s" m
  in
  let p = Result.get_ok (parts "sord") in
  Alcotest.(check string) "fingerprint of the resolved fields"
    (Service.Fingerprint.of_query ~workload:"sord" ~machine:p.Service.Dispatch.machine
       ~scale:p.Service.Dispatch.scale ~criteria:p.Service.Dispatch.criteria
       ~top:p.Service.Dispatch.top ~engine:"tree")
    (key "sord");
  Alcotest.(check string) "workload case folds into one key" (key "sord") (key "SORD");
  match parts "no-such-workload" with
  | Error (Service.Protocol.Unknown_workload, _) -> ()
  | _ -> Alcotest.fail "expected unknown_workload"

(* --- the router's request lifecycle ---------------------------------- *)

(* A port nothing listens on. *)
let closed_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  Unix.close s;
  port

(* A router whose one member is never reached: the kinds sent to it
   below are answered by the router itself. *)
let lone_router () =
  Router.create
    {
      Router.default_config with
      Router.members =
        [ { Router.m_id = "s0"; m_host = "127.0.0.1"; m_port = closed_port () } ];
    }

let string_at key json = Option.bind (Json.member key json) Json.to_string_opt

let rtr_id what resp =
  match Test_service.trace_id_of resp with
  | Some id when String.starts_with ~prefix:"rtr-" id -> id
  | _ -> Alcotest.failf "%s: expected a minted rtr- trace id: %s" what resp

(* A body the router cannot parse is answered like a shard answers
   it: under a minted id, with a flight-recorder entry of kind "?". *)
let test_router_parse_error () =
  let t = lone_router () in
  let resp = Router.handle t "{\"kind\":" in
  Alcotest.(check string) "code" "parse_error" (Test_service.error_code resp);
  let id = rtr_id "parse error" resp in
  let records =
    match
      Json.member "records"
        (Test_service.result_of
           (Router.handle t (Api.to_body (Api.recent ~errors_only:true ()))))
    with
    | Some (Json.List rs) -> rs
    | _ -> Alcotest.fail "recent result has no records"
  in
  match List.filter (fun r -> string_at "trace_id" r = Some id) records with
  | [ r ] ->
    Alcotest.(check (option string)) "kind" (Some "?") (string_at "kind" r);
    Alcotest.(check (option string))
      "outcome" (Some "parse_error") (string_at "outcome" r)
  | _ -> Alcotest.failf "recent errors do not list %s" id

(* The router's span carries the caller's parent label, as a shard's
   does. *)
let test_router_trace_parent () =
  let t = lone_router () in
  ignore
    (Router.handle t
       (Api.to_body ~trace_id:"parented-1" ~trace_parent:"caller"
          (Api.recent ())));
  let trace =
    Test_service.result_of
      (Router.handle t (Api.to_body (Api.trace ~id:"parented-1" ())))
  in
  let spans =
    match Json.member "processes" trace with
    | Some (Json.List [ p ]) -> (
      Alcotest.(check (option string))
        "the router's record" (Some "router") (string_at "process" p);
      match Option.bind (Json.member "record" p) (Json.member "spans") with
      | Some (Json.List spans) -> spans
      | _ -> Alcotest.fail "router record has no spans")
    | _ -> Alcotest.failf "expected the router's record alone"
  in
  match List.filter (fun sp -> string_at "name" sp = Some "route") spans with
  | [ route ] ->
    Alcotest.(check (option string))
      "trace_parent" (Some "caller")
      (Option.bind (Json.member "attrs" route) (string_at "trace_parent"))
  | _ -> Alcotest.fail "expected one route span"

(* --- end-to-end: in-process cluster --------------------------------- *)

let with_cluster ?(shards = 2) ?(cache = 64) ?health f =
  let c =
    Local.start ~shards ~cache_capacity:cache ?health ~probe_interval_s:0.1
      ~shard_pool:1 ~router_pool:2 ()
  in
  Fun.protect ~finally:(fun () -> Local.stop c) (fun () -> f c)

let request ?(retry = Client.default_retry) port body =
  match Client.request ~retry ~host:"127.0.0.1" ~port body with
  | Ok r -> r
  | Error e -> Alcotest.failf "request failed: %a" Client.pp_error e

let analyze_body scale =
  Api.to_body
    (Api.analyze
       ~opts:{ Api.default_query_opts with Api.scale = Some scale }
       ~workload:"sord" ~machine:"bgq" ())

let response_result resp =
  match Json.of_string resp with
  | Ok j ->
    Alcotest.(check bool) "response ok" true
      (Json.member "ok" j = Some (Json.Bool true));
    Option.get (Json.member "result" j)
  | Error e -> Alcotest.failf "bad response json: %s" e

let shard_of resp =
  match Router.shard_of_response resp with
  | Some s -> s
  | None -> Alcotest.failf "response has no shard field: %s" resp

let cluster_stats port =
  response_result (request port (Api.to_body Api.Cluster_stats))

(* (id, state, cache_hits, cache_misses) per member. *)
let member_cache_stats stats =
  match Json.member "members" stats with
  | Some (Json.List ms) ->
    List.map
      (fun m ->
        let str key =
          match Json.member key m with Some (Json.String s) -> s | _ -> "?"
        in
        let metric key =
          match
            Option.bind
              (Option.bind (Json.member "stats" m) (Json.member "metrics"))
              (Json.member key)
          with
          | Some (Json.Int n) -> n
          | _ -> 0
        in
        (str "id", str "state", metric "cache_hits", metric "cache_misses"))
      ms
  | _ -> Alcotest.fail "cluster_stats has no members list"

let int_at path json =
  let rec go json = function
    | [] -> ( match json with Json.Int n -> n | _ -> -1)
    | k :: rest -> (
      match Json.member k json with Some j -> go j rest | None -> -1)
  in
  go json path

let test_e2e_affinity_disjoint_caches () =
  with_cluster ~shards:2 (fun c ->
      let port = Local.router_port c in
      let scales = List.init 6 (fun i -> 0.2 +. (0.01 *. float_of_int i)) in
      (* round 1: six distinct fingerprints, one build each *)
      let placed =
        List.map (fun s -> (s, shard_of (request port (analyze_body s)))) scales
      in
      (* round 2: every repeat lands on the same shard and is a hit *)
      List.iter
        (fun (s, shard) ->
          Alcotest.(check string)
            (Printf.sprintf "scale %.2f sticks to its shard" s)
            shard
            (shard_of (request port (analyze_body s))))
        placed;
      let stats = member_cache_stats (cluster_stats port) in
      let hits = List.fold_left (fun a (_, _, h, _) -> a + h) 0 stats in
      let misses = List.fold_left (fun a (_, _, _, m) -> a + m) 0 stats in
      (* disjoint: each fingerprint was built exactly once cluster-wide
         and was a hit exactly once (its repeat), on its owning shard *)
      Alcotest.(check int) "6 builds cluster-wide" 6 misses;
      Alcotest.(check int) "6 hits cluster-wide" 6 hits;
      Alcotest.(check int) "all shards healthy" 2
        (int_at [ "healthy" ] (cluster_stats port)))

(* What sharding multiplies is cache capacity, pinned as counts: 24
   SORD fingerprints cycled five times against 12-entry LRUs.  One
   shard evicts every entry before its reuse; four shards each hold
   the fingerprints they own, so each is built exactly once. *)
let test_e2e_affinity_multiplies_cache () =
  let bodies =
    List.init 24 (fun i -> analyze_body (0.2 +. (0.002 *. float_of_int i)))
  in
  let hits_and_misses shards =
    with_cluster ~shards ~cache:12 (fun c ->
        let port = Local.router_port c in
        for _ = 1 to 5 do
          List.iter (fun body -> ignore (request port body)) bodies
        done;
        let stats = member_cache_stats (cluster_stats port) in
        ( List.fold_left (fun a (_, _, h, _) -> a + h) 0 stats,
          List.fold_left (fun a (_, _, _, m) -> a + m) 0 stats ))
  in
  Alcotest.(check (pair int int))
    "1 shard: every reuse was evicted" (0, 120) (hits_and_misses 1);
  Alcotest.(check (pair int int))
    "4 shards: one build per fingerprint" (96, 24) (hits_and_misses 4)

let test_e2e_capabilities_topology () =
  with_cluster ~shards:2 (fun c ->
      let port = Local.router_port c in
      let result = response_result (request port (Api.to_body Api.Capabilities)) in
      (match Json.member "kinds" result with
      | Some (Json.List kinds) ->
        Alcotest.(check bool) "advertises cluster_stats" true
          (List.mem (Json.String "cluster_stats") kinds);
        Alcotest.(check bool) "still advertises analyze" true
          (List.mem (Json.String "analyze") kinds)
      | _ -> Alcotest.fail "no kinds in capabilities");
      Alcotest.(check int) "cluster.shards" 2
        (int_at [ "cluster"; "shards" ] result);
      match Json.member "cluster" result with
      | Some cl -> (
        match Json.member "ring" cl with
        | Some ring ->
          Alcotest.(check int) "ring seed" 42 (int_at [ "seed" ] ring);
          (match Json.member "members" ring with
          | Some (Json.List ms) ->
            Alcotest.(check int) "ring members" 2 (List.length ms)
          | _ -> Alcotest.fail "no ring members")
        | None -> Alcotest.fail "no ring in cluster topology")
      | None -> Alcotest.fail "no cluster object in capabilities")

let test_e2e_metrics_aggregation () =
  with_cluster ~shards:2 (fun c ->
      let port = Local.router_port c in
      ignore (request port (analyze_body 0.25));
      let result =
        response_result (request port (Api.to_body Api.Metrics_prom))
      in
      let body =
        match Json.member "body" result with
        | Some (Json.String s) -> s
        | _ -> Alcotest.fail "no exposition body"
      in
      Alcotest.(check int) "router family present" 1
        (count_substring body "skope_cluster_shards 2");
      List.iter
        (fun id ->
          Alcotest.(check bool)
            (Printf.sprintf "per-shard series for %s" id)
            true
            (count_substring body (Printf.sprintf "{shard=\"%s\"" id) > 0))
        [ "s0"; "s1" ];
      (* shard families are deduplicated to one header *)
      Alcotest.(check int) "one HELP for shard requests" 1
        (count_substring body "# HELP skope_requests_total "))

let test_e2e_failover_and_ejection () =
  with_cluster ~shards:2 ~health:{ Health.fall = 2; rise = 2 } (fun c ->
      let port = Local.router_port c in
      let body = analyze_body 0.3 in
      let owner = shard_of (request port body) in
      let owner_index =
        match Array.to_list (Local.shard_ids c) |> List.mapi (fun i x -> (i, x))
              |> List.find_opt (fun (_, x) -> x = owner) with
        | Some (i, _) -> i
        | None -> Alcotest.failf "unknown shard id %s" owner
      in
      (* kill the owning shard: the very next request must still be
         answered, by the ring successor *)
      Local.stop_shard c owner_index;
      let survivor = shard_of (request port body) in
      Alcotest.(check bool) "failed over off the dead shard" true
        (survivor <> owner);
      (* probes (every 0.1 s, fall 2) eject the dead member *)
      let deadline = Unix.gettimeofday () +. 5. in
      let rec wait_ejected () =
        let stats = cluster_stats port in
        if int_at [ "healthy" ] stats = 1 then stats
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "dead shard never ejected"
        else begin
          Thread.delay 0.05;
          wait_ejected ()
        end
      in
      let stats = wait_ejected () in
      List.iter
        (fun (id, state, _, _) ->
          if id = owner then
            Alcotest.(check string) "dead member ejected" "ejected" state)
        (member_cache_stats stats);
      Alcotest.(check bool) "router recorded failovers" true
        (int_at [ "router"; "failovers" ] stats >= 1);
      (* post-ejection the cluster answers without failover latency *)
      for _ = 1 to 5 do
        Alcotest.(check string) "steady state on survivor" survivor
          (shard_of (request port body))
      done)

(* The router keeps its connection to a shard between forwards.  A
   shard that closes it while idle (its read timeout, 0.2 s here) costs
   the next forward a fresh connection, not a retry or a failover. *)
let test_e2e_pool_survives_idle_close () =
  Test_service.with_server ~pool:1 ~read_timeout:0.2 (fun port ->
      let t =
        Router.create
          {
            Router.default_config with
            Router.members =
              [ { Router.m_id = "s0"; m_host = "127.0.0.1"; m_port = port } ];
          }
      in
      let open_fds () =
        if Sys.file_exists "/proc/self/fd" then
          Some (Array.length (Sys.readdir "/proc/self/fd"))
        else None
      in
      let retries () =
        Option.value ~default:0.
          (List.assoc_opt "client_retries" (Span.counters ()))
      in
      let forward () =
        let resp = Router.handle t (analyze_body 0.3) in
        Alcotest.(check (option string)) "answered by s0" (Some "s0")
          (Router.shard_of_response resp);
        ignore (response_result resp)
      in
      let fds = open_fds () and retries0 = retries () in
      forward ();
      (* both ends of the kept connection are this process's *)
      Alcotest.(check (option int)) "connection kept"
        (Option.map (( + ) 2) fds) (open_fds ());
      Thread.delay 1.0;
      Alcotest.(check (option int)) "shard closed its end"
        (Option.map (( + ) 1) fds) (open_fds ());
      forward ();
      Alcotest.(check (option int)) "stale connection replaced"
        (Option.map (( + ) 2) fds) (open_fds ());
      Alcotest.(check (float 0.)) "no client retries" retries0 (retries ());
      let stats =
        response_result (Router.handle t (Api.to_body Api.Cluster_stats))
      in
      Alcotest.(check int) "no failover" 0
        (int_at [ "router"; "failovers" ] stats);
      match Json.member "members" stats with
      | Some (Json.List [ m ]) ->
        Alcotest.(check int) "no transport error" 0 (int_at [ "errors" ] m);
        Alcotest.(check int) "both forwarded" 2 (int_at [ "forwarded" ] m)
      | _ -> Alcotest.fail "expected one member")

(* A member named by host name is reached like a numeric one: every
   forward is answered and the kept connection is the only descriptor
   it holds, and its probes succeed.  A member whose name does not
   resolve (the empty name, which asks no name server) fails its
   probes and is ejected like a dead shard, and the forwards it owned
   fail over without leaving a descriptor or an in-flight count
   behind.  An in-process cluster on such a host fails at once. *)
let test_member_host_names () =
  (match Local.start ~host:"" () with
  | exception Failure msg ->
    Alcotest.(check string) "cluster host" {|cannot resolve host ""|} msg
  | c ->
    Local.stop c;
    Alcotest.fail "a cluster started on a host that does not resolve");
  Test_service.with_server ~pool:1 (fun port ->
      let t =
        Router.create
          {
            Router.default_config with
            Router.members =
              [
                { Router.m_id = "s0"; m_host = "localhost"; m_port = port };
                { Router.m_id = "s1"; m_host = ""; m_port = port };
              ];
          }
      in
      let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
      let forward i =
        let resp = Router.handle t (analyze_body (0.2 +. (0.01 *. float i))) in
        Alcotest.(check (option string)) "answered by s0" (Some "s0")
          (Router.shard_of_response resp);
        ignore (response_result resp)
      in
      forward 0;
      let fds = open_fds () in
      for i = 1 to 8 do
        forward i
      done;
      Alcotest.(check int) "no descriptor per forward" fds (open_fds ());
      for _ = 1 to Router.default_config.Router.health.Health.fall do
        Router.probe_once t
      done;
      let stats =
        response_result (Router.handle t (Api.to_body Api.Cluster_stats))
      in
      match Json.member "members" stats with
      | Some (Json.List [ s0; s1 ]) ->
        Alcotest.(check (option string)) "s0 healthy" (Some "healthy")
          (string_at "state" s0);
        Alcotest.(check int) "s0 probed"
          Router.default_config.Router.health.Health.fall
          (int_at [ "probes_ok" ] s0);
        Alcotest.(check (option string)) "s1 ejected" (Some "ejected")
          (string_at "state" s1);
        Alcotest.(check int) "s1 holds no request" 0 (int_at [ "in_flight" ] s1)
      | _ -> Alcotest.fail "expected two members")

(* Send [body] from a thread of its own, so that a server that answers
   before it has read the whole body (and then closes, resetting the
   rest) cannot stall the test, and read the one reply line. *)
let raw_request port body =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close sock) @@ fun () ->
  Unix.setsockopt_float sock Unix.SO_RCVTIMEO 10.;
  Unix.setsockopt_float sock Unix.SO_SNDTIMEO 10.;
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let line = Bytes.of_string (body ^ "\n") in
  let writer =
    Thread.create
      (fun () ->
        let rec go off =
          if off < Bytes.length line then
            match Unix.write sock line off (Bytes.length line - off) with
            | n -> go (off + n)
            | exception Unix.Unix_error _ -> ()
        in
        go 0)
      ()
  in
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec read () =
    match Unix.read sock chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n -> (
      match Bytes.index_opt (Bytes.sub chunk 0 n) '\n' with
      | Some i -> Buffer.add_subbytes buf chunk 0 i
      | None ->
        Buffer.add_subbytes buf chunk 0 n;
        read ())
    | exception Unix.Unix_error _ -> ()
  in
  read ();
  Thread.join writer;
  Buffer.contents buf

(* Over the size limit, by a little (the whole body arrives) or by a
   lot (the router stops reading), a body is refused by the router
   itself: no shard sees it. *)
let test_e2e_oversized_stays_at_router () =
  with_cluster ~shards:2 (fun c ->
      let port = Local.router_port c in
      let forwarded () =
        match Json.member "members" (cluster_stats port) with
        | Some (Json.List ms) ->
          List.fold_left (fun acc m -> acc + int_at [ "forwarded" ] m) 0 ms
        | _ -> Alcotest.fail "cluster_stats has no members list"
      in
      let before = forwarded () in
      let limit = Service.Protocol.max_request_bytes in
      List.iter
        (fun (what, n) ->
          let resp = raw_request port (Test_service.padded_stats n) in
          Alcotest.(check string) what "oversized" (Test_service.error_code resp);
          ignore (rtr_id what resp);
          Alcotest.(check (option string))
            (what ^ ": no shard") None (Router.shard_of_response resp))
        [ ("1 MiB + 1 KiB", limit + 1024); ("2 MiB", 2 * limit) ];
      Alcotest.(check int) "nothing forwarded" before (forwarded ()))

let test_e2e_no_shard_is_structured () =
  with_cluster ~shards:1 (fun c ->
      let port = Local.router_port c in
      Local.stop_shard c 0;
      match
        Client.request ~retry:Client.no_retry ~host:"127.0.0.1" ~port
          (analyze_body 0.25)
      with
      | Ok resp -> Alcotest.failf "expected overloaded, got: %s" resp
      | Error (Client.Overloaded { retry_after_ms; _ }) ->
        Alcotest.(check bool) "carries a backoff hint" true
          (retry_after_ms <> None)
      | Error e -> Alcotest.failf "expected overloaded, got %a" Client.pp_error e)

let test_e2e_trace_propagation () =
  with_cluster ~shards:3 (fun c ->
      let port = Local.router_port c in
      let tid = "e2e-trace-1" in
      (* One id rides the whole path: client -> router -> owning shard. *)
      let resp =
        request port
          (Api.to_body ~trace_id:tid ~trace_parent:"caller"
             (Api.analyze
                ~opts:{ Api.default_query_opts with Api.scale = Some 0.21 }
                ~workload:"sord" ~machine:"bgq" ()))
      in
      (match Api.parse_response resp with
      | Ok r ->
        Alcotest.(check (option string))
          "router echoes the caller id" (Some tid) r.Api.r_trace_id
      | Error e -> Alcotest.failf "undecodable response: %s" e);
      let owner = shard_of resp in
      (* The merged trace has the router's AND the owning shard's
         record, under the same id. *)
      let trace =
        response_result (request port (Api.to_body (Api.trace ~id:tid ())))
      in
      let processes =
        match Json.member "processes" trace with
        | Some (Json.List ps) -> ps
        | _ -> Alcotest.fail "trace result has no processes"
      in
      let names =
        List.filter_map
          (fun p -> Option.bind (Json.member "process" p) Json.to_string_opt)
          processes
      in
      Alcotest.(check bool) "router process present" true
        (List.mem "router" names);
      Alcotest.(check bool)
        (Printf.sprintf "owning shard %s present" owner)
        true (List.mem owner names);
      List.iter
        (fun p ->
          match Option.bind (Json.member "record" p) (Json.member "spans") with
          | Some (Json.List spans) ->
            Alcotest.(check bool) "process contributed spans" true
              (List.length spans >= 1);
            (* The router's context comes first in the forwarded body,
               so the shard takes it over the caller's. *)
            if string_at "process" p = Some owner then
              Alcotest.(check (list (option string)))
                "shard's request span parent" [ Some "router" ]
                (List.filter_map
                   (fun sp ->
                     if string_at "name" sp = Some "request" then
                       Some
                         (Option.bind (Json.member "attrs" sp)
                            (string_at "trace_parent"))
                     else None)
                   spans)
          | _ -> Alcotest.fail "process record has no spans")
        processes;
      (* The merged result converts to Chrome trace_event JSON that
         round-trips through the JSON parser. *)
      (match Service.Traceview.chrome_of_trace trace with
      | Ok text -> (
        match Json.of_string text with
        | Ok chrome -> (
          match Json.member "traceEvents" chrome with
          | Some (Json.List evs) ->
            (* one process_name metadata event per process, plus spans *)
            Alcotest.(check bool) "chrome events cover both processes" true
              (List.length evs > List.length processes)
          | _ -> Alcotest.fail "no traceEvents")
        | Error e -> Alcotest.failf "chrome output is not JSON: %s" e)
      | Error e -> Alcotest.failf "chrome conversion failed: %s" e);
      (* The owning shard's own flight recorder shows the request. *)
      let shard_port =
        let ids = Local.shard_ids c and ports = Local.shard_ports c in
        let found = ref None in
        Array.iteri (fun i id -> if id = owner then found := Some ports.(i)) ids;
        Option.get !found
      in
      let recent =
        response_result
          (request shard_port (Api.to_body (Api.recent ~n:50 ())))
      in
      let recent_ids =
        match Json.member "records" recent with
        | Some (Json.List records) ->
          List.filter_map
            (fun r -> Option.bind (Json.member "trace_id" r) Json.to_string_opt)
            records
        | _ -> Alcotest.fail "recent has no records"
      in
      Alcotest.(check bool) "request visible on owning shard" true
        (List.mem tid recent_ids))

let suite =
  [
    ( "cluster.ring",
      [
        Alcotest.test_case "seeded determinism" `Quick test_ring_determinism;
        Alcotest.test_case "balance bound" `Quick test_ring_balance;
        Alcotest.test_case "minimal disruption" `Quick
          test_ring_minimal_disruption;
        Alcotest.test_case "successor failover order" `Quick
          test_ring_successors;
        Alcotest.test_case "bounded load" `Quick test_ring_bounded_load;
      ] );
    ( "cluster.health",
      [
        Alcotest.test_case "ejection and readmission" `Quick
          test_health_state_machine;
      ] );
    ( "cluster.aggregate",
      [
        Alcotest.test_case "merge with shard labels" `Quick
          test_aggregate_merge;
        Alcotest.test_case "label injection edges" `Quick
          test_inject_label_edge_cases;
        Alcotest.test_case "label value escaping" `Quick
          test_inject_label_escaping;
        Alcotest.test_case "histogram family merge" `Quick
          test_aggregate_histogram_family;
      ] );
    ( "cluster.protocol",
      [
        Alcotest.test_case "cluster_stats kind" `Quick test_cluster_stats_kind;
        Alcotest.test_case "one-pass reply splice" `Quick test_splice_reply;
        Alcotest.test_case "one fingerprint for route and cache" `Quick
          test_one_fingerprint;
        Alcotest.test_case "router parse error gets an id" `Quick
          test_router_parse_error;
        Alcotest.test_case "route span carries trace_parent" `Quick
          test_router_trace_parent;
      ] );
    ( "cluster.e2e",
      [
        Alcotest.test_case "affinity and disjoint caches" `Quick
          test_e2e_affinity_disjoint_caches;
        Alcotest.test_case "affinity multiplies cache capacity" `Quick
          test_e2e_affinity_multiplies_cache;
        Alcotest.test_case "capabilities topology" `Quick
          test_e2e_capabilities_topology;
        Alcotest.test_case "metrics aggregation" `Quick
          test_e2e_metrics_aggregation;
        Alcotest.test_case "failover and ejection" `Quick
          test_e2e_failover_and_ejection;
        Alcotest.test_case "no shard left" `Quick
          test_e2e_no_shard_is_structured;
        Alcotest.test_case "trace propagation" `Quick
          test_e2e_trace_propagation;
        Alcotest.test_case "pooled forward survives an idle close" `Quick
          test_e2e_pool_survives_idle_close;
        Alcotest.test_case "members named by host name" `Quick
          test_member_host_names;
        Alcotest.test_case "oversized stays at the router" `Quick
          test_e2e_oversized_stays_at_router;
      ] );
  ]
