(* Tests for arena pricing: structural invariants of the flattened
   arena, bit-for-bit equivalence with the tree-walk oracle
   ([Perf.project] + [Hotspot.select]) across the whole bundled fleet
   and a pooled grid, the v2 cache fingerprint, and the v1 wire's
   inert ["engine"] field. *)

module Json = Core.Report.Json
module Service = Skope_service
module Explore = Skope_explore.Explore
module P = Core.Pipeline
module Arena = Core.Bet.Arena
module Designspace = Core.Hw.Designspace
module Machine = Core.Hw.Machine
module Machines = Core.Hw.Machines
module Registry = Core.Workloads.Registry
module Perf = Core.Analysis.Perf
module Arena_price = Core.Analysis.Arena_price
module Roofline = Core.Hw.Roofline
module Hotspot = Core.Analysis.Hotspot
module Build = Core.Bet.Build

let bgq () = Option.get (Machines.find "bgq")
let sord () = Option.get (Registry.find "sord")

let handle ?(dispatch = Service.Dispatch.create ()) body =
  Service.Dispatch.handle dispatch body

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

(* The oracle: the recursive tree walk, then a hot-spot selection that
   re-sorts its input instead of trusting the producer's ranking. *)
let oracle ?cache prepared machine =
  let built = P.Prepared.built prepared in
  let proj = Perf.project ?cache machine built in
  let sel =
    Hotspot.select
      ~total_instructions:(Core.Bet.Bst.total_instructions built.Build.bst)
      proj.Perf.blocks
  in
  (proj, sel)

let check_against_oracle label ((proj : Perf.projection), sel)
    (a : P.Prepared.outcome) =
  Alcotest.(check (float 0.))
    (label ^ ": total time")
    proj.Perf.total_time a.P.Prepared.o_total_time;
  Alcotest.(check bool)
    (label ^ ": blocks bit-identical")
    true
    (proj.Perf.blocks = a.P.Prepared.o_blocks);
  Alcotest.(check bool)
    (label ^ ": selection identical")
    true
    (sel = a.P.Prepared.o_selection)

(* --- arena structure ----------------------------------------------- *)

let test_arena_invariants () =
  List.iter
    (fun (w : Registry.t) ->
      let prepared =
        P.Prepared.create ~workload:w ~scale:w.Registry.default_scale ()
      in
      let built = P.Prepared.built prepared in
      let a = Arena.of_build built in
      (match Arena.check a with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: arena invariant: %s" w.Registry.name msg);
      Alcotest.(check int)
        (w.Registry.name ^ ": node count")
        built.Core.Bet.Build.node_count (Arena.node_count a);
      Alcotest.(check int)
        (w.Registry.name ^ ": root is last slot")
        (a.Arena.n - 1) a.Arena.root;
      Alcotest.(check int)
        (w.Registry.name ^ ": pre_order covers every slot")
        a.Arena.n
        (Array.length a.Arena.pre_order))
    Registry.all

(* --- equivalence with the oracle ----------------------------------- *)

let cache_name = function
  | Perf.Constant -> "constant"
  | Perf.Footprint -> "footprint"

(* The acceptance bar: every bundled workload, on every bundled
   machine, under both cache models, prices bit-for-bit identically
   to the tree walk. *)
let test_fleet_identical () =
  List.iter
    (fun (w : Registry.t) ->
      let prepared =
        P.Prepared.create ~workload:w ~scale:w.Registry.default_scale ()
      in
      List.iter
        (fun (m : Machine.t) ->
          List.iter
            (fun cache ->
              let label =
                Fmt.str "%s on %s (%s)" w.Registry.name m.Machine.name
                  (cache_name cache)
              in
              check_against_oracle label
                (oracle ~cache prepared m)
                (P.Prepared.project ~cache prepared m))
            [ Perf.Constant; Perf.Footprint ])
        Machines.all)
    Registry.all

(* Hot-path annotation reads per-node time and ENR: the arena's tables
   must equal the tree walk's bit for bit. *)
let test_node_tables () =
  let same_table label (want : (int, float) Hashtbl.t) got =
    Alcotest.(check int) (label ^ ": size") (Hashtbl.length want)
      (Hashtbl.length got);
    Hashtbl.iter
      (fun id v ->
        match Hashtbl.find_opt got id with
        | Some g when Int64.bits_of_float g = Int64.bits_of_float v -> ()
        | Some g -> Alcotest.failf "%s: node %d: %h, oracle %h" label id g v
        | None -> Alcotest.failf "%s: node %d missing" label id)
      want
  in
  let checked = ref 0 in
  List.iter
    (fun (w : Registry.t) ->
      let prepared =
        P.Prepared.create ~workload:w ~scale:w.Registry.default_scale ()
      in
      let built = P.Prepared.built prepared in
      let arena = Arena.of_build built in
      List.iter
        (fun cache ->
          List.iter
            (fun (m : Machine.t) ->
              let want = Perf.project ~cache m built in
              let got =
                Arena_price.projection arena (Arena_price.price ~cache arena m)
              in
              let label =
                Fmt.str "%s on %s (%s)" w.Registry.name m.Machine.name
                  (cache_name cache)
              in
              same_table (label ^ " node_time") want.Perf.node_time
                got.Perf.node_time;
              same_table (label ^ " node_enr") want.Perf.node_enr
                got.Perf.node_enr;
              checked := !checked + Hashtbl.length want.Perf.node_time)
            Machines.all)
        [ Perf.Constant; Perf.Footprint ])
    Registry.all;
  Alcotest.(check bool) "some nodes compared" true (!checked > 0)

(* The 4^5 = 1024-point grid, priced on a 4-domain pool, must
   reproduce the tree walk exactly on every point, Pareto frontier
   included. *)
let test_grid_pool_equivalence () =
  let w = sord () in
  let scale = 0.1 in
  let axes =
    [
      Designspace.Frequency [ 0.8; 1.2; 1.6; 3.2 ];
      Designspace.Issue_width [ 1.; 2.; 4.; 8. ];
      Designspace.Mem_bandwidth [ 7.; 14.; 28.; 56. ];
      Designspace.Vector_width [ 1; 2; 4; 8 ];
      Designspace.Mem_latency [ 40.; 80.; 160.; 320. ];
    ]
  in
  let pts = Explore.grid_points (bgq ()) axes in
  Alcotest.(check int) "1024 points" 1024 (List.length pts);
  let prepared = P.Prepared.create ~workload:w ~scale () in
  let built = P.Prepared.built prepared in
  let ra = Explore.evaluate ~jobs:4 prepared pts in
  let want =
    List.map
      (fun (pt : Designspace.point) ->
        let m = pt.Designspace.p_machine in
        (pt.Designspace.p_tag, Perf.project m built, Explore.cost_proxy m))
      pts
  in
  List.iter2
    (fun (tag, (t : Perf.projection), _) (b : Explore.point) ->
      Alcotest.(check string) "grid order" tag b.Explore.tag;
      Alcotest.(check (float 0.)) (tag ^ " time") t.Perf.total_time
        b.Explore.time;
      Alcotest.(check bool)
        (tag ^ " blocks")
        true
        (t.Perf.blocks = b.Explore.outcome.P.Prepared.o_blocks))
    want ra.Explore.points;
  Alcotest.(check (list string))
    "same pareto"
    (List.map
       (fun (tag, _, _) -> tag)
       (Explore.pareto_by
          ~metrics:(fun (_, (t : Perf.projection), cost) ->
            (t.Perf.total_time, cost))
          want))
    (List.map (fun (p : Explore.point) -> p.Explore.tag) ra.Explore.pareto)

(* --- fingerprint coverage ------------------------------------------ *)

(* Any two requests differing in an evaluation-affecting field must
   get distinct fingerprints: every machine parameter (including each
   cache-level field), scale, criteria, top and engine. *)
let test_fingerprint_covers_schema () =
  let base = bgq () in
  let fp ?(workload = "sord") ?(machine = base) ?(scale = 1.0)
      ?(criteria = Hotspot.default_criteria) ?(top = 10) ?(engine = "tree") ()
      =
    Service.Fingerprint.of_query ~workload ~machine ~scale ~criteria ~top
      ~engine
  in
  let l1 = base.Machine.l1 and l2 = base.Machine.l2 in
  let variants =
    [
      ("base", fp ());
      ("workload", fp ~workload:"srad" ());
      ("scale", fp ~scale:2.0 ());
      ("top", fp ~top:5 ());
      ( "coverage",
        fp ~criteria:{ Hotspot.default_criteria with time_coverage = 0.5 } ()
      );
      ( "leanness",
        fp ~criteria:{ Hotspot.default_criteria with code_leanness = 0.2 } ()
      );
      ("engine", fp ~engine:"arena" ());
      ("freq", fp ~machine:{ base with Machine.freq_ghz = 9.9 } ());
      ("issue", fp ~machine:{ base with Machine.issue_width = 9. } ());
      ("vec", fp ~machine:{ base with Machine.vector_width = 16 } ());
      ("fma", fp ~machine:{ base with Machine.fma = not base.Machine.fma } ());
      ( "flop_issue",
        fp ~machine:{ base with Machine.flop_issue_per_cycle = 9. } () );
      ("div", fp ~machine:{ base with Machine.div_latency = 99. } ());
      ("vec_eff", fp ~machine:{ base with Machine.vec_efficiency = 0.123 } ());
      ("mem_lat", fp ~machine:{ base with Machine.mem_latency_cycles = 9. } ());
      ("mem_bw", fp ~machine:{ base with Machine.mem_bw_gbs = 9. } ());
      ("mlp", fp ~machine:{ base with Machine.mlp = 9. } ());
      ( "l1_size",
        fp
          ~machine:
            { base with Machine.l1 = { l1 with Machine.size_bytes = 123 } }
          () );
      ( "l1_line",
        fp
          ~machine:
            { base with Machine.l1 = { l1 with Machine.line_bytes = 123 } }
          () );
      ( "l1_assoc",
        fp ~machine:{ base with Machine.l1 = { l1 with Machine.assoc = 3 } } ()
      );
      ( "l1_lat",
        fp
          ~machine:
            { base with Machine.l1 = { l1 with Machine.latency_cycles = 9. } }
          () );
      ( "l2_size",
        fp
          ~machine:
            { base with Machine.l2 = { l2 with Machine.size_bytes = 123 } }
          () );
      ( "l2_line",
        fp
          ~machine:
            { base with Machine.l2 = { l2 with Machine.line_bytes = 123 } }
          () );
      ( "l2_lat",
        fp
          ~machine:
            { base with Machine.l2 = { l2 with Machine.latency_cycles = 9. } }
          () );
    ]
  in
  let digests = List.map snd variants in
  Alcotest.(check int)
    "every evaluation-affecting field perturbs the fingerprint"
    (List.length variants)
    (List.length (List.sort_uniq compare digests))

(* --- the v1 wire's inert engine field ------------------------------ *)

(* Request bodies with an optional v1 ["engine"] field. *)
let with_engine = function
  | None -> ""
  | Some e -> Printf.sprintf {|,"engine":%S|} e

let explore_body engine =
  Printf.sprintf
    {|{"kind":"explore","workload":"sord","machine":"bgq","axes":[{"axis":"bw","values":[7,14]},{"axis":"freq","values":[0.8,1.6]}]%s}|}
    (with_engine engine)

let sweep_body engine =
  Printf.sprintf
    {|{"kind":"sweep","workload":"sord","machine":"bgq","axis":"bw","values":[7,14,28]%s}|}
    (with_engine engine)

(* The two kinds that echo the name. *)
let echoing_kinds = [ ("sweep", sweep_body); ("explore", explore_body) ]

let points_of result =
  match Json.member "points" result with
  | Some (Json.List ps) -> ps
  | _ -> Alcotest.failf "no points in %s" (Json.to_string result)

let test_engine_parse () =
  (match Service.Protocol.parse_request (explore_body (Some "arena")) with
  | Ok (Service.Protocol.Explore (q, _), _) ->
    Alcotest.(check (option string)) "engine parsed" (Some "arena")
      q.Service.Protocol.engine
  | _ -> Alcotest.fail "explore with engine did not parse");
  (match Service.Protocol.parse_request (explore_body (Some "Tree")) with
  | Ok (Service.Protocol.Explore (q, _), _) ->
    Alcotest.(check (option string)) "engine lower-cased" (Some "tree")
      q.Service.Protocol.engine
  | _ -> Alcotest.fail "explore with mixed-case engine did not parse");
  match Service.Protocol.parse_request (explore_body None) with
  | Ok (Service.Protocol.Explore (q, _), _) ->
    Alcotest.(check (option string)) "engine defaults to None" None
      q.Service.Protocol.engine
  | _ -> Alcotest.fail "explore without engine did not parse"

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_engine_rejected () =
  let code, msg = error_of (handle (explore_body (Some "warp"))) in
  Alcotest.(check string) "unknown engine" "invalid_request" code;
  Alcotest.(check bool) ("names the engine: " ^ msg) true
    (contains msg "warp" && contains msg "tree" && contains msg "arena")

(* Accepted names come back lower-cased; an absent one as "tree". *)
let test_engine_echoed () =
  List.iter
    (fun (kind, body) ->
      List.iter
        (fun (engine, want) ->
          let result = result_of (handle (body engine)) in
          Alcotest.(check bool)
            (Fmt.str "%s echoes %s" kind want)
            true
            (Json.member "engine" result = Some (Json.String want)))
        [
          (None, "tree");
          (Some "tree", "tree");
          (Some "arena", "arena");
          (Some "ARENA", "arena");
        ])
    echoing_kinds

(* The name selects nothing: every accepted spelling, or none, prices
   byte-identical points.  [handle] makes a fresh dispatcher per call,
   so no reply is a cache hit. *)
let test_engine_wire_identity () =
  List.iter
    (fun (kind, body) ->
      let pts engine =
        List.map Json.to_string (points_of (result_of (handle (body engine))))
      in
      let want = pts None in
      List.iter
        (fun engine ->
          Alcotest.(check (list string))
            (kind ^ " points byte-identical")
            want (pts engine))
        [ Some "tree"; Some "arena"; Some "ARENA" ])
    echoing_kinds

let test_capabilities_engines () =
  let result = result_of (handle {|{"kind":"capabilities"}|}) in
  match Json.member "bet_engines" result with
  | Some (Json.List l) ->
    Alcotest.(check (list string))
      "advertised engines" [ "tree"; "arena" ]
      (List.filter_map (function Json.String s -> Some s | _ -> None) l)
  | _ -> Alcotest.fail "capabilities missing bet_engines"

let suite =
  [
    ( "arena.structure",
      [
        Alcotest.test_case "invariants over the fleet" `Quick
          test_arena_invariants;
      ] );
    ( "arena.equivalence",
      [
        Alcotest.test_case "fleet bit-for-bit" `Quick test_fleet_identical;
        Alcotest.test_case "node time and ENR match the oracle" `Quick
          test_node_tables;
        Alcotest.test_case "1024-point grid under the pool" `Quick
          test_grid_pool_equivalence;
      ] );
    ( "arena.fingerprint",
      [
        Alcotest.test_case "covers the request schema" `Quick
          test_fingerprint_covers_schema;
      ] );
    ( "arena.protocol",
      [
        Alcotest.test_case "engine parse" `Quick test_engine_parse;
        Alcotest.test_case "unknown engine rejected" `Quick
          test_engine_rejected;
        Alcotest.test_case "engine echoed" `Quick test_engine_echoed;
        Alcotest.test_case "tree/arena wire identity" `Quick
          test_engine_wire_identity;
        Alcotest.test_case "capabilities advertise engines" `Quick
          test_capabilities_engines;
      ] );
  ]
