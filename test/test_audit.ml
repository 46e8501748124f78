(* Audit subsystem: the symbolic cost model (its tree is the BET node
   for node, its closed forms reproduce the BET at the reference inputs
   and predict it exactly across scales), the rendezvous communication
   simulator, the A001..A008 rules on seeded fixtures, and skoped
   protocol/dispatch/cluster parity for the audit kind. *)

open Core
module S = Lint.Symbolic
module A = Lint.Audit
module D = Lint.Diagnostic
module Cs = Multinode.Commsim
module Service = Skope_service
module Json = Report.Json
module Registry = Workloads.Registry
module Value = Bet.Value
module Eval = Bet.Eval
module Work = Bet.Work

let lib_work = Hw.Libmix.work_fn Hw.Libmix.default

let parse name src = Skeleton.Parser.parse ~file:name src

let codes ds = List.map (fun (d : D.t) -> d.D.code) ds

let has_code c ds = List.mem c (codes ds)

let audit ?(disabled = []) ~inputs src_name src =
  let config = { A.default_config with A.disabled } in
  (A.run ~config ~inputs (parse src_name src)).A.diags

(* --- symbolic smart constructors ------------------------------------ *)

let test_symbolic_constructors () =
  let n = Skeleton.Ast.Var "n" in
  Alcotest.(check bool) "x + 0 folds" true (S.add n (S.cf 0.) = n);
  Alcotest.(check bool) "1 * x folds" true (S.mul (S.cf 1.) n = n);
  Alcotest.(check bool) "0 * x folds to 0" true (S.mul (S.cf 0.) n = S.cf 0.);
  Alcotest.(check bool) "x / 1 folds" true (S.div n (S.cf 1.) = n);
  Alcotest.(check bool) "min x x folds" true (S.min_ n n = n);
  Alcotest.(check (float 0.)) "constant sums evaluate exactly" 5.
    (Eval.eval_float ~default:Float.nan Eval.Smap.empty
       (S.add (S.cf 2.) (S.cf 3.)));
  Alcotest.(check bool) "size counts nodes" true (S.size (S.add n n) = 3);
  (* growth order of n^2 along an n-doubling sweep is ~2 *)
  let sq = S.mul n n in
  let eval_at m =
    Eval.env_of_list [ ("n", Value.F (64. *. m)) ]
  in
  (match S.growth_order ~eval_at sq with
  | Some o -> Alcotest.(check (float 1e-9)) "n^2 has order 2" 2. o
  | None -> Alcotest.fail "growth_order failed on n^2");
  let rendered = Fmt.str "%a" S.pp_closed_form sq in
  Alcotest.(check bool) ("closed form mentions n: " ^ rendered) true
    (String.length rendered > 0)

(* --- fleet soundness: zero fallbacks on every bundled workload ------ *)

let test_fleet_soundness () =
  List.iter
    (fun (w : Registry.t) ->
      let program, inputs = w.make ~scale:w.default_scale in
      let r = S.derive ~lib_work ~inputs program in
      Alcotest.(check int)
        (w.name ^ ": no symbolic fallbacks")
        0 r.S.fallbacks;
      Alcotest.(check bool) (w.name ^ ": expressions were checked") true
        (r.S.checked > 0);
      Alcotest.(check bool) (w.name ^ ": non-trivial tree") true
        (S.node_count r.S.sroot > 1))
    Registry.all

(* --- one builder: the symbolic tree is the BET ----------------------- *)

let bits = Int64.bits_of_float

let work_fields (w : Work.t) =
  [ w.flops; w.iops; w.divs; w.vec_flops; w.vec_issue; w.loads; w.stores; w.lbytes; w.sbytes ]

let same_bits xs ys = List.for_all2 (fun x y -> bits x = bits y) xs ys

(* [Symbolic.derive] runs the BET builder over its closed-form domain,
   so its tree must be [Build.build]'s node for node, and each node's
   trip and work forms must evaluate at the reference inputs to the
   BET node's values. *)
let rec check_same_tree ~what ~env (s : S.node) (b : Bet.Node.t) =
  let where = Fmt.str "%s node %d (%s)" what b.id (Bet.Block_id.to_string b.block) in
  Alcotest.(check bool) (where ^ " matches the BET") true
    (s.S.id = b.id
    && Bet.Block_id.equal s.S.block b.block
    && s.S.kind = b.kind && String.equal s.S.note b.note
    && List.length s.S.children = List.length b.children
    && same_bits [ s.S.prob; s.S.trips_ref ] [ b.prob; b.trips ]
    && same_bits (work_fields s.S.work_ref) (work_fields b.work));
  let at e = Eval.eval_float ~default:Float.nan env e in
  let w = s.S.work in
  Alcotest.(check bool) (where ^ " closed forms evaluate to the BET") true
    (same_bits
       (List.map at
          [ s.S.trips; w.S.s_flops; w.S.s_iops; w.S.s_divs; w.S.s_vec_flops; w.S.s_vec_issue;
            w.S.s_loads; w.S.s_stores; w.S.s_lbytes; w.S.s_sbytes ])
       (b.trips :: work_fields b.work));
  List.iter2 (check_same_tree ~what ~env) s.S.children b.children

let test_symbolic_tree_is_the_bet () =
  let registry =
    List.concat_map
      (fun (w : Registry.t) ->
        List.map
          (fun m ->
            let program, inputs = w.make ~scale:(w.default_scale *. m) in
            (Fmt.str "%s@%gx" w.name m, program, inputs))
          [ 0.5; 1.; 2. ])
      Registry.all
  in
  let corpus =
    List.init 200 (fun index ->
        let c = Skope_gen.Gen.generate ~seed:42L ~index () in
        (c.Skope_gen.Gen.name, c.Skope_gen.Gen.program, c.Skope_gen.Gen.inputs))
  in
  List.iter
    (fun (name, program, inputs) ->
      List.iter
        (fun (tag, inputs) ->
          let what = Fmt.str "%s %s" name tag in
          let bet = Bet.Build.build ~lib_work ~inputs program in
          let r = S.derive ~lib_work ~inputs program in
          Alcotest.(check int) (what ^ ": node count") bet.node_count (S.node_count r.S.sroot);
          check_same_tree ~what ~env:(Eval.env_of_list inputs) r.S.sroot bet.root)
        [ ("with inputs", inputs); ("without inputs", []) ])
    (registry @ corpus)

(* --- cross-scale exactness ------------------------------------------ *)

(* Total expected flops of a symbolic tree, as (concrete at the
   reference inputs, closed form).  Both sides use the same fold so
   the comparison is apples to apples. *)
let totals root =
  S.fold_enr
    (fun (cref, csym) (n : S.node) ~enr_ref ~enr_sym ->
      ( cref +. (enr_ref *. n.S.trips_ref *. n.S.work_ref.Work.flops),
        S.add csym
          (S.mul enr_sym (S.mul n.S.trips n.S.work.S.s_flops)) ))
    (0., S.cf 0.)
    root

(* The acceptance-criterion property: for every bundled workload, the
   closed form derived at the default scale, evaluated at the inputs
   of a different scale, reproduces bit-for-bit the concrete total of
   a fresh derivation at that scale.  3+ workloads x 3 scales. *)
let test_cross_scale_exact () =
  List.iter
    (fun (w : Registry.t) ->
      let program, inputs = w.make ~scale:w.default_scale in
      let r = S.derive ~lib_work ~inputs program in
      let ref_total, sym_total = totals r.S.sroot in
      (* at the reference inputs the closed form reproduces the BET *)
      Alcotest.(check bool)
        (w.name ^ ": closed form is exact at the reference scale")
        true
        (Float.equal ref_total
           (Eval.eval_float ~default:Float.nan
              (Eval.env_of_list inputs) sym_total));
      List.iter
        (fun m ->
          let _, inputs_m = w.make ~scale:(w.default_scale *. m) in
          let rm = S.derive ~lib_work ~inputs:inputs_m program in
          let expected, _ = totals rm.S.sroot in
          let predicted =
            Eval.eval_float ~default:Float.nan
              (Eval.env_of_list inputs_m) sym_total
          in
          Alcotest.(check bool)
            (Fmt.str "%s: exact prediction at %gx (%g vs %g)" w.name m
               predicted expected)
            true
            (Float.equal expected predicted))
        [ 0.5; 2.; 4. ])
    Registry.all

(* --- communication simulator ---------------------------------------- *)

let test_commsim () =
  (* a matched pair completes *)
  Alcotest.(check bool) "matched pair is clean" true
    (Cs.simulate [| [ Cs.Send 1 ]; [ Cs.Recv 0 ] |] = Cs.Clean);
  (* classic ring: everyone sends right first; nobody can receive *)
  let ring n =
    Array.init n (fun r -> [ Cs.Send ((r + 1) mod n); Cs.Recv ((r + n - 1) mod n) ])
  in
  (match Cs.simulate (ring 4) with
  | Cs.Deadlock { stuck; cycle } ->
    Alcotest.(check int) "all 4 ranks stuck" 4 (List.length stuck);
    Alcotest.(check bool) "wait-for cycle found" true (List.length cycle >= 2)
  | Cs.Clean -> Alcotest.fail "send-ring must deadlock");
  (* phased even/odd ring drains to completion *)
  let phased n =
    Array.init n (fun r ->
        let nxt = (r + 1) mod n and prv = (r + n - 1) mod n in
        if r mod 2 = 0 then [ Cs.Send nxt; Cs.Recv prv ]
        else [ Cs.Recv prv; Cs.Send nxt ])
  in
  Alcotest.(check bool) "phased ring is clean" true
    (Cs.simulate (phased 4) = Cs.Clean);
  (* chain to a terminated rank: stuck, but no cycle to report *)
  (match Cs.simulate [| [ Cs.Recv 1 ]; [] |] with
  | Cs.Deadlock { stuck; cycle } ->
    Alcotest.(check int) "one stuck rank" 1 (List.length stuck);
    Alcotest.(check int) "no cycle through a terminated rank" 0
      (List.length cycle)
  | Cs.Clean -> Alcotest.fail "recv from a terminated rank must block");
  (* ops render for the A007 notes *)
  Alcotest.(check string) "pp send" "send->2" (Fmt.str "%a" Cs.pp_op (Cs.Send 2));
  Alcotest.(check string) "pp recv" "recv<-0" (Fmt.str "%a" Cs.pp_op (Cs.Recv 0))

(* --- seeded fixtures for the A rules -------------------------------- *)

let spmd_src =
  "program spmd\n\
   def main(n, p) {\n\
  \  @par: for i = 1 to n / p {\n\
  \    comp flops=8\n\
  \    load a[1]\n\
  \  }\n\
  \  @ser: for j = 1 to n {\n\
  \    comp flops=4\n\
  \  }\n\
  \  lib send_right scale n\n\
   }\n\
   array a[n] : f64\n"

let comm_src =
  "program comm\n\
   def main(n, p) {\n\
  \  @par: for i = 1 to n / p {\n\
  \    comp flops=8\n\
  \  }\n\
  \  lib send_right scale n\n\
   }\n"

let imb_src =
  "program imb\n\
   def main(n, rank) {\n\
  \  for i = 1 to n {\n\
  \    comp flops=2\n\
  \  }\n\
  \  if (rank == 0) {\n\
  \    for j = 1 to n {\n\
  \      comp flops=64\n\
  \    }\n\
  \  }\n\
   }\n"

let ring_src =
  "program ring\n\
   def main(p, rank) {\n\
  \  lib recv_left scale 64\n\
  \  lib send_right scale 64\n\
   }\n"

let phased_src =
  "program phased\n\
   def main(p, rank) {\n\
  \  if (rank % 2 == 0) {\n\
  \    lib send_right scale 64\n\
  \    lib recv_left scale 64\n\
  \  } else {\n\
  \    lib recv_left scale 64\n\
  \    lib send_right scale 64\n\
  \  }\n\
   }\n"

let test_rule_amdahl_and_working_set () =
  let inputs = [ ("n", Value.I 65536); ("p", Value.I 8) ] in
  let ds = audit ~disabled:[ "A007" ] ~inputs "spmd.skope" spmd_src in
  Alcotest.(check bool) "A001 fires on the serial loop" true
    (has_code "A001" ds);
  Alcotest.(check bool) "A003 fires on the large array loop" true
    (has_code "A003" ds);
  let a1 = List.find (fun (d : D.t) -> d.D.code = "A001") ds in
  Alcotest.(check bool) "A001 is a warning" true (a1.D.severity = D.Warning);
  Alcotest.(check bool) "A001 names the p parameter" true
    (let m = a1.D.message in
     String.length m > 0
     &&
     let rec has i =
       i + 3 <= String.length m && (String.sub m i 3 = "`p`" || has (i + 1))
     in
     has 0);
  (* rule gating: disabling A001 removes exactly it *)
  let ds' = audit ~disabled:[ "A001"; "A007" ] ~inputs "spmd.skope" spmd_src in
  Alcotest.(check bool) "disabled A001 is gone" false (has_code "A001" ds');
  Alcotest.(check bool) "A003 survives the gating" true (has_code "A003" ds')

let test_rule_comm_outgrows_comp () =
  let inputs = [ ("n", Value.I 65536); ("p", Value.I 8) ] in
  let ds = audit ~disabled:[ "A007" ] ~inputs "comm.skope" comm_src in
  Alcotest.(check bool) "A002 fires" true (has_code "A002" ds);
  let a2 = List.find (fun (d : D.t) -> d.D.code = "A002") ds in
  Alcotest.(check bool) "A002 is a warning" true (a2.D.severity = D.Warning)

let test_rule_load_imbalance () =
  let inputs = [ ("n", Value.I 1024); ("rank", Value.I 0) ] in
  let ds = audit ~inputs "imb.skope" imb_src in
  Alcotest.(check bool) "A006 fires on rank-0 extra work" true
    (has_code "A006" ds);
  let a6 = List.find (fun (d : D.t) -> d.D.code = "A006") ds in
  Alcotest.(check bool) "A006 is a warning" true (a6.D.severity = D.Warning)

let test_rule_deadlock () =
  let inputs = [ ("p", Value.I 4); ("rank", Value.I 0) ] in
  let ds = audit ~inputs "ring.skope" ring_src in
  Alcotest.(check bool) "A007 fires on the recv-first ring" true
    (has_code "A007" ds);
  let a7 = List.find (fun (d : D.t) -> d.D.code = "A007") ds in
  Alcotest.(check bool) "A007 is an error" true (a7.D.severity = D.Error);
  Alcotest.(check bool) "A007 names a wait-for cycle" true
    (let m = a7.D.message in
     let rec has i =
       i + 5 <= String.length m && (String.sub m i 5 = "cycle" || has (i + 1))
     in
     has 0);
  Alcotest.(check bool) "A007 notes each blocked rank" true
    (List.length a7.D.notes >= 4);
  (* the phased variant of the same traffic is clean *)
  let clean = audit ~inputs "phased.skope" phased_src in
  Alcotest.(check int) "phased even/odd ring audits clean" 0
    (List.length clean)

(* --- skoped protocol + dispatch parity ------------------------------ *)

let handle ?(dispatch = Service.Dispatch.create ()) body =
  Service.Dispatch.handle dispatch body

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

let result_of resp =
  match Json.of_string resp with
  | Ok j -> (
    Alcotest.(check bool) ("ok response: " ^ resp) true
      (Json.member "ok" j = Some (Json.Bool true));
    match Json.member "result" j with
    | Some r -> r
    | None -> Alcotest.failf "no result in %s" resp)
  | Error e -> Alcotest.failf "response is not JSON (%s): %s" e resp

let test_protocol_audit_errors () =
  let check name expected body =
    Alcotest.(check string) name expected (error_code (handle body))
  in
  check "workload or source required" "invalid_request" {|{"kind":"audit"}|};
  check "workload and source exclusive" "invalid_request"
    {|{"kind":"audit","workload":"sord","source":"program p\ndef main() {}"}|};
  check "unknown workload" "unknown_workload"
    {|{"kind":"audit","workload":"nope"}|};
  check "unknown machine" "unknown_machine"
    {|{"kind":"audit","workload":"sord","machine":"cray"}|};
  check "bad scale" "invalid_request"
    {|{"kind":"audit","workload":"sord","scale":-1}|};
  check "bad ranks" "invalid_request"
    {|{"kind":"audit","workload":"sord","ranks":0}|};
  check "huge ranks" "invalid_request"
    {|{"kind":"audit","workload":"sord","ranks":4096}|}

let test_service_api_audit_roundtrip () =
  let req =
    Service.Service_api.audit_workload ~scale:0.3 ~machine:"xeon" ~ranks:8
      ~deny_warnings:true ~disable:[ "A003" ] "sord"
  in
  Alcotest.(check string) "kind" "audit" (Service.Service_api.kind req);
  let body = Service.Service_api.to_body req in
  match Service.Protocol.parse_request body with
  | Ok (Service.Protocol.Audit q, _) ->
    Alcotest.(check (option string)) "workload" (Some "sord")
      q.Service.Protocol.a_workload;
    Alcotest.(check string) "machine" "xeon" q.Service.Protocol.a_machine;
    Alcotest.(check int) "ranks" 8 q.Service.Protocol.a_ranks;
    Alcotest.(check bool) "deny" true q.Service.Protocol.a_deny_warnings;
    Alcotest.(check (list string)) "disable" [ "A003" ]
      q.Service.Protocol.a_disabled
  | Ok _ -> Alcotest.fail "parsed to a non-audit request"
  | Error (_, m) -> Alcotest.failf "built body does not parse: %s" m

let test_dispatch_audit_workload () =
  let dispatch = Service.Dispatch.create () in
  let r = result_of (handle ~dispatch {|{"kind":"audit","workload":"sord"}|}) in
  Alcotest.(check bool) "no errors on sord" true
    (Json.member "errors" r = Some (Json.Int 0));
  (match Json.member "sym" r with
  | Some sym ->
    Alcotest.(check bool) "zero fallbacks" true
      (Json.member "fallbacks" sym = Some (Json.Int 0));
    Alcotest.(check bool) "zero shape mismatches" true
      (Json.member "shape_mismatches" sym = Some (Json.Int 0))
  | None -> Alcotest.fail "result has no sym block");
  (* dispatch output is byte-identical to the shared renderer the CLI
     uses: the parity the issue demands *)
  let w = Registry.find_exn "sord" in
  let config = A.default_config in
  let report = Pipeline.audit ~config ~workload:w ~scale:w.default_scale () in
  let direct =
    A.result_json ~target:"sord" ~scale:w.default_scale ~deny_warnings:false
      config report
  in
  Alcotest.(check string) "dispatch == CLI renderer"
    (Json.to_string direct) (Json.to_string r);
  (* audit requests are metered like every other kind *)
  let v = Service.Metrics.view dispatch.Service.Dispatch.metrics in
  Alcotest.(check int) "audit counted by kind" 1
    (try List.assoc ("audit", "ok") v.Service.Metrics.requests
     with Not_found -> 0)

let test_dispatch_audit_source () =
  (* inline deadlocking source: ok envelope, error diagnostics inside *)
  let body =
    Json.to_string
      (Json.Obj
         [
           ("kind", Json.String "audit");
           ("source", Json.String ring_src);
         ])
  in
  let r = result_of (handle body) in
  Alcotest.(check bool) "deadlock reported" true
    (match Json.member "errors" r with
    | Some (Json.Int n) -> n >= 1
    | _ -> false);
  Alcotest.(check bool) "not clean" true
    (Json.member "clean" r = Some (Json.Bool false));
  (* a parse failure still answers ok:true with P-diagnostics, no sym *)
  let bad =
    Json.to_string
      (Json.Obj
         [
           ("kind", Json.String "audit");
           ("source", Json.String "program oops\ndef main( {");
         ])
  in
  let r = result_of (handle bad) in
  Alcotest.(check bool) "parse failure carries diagnostics" true
    (match Json.member "diagnostics" r with
    | Some (Json.List (_ :: _)) -> true
    | _ -> false);
  Alcotest.(check bool) "no sym block without a program" true
    (Json.member "sym" r = None)

(* --- cluster parity -------------------------------------------------- *)

let test_cluster_audit_affinity () =
  let c =
    Skope_cluster.Local.start ~shards:2 ~cache_capacity:16
      ~probe_interval_s:0.1 ~shard_pool:1 ~router_pool:2 ()
  in
  Fun.protect
    ~finally:(fun () -> Skope_cluster.Local.stop c)
    (fun () ->
      let port = Skope_cluster.Local.router_port c in
      let body =
        Service.Service_api.to_body
          (Service.Service_api.audit_workload "pedagogical")
      in
      let request () =
        match
          Service.Client.request ~retry:Service.Client.default_retry
            ~host:"127.0.0.1" ~port body
        with
        | Ok r -> r
        | Error e -> Alcotest.failf "request failed: %a" Service.Client.pp_error e
      in
      let r1 = request () and r2 = request () in
      let shard resp =
        match Skope_cluster.Router.shard_of_response resp with
        | Some s -> s
        | None -> Alcotest.failf "no shard in %s" resp
      in
      Alcotest.(check string) "same body -> same shard" (shard r1) (shard r2);
      (* routed result matches a direct dispatch of the same body *)
      let strip_result resp = Json.to_string (result_of resp) in
      let direct = handle body in
      Alcotest.(check string) "cluster == single skoped"
        (strip_result direct) (strip_result r1))

(* --- JSON envelope shape --------------------------------------------- *)

let test_result_json_shape () =
  let w = Registry.find_exn "pedagogical" in
  let report =
    Pipeline.audit ~workload:w ~scale:w.default_scale ()
  in
  let j =
    A.result_json ~target:"pedagogical" ~scale:w.default_scale
      ~deny_warnings:false A.default_config report
  in
  List.iter
    (fun key ->
      Alcotest.(check bool) ("field " ^ key) true (Json.member key j <> None))
    [
      "target"; "machine"; "scale"; "diagnostics"; "errors"; "warnings";
      "infos"; "clean"; "sym";
    ];
  Alcotest.(check bool) "pedagogical audits clean" true
    (Json.member "clean" j = Some (Json.Bool true));
  match Json.of_string (Json.to_string j) with
  | Ok j' -> Alcotest.(check bool) "round trips" true (j = j')
  | Error e -> Alcotest.failf "does not re-parse: %s" e

let suite =
  [
    ( "audit.symbolic",
      [
        Alcotest.test_case "smart constructors" `Quick
          test_symbolic_constructors;
        Alcotest.test_case "fleet derives with zero fallbacks" `Slow
          test_fleet_soundness;
        Alcotest.test_case "symbolic tree is the BET node for node" `Quick
          test_symbolic_tree_is_the_bet;
        Alcotest.test_case "closed forms are exact across scales" `Slow
          test_cross_scale_exact;
      ] );
    ( "audit.commsim",
      [ Alcotest.test_case "rendezvous semantics" `Quick test_commsim ] );
    ( "audit.rules",
      [
        Alcotest.test_case "A001/A003 + gating on the spmd fixture" `Quick
          test_rule_amdahl_and_working_set;
        Alcotest.test_case "A002 comm outgrows comp" `Quick
          test_rule_comm_outgrows_comp;
        Alcotest.test_case "A006 rank imbalance" `Quick test_rule_load_imbalance;
        Alcotest.test_case "A007 deadlock vs phased ring" `Quick
          test_rule_deadlock;
      ] );
    ( "audit.service",
      [
        Alcotest.test_case "protocol rejects bad audit bodies" `Quick
          test_protocol_audit_errors;
        Alcotest.test_case "service_api round trip" `Quick
          test_service_api_audit_roundtrip;
        Alcotest.test_case "dispatch workload parity with CLI renderer" `Quick
          test_dispatch_audit_workload;
        Alcotest.test_case "dispatch source + parse failure" `Quick
          test_dispatch_audit_source;
        Alcotest.test_case "result_json shape" `Quick test_result_json_shape;
        Alcotest.test_case "cluster affinity + parity" `Slow
          test_cluster_audit_affinity;
      ] );
  ]
