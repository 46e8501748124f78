(* Tests for the serving benchmark's own logic: the statistics behind
   every reported number and verdict, and the workload generators
   (deterministic, and every body is a request skoped answers ok). *)

open Bench_serve
module Dispatch = Skope_service.Dispatch
module Protocol = Skope_service.Protocol

let close = Alcotest.float 1e-9
let range a b = Array.init (b - a + 1) (fun i -> float_of_int (a + i))

(* --- stats ---------------------------------------------------------- *)

let test_percentile () =
  let xs = range 1 100 in
  Alcotest.check close "p50" 50. (Stats.percentile xs 50);
  Alcotest.check close "p99" 99. (Stats.percentile xs 99);
  Alcotest.check close "p100" 100. (Stats.percentile xs 100);
  Alcotest.check close "p1" 1. (Stats.percentile xs 1);
  Alcotest.check close "one sample" 7. (Stats.percentile [| 7. |] 95);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.percentile [||] 50))

let test_tail_rule () =
  Alcotest.(check int) "1000 samples: 10 beyond p99" 10 (Stats.beyond 1000 99);
  Alcotest.(check bool) "p99 of 1000 supported" true (Stats.supported 1000 99);
  Alcotest.(check bool) "p99 of 999 unsupported" false (Stats.supported 999 99);
  Alcotest.(check bool) "p95 of 200 supported" true (Stats.supported 200 95);
  Alcotest.(check bool) "p95 of 199 unsupported" false (Stats.supported 199 95)

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q1, m, q3 = Stats.quartiles (range 1 10) in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "median" 5.5 m;
  Alcotest.check close "q3" 8.25 q3;
  let q1, m, q3 = Stats.quartiles [| 5.; 1.; 3. |] in
  Alcotest.check close "odd q1" 1. q1;
  Alcotest.check close "odd median" 3. m;
  Alcotest.check close "odd q3" 5. q3;
  Alcotest.check close "spread" ((8.25 -. 2.75) /. 5.5) (Stats.spread (range 1 10))

let test_win_fraction () =
  let base = [| 10.; 10.; 10.; 10. |] and change = [| 9.; 11.; 8.; 10. |] in
  Alcotest.check close "lower is better, ties count for neither" 0.5
    (Stats.win_fraction Stats.Lower ~base ~change);
  Alcotest.check close "higher is better" 0.25
    (Stats.win_fraction Stats.Higher ~base ~change)

let verdict =
  Alcotest.testable
    (fun ppf v -> Fmt.string ppf (Stats.verdict_to_string v))
    ( = )

let test_verdicts () =
  let base = [| 100.; 101.; 99.; 100.5; 99.5; 100.; 100.2; 99.8; 100.1; 99.9 |] in
  let shift k = Array.map (fun x -> x +. k) base in
  let check name expected dir change =
    Alcotest.check verdict name expected (Stats.verdict dir ~bound:0.08 ~base ~change)
  in
  check "same runs" Stats.No_regression Stats.Lower base;
  check "10% slower" Stats.Regressed Stats.Lower (shift 10.);
  check "10% lower throughput" Stats.Regressed Stats.Higher (shift (-10.));
  check "5% faster on every pair" Stats.Improved Stats.Lower (shift (-5.));
  check "5% slower, within the bound" Stats.No_regression Stats.Lower (shift 5.);
  let noisy = [| 70.; 130.; 100.; 75.; 125.; 100.; 80.; 120.; 100.; 101. |] in
  check "spread wider than the bound" Stats.Unresolved Stats.Lower noisy

(* --- host-speed probe ----------------------------------------------- *)

let test_hostspeed () =
  let p = Hostspeed.start () in
  Thread.delay (4. *. Hostspeed.period_s);
  let k = Hostspeed.finish p in
  Alcotest.(check bool) "the kernel was timed" true (k > 0. && Float.is_finite k);
  Alcotest.check close "a second finish reads the same" k (Hostspeed.finish p);
  Alcotest.check close "the reference is factor 1" 1.
    (Hostspeed.factor Hostspeed.reference_ns)

(* --- generators ----------------------------------------------------- *)

let traffic = Hashtbl.create 4

let traffic_for kind ~seed =
  match Hashtbl.find_opt traffic (kind, seed) with
  | Some t -> t
  | None ->
    let t = Traffic.create kind ~seed in
    Hashtbl.add traffic (kind, seed) t;
    t

let bodies kind ~seed n = List.init n (Traffic.body (traffic_for kind ~seed))

let test_deterministic kind () =
  Alcotest.(check (list string))
    "same seed, same bodies" (bodies kind ~seed:1 20)
    (List.init 20 (Traffic.body (Traffic.create kind ~seed:1)));
  Alcotest.(check bool)
    "another seed, other bodies" true
    (bodies kind ~seed:1 20 <> bodies kind ~seed:2 20)

let ok_prefix = Load.ok_prefix

let test_answered kind () =
  let t = traffic_for kind ~seed:1 in
  let d = Dispatch.create () in
  let check what body =
    (match Protocol.parse_request body with
    | Ok _ -> ()
    | Error (_, msg) -> Alcotest.failf "%s does not parse (%s): %s" what msg body);
    let reply = Dispatch.handle d body in
    if not (String.starts_with ~prefix:ok_prefix reply) then
      Alcotest.failf "%s not answered ok: %s -> %s" what body reply
  in
  List.iteri (fun i b -> check (Printf.sprintf "body %d" i) b) (bodies kind ~seed:1 50);
  for j = 0 to 3 do
    check (Printf.sprintf "verify body %d" j) (Traffic.verify_body t j)
  done;
  Array.iter (check "warm body") (Traffic.warm_bodies t)

let test_strip_shard () =
  let reply = {|{"v":1,"ok":true,"trace_id":"bench-x-0","result":{"a":1}}|} in
  let routed = String.sub reply 0 (String.length reply - 1) ^ {|,"shard":"s1"}|} in
  Alcotest.(check (option string))
    "the router's own parser sees the field" (Some "s1")
    (Skope_cluster.Router.shard_of_response routed);
  Alcotest.(check string) "the router's field comes off" reply (Verify.strip_shard routed);
  Alcotest.(check string) "a direct reply is untouched" reply (Verify.strip_shard reply)

let per_workload name f =
  List.map
    (fun k -> Alcotest.test_case (Traffic.name k) `Quick (f k))
    Traffic.all
  |> fun cases -> (name, cases)

let () =
  Alcotest.run "skope_bench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "ten beyond the tail" `Quick test_tail_rule;
          Alcotest.test_case "quartiles as Python computes them" `Quick test_quartiles;
          Alcotest.test_case "win fraction" `Quick test_win_fraction;
          Alcotest.test_case "verdicts" `Quick test_verdicts;
        ] );
      ("hostspeed", [ Alcotest.test_case "probe" `Quick test_hostspeed ]);
      per_workload "deterministic" test_deterministic;
      per_workload "answered ok" test_answered;
      ("verify", [ Alcotest.test_case "strip shard" `Quick test_strip_shard ]);
    ]
