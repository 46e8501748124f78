(** Differential fuzzing harness.  See the mli for the gate
    contract. *)

open Skope_skeleton
module Json = Skope_report.Json
module D = Skope_lint.Diagnostic

type gate = Roundtrip | Lint | Audit | Parity | Sim

let gate_name = function
  | Roundtrip -> "roundtrip"
  | Lint -> "lint"
  | Audit -> "audit"
  | Parity -> "parity"
  | Sim -> "sim"

type failure = {
  index : int;
  archetype : Archetype.t;
  gate : gate;
  detail : string;
  repro : string;
}

type report = {
  total : int;
  gates_per_case : int;
  failures : failure list;
  by_archetype : (Archetype.t * int) list;
}

let n_gates = 5

(* --- reproducer ------------------------------------------------------- *)

let repro_command ?(config = Gen.default) ?archetype ~seed ~index () =
  let c = Gen.clamp config and d = Gen.clamp Gen.default in
  let b = Buffer.create 80 in
  Buffer.add_string b (Fmt.str "skope fuzz --seed %Ld --index %d" seed index);
  (match archetype with
  | Some a -> Buffer.add_string b (Fmt.str " --archetype %s" (Archetype.to_string a))
  | None -> ());
  let flag name v dv fmt = if v <> dv then Buffer.add_string b (Fmt.str fmt name v) in
  flag "depth" c.Gen.depth d.Gen.depth " --%s %d";
  flag "stmts" c.Gen.max_stmts d.Gen.max_stmts " --%s %d";
  flag "funcs" c.Gen.funcs d.Gen.funcs " --%s %d";
  flag "ranks" c.Gen.ranks d.Gen.ranks " --%s %d";
  if (c.Gen.trip_lo, c.Gen.trip_hi) <> (d.Gen.trip_lo, d.Gen.trip_hi) then
    Buffer.add_string b (Fmt.str " --trips %d:%d" c.Gen.trip_lo c.Gen.trip_hi);
  if (c.Gen.size_lo, c.Gen.size_hi) <> (d.Gen.size_lo, d.Gen.size_hi) then
    Buffer.add_string b (Fmt.str " --sizes %d:%d" c.Gen.size_lo c.Gen.size_hi);
  if archetype = None && c.Gen.mix <> d.Gen.mix then
    Buffer.add_string b (Fmt.str " --mix %s" (Fmt.str "%a" Archetype.pp_mix c.Gen.mix));
  Buffer.contents b

(* --- gates ------------------------------------------------------------ *)

let fail ~case ~repro gate fmt =
  Fmt.kstr
    (fun detail ->
      {
        index = case.Gen.index;
        archetype = case.Gen.archetype;
        gate;
        detail;
        repro;
      })
    fmt

let guard ~case ~repro gate f =
  match f () with
  | [] -> []
  | fs -> fs
  | exception e ->
    [ fail ~case ~repro gate "%s crashed: %s" (gate_name gate) (Printexc.to_string e) ]

let check_roundtrip ~case ~repro () =
  let p = case.Gen.program in
  let text = Pretty.to_string p in
  match Parser.parse ~file:(case.Gen.name ^ ".skope") text with
  | exception e ->
    [ fail ~case ~repro Roundtrip "pretty output does not reparse: %s"
        (Printexc.to_string e) ]
  | p2 ->
    let ast_fail =
      if Equal.program ~fission_mem:true p p2 then []
      else
        let why =
          Option.value ~default:"(no localized diff)"
            (Equal.first_diff ~fission_mem:true p p2)
        in
        [ fail ~case ~repro Roundtrip "reparsed AST differs: %s" why ]
    in
    let text2 = Pretty.to_string p2 in
    let pp_fail =
      if String.equal text text2 then []
      else [ fail ~case ~repro Roundtrip "pretty-print is not idempotent" ]
    in
    ast_fail @ pp_fail

let errors_of ds =
  List.filter (fun d -> d.D.severity = D.Error) ds

(* An L011 means the budget ran out, so the rest went unchecked. *)
let check_lint ~case ~repro () =
  let ds = Skope_lint.Engine.run ~inputs:case.Gen.inputs case.Gen.program in
  match
    List.filter (fun d -> d.D.severity = D.Error || d.D.code = "L011") ds
  with
  | [] -> []
  | e :: _ ->
    [
      fail ~case ~repro Lint "lint %s %s: %s"
        (D.severity_label e.D.severity) e.D.code e.D.message;
    ]

let check_audit ~case ~repro () =
  let r = Skope_lint.Audit.run ~inputs:case.Gen.inputs case.Gen.program in
  let error_fail =
    match errors_of r.Skope_lint.Audit.diags with
    | [] -> []
    | e :: _ ->
      [ fail ~case ~repro Audit "audit error %s: %s" e.D.code e.D.message ]
  in
  let sym = r.Skope_lint.Audit.sym in
  let fallback_fail =
    if sym.Skope_lint.Symbolic.fallbacks = 0 then []
    else
      [ fail ~case ~repro Audit "%d of %d closed forms fell back to literals"
          sym.Skope_lint.Symbolic.fallbacks sym.Skope_lint.Symbolic.checked ]
  in
  error_fail @ fallback_fail

let machine = Skope_hw.Machines.bgq
let lib_work = Skope_hw.Libmix.work_fn Skope_hw.Libmix.default

let build_case case =
  Skope_bet.Build.build ~lib_work ~inputs:case.Gen.inputs case.Gen.program

let check_parity ~built ~case ~repro () =
  let built = Lazy.force built in
  let warn_fail =
    match built.Skope_bet.Build.warnings with
    | [] -> []
    | w :: _ -> [ fail ~case ~repro Parity "BET build warning: %s" w ]
  in
  let tree = Skope_analysis.Perf.project machine built in
  let arena =
    Skope_analysis.Arena_price.price (Skope_bet.Arena.of_build built) machine
  in
  let t_tree = tree.Skope_analysis.Perf.total_time
  and t_arena = Skope_analysis.Arena_price.total_time arena in
  let time_fail =
    if Int64.bits_of_float t_tree = Int64.bits_of_float t_arena then []
    else
      [ fail ~case ~repro Parity
          "total time diverges: tree %.17g vs arena %.17g" t_tree t_arena ]
  in
  let blocks_fail =
    if tree.Skope_analysis.Perf.blocks = Skope_analysis.Arena_price.blocks arena
    then []
    else [ fail ~case ~repro Parity "ranked block statistics differ" ]
  in
  warn_fail @ time_fail @ blocks_fail

let check_sim ~built ~sim_bound ~case ~repro () =
  let built = Lazy.force built in
  let projected = Skope_analysis.Perf.project machine built in
  let t_model = projected.Skope_analysis.Perf.total_time in
  let config =
    Skope_sim.Interp.default_config ~machine ~libmix:Skope_hw.Libmix.default
      ~seed:case.Gen.case_seed ()
  in
  let sim = Skope_sim.Interp.run ~config ~inputs:case.Gen.inputs case.Gen.program in
  let t_sim = sim.Skope_sim.Interp.total_time in
  if not (Float.is_finite t_model) || t_model <= 0. then
    [ fail ~case ~repro Sim "projected time %g is not finite positive" t_model ]
  else if not (Float.is_finite t_sim) || t_sim <= 0. then
    [ fail ~case ~repro Sim "simulated time %g is not finite positive" t_sim ]
  else
    let ratio = if t_model > t_sim then t_model /. t_sim else t_sim /. t_model in
    if ratio > sim_bound then
      [ fail ~case ~repro Sim
          "model %.3g s vs sim %.3g s: ratio %.3g exceeds bound %g" t_model
          t_sim ratio sim_bound ]
    else []

let check_case ?(sim_bound = 1e4) ~repro case =
  (* One BET per case, forced inside each gate that prices it: a build
     that raises re-raises on every force, so each gate reports it. *)
  let built = lazy (build_case case) in
  List.concat
    [
      guard ~case ~repro Roundtrip (check_roundtrip ~case ~repro);
      guard ~case ~repro Lint (check_lint ~case ~repro);
      guard ~case ~repro Audit (check_audit ~case ~repro);
      guard ~case ~repro Parity (check_parity ~built ~case ~repro);
      guard ~case ~repro Sim (check_sim ~built ~sim_bound ~case ~repro);
    ]

let run ?(config = Gen.default) ?archetype ?(jobs = 1) ?(sim_bound = 1e4) ~seed
    ~count () =
  let results =
    Corpus.parmap ~jobs
      (fun index ->
        let case = Gen.generate ~config ?archetype ~seed ~index () in
        let repro = repro_command ~config ?archetype ~seed ~index () in
        (case.Gen.archetype, check_case ~sim_bound ~repro case))
      count
  in
  let by_archetype =
    List.map
      (fun a ->
        (a, List.length (List.filter (fun (a', _) -> a' = a) results)))
      Archetype.all
    |> List.filter (fun (_, n) -> n > 0)
  in
  {
    total = count;
    gates_per_case = n_gates;
    failures = List.concat_map snd results;
    by_archetype;
  }

let failure_json f =
  Json.Obj
    [
      ("index", Json.Int f.index);
      ("archetype", Json.String (Archetype.to_string f.archetype));
      ("gate", Json.String (gate_name f.gate));
      ("detail", Json.String f.detail);
      ("repro", Json.String f.repro);
    ]

let report_json ~seed r =
  Json.Obj
    [
      ("schema", Json.String "skope-fuzz/1");
      ("seed", Json.String (Fmt.str "%Ld" seed));
      ("total", Json.Int r.total);
      ("gates_per_case", Json.Int r.gates_per_case);
      ("failed", Json.Int (List.length r.failures));
      ( "by_archetype",
        Json.Obj
          (List.map
             (fun (a, n) -> (Archetype.to_string a, Json.Int n))
             r.by_archetype) );
      ("failures", Json.List (List.map failure_json r.failures));
    ]
