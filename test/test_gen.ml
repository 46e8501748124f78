(* Tests for the seeded skeleton generator and the differential fuzz
   harness: determinism across runs and worker counts, archetype
   mixing, lint-cleanliness of the generated corpus, the fuzz gates
   end to end on the pinned CI seed, reproducer formatting, and
   regression pins for the bugs the first fuzz campaign surfaced
   (pretty-printed label duplication on combined load/store, negated
   literal round-trips, generic element types, entry-parameter
   binding in the simulator), the audit gate's fallback check, and the
   lint gate's budget check. *)

module G = Skope_gen.Gen
module GA = Skope_gen.Archetype
module GC = Skope_gen.Corpus
module GF = Skope_gen.Fuzzcheck
module Ast = Core.Skeleton.Ast
module B = Core.Skeleton.Builder
module Parser = Core.Skeleton.Parser
module Pretty = Core.Skeleton.Pretty
module Equal = Core.Skeleton.Equal
module Value = Core.Bet.Value
module D = Core.Lint.Diagnostic

let parse = Parser.parse ~file:"test_gen.skope"

let sources ?archetype ~jobs ~seed ~count () =
  GC.generate ?archetype ~jobs ~seed ~count () |> List.map G.to_source

(* --- determinism ----------------------------------------------------- *)

let test_deterministic () =
  let a = sources ~jobs:1 ~seed:42L ~count:40 () in
  let b = sources ~jobs:1 ~seed:42L ~count:40 () in
  Alcotest.(check (list string)) "same seed, same corpus" a b;
  let c = sources ~jobs:1 ~seed:7L ~count:40 () in
  Alcotest.(check bool) "different seed, different corpus" true (a <> c)

let test_jobs_invariant () =
  let a = sources ~jobs:1 ~seed:42L ~count:40 () in
  let b = sources ~jobs:4 ~seed:42L ~count:40 () in
  Alcotest.(check (list string)) "jobs 1 = jobs 4" a b;
  (* Order-independence at the case level: generating one index
     directly equals its slot in the batch. *)
  let batch = GC.generate ~jobs:1 ~seed:42L ~count:40 () in
  let direct = G.generate ~seed:42L ~index:17 () in
  Alcotest.(check string) "single-index = batch slot"
    (G.to_source (List.nth batch 17))
    (G.to_source direct)

let test_manifest_deterministic () =
  let module J = Core.Report.Json in
  let m seed =
    GC.generate ~jobs:2 ~seed ~count:12 ()
    |> GC.manifest_json ~config:G.default ~seed
    |> J.to_string
  in
  Alcotest.(check string) "manifest stable" (m 42L) (m 42L);
  Alcotest.(check bool) "manifest tracks seed" true (m 42L <> m 43L)

(* --- archetype mix --------------------------------------------------- *)

let count_arch cases a =
  List.length (List.filter (fun c -> c.G.archetype = a) cases)

let test_mix_honored () =
  let n = 400 in
  let cases = GC.generate ~jobs:2 ~seed:11L ~count:n () in
  let total_w = List.fold_left (fun acc (_, w) -> acc +. w) 0. GA.default_mix in
  List.iter
    (fun (a, w) ->
      let want = w /. total_w in
      let got = float_of_int (count_arch cases a) /. float_of_int n in
      if Float.abs (got -. want) > 0.07 then
        Alcotest.failf "archetype %s: drew %.3f of the corpus, want ~%.3f"
          (GA.to_string a) got want)
    GA.default_mix;
  (* A forced archetype pins every case. *)
  let forced = GC.generate ~archetype:GA.Comm ~jobs:1 ~seed:11L ~count:10 () in
  Alcotest.(check int) "forced archetype" 10 (count_arch forced GA.Comm)

let test_custom_mix () =
  let mix =
    match GA.mix_of_string "compute=1,branchy=1" with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let config = G.clamp { G.default with G.mix = mix } in
  let cases = GC.generate ~config ~jobs:1 ~seed:5L ~count:60 () in
  Alcotest.(check int) "zero-weight archetypes never drawn" 0
    (count_arch cases GA.Memory + count_arch cases GA.Comm)

(* --- lint cleanliness ------------------------------------------------ *)

let test_lint_clean_per_archetype () =
  List.iter
    (fun a ->
      let cases = GC.generate ~archetype:a ~jobs:2 ~seed:42L ~count:10 () in
      let findings c =
        Core.Lint.Engine.run ~inputs:c.G.inputs c.G.program
      in
      List.iter
        (fun c ->
          match
            List.filter (fun d -> d.D.severity = D.Error) (findings c)
          with
          | [] -> ()
          | e :: _ ->
            Alcotest.failf "%s case %d has lint error %s: %s" (GA.to_string a)
              c.G.index e.D.code e.D.message)
        cases;
      (* At least one skeleton per archetype is fully clean — no
         warnings either. *)
      let clean c =
        List.for_all (fun d -> d.D.severity = D.Info) (findings c)
      in
      if not (List.exists clean cases) then
        Alcotest.failf "no warning-free %s skeleton in 10 cases"
          (GA.to_string a))
    GA.all

(* --- fuzz gates end to end ------------------------------------------- *)

(* The CI seed: the campaign that surfaced (and now pins) the
   entry-parameter and branch-variance regressions below. *)
let test_fuzz_seed42 () =
  let report = GF.run ~jobs:2 ~seed:42L ~count:100 () in
  Alcotest.(check int) "cases" 100 report.GF.total;
  Alcotest.(check int) "gates" GF.n_gates report.GF.gates_per_case;
  match report.GF.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "case %d failed %s gate: %s (%s)" f.GF.index
      (GF.gate_name f.GF.gate) f.GF.detail f.GF.repro

let test_repro_format () =
  Alcotest.(check string) "default config"
    "skope fuzz --seed 42 --index 7"
    (GF.repro_command ~seed:42L ~index:7 ());
  let config = G.clamp { G.default with G.depth = 5 } in
  let r = GF.repro_command ~config ~archetype:GA.Comm ~seed:1L ~index:0 () in
  (* Non-default flags and a forced archetype must be encoded. *)
  let has sub =
    let n = String.length sub and m = String.length r in
    let rec go i = i + n <= m && (String.sub r i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "records depth" true (has "--depth 5");
  Alcotest.(check bool) "records archetype" true (has "--archetype comm");
  (* And the reproducer really regenerates the same case. *)
  let batch = List.nth (GC.generate ~config ~archetype:GA.Comm ~jobs:1 ~seed:1L ~count:1 ()) 0 in
  let direct = G.generate ~config ~archetype:GA.Comm ~seed:1L ~index:0 () in
  Alcotest.(check string) "repro regenerates identically"
    (G.to_source batch) (G.to_source direct)

(* --- pinned regressions ---------------------------------------------- *)

(* The pretty-printer used to duplicate a combined load/store
   statement's label onto the fissioned store line, so the reparse
   carried a phantom label. *)
let test_mem_label_fission () =
  let p =
    B.program "t"
      ~globals:[ B.array "A" [ B.int 8 ] ]
      [
        B.func "main"
          [
            B.stmt ~label:"m"
              (Ast.Mem
                 {
                   loads = [ B.a_ "A" [ B.int 0 ] ];
                   stores = [ B.a_ "A" [ B.int 1 ] ];
                 });
          ];
      ]
  in
  let text = Pretty.to_string p in
  let occurrences sub s =
    let n = String.length sub and m = String.length s in
    let rec go acc i =
      if i + n > m then acc
      else go (if String.sub s i n = sub then acc + 1 else acc) (i + 1)
    in
    go 0 0
  in
  Alcotest.(check int) "label printed once" 1 (occurrences "@m:" text);
  let p2 = parse text in
  if not (Equal.program ~fission_mem:true p p2) then
    Alcotest.failf "combined Mem does not round-trip:\n%s\n%s" text
      (Option.value ~default:"?" (Equal.first_diff ~fission_mem:true p p2))

(* "-5" parses as Neg(5); a program built with the literal Int (-5)
   prints identically, so equality must treat the two as one. *)
let test_negative_literal_roundtrip () =
  let p =
    B.program "t"
      [
        B.func "main"
          [
            B.let_ "x" (B.int (-5));
            B.if_
              B.(var "x" < int (-1))
              [ B.comp ~flops:(B.int 1) () ]
              [ B.comp ~flops:B.(float (-0.5) * float (-2.)) () ];
          ];
      ]
  in
  let p2 = parse (Pretty.to_string p) in
  if not (Equal.program p p2) then
    Alcotest.failf "negated literals do not round-trip: %s"
      (Option.value ~default:"?" (Equal.first_diff p p2));
  Alcotest.(check string) "pretty idempotent"
    (Pretty.to_string p) (Pretty.to_string p2)

(* Generic f<bits>/i<bits> element types: the generator emits f16
   arrays, which the parser used to reject. *)
let test_generic_elem_type () =
  let src = "program t\narray A[4] : f16\ndef main() { load A[0] }\n" in
  let p = parse src in
  (match p.Ast.globals with
  | [ { Ast.elem_bytes; _ } ] ->
    Alcotest.(check int) "f16 is 2 bytes" 2 elem_bytes
  | _ -> Alcotest.fail "expected one global array");
  let p2 = parse (Pretty.to_string p) in
  if not (Equal.program p p2) then Alcotest.fail "f16 does not round-trip"

(* Entry-function parameters used to compile to zero-initialized
   frame slots, shadowing the same-named inputs: every generated
   `def main(n)` loop ran zero trips and the simulator priced ~nothing
   (seed 42, case 51 of the first campaign). *)
let test_entry_param_binding () =
  let src =
    "program t\ndef main(n) { @l: for i = 0 to n - 1 { comp flops=1 } }\n"
  in
  let r =
    Core.Sim.Interp.run ~inputs:[ ("n", Value.I 200) ] (parse src)
  in
  if r.Core.Sim.Interp.total_cycles < 200. then
    Alcotest.failf "entry param n not bound: %g cycles for 200 iterations"
      r.Core.Sim.Interp.total_cycles

(* The audit gate also fails a case whose symbolic model falls back to
   literals: here a squaring [let] chain outgrows the closed-form size
   budget. *)
let test_audit_gate_fallbacks () =
  let lets =
    List.init 13 (fun i ->
        Fmt.str "  let v%d = v%d * v%d" (i + 1) i i)
  in
  let src =
    String.concat "\n"
      ([ "program blowup"; "def main(n) {"; "  let v0 = n * n" ]
      @ lets
      @ [ "  @l: for i = 0 to v13 { comp flops=v13 }"; "}"; "" ])
  in
  let case =
    {
      G.index = 0;
      master_seed = 0L;
      case_seed = 0L;
      archetype = GA.Compute;
      name = "blowup";
      program = parse src;
      inputs = [ ("n", Value.I 1) ];
    }
  in
  let audit_fails =
    List.filter (fun f -> f.GF.gate = GF.Audit) (GF.check_case ~repro:"-" case)
  in
  match audit_fails with
  | [ f ] ->
    Alcotest.(check bool) ("names the fallbacks: " ^ f.GF.detail) true
      (String.ends_with ~suffix:"closed forms fell back to literals" f.GF.detail)
  | fs -> Alcotest.failf "expected one audit failure, got %d" (List.length fs)

(* A dead branch calls the head of 18 functions that each call the
   next twice.  The BET and the simulator skip the dead arm, but lint
   inlines all 2^18 calls, so its visit budget runs out (L011). *)
let test_lint_gate_budget () =
  let fn k =
    if k = 18 then [ "def f18() {"; "  comp flops=1"; "}" ]
    else
      let call = Fmt.str "  call f%d()" (k + 1) in
      [ Fmt.str "def f%d() {" k; call; call; "}" ]
  in
  let src =
    String.concat "\n"
      ([ "program fan"; "def main() {"; "  if (1 == 2) { call f1() }";
         "  comp flops=1"; "}" ]
      @ List.concat_map fn (List.init 18 (fun k -> k + 1))
      @ [ "" ])
  in
  let case =
    {
      G.index = 0;
      master_seed = 0L;
      case_seed = 0L;
      archetype = GA.Compute;
      name = "fan";
      program = parse src;
      inputs = [];
    }
  in
  let lint_fails =
    List.filter (fun f -> f.GF.gate = GF.Lint) (GF.check_case ~repro:"-" case)
  in
  match lint_fails with
  | [ f ] ->
    Alcotest.(check string) "names the budget"
      "lint warning L011: lint stopped after 200000 statement visits"
      f.GF.detail
  | fs -> Alcotest.failf "expected one lint failure, got %d" (List.length fs)

let suite =
  [
    ( "gen",
      [
        Alcotest.test_case "deterministic per seed" `Quick test_deterministic;
        Alcotest.test_case "independent of --jobs" `Quick test_jobs_invariant;
        Alcotest.test_case "manifest deterministic" `Quick
          test_manifest_deterministic;
        Alcotest.test_case "mix ratios honored" `Quick test_mix_honored;
        Alcotest.test_case "custom mix" `Quick test_custom_mix;
        Alcotest.test_case "lint-clean per archetype" `Quick
          test_lint_clean_per_archetype;
      ] );
    ( "fuzz",
      [
        Alcotest.test_case "seed 42 campaign passes all gates" `Quick
          test_fuzz_seed42;
        Alcotest.test_case "reproducer format" `Quick test_repro_format;
        Alcotest.test_case "regression: Mem label fission" `Quick
          test_mem_label_fission;
        Alcotest.test_case "regression: negated literals" `Quick
          test_negative_literal_roundtrip;
        Alcotest.test_case "regression: generic elem types" `Quick
          test_generic_elem_type;
        Alcotest.test_case "regression: entry-param binding" `Quick
          test_entry_param_binding;
        Alcotest.test_case "audit gate fails on symbolic fallbacks" `Quick
          test_audit_gate_fallbacks;
        Alcotest.test_case "lint gate fails on budget exhaustion" `Quick
          test_lint_gate_budget;
      ] );
  ]
