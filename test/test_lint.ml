(* Lint subsystem: interval domain, the abstract-interpretation
   engine's rule coverage on a seeded-defect fixture (text and JSON),
   error-location plumbing from the lexer/parser into rendered
   diagnostics, and the bundled workloads/examples linting clean. *)

open Core
module I = Lint.Interval
module D = Lint.Diagnostic
module E = Lint.Engine
module J = Report.Json

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_contains out needle =
  Alcotest.(check bool) ("output contains " ^ needle) true
    (contains_sub out needle)

(* --- interval domain ------------------------------------------------- *)

let iv = Alcotest.testable I.pp (fun a b -> a = b)

let test_interval_basics () =
  Alcotest.check iv "make normalizes a swapped range" (I.make 1. 3.)
    (I.make 3. 1.);
  Alcotest.(check (option (float 0.))) "const singleton" (Some 5.)
    (I.const (I.of_int 5));
  Alcotest.(check (option (float 0.))) "const range" None
    (I.const (I.make 1. 2.));
  Alcotest.check iv "join hulls" (I.make (-1.) 7.)
    (I.join (I.make (-1.) 2.) (I.make 5. 7.));
  Alcotest.(check bool) "meet disjoint" true
    (I.meet (I.make 0. 1.) (I.make 2. 3.) = None);
  Alcotest.check iv "clamp_nonneg" (I.make 0. 4.)
    (I.clamp_nonneg (I.make (-2.) 4.))

let test_interval_arith () =
  Alcotest.check iv "mul picks corners" (I.make (-6.) 6.)
    (I.mul (I.make (-2.) 2.) (I.make 1. 3.));
  Alcotest.(check bool) "div by a range containing 0 widens to top" true
    (I.is_top (I.div (I.of_int 1) (I.make (-1.) 1.)));
  Alcotest.check iv "div by a positive range" (I.make 2. 8.)
    (I.div (I.make 4. 8.) (I.make 1. 2.));
  Alcotest.check iv "rem by a positive integer constant" (I.make 0. 6.)
    (I.rem (I.make 0. 100.) (I.of_int 7));
  Alcotest.check iv "sub" (I.make (-2.) 2.)
    (I.sub (I.make 0. 2.) (I.make 0. 2.))

let test_interval_tri () =
  Alcotest.(check bool) "disjoint lt is True" true
    (I.lt (I.make 0. 1.) (I.make 2. 3.) = I.True);
  Alcotest.(check bool) "overlapping lt is Unknown" true
    (I.lt (I.make 0. 2.) (I.make 1. 3.) = I.Unknown);
  Alcotest.(check bool) "equal constants eq True" true
    (I.eq (I.of_int 4) (I.of_int 4) = I.True);
  Alcotest.(check bool) "disjoint eq False" true
    (I.eq (I.of_int 4) (I.of_int 5) = I.False);
  Alcotest.(check bool) "tri_and short-circuits False" true
    (I.tri_and I.False I.Unknown = I.False);
  Alcotest.(check bool) "truthy of 0 is False" true
    (I.truthy (I.of_int 0) = I.False)

(* --- seeded-defect fixture ------------------------------------------- *)

(* One statically broken program exercising every rule code.  Line
   numbers below are load-bearing: the location tests reference them.
   [u] is an entry parameter, so it is bound (no V005) but abstractly
   unknown; [n] is an input. *)
let defect_source =
  String.concat "\n"
    [
      "program defects";               (* 1 *)
      "";                              (* 2 *)
      "array buf[n] : f64";            (* 3 *)
      "";                              (* 4 *)
      "def helper()";                  (* 5 *)
      "{";                             (* 6 *)
      "  comp flops=0";                (* 7: L006; helper itself L007 *)
      "}";                             (* 8 *)
      "";                              (* 9 *)
      "def main(u)";                   (* 10 *)
      "{";                             (* 11 *)
      "  let z = n - n";               (* 12 *)
      "  @empty: for i = 10 to 1 { comp flops=2 }";      (* 13: L001 *)
      "  @bad: for i = 0 to 7 step z { comp flops=2 }";  (* 14: L001 *)
      "  comp flops=n/z";              (* 15: L002 error *)
      "  @maybe: for k = 0 to 2 { comp iops=n/k }";      (* 16: L002 warn *)
      "  if data rare prob 1.5 { comp flops=3 }";        (* 17: L003+L008 *)
      "  load buf[n]";                 (* 18: L004 *)
      "  if (1 == 2) { comp flops=4 }";                  (* 19: L005 *)
      "  while spin prob 1.0 max u { comp flops=5 }";    (* 20: L009 *)
      "  lib send scale 100";          (* 21: L010 *)
      "  lib recv scale 10";           (* 22 *)
      "}";                             (* 23 *)
      "";
    ]

let defect_inputs = [ ("n", Bet.Value.int 64) ]

let lint_defects () =
  let program = Skeleton.Parser.parse ~file:"defects.skope" defect_source in
  Alcotest.(check int) "fixture passes the shallow validator" 0
    (List.length (Skeleton.Validate.check ~inputs:[ "n" ] program));
  E.run ~inputs:defect_inputs program

let all_rules = [ "L001"; "L002"; "L003"; "L004"; "L005"; "L006"; "L007";
                  "L008"; "L009"; "L010" ]

let test_all_rules_fire () =
  let ds = lint_defects () in
  List.iter
    (fun code ->
      Alcotest.(check bool)
        (code ^ " fires on the fixture")
        true
        (List.exists (fun d -> d.D.code = code) ds))
    all_rules

let find_code ds code = List.filter (fun d -> d.D.code = code) ds

let test_severities () =
  let ds = lint_defects () in
  let sev code = (List.hd (find_code ds code)).D.severity in
  Alcotest.(check bool) "L002 const zero divisor is an error" true
    (List.exists (fun d -> d.D.severity = D.Error) (find_code ds "L002"));
  Alcotest.(check bool) "L002 also warns on a maybe-zero divisor" true
    (List.exists (fun d -> d.D.severity = D.Warning) (find_code ds "L002"));
  Alcotest.(check bool) "L001 non-positive step is an error" true
    (List.exists (fun d -> d.D.severity = D.Error) (find_code ds "L001"));
  Alcotest.(check bool) "L003 out-of-range probability is an error" true
    (sev "L003" = D.Error);
  Alcotest.(check bool) "L004 certain overrun is an error" true
    (sev "L004" = D.Error);
  Alcotest.(check bool) "L008 is informational" true (sev "L008" = D.Info);
  Alcotest.(check bool) "L005/L009/L010 are warnings" true
    (List.for_all
       (fun c -> sev c = D.Warning)
       [ "L005"; "L009"; "L010" ])

let test_locations () =
  let ds = lint_defects () in
  let line code =
    match find_code ds code with
    | d :: _ -> d.D.loc.Skeleton.Loc.line
    | [] -> -1
  in
  Alcotest.(check int) "L006 at helper's comp" 7 (line "L006");
  Alcotest.(check int) "L007 anchors at helper's body" 7 (line "L007");
  Alcotest.(check int) "empty-range L001 on line 13" 13 (line "L001");
  Alcotest.(check int) "L003 on the data branch" 17 (line "L003");
  Alcotest.(check int) "L004 on the load" 18 (line "L004");
  Alcotest.(check int) "L005 on the if" 19 (line "L005");
  Alcotest.(check int) "L009 on the while" 20 (line "L009");
  Alcotest.(check int) "L010 on the first send" 21 (line "L010");
  let l5 = List.hd (find_code ds "L005") in
  Alcotest.(check int) "L005 column is the if keyword" 3
    l5.D.loc.Skeleton.Loc.col

let test_text_rendering () =
  let ds = lint_defects () in
  let out = Fmt.str "%a" (D.render_all ~source:defect_source ()) ds in
  List.iter (check_contains out)
    [
      "error[L002]";
      "warning[L005]";
      "info[L008]";
      "--> defects.skope:19:3";
      "if (1 == 2) { comp flops=4 }";  (* source excerpt *)
      "= note: in function `main`";
      "errors,";                        (* summary line *)
    ]

(* The fixture's full rendered output, byte for byte: every message
   and note, with [defect_inputs] and with no inputs (then [z = n - n]
   is unknown, so the certain-zero and out-of-bounds findings go).
   Disabling one rule must drop exactly that rule's diagnostics. *)
let defect_text_inputs =
  {|warning[L006]: comp models no work (flops, iops and divs are all 0)
  --> defects.skope:7:3
    |
  7 |   comp flops=0
    |   ^
  = note: in function `helper`

warning[L007]: function `helper` is unreachable from entry `main`
  --> defects.skope:7:3
    |
  7 |   comp flops=0
    |   ^

warning[L001]: loop never executes (empty range)
  --> defects.skope:13:11
     |
  13 |   @empty: for i = 10 to 1 { comp flops=2 }
     |           ^
  = note: range `10` to `1` evaluates to 10 to 1
  = note: in function `main`

error[L001]: loop step is never positive
  --> defects.skope:14:9
     |
  14 |   @bad: for i = 0 to 7 step z { comp flops=2 }
     |         ^
  = note: step `z` evaluates to 0
  = note: in function `main`

error[L002]: division by zero
  --> defects.skope:15:3
     |
  15 |   comp flops=n/z
     |   ^
  = note: divisor `z` is always 0
  = note: in function `main`

warning[L002]: possible division by zero
  --> defects.skope:16:28
     |
  16 |   @maybe: for k = 0 to 2 { comp iops=n/k }
     |                            ^
  = note: divisor `k` has interval [0, 2]
  = note: in function `main`

error[L003]: data branch `rare` probability is outside [0, 1]
  --> defects.skope:17:3
     |
  17 |   if data rare prob 1.5 { comp flops=3 }
     |   ^
  = note: `1.5` evaluates to 1.5
  = note: in function `main`

info[L008]: data branch `rare` has no profile hint; projection will trust the declared probability
  --> defects.skope:17:3
     |
  17 |   if data rare prob 1.5 { comp flops=3 }
     |   ^
  = note: in function `main`

error[L004]: index 0 of array `buf` is always out of bounds
  --> defects.skope:18:3
     |
  18 |   load buf[n]
     |   ^
  = note: index `n` evaluates to 64; the dimension is 64
  = note: in function `main`

warning[L005]: branch condition is statically false; the then branch is dead
  --> defects.skope:19:3
     |
  19 |   if (1 == 2) { comp flops=4 }
     |   ^
  = note: condition `1 == 2` never holds
  = note: in function `main`

info[L008]: while loop `spin` has no profile hint; projection will trust the declared probability
  --> defects.skope:20:3
     |
  20 |   while spin prob 1.0 max u { comp flops=5 }
     |   ^
  = note: in function `main`

warning[L009]: while loop `spin` has p_continue = 1 and no finite iteration cap
  --> defects.skope:20:3
     |
  20 |   while spin prob 1.0 max u { comp flops=5 }
     |   ^
  = note: p_continue `1.0` evaluates to 1
  = note: max_iter `u` is unbounded
  = note: in function `main`

warning[L010]: send and receive volumes can never balance
  --> defects.skope:21:3
     |
  21 |   lib send scale 100
     |   ^
  = note: total send volume 100
  = note: total receive volume 10

4 errors, 7 warnings, 2 infos
|}

let defect_text_bare =
  {|warning[L006]: comp models no work (flops, iops and divs are all 0)
  --> defects.skope:7:3
    |
  7 |   comp flops=0
    |   ^
  = note: in function `helper`

warning[L007]: function `helper` is unreachable from entry `main`
  --> defects.skope:7:3
    |
  7 |   comp flops=0
    |   ^

warning[L001]: loop never executes (empty range)
  --> defects.skope:13:11
     |
  13 |   @empty: for i = 10 to 1 { comp flops=2 }
     |           ^
  = note: range `10` to `1` evaluates to 10 to 1
  = note: in function `main`

warning[L002]: possible division by zero
  --> defects.skope:16:28
     |
  16 |   @maybe: for k = 0 to 2 { comp iops=n/k }
     |                            ^
  = note: divisor `k` has interval [0, 2]
  = note: in function `main`

error[L003]: data branch `rare` probability is outside [0, 1]
  --> defects.skope:17:3
     |
  17 |   if data rare prob 1.5 { comp flops=3 }
     |   ^
  = note: `1.5` evaluates to 1.5
  = note: in function `main`

info[L008]: data branch `rare` has no profile hint; projection will trust the declared probability
  --> defects.skope:17:3
     |
  17 |   if data rare prob 1.5 { comp flops=3 }
     |   ^
  = note: in function `main`

warning[L005]: branch condition is statically false; the then branch is dead
  --> defects.skope:19:3
     |
  19 |   if (1 == 2) { comp flops=4 }
     |   ^
  = note: condition `1 == 2` never holds
  = note: in function `main`

info[L008]: while loop `spin` has no profile hint; projection will trust the declared probability
  --> defects.skope:20:3
     |
  20 |   while spin prob 1.0 max u { comp flops=5 }
     |   ^
  = note: in function `main`

warning[L009]: while loop `spin` has p_continue = 1 and no finite iteration cap
  --> defects.skope:20:3
     |
  20 |   while spin prob 1.0 max u { comp flops=5 }
     |   ^
  = note: p_continue `1.0` evaluates to 1
  = note: max_iter `u` is unbounded
  = note: in function `main`

warning[L010]: send and receive volumes can never balance
  --> defects.skope:21:3
     |
  21 |   lib send scale 100
     |   ^
  = note: total send volume 100
  = note: total receive volume 10

1 error, 7 warnings, 2 infos
|}

let test_full_text () =
  let program = Skeleton.Parser.parse ~file:"defects.skope" defect_source in
  let render ds = Fmt.str "%a" (D.render_all ~source:defect_source ()) ds in
  List.iter
    (fun (label, inputs, expected) ->
      let full = E.run ~inputs program in
      Alcotest.(check string) (label ^ ": rendered text") expected
        (render full);
      List.iter
        (fun code ->
          let config = { E.default_config with E.disabled = [ code ] } in
          Alcotest.(check string)
            (Fmt.str "%s: disabling %s drops only its diagnostics" label code)
            (render (List.filter (fun d -> d.D.code <> code) full))
            (render (E.run ~config ~inputs program)))
        all_rules)
    [
      ("with inputs", defect_inputs, defect_text_inputs);
      ("without inputs", [], defect_text_bare);
    ]

let test_json_rendering () =
  let ds = lint_defects () in
  let json = J.to_string (D.list_to_json ds) in
  match J.of_string json with
  | Error e -> Alcotest.failf "diagnostics JSON does not re-parse: %s" e
  | Ok (J.List items) ->
    Alcotest.(check int) "one JSON object per diagnostic" (List.length ds)
      (List.length items);
    let codes =
      List.filter_map
        (fun item ->
          match J.member "code" item with
          | Some (J.String c) -> Some c
          | _ -> None)
        items
    in
    List.iter
      (fun code ->
        Alcotest.(check bool) (code ^ " present in JSON") true
          (List.mem code codes))
      all_rules;
    List.iter
      (fun item ->
        List.iter
          (fun field ->
            Alcotest.(check bool) ("field " ^ field) true
              (J.member field item <> None))
          [ "code"; "severity"; "file"; "line"; "col"; "message"; "notes" ])
      items
  | Ok _ -> Alcotest.fail "diagnostics JSON is not a list"

let test_rule_config () =
  let program = Skeleton.Parser.parse ~file:"defects.skope" defect_source in
  let config = { E.default_config with E.disabled = all_rules } in
  Alcotest.(check int) "disabling every rule silences the engine" 0
    (List.length (E.run ~config ~inputs:defect_inputs program));
  let only_l4 =
    { E.default_config with
      E.disabled = List.filter (fun c -> c <> "L004") all_rules }
  in
  let ds = E.run ~config:only_l4 ~inputs:defect_inputs program in
  Alcotest.(check bool) "only L004 remains" true
    (ds <> [] && List.for_all (fun d -> d.D.code = "L004") ds)

let test_check_exn_rejects () =
  let program = Skeleton.Parser.parse ~file:"defects.skope" defect_source in
  match E.check_exn ~inputs:defect_inputs program with
  | () -> Alcotest.fail "check_exn accepted a program with lint errors"
  | exception E.Rejected errors ->
    Alcotest.(check bool) "only errors are rejected" true
      (errors <> [] && List.for_all (fun d -> d.D.severity = D.Error) errors)

(* --- soundness: the engine must not cry wolf on sound programs ------- *)

(* The pedagogical example rebinds [knob] inside a data branch; a naive
   block-scoped environment would call `knob == 1` statically false. *)
let test_no_false_dead_branch_across_contexts () =
  let program, inputs = Workloads.Pedagogical.make ~scale:1.0 in
  let ds = E.run ~inputs program in
  Alcotest.(check (list string)) "no L005/L004 on pedagogical" []
    (List.filter_map
       (fun d ->
         if d.D.code = "L005" || d.D.code = "L004" then Some d.D.message
         else None)
       ds)

(* Loop-carried rebinds must widen, not propagate first-iteration
   constants (which would fabricate dead branches). *)
let test_loop_widening () =
  let src =
    String.concat "\n"
      [
        "program widen";
        "def main()";
        "{";
        "  let x = 0";
        "  for i = 1 to 8 {";
        "    if (x == 0) { comp flops=1 } else { comp flops=2 }";
        "    let x = x + 1";
        "  }";
        "}";
        "";
      ]
  in
  let program = Skeleton.Parser.parse ~file:"widen.skope" src in
  let ds = E.run program in
  Alcotest.(check (list string)) "no dead branch reported" []
    (List.filter_map
       (fun d -> if d.D.code = "L005" then Some d.D.message else None)
       ds)

(* The engine subsumes Validate's literal-only checks: a zero step
   reached through a let-binding escapes the validator but not L001. *)
let test_subsumes_validate () =
  let src =
    String.concat "\n"
      [
        "program sneaky";
        "def main()";
        "{";
        "  let z = 2 - 2";
        "  for i = 0 to 9 step z { comp flops=1 }";
        "}";
        "";
      ]
  in
  let program = Skeleton.Parser.parse ~file:"sneaky.skope" src in
  Alcotest.(check int) "validator is blind to the computed step" 0
    (List.length (Skeleton.Validate.check program));
  Alcotest.(check bool) "lint flags it as L001" true
    (List.exists
       (fun d -> d.D.code = "L001" && d.D.severity = D.Error)
       (E.run program))

(* --- the visit budget ------------------------------------------------ *)

(* Statement visits of one [E.run], read off the process-wide counter. *)
let visits f =
  let count () =
    Option.value ~default:0.
      (List.assoc_opt "lint_visits" (Telemetry.Span.counters ()))
  in
  let before = count () in
  let r = f () in
  (int_of_float (count () -. before), r)

(* [d] nested 2-trip loops around a loop-carried rebind, then [tail]. *)
let nest_source d tail =
  let indent k = String.make (2 * k) ' ' in
  String.concat "\n"
    ([ "program nest"; "def main()"; "{"; "  let x = 0" ]
    @ List.init d (fun k -> Fmt.str "%sfor i%d = 0 to 1 {" (indent (k + 1)) k)
    @ [ indent (d + 1) ^ "comp flops=1"; indent (d + 1) ^ "let x = x + 1" ]
    @ List.init d (fun k -> indent (d - k) ^ "}")
    @ tail @ [ "}"; "" ])

(* Discovery walks track bindings only, so the nest costs about d²
   visits; walking each nested body again would cost 2^d. *)
let test_nest_visits () =
  let program = Skeleton.Parser.parse ~file:"nest.skope" (nest_source 12 []) in
  let n, ds = visits (fun () -> E.run program) in
  Alcotest.(check (list string)) "the nest lints clean" []
    (List.map (fun d -> d.D.code) ds);
  Alcotest.(check bool)
    (Fmt.str "a 12-deep nest takes %d visits: each statement once or more, \
              under 400 in all" n)
    true
    (n >= 15 && n < 400)

let test_deep_nest_tail () =
  let program =
    Skeleton.Parser.parse ~file:"nest.skope"
      (nest_source 16 [ "  comp flops=1/0" ])
  in
  Alcotest.(check bool) "the division after a 16-deep nest is an L002 error"
    true
    (List.exists
       (fun d -> d.D.code = "L002" && d.D.severity = D.Error)
       (E.run program))

(* Each of 18 functions calls the next twice: 2^18 inlined calls, more
   than any budget, so the [1/0] after them is never reached. *)
let fan_out_source =
  String.concat "\n"
    ([ "program fan"; "def main()"; "{"; "  call f1()"; "  comp flops=1/0"; "}" ]
    @ List.concat
        (List.init 17 (fun k ->
             let callee = Fmt.str "  call f%d()" (k + 2) in
             [ Fmt.str "def f%d()" (k + 1); "{"; callee; callee; "}" ]))
    @ [ "def f18()"; "{"; "  comp flops=1"; "}"; "" ])

let test_budget_exhaustion () =
  let program = Skeleton.Parser.parse ~file:"fan.skope" fan_out_source in
  let n, ds = visits (fun () -> E.run program) in
  Alcotest.(check int) "the whole budget is spent" 200_000 n;
  Alcotest.(check bool) "L011 is a listed rule" true
    (List.mem_assoc "L011" E.rules);
  match ds with
  | [ d ] ->
    Alcotest.(check string) "only L011 is reported" "L011" d.D.code;
    Alcotest.(check bool) "as a warning" true (d.D.severity = D.Warning);
    Alcotest.(check string) "message" "lint stopped after 200000 statement visits"
      d.D.message;
    Alcotest.(check bool) "at a skipped statement inside the call tree"
      true
      (d.D.loc.Skeleton.Loc.line > 6)
  | ds ->
    Alcotest.failf "expected one L011, got [%s]"
      (String.concat "; " (List.map (fun d -> d.D.code) ds))

(* --- lexer/parser locations end-to-end ------------------------------- *)

let test_lex_error_location () =
  let src =
    String.concat "\n"
      [ "program p"; "def main()"; "{"; "  comp flops=$3"; "}"; "" ]
  in
  match Skeleton.Parser.parse ~file:"lex.skope" src with
  | _ -> Alcotest.fail "lexer accepted '$'"
  | exception Skeleton.Lexer.Error (loc, msg) ->
    Alcotest.(check int) "line" 4 loc.Skeleton.Loc.line;
    Alcotest.(check int) "col" 14 loc.Skeleton.Loc.col;
    let d = D.of_lex_error loc msg in
    Alcotest.(check string) "code" "P001" d.D.code;
    let out = Fmt.str "%a" (D.render ~source:src ()) d in
    List.iter (check_contains out)
      [ "error[P001]"; "--> lex.skope:4:14"; "comp flops=$3" ]

let test_parse_error_location () =
  let src =
    String.concat "\n"
      [
        "program p";
        "";
        "def main()";
        "{";
        "  for i = 0 to 9 {";
        "    comp flops=1";
        "  }";
        "  frobnicate x";
        "}";
        "";
      ]
  in
  match Skeleton.Parser.parse ~file:"parse.skope" src with
  | _ -> Alcotest.fail "parser accepted an unknown statement"
  | exception Skeleton.Parser.Error (loc, msg) ->
    Alcotest.(check int) "line" 8 loc.Skeleton.Loc.line;
    Alcotest.(check int) "col" 3 loc.Skeleton.Loc.col;
    let d = D.of_parse_error loc msg in
    Alcotest.(check string) "code" "P002" d.D.code;
    let out = Fmt.str "%a" (D.render ~source:src ()) d in
    check_contains out "--> parse.skope:8:3"

(* --- fleet hygiene: bundled models and examples lint clean ----------- *)

let deny_warnings_failures ds =
  List.filter (fun d -> d.D.severity <> D.Info) ds
  |> List.map (fun d -> Fmt.str "%s: %s" d.D.code d.D.message)

let test_workloads_lint_clean () =
  List.iter
    (fun (w : Workloads.Registry.t) ->
      let program, inputs = w.Workloads.Registry.make ~scale:w.default_scale in
      let validation =
        Skeleton.Validate.check ~inputs:(List.map fst inputs) program
      in
      let ds = List.map D.of_validate validation @ E.run ~inputs program in
      Alcotest.(check (list string))
        (w.Workloads.Registry.name ^ " lints clean under --deny warnings")
        []
        (deny_warnings_failures ds))
    Workloads.Registry.all

let example_inputs =
  [
    ( "heat2d.skope",
      [ ("n", Bet.Value.int 512); ("maxiter", Bet.Value.int 100) ] );
    ( "nbody.skope",
      [ ("nbody", Bet.Value.int 4096); ("nsteps", Bet.Value.int 10) ] );
  ]

let test_examples_lint_clean () =
  (* `dune runtest` runs in _build/default/test; `dune exec` in the
     project root. *)
  let dir =
    List.find Sys.file_exists
      [ "../examples/skeletons"; "examples/skeletons" ]
  in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".skope")
    |> List.sort String.compare
  in
  Alcotest.(check bool) "examples present" true (List.length files >= 2);
  List.iter
    (fun file ->
      let inputs =
        Option.value ~default:[] (List.assoc_opt file example_inputs)
      in
      let program = Skeleton.Parser.parse_file (Filename.concat dir file) in
      let validation =
        Skeleton.Validate.check ~inputs:(List.map fst inputs) program
      in
      let ds = List.map D.of_validate validation @ E.run ~inputs program in
      Alcotest.(check (list string))
        (file ^ " lints clean under --deny warnings")
        []
        (deny_warnings_failures ds))
    files

let suite =
  [
    ( "lint.interval",
      [
        Alcotest.test_case "basics" `Quick test_interval_basics;
        Alcotest.test_case "arithmetic" `Quick test_interval_arith;
        Alcotest.test_case "three-valued comparisons" `Quick test_interval_tri;
      ] );
    ( "lint.rules",
      [
        Alcotest.test_case "all ten rules fire" `Quick test_all_rules_fire;
        Alcotest.test_case "severities" `Quick test_severities;
        Alcotest.test_case "locations" `Quick test_locations;
        Alcotest.test_case "text rendering" `Quick test_text_rendering;
        Alcotest.test_case "full rendered text" `Quick test_full_text;
        Alcotest.test_case "json rendering" `Quick test_json_rendering;
        Alcotest.test_case "rule enable/disable" `Quick test_rule_config;
        Alcotest.test_case "check_exn rejects errors" `Quick
          test_check_exn_rejects;
      ] );
    ( "lint.soundness",
      [
        Alcotest.test_case "context forking is respected" `Quick
          test_no_false_dead_branch_across_contexts;
        Alcotest.test_case "loop-carried rebinds widen" `Quick
          test_loop_widening;
        Alcotest.test_case "subsumes the literal validator" `Quick
          test_subsumes_validate;
      ] );
    ( "lint.budget",
      [
        Alcotest.test_case "nested loops cost quadratic visits" `Quick
          test_nest_visits;
        Alcotest.test_case "a deep nest does not hide what follows" `Quick
          test_deep_nest_tail;
        Alcotest.test_case "budget exhaustion is reported" `Quick
          test_budget_exhaustion;
      ] );
    ( "lint.locations",
      [
        Alcotest.test_case "lexer error location" `Quick
          test_lex_error_location;
        Alcotest.test_case "parser error location" `Quick
          test_parse_error_location;
      ] );
    ( "lint.fleet",
      [
        Alcotest.test_case "workloads lint clean" `Quick
          test_workloads_lint_clean;
        Alcotest.test_case "examples lint clean" `Quick
          test_examples_lint_clean;
      ] );
  ]
