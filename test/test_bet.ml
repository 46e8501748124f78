(* Unit tests for the BET engine: values, evaluation, contexts, hints,
   BST tables, and BET construction semantics. *)

open Core.Skeleton
open Core.Bet

let parse src = Parser.parse ~file:"t.skope" src

let build ?hints ?inputs src =
  Build.build ?hints
    ~lib_work:(Core.Hw.Libmix.work_fn Core.Hw.Libmix.default)
    ?inputs (parse src)

(* Find a node by block anywhere in the tree. *)
let find_nodes root pred =
  List.filter (fun (n, _) -> pred n) (Node.to_list_enr root)

let find_loop root ~label bst =
  find_nodes root (fun n ->
      match n.Node.block with
      | Block_id.Loop _ -> String.equal (Bst.block_name bst n.Node.block) label
      | _ -> false)

(* --- Value ----------------------------------------------------------- *)

let test_value_compare () =
  Alcotest.(check bool) "int vs float" true (Value.compare (Value.I 2) (Value.F 2.5) < 0);
  Alcotest.(check bool) "equal across kinds" true (Value.equal (Value.I 3) (Value.F 3.));
  Alcotest.(check bool) "bool order" true (Value.compare (Value.B false) (Value.B true) < 0)

let test_value_truthy () =
  Alcotest.(check bool) "zero false" false (Value.truthy (Value.I 0));
  Alcotest.(check bool) "nonzero true" true (Value.truthy (Value.F 0.1));
  Alcotest.(check bool) "bool passthrough" true (Value.truthy (Value.B true))

let test_value_of_float () =
  Alcotest.(check bool) "integral wraps to I" true
    (Value.of_float 4. = Value.I 4);
  Alcotest.(check bool) "fractional stays F" true
    (Value.of_float 4.5 = Value.F 4.5)

(* --- Eval ------------------------------------------------------------ *)

let env l = Eval.env_of_list (List.map (fun (k, v) -> (k, Value.I v)) l)

let eval_ok e env_l expect =
  match Eval.eval (env env_l) e with
  | Some v -> Alcotest.(check bool) "value" true (Value.equal v expect)
  | None -> Alcotest.fail "evaluation failed"

let test_eval_arith () =
  eval_ok (Ast.Binop (Ast.Add, Ast.Int 2, Ast.Int 3)) [] (Value.I 5);
  eval_ok (Ast.Binop (Ast.Div, Ast.Int 7, Ast.Int 2)) [] (Value.I 3);
  eval_ok (Ast.Binop (Ast.Div, Ast.Float 7., Ast.Int 2)) [] (Value.F 3.5);
  eval_ok (Ast.Binop (Ast.Mod, Ast.Int 7, Ast.Int 3)) [] (Value.I 1);
  eval_ok (Ast.Binop (Ast.Pow, Ast.Int 2, Ast.Int 10)) [] (Value.I 1024);
  eval_ok (Ast.Binop (Ast.Min, Ast.Int 2, Ast.Int 5)) [] (Value.I 2)

let test_eval_vars () =
  eval_ok (Ast.Binop (Ast.Mul, Ast.Var "n", Ast.Var "m")) [ ("n", 6); ("m", 7) ]
    (Value.I 42);
  Alcotest.(check bool)
    "unbound yields None" true
    (Eval.eval (env []) (Ast.Var "nope") = None)

let test_eval_division_by_zero () =
  Alcotest.(check bool)
    "div by zero is None" true
    (Eval.eval (env []) (Ast.Binop (Ast.Div, Ast.Int 1, Ast.Int 0)) = None)

let test_eval_cmp_and_logic () =
  eval_ok (Ast.Cmp (Ast.Le, Ast.Int 3, Ast.Int 3)) [] (Value.B true);
  eval_ok
    (Ast.And (Ast.Bool true, Ast.Cmp (Ast.Gt, Ast.Int 1, Ast.Int 2)))
    [] (Value.B false);
  eval_ok (Ast.Or (Ast.Bool false, Ast.Bool true)) [] (Value.B true)

let test_eval_short_circuit () =
  (* And with false left must not evaluate right. *)
  eval_ok
    (Ast.And (Ast.Bool false, Ast.Var "unbound"))
    [] (Value.B false)

let test_eval_unops () =
  eval_ok (Ast.Unop (Ast.Floor, Ast.Float 3.9)) [] (Value.I 3);
  eval_ok (Ast.Unop (Ast.Ceil, Ast.Float 3.1)) [] (Value.I 4);
  eval_ok (Ast.Unop (Ast.Abs, Ast.Int (-4))) [] (Value.I 4);
  eval_ok (Ast.Unop (Ast.Sqrt, Ast.Float 16.)) [] (Value.F 4.);
  eval_ok (Ast.Unop (Ast.Log2, Ast.Float 8.)) [] (Value.F 3.)

let test_eval_prob_clamped () =
  Alcotest.(check (float 1e-9)) "clamp high" 1.
    (Eval.eval_prob (env []) (Ast.Float 3.7));
  Alcotest.(check (float 1e-9)) "clamp low" 0.
    (Eval.eval_prob (env []) (Ast.Float (-2.)))

let test_eval_pow_and_mod_float () =
  eval_ok (Ast.Binop (Ast.Pow, Ast.Float 2., Ast.Float 0.5)) []
    (Value.F (Float.sqrt 2.));
  (match Eval.eval (env []) (Ast.Binop (Ast.Mod, Ast.Float 7.5, Ast.Float 2.)) with
  | Some (Value.F f) -> Alcotest.(check (float 1e-9)) "fmod" 1.5 f
  | _ -> Alcotest.fail "float mod");
  eval_ok (Ast.Binop (Ast.Max, Ast.Int 3, Ast.Float 4.5)) [] (Value.F 4.5)

let test_eval_count_clamps () =
  Alcotest.(check (float 0.)) "negative clamps to 0" 0.
    (Eval.eval_count (env []) (Ast.Int (-5)));
  Alcotest.(check (float 0.)) "default on unbound" 7.
    (Eval.eval_count ~default:7. (env []) (Ast.Var "zz"))

(* --- Context ---------------------------------------------------------- *)

let ctx ?(mass = 1.0) ?(cenv = "") l =
  Context.make ~mass (List.map (fun (k, v) -> (k, Value.I v)) l) cenv

let test_context_normalize_merges () =
  let cs =
    [ ctx ~mass:0.25 ~cenv:"first" [ ("a", 1) ]; ctx ~mass:0.25 ~cenv:"second" [ ("a", 1) ] ]
  in
  match Context.normalize cs with
  | [ c ] ->
    Alcotest.(check (float 1e-12)) "merged mass" 0.5 c.Context.mass;
    Alcotest.(check string) "first companion kept" "first" c.Context.cenv
  | l -> Alcotest.failf "expected one context, got %d" (List.length l)

let test_context_normalize_cap_preserves_mass () =
  let cs = List.init 100 (fun i -> ctx ~mass:0.01 [ ("a", i) ]) in
  let out = Context.normalize ~cap:8 cs in
  Alcotest.(check int) "capped" 8 (List.length out);
  Alcotest.(check (float 1e-9)) "mass preserved" 1.0 (Context.mass_of out)

let test_context_normalize_drops_negligible () =
  let cs = [ ctx ~mass:1e-15 [ ("a", 1) ]; ctx ~mass:1.0 [ ("a", 2) ] ] in
  Alcotest.(check int) "dropped" 1 (List.length (Context.normalize cs))

let test_context_expect () =
  let cs = [ ctx ~mass:0.5 [ ("n", 10) ]; ctx ~mass:0.5 [ ("n", 20) ] ] in
  Alcotest.(check (float 1e-9)) "expectation" 15. (Context.expect cs (Ast.Var "n"))

let test_context_bind_lookup () =
  let c = ctx [ ("a", 1) ] in
  let c = Context.bind c "b" (Value.I 9) "b bound" in
  Alcotest.(check bool) "lookup bound" true
    (Context.lookup c "b" = Some (Value.I 9));
  let c = Context.unbind c "b" "b unbound" in
  Alcotest.(check bool) "unbound gone" true (Context.lookup c "b" = None);
  Alcotest.(check string) "companion replaced" "b unbound" c.Context.cenv

(* --- Hints ------------------------------------------------------------ *)

let test_hints_branch () =
  let h = Hints.empty in
  let h = Hints.observe_branch h "b" ~taken:true in
  let h = Hints.observe_branch h "b" ~taken:true in
  let h = Hints.observe_branch h "b" ~taken:false in
  Alcotest.(check (float 1e-9)) "2/3" (2. /. 3.)
    (Hints.branch_prob h "b" ~default:0.);
  Alcotest.(check (float 1e-9)) "default" 0.9
    (Hints.branch_prob h "missing" ~default:0.9)

let test_hints_loop_and_merge () =
  let h1 = Hints.observe_loop Hints.empty "w" ~iters:10 in
  let h2 = Hints.observe_loop Hints.empty "w" ~iters:20 in
  let h = Hints.merge h1 h2 in
  Alcotest.(check (float 1e-9)) "mean trips" 15.
    (Hints.loop_trips h "w" ~default:0.)

(* --- truncated geometric ---------------------------------------------- *)

let test_truncated_geometric () =
  Alcotest.(check (float 1e-9)) "p=0 gives n" 100.
    (Build.truncated_geometric ~p:0. ~n:100.);
  Alcotest.(check (float 1e-9)) "p=1 gives 1" 1.
    (Build.truncated_geometric ~p:1. ~n:100.);
  let e = Build.truncated_geometric ~p:0.5 ~n:1e9 in
  Alcotest.(check (float 1e-6)) "p=.5 unbounded ~2" 2. e;
  Alcotest.(check bool) "monotone in n" true
    (Build.truncated_geometric ~p:0.1 ~n:5.
    < Build.truncated_geometric ~p:0.1 ~n:50.)

let test_while_trips () =
  Alcotest.(check (float 1e-9)) "p=0 single trip" 1.
    (Build.while_trips ~p:0. ~n:10.);
  Alcotest.(check (float 1e-9)) "p=1 runs to cap" 10.
    (Build.while_trips ~p:1. ~n:10.);
  Alcotest.(check bool) "never exceeds cap" true
    (Build.while_trips ~p:0.99 ~n:7. <= 7.)

(* --- Bst --------------------------------------------------------------- *)

let test_bst_blocks () =
  let p =
    parse
      "program t\n\
       array A[8]\n\
       def main() {\n\
       @hot: for i = 1 to 4 { comp flops=10\nload A[i] }\n\
       if (1 < 2) { comp flops=1 } else { comp flops=2 }\n\
       lib exp\n\
       }"
  in
  let bst = Bst.build p in
  let blocks = Bst.blocks bst in
  Alcotest.(check int) "fn + loop + 2 arms + lib" 5 (List.length blocks);
  let loop =
    List.find
      (fun (b : Bst.block_info) ->
        match b.Bst.id with Block_id.Loop _ -> true | _ -> false)
      blocks
  in
  Alcotest.(check string) "label used" "hot" loop.Bst.name;
  Alcotest.(check int) "loop exclusive weight" 12 loop.Bst.size

let test_bst_total_instructions () =
  let p = parse "program t\ndef main() { comp flops=5\nlet x = 1 }" in
  Alcotest.(check int) "total" 7 (Bst.total_instructions (Bst.build p))

(* --- Work --------------------------------------------------------------- *)

let w1 =
  Work.of_comp ~flops:10. ~iops:4. ~divs:2. ~vec:4

let test_work_monoid () =
  Alcotest.(check bool) "zero is neutral" true
    (Work.equal (Work.add Work.zero w1) w1);
  let w2 = Work.of_mem ~loads:3. ~stores:1. ~lbytes:24. ~sbytes:8. in
  Alcotest.(check bool) "commutative" true
    (Work.equal (Work.add w1 w2) (Work.add w2 w1))

let test_work_scale () =
  let s = Work.scale 2.5 w1 in
  Alcotest.(check (float 1e-9)) "flops scaled" 25. s.Work.flops;
  Alcotest.(check (float 1e-9)) "vec issue scaled" (2.5 *. 10. /. 4.)
    s.Work.vec_issue

let test_work_intensity () =
  let w = Work.add w1 (Work.of_mem ~loads:2. ~stores:0. ~lbytes:20. ~sbytes:0.) in
  Alcotest.(check (float 1e-9)) "flops/byte" 0.5 (Work.intensity w);
  Alcotest.(check bool) "compute-only infinite" true
    (Work.intensity w1 = Float.infinity)

(* --- Build: core semantics ---------------------------------------------- *)

let test_build_single_loop_trips () =
  let b = build "program t\ndef main() { for i = 1 to 10 { comp flops=2 } }" in
  match find_nodes b.Build.root (fun n -> n.Node.kind = Node.Loop) with
  | [ (n, enr) ] ->
    Alcotest.(check (float 1e-9)) "trips" 10. n.Node.trips;
    Alcotest.(check (float 1e-9)) "enr includes trips" 10. enr;
    Alcotest.(check (float 1e-9)) "per-iteration work" 2. n.Node.work.Work.flops
  | l -> Alcotest.failf "expected 1 loop node, got %d" (List.length l)

let test_build_input_dependent_bounds () =
  let b =
    build ~inputs:[ ("n", Value.I 37) ]
      "program t\ndef main() { for i = 1 to n { comp flops=1 } }"
  in
  match find_nodes b.Build.root (fun n -> n.Node.kind = Node.Loop) with
  | [ (n, _) ] -> Alcotest.(check (float 1e-9)) "trips from input" 37. n.Node.trips
  | _ -> Alcotest.fail "loop node"

let test_build_nested_triangular () =
  (* Inner bound depends on outer variable: evaluated at the midpoint,
     trips ~ n/2. *)
  let b =
    build ~inputs:[ ("n", Value.I 100) ]
      "program t\n\
       def main() { for i = 1 to n { for j = 1 to i { comp flops=1 } } }"
  in
  let loops = find_nodes b.Build.root (fun n -> n.Node.kind = Node.Loop) in
  Alcotest.(check int) "two loop nodes" 2 (List.length loops);
  let inner =
    List.find (fun ((n : Node.t), _) -> n.Node.trips < 100.) loops
  in
  Alcotest.(check (float 1.)) "inner trips ~ midpoint" 50. (fst inner).Node.trips

let test_build_branch_probabilities () =
  let b =
    build
      "program t\n\
       def main() { if data d prob 0.3 { comp flops=1 } else { comp flops=2 } }"
  in
  let arms = find_nodes b.Build.root (fun n -> match n.Node.kind with Node.Arm _ -> true | _ -> false) in
  let probs =
    List.sort compare (List.map (fun ((n : Node.t), _) -> n.Node.prob) arms)
  in
  Alcotest.(check int) "two arms" 2 (List.length arms);
  Alcotest.(check (float 1e-9)) "p then" 0.3 (List.nth probs 0);
  Alcotest.(check (float 1e-9)) "p else" 0.7 (List.nth probs 1)

let test_build_static_branch_resolved () =
  let b =
    build ~inputs:[ ("n", Value.I 5) ]
      "program t\n\
       def main() { if (n > 3) { comp flops=1 } else { comp flops=2 } }"
  in
  let arms =
    find_nodes b.Build.root (fun n ->
        match n.Node.kind with Node.Arm _ -> true | _ -> false)
  in
  (* Only the taken arm is built (the other has zero probability). *)
  Alcotest.(check int) "one arm" 1 (List.length arms);
  Alcotest.(check (float 1e-9)) "certain" 1. (fst (List.hd arms)).Node.prob

let test_build_hints_override_declared () =
  let hints =
    List.fold_left
      (fun h taken -> Hints.observe_branch h "d" ~taken)
      Hints.empty [ true; true; true; false ]
  in
  let b =
    build ~hints
      "program t\ndef main() { if data d prob 0.1 { comp flops=1 } }"
  in
  let arms =
    find_nodes b.Build.root (fun n ->
        match n.Node.kind with Node.Arm true -> true | _ -> false)
  in
  Alcotest.(check (float 1e-9)) "profiled 0.75 wins" 0.75
    (fst (List.hd arms)).Node.prob

let test_build_function_mounting () =
  let b =
    build
      "program t\n\
       def kernel(m) { for j = 1 to m { comp flops=1 } }\n\
       def main() { call kernel(10)\ncall kernel(20) }"
  in
  let mounts =
    find_nodes b.Build.root (fun n -> n.Node.kind = Node.Func "kernel")
  in
  Alcotest.(check int) "mounted twice" 2 (List.length mounts);
  let trips =
    List.sort compare
      (List.concat_map
         (fun ((n : Node.t), _) ->
           List.map (fun (c : Node.t) -> c.Node.trips) n.Node.children)
         mounts)
  in
  Alcotest.(check (list (float 1e-9))) "per-site contexts" [ 10.; 20. ] trips

let test_build_knob_contexts () =
  (* The paper's Fig. 2 situation: a data branch sets a knob consumed
     by a branch inside a later call; the callee must be analyzed
     under both contexts with the right weights. *)
  let b =
    build
      "program t\n\
       def foo(k) { if (k == 1) { comp flops=100 } else { comp flops=1 } }\n\
       def main() { let knob = 0\n\
       if data cal prob 0.3 { let knob = 1 }\n\
       call foo(knob) }"
  in
  let arms =
    find_nodes b.Build.root (fun n ->
        match (n.Node.kind, n.Node.block) with
        | Node.Arm _, Block_id.Arm (_, _) -> true
        | _ -> false)
  in
  (* cal/then, foo/then (knob=1, p=.3), foo/else (knob=0, p=.7) *)
  let foo_arms =
    List.filter (fun ((n : Node.t), _) -> n.Node.work.Work.flops >= 1.) arms
  in
  let probs =
    List.sort compare (List.map (fun ((n : Node.t), _) -> n.Node.prob) foo_arms)
  in
  Alcotest.(check bool) "both contexts present" true (List.length foo_arms >= 2);
  Alcotest.(check (float 1e-9)) "knob=1 weight" 0.3 (List.nth probs 0);
  Alcotest.(check (float 1e-9)) "knob=0 weight" 0.7 (List.nth probs 1)

let test_build_return_kills_mass () =
  let b =
    build
      "program t\n\
       def main() { if data early prob 0.4 { return }\ncomp flops=10 }"
  in
  (* The trailing comp runs with probability 0.6 only. *)
  let root = b.Build.root in
  Alcotest.(check (float 1e-9)) "root work scaled" 6. root.Node.work.Work.flops

let test_build_break_truncates_loop () =
  let b =
    build
      "program t\n\
       def main() { for i = 1 to 1000 { comp flops=1\nbreak b prob 0.5 } }"
  in
  match find_nodes b.Build.root (fun n -> n.Node.kind = Node.Loop) with
  | [ (n, _) ] ->
    Alcotest.(check (float 1e-6)) "expected trips ~ 2" 2. n.Node.trips
  | _ -> Alcotest.fail "loop node"

let test_build_while_uses_hints () =
  let hints = Hints.observe_loop Hints.empty "w" ~iters:42 in
  let b =
    build ~hints
      "program t\ndef main() { while w prob 0.5 max 1000 { comp flops=1 } }"
  in
  match find_nodes b.Build.root (fun n -> n.Node.kind = Node.Loop) with
  | [ (n, _) ] -> Alcotest.(check (float 1e-9)) "profiled trips" 42. n.Node.trips
  | _ -> Alcotest.fail "loop node"

let test_build_lib_node () =
  let b = build "program t\ndef main() { lib exp scale 50 }" in
  match
    find_nodes b.Build.root (fun n ->
        match n.Node.kind with Node.Libcall "exp" -> true | _ -> false)
  with
  | [ (n, _) ] ->
    Alcotest.(check bool) "scaled work" true (n.Node.work.Work.flops > 100.)
  | _ -> Alcotest.fail "lib node"

let test_build_zero_trip_loop () =
  let b = build "program t\ndef main() { for i = 1 to 0 { comp flops=1 } }" in
  match find_nodes b.Build.root (fun n -> n.Node.kind = Node.Loop) with
  | [ (n, _) ] -> Alcotest.(check (float 1e-9)) "zero trips" 0. n.Node.trips
  | _ -> Alcotest.fail "loop node"

let test_build_size_independent_of_input () =
  let src = "program t\ndef main() { for i = 1 to n { comp flops=1 } }" in
  let small = build ~inputs:[ ("n", Value.I 10) ] src in
  let large = build ~inputs:[ ("n", Value.I 10_000_000) ] src in
  Alcotest.(check int) "same BET size" small.Build.node_count
    large.Build.node_count

let test_build_enr_multiplies () =
  let b =
    build
      "program t\n\
       def main() { for i = 1 to 10 { for j = 1 to 5 { comp flops=1 } } }"
  in
  let inner =
    find_nodes b.Build.root (fun n ->
        n.Node.kind = Node.Loop && n.Node.trips = 5.)
  in
  Alcotest.(check (float 1e-9)) "ENR = 10*5" 50. (snd (List.hd inner))

let suite =
  [
    ( "bet.value",
      [
        Alcotest.test_case "compare" `Quick test_value_compare;
        Alcotest.test_case "truthiness" `Quick test_value_truthy;
        Alcotest.test_case "of_float" `Quick test_value_of_float;
      ] );
    ( "bet.eval",
      [
        Alcotest.test_case "arithmetic" `Quick test_eval_arith;
        Alcotest.test_case "variables" `Quick test_eval_vars;
        Alcotest.test_case "division by zero" `Quick
          test_eval_division_by_zero;
        Alcotest.test_case "comparisons and logic" `Quick
          test_eval_cmp_and_logic;
        Alcotest.test_case "short circuit" `Quick test_eval_short_circuit;
        Alcotest.test_case "unary operators" `Quick test_eval_unops;
        Alcotest.test_case "probability clamped" `Quick test_eval_prob_clamped;
        Alcotest.test_case "pow/mod/minmax mixed" `Quick
          test_eval_pow_and_mod_float;
        Alcotest.test_case "count clamping" `Quick test_eval_count_clamps;
      ] );
    ( "bet.context",
      [
        Alcotest.test_case "normalize merges duplicates" `Quick
          test_context_normalize_merges;
        Alcotest.test_case "cap preserves mass" `Quick
          test_context_normalize_cap_preserves_mass;
        Alcotest.test_case "drops negligible" `Quick
          test_context_normalize_drops_negligible;
        Alcotest.test_case "expectation" `Quick test_context_expect;
        Alcotest.test_case "bind/lookup/unbind" `Quick test_context_bind_lookup;
      ] );
    ( "bet.hints",
      [
        Alcotest.test_case "branch statistics" `Quick test_hints_branch;
        Alcotest.test_case "loop trips and merge" `Quick
          test_hints_loop_and_merge;
      ] );
    ( "bet.math",
      [
        Alcotest.test_case "truncated geometric" `Quick
          test_truncated_geometric;
        Alcotest.test_case "while trips" `Quick test_while_trips;
      ] );
    ( "bet.bst",
      [
        Alcotest.test_case "block table" `Quick test_bst_blocks;
        Alcotest.test_case "total instructions" `Quick
          test_bst_total_instructions;
      ] );
    ( "bet.work",
      [
        Alcotest.test_case "monoid laws" `Quick test_work_monoid;
        Alcotest.test_case "scaling" `Quick test_work_scale;
        Alcotest.test_case "operational intensity" `Quick test_work_intensity;
      ] );
    ( "bet.build",
      [
        Alcotest.test_case "loop trips and work" `Quick
          test_build_single_loop_trips;
        Alcotest.test_case "input-dependent bounds" `Quick
          test_build_input_dependent_bounds;
        Alcotest.test_case "triangular nest midpoint" `Quick
          test_build_nested_triangular;
        Alcotest.test_case "data branch probabilities" `Quick
          test_build_branch_probabilities;
        Alcotest.test_case "static branch resolved" `Quick
          test_build_static_branch_resolved;
        Alcotest.test_case "hints override declared p" `Quick
          test_build_hints_override_declared;
        Alcotest.test_case "function mounting per site" `Quick
          test_build_function_mounting;
        Alcotest.test_case "knob contexts (Fig 2)" `Quick
          test_build_knob_contexts;
        Alcotest.test_case "return kills mass" `Quick
          test_build_return_kills_mass;
        Alcotest.test_case "break truncates trips" `Quick
          test_build_break_truncates_loop;
        Alcotest.test_case "while trips from hints" `Quick
          test_build_while_uses_hints;
        Alcotest.test_case "library node" `Quick test_build_lib_node;
        Alcotest.test_case "zero-trip loop" `Quick test_build_zero_trip_loop;
        Alcotest.test_case "BET size input-independent" `Quick
          test_build_size_independent_of_input;
        Alcotest.test_case "ENR multiplies down the tree" `Quick
          test_build_enr_multiplies;
      ] );
  ]
