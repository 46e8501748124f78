(* Property-based tests (qcheck) on core invariants. *)

open Core.Skeleton
open Core.Bet
open Core.Analysis

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- generators ------------------------------------------------------- *)

let gen_small_int = QCheck.Gen.int_range 0 20

let gen_expr : Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                map (fun i -> Ast.Int i) gen_small_int;
                map (fun f -> Ast.Float (Float.of_int f /. 4.)) gen_small_int;
                oneofl [ Ast.Var "n"; Ast.Var "m" ];
              ]
          else
            frequency
              [
                (2, map (fun i -> Ast.Int i) gen_small_int);
                ( 3,
                  map3
                    (fun op a b -> Ast.Binop (op, a, b))
                    (oneofl
                       Ast.[ Add; Sub; Mul; Div; Mod; Min; Max ])
                    (self (n / 2))
                    (self (n / 2)) );
                ( 1,
                  map3
                    (fun op a b -> Ast.Cmp (op, a, b))
                    (oneofl Ast.[ Lt; Le; Gt; Ge; Eq; Ne ])
                    (self (n / 2))
                    (self (n / 2)) );
                ( 1,
                  map2
                    (fun op a -> Ast.Unop (op, a))
                    (oneofl Ast.[ Neg; Floor; Ceil; Abs ])
                    (self (n - 1)) );
              ])
        (min n 8))

let arbitrary_expr = QCheck.make ~print:(Fmt.str "%a" Pretty.pp_expr) gen_expr

(* Random structured programs built from safe pieces (always valid).
   Statistics names must be unique per site (checked by Validate), so
   a counter mints them. *)
let name_counter = ref 0

let fresh_name prefix =
  incr name_counter;
  Fmt.str "%s%d" prefix !name_counter

let gen_program : Ast.program QCheck.Gen.t =
  let open QCheck.Gen in
  let gen_leaf =
    oneof
      [
        map2
          (fun f i ->
            Builder.comp ~flops:(Ast.Int f) ~iops:(Ast.Int i) ())
          gen_small_int gen_small_int;
        map
          (fun i -> Builder.load [ Builder.a_ "A" [ Ast.Int i ] ])
          gen_small_int;
        map
          (fun i -> Builder.store [ Builder.a_ "A" [ Ast.Int i ] ])
          gen_small_int;
        map (fun i -> Builder.let_ "x" (Ast.Int i)) gen_small_int;
        return (Builder.lib "exp");
      ]
  in
  let rec gen_stmt depth =
    if depth <= 0 then gen_leaf
    else
      frequency
        [
          (4, gen_leaf);
          ( 2,
            map2
              (fun hi body -> Builder.for_ "i" (Ast.Int 1) (Ast.Int hi) body)
              (int_range 0 12)
              (list_size (int_range 1 3) (gen_stmt (depth - 1))) );
          ( 2,
            map3
              (fun p t e ->
                Builder.if_data (fresh_name "d")
                  (Ast.Float (float_of_int p /. 10.))
                  t e)
              (int_range 0 10)
              (list_size (int_range 1 2) (gen_stmt (depth - 1)))
              (list_size (int_range 0 2) (gen_stmt (depth - 1))) );
          ( 1,
            map
              (fun body ->
                Builder.while_ (fresh_name "w") ~p_continue:(Ast.Float 0.5)
                  ~max_iter:(Ast.Int 8) body)
              (list_size (int_range 1 2) (gen_stmt (depth - 1))) );
          ( 1,
            map2
              (fun p body ->
                Builder.for_ "j" (Ast.Int 1) (Ast.Int 10)
                  (Builder.break_ (fresh_name "b")
                     (Ast.Float (float_of_int p /. 10.))
                  :: body))
              (int_range 0 10)
              (list_size (int_range 1 2) (gen_stmt (depth - 1))) );
        ]
  in
  map
    (fun body ->
      Builder.program "prop"
        ~globals:[ Builder.array "A" [ Ast.Int 64 ] ]
        [ Builder.func "main" body ])
    (list_size (int_range 1 5) (gen_stmt 3))

let arbitrary_program =
  QCheck.make ~print:(fun p -> Pretty.to_string p) gen_program

(* --- properties -------------------------------------------------------- *)

let env = Eval.env_of_list [ ("n", Value.I 7); ("m", Value.I 3) ]

let prop_eval_deterministic =
  QCheck.Test.make ~name:"eval is deterministic" ~count:500 arbitrary_expr
    (fun e -> Eval.eval env e = Eval.eval env e)

let prop_eval_total_on_bound_env =
  (* With all variables bound, evaluation only fails on division by
     zero (None), never raises. *)
  QCheck.Test.make ~name:"eval never raises" ~count:500 arbitrary_expr
    (fun e ->
      match Eval.eval env e with Some _ | None -> true)

let prop_expr_pretty_roundtrip =
  QCheck.Test.make ~name:"expression pretty/parse round trip" ~count:500
    arbitrary_expr (fun e ->
      let src =
        Fmt.str "program t\ndef main() { let y = %a }" Pretty.pp_expr e
      in
      let p = Parser.parse ~file:"prop" src in
      match (Ast.entry_func p).Ast.body with
      | [ { Ast.kind = Ast.Let ("y", e2); _ } ] -> e = e2
      | _ -> false)

let prop_program_roundtrip =
  QCheck.Test.make ~name:"program pretty/parse round trip" ~count:200
    arbitrary_program (fun p ->
      let p2 = Parser.parse ~file:"prop" (Pretty.to_string p) in
      Ast.program_size p = Ast.program_size p2
      && Ast.instruction_count p = Ast.instruction_count p2)

let prop_programs_validate =
  QCheck.Test.make ~name:"generated programs validate" ~count:200
    arbitrary_program (fun p -> Validate.check p = [])

let ctx_list_gen =
  let open QCheck.Gen in
  list_size (int_range 1 40)
    (map2
       (fun v m ->
         Context.make
           ~mass:(float_of_int (m + 1) /. 10.)
           [ ("a", Value.I (v mod 5)) ]
           ())
       gen_small_int gen_small_int)

let arbitrary_ctxs =
  QCheck.make
    ~print:(fun cs -> Fmt.str "%a" (Fmt.list Context.pp) cs)
    ctx_list_gen

let prop_normalize_preserves_mass =
  QCheck.Test.make ~name:"context normalize preserves mass" ~count:300
    arbitrary_ctxs (fun cs ->
      let before = Context.mass_of cs in
      let after = Context.mass_of (Context.normalize ~cap:4 cs) in
      Float.abs (before -. after) < 1e-9)

let prop_normalize_caps =
  QCheck.Test.make ~name:"context normalize respects cap" ~count:300
    arbitrary_ctxs (fun cs ->
      List.length (Context.normalize ~cap:3 cs) <= 3)

let prop_normalize_idempotent =
  QCheck.Test.make ~name:"context normalize idempotent" ~count:300
    arbitrary_ctxs (fun cs ->
      let once = Context.normalize ~cap:8 cs in
      let twice = Context.normalize ~cap:8 once in
      List.length once = List.length twice
      && Float.abs (Context.mass_of once -. Context.mass_of twice) < 1e-12)

let prop_truncated_geometric_bounds =
  QCheck.Test.make ~name:"truncated geometric within bounds" ~count:500
    QCheck.(pair (float_bound_inclusive 1.) (float_bound_inclusive 1000.))
    (fun (p, n) ->
      let e = Build.truncated_geometric ~p ~n in
      e >= 0. && e <= n +. 1e-9 && (p <= 0. || e <= (1. /. p) +. 1e-9))

let gen_work =
  let open QCheck.Gen in
  map3
    (fun f i (l, s) ->
      Work.add
        (Work.of_comp ~flops:(float_of_int f) ~iops:(float_of_int i)
           ~divs:(float_of_int (f / 4))
           ~vec:(1 + (i mod 4)))
        (Work.of_mem ~loads:(float_of_int l) ~stores:(float_of_int s)
           ~lbytes:(float_of_int (8 * l))
           ~sbytes:(float_of_int (8 * s))))
    gen_small_int gen_small_int
    (pair gen_small_int gen_small_int)

let arbitrary_work = QCheck.make ~print:(Fmt.str "%a" Work.pp) gen_work

let close a b = Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs a)

let work_close a b =
  close a.Work.flops b.Work.flops
  && close a.Work.iops b.Work.iops
  && close a.Work.divs b.Work.divs
  && close a.Work.loads b.Work.loads
  && close a.Work.stores b.Work.stores
  && close a.Work.lbytes b.Work.lbytes
  && close a.Work.sbytes b.Work.sbytes

let prop_work_assoc =
  QCheck.Test.make ~name:"work addition associative" ~count:300
    QCheck.(triple arbitrary_work arbitrary_work arbitrary_work)
    (fun (a, b, c) ->
      work_close (Work.add a (Work.add b c)) (Work.add (Work.add a b) c))

let prop_work_scale_distributes =
  QCheck.Test.make ~name:"work scaling distributes" ~count:300
    QCheck.(pair arbitrary_work arbitrary_work)
    (fun (a, b) ->
      work_close
        (Work.scale 3. (Work.add a b))
        (Work.add (Work.scale 3. a) (Work.scale 3. b)))

let prop_roofline_nonnegative =
  QCheck.Test.make ~name:"roofline times non-negative and consistent"
    ~count:300 arbitrary_work (fun w ->
      let b = Core.Hw.Roofline.estimate Core.Hw.Machines.bgq w in
      b.Core.Hw.Roofline.tc >= 0.
      && b.Core.Hw.Roofline.tm >= 0.
      && b.Core.Hw.Roofline.t_overlap
         <= Float.min b.Core.Hw.Roofline.tc b.Core.Hw.Roofline.tm +. 1e-15
      && close b.Core.Hw.Roofline.total
           (b.Core.Hw.Roofline.tc +. b.Core.Hw.Roofline.tm
           -. b.Core.Hw.Roofline.t_overlap))

(* Cache vs a naive reference model. *)
let reference_lru ~sets ~assoc ~line addrs =
  let state = Array.make sets [] in
  let misses = ref 0 in
  List.iter
    (fun addr ->
      let lineno = addr / line in
      let set = lineno mod sets in
      let ways = state.(set) in
      if List.mem lineno ways then
        state.(set) <- lineno :: List.filter (fun t -> t <> lineno) ways
      else begin
        incr misses;
        let ways = lineno :: ways in
        state.(set) <-
          (if List.length ways > assoc then
             List.filteri (fun i _ -> i < assoc) ways
           else ways)
      end)
    addrs;
  !misses

let prop_cache_matches_reference =
  QCheck.Test.make ~name:"cache simulator matches reference LRU" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 300) (QCheck.int_bound 4095))
    (fun addrs ->
      let level =
        {
          Core.Hw.Machine.size_bytes = 512;
          line_bytes = 32;
          assoc = 2;
          latency_cycles = 1.;
        }
      in
      let c = Core.Sim.Cache.create level in
      List.iter (fun a -> ignore (Core.Sim.Cache.access c ~addr:a)) addrs;
      let expected = reference_lru ~sets:8 ~assoc:2 ~line:32 addrs in
      Core.Sim.Cache.misses c = expected)

let gen_blockstats =
  let open QCheck.Gen in
  list_size (int_range 1 30)
    (map3
       (fun i t s ->
         Blockstat.make
           ~block:(Block_id.Loop i)
           ~name:(Fmt.str "b%d" i)
           ~time:(float_of_int t /. 7.)
           ~static_size:(1 + s) ())
       (int_range 0 1000) (int_range 0 100) (int_range 0 30))

let arbitrary_blockstats =
  QCheck.make
    ~print:(fun l -> Fmt.str "%a" (Fmt.list Blockstat.pp) l)
    gen_blockstats

let prop_selection_invariants =
  QCheck.Test.make ~name:"hot spot selection invariants" ~count:300
    arbitrary_blockstats (fun blocks ->
      let total_instructions = 200 in
      let sel = Hotspot.select ~total_instructions blocks in
      let sizes =
        List.fold_left
          (fun acc s -> acc + s.Hotspot.stat.Blockstat.static_size)
          0 sel.Hotspot.spots
      in
      (* leanness bound *)
      float_of_int sizes
      <= (0.10 *. float_of_int total_instructions) +. 1e-9
      (* spots ranked by decreasing time *)
      && fst
           (List.fold_left
              (fun (ok, prev) s ->
                (ok && s.Hotspot.stat.Blockstat.time <= prev +. 1e-12,
                 s.Hotspot.stat.Blockstat.time))
              (true, Float.infinity) sel.Hotspot.spots)
      (* cumulative coverage consistent *)
      && fst
           (List.fold_left
              (fun (ok, cum) (s : Hotspot.spot) ->
                let cum = cum +. s.Hotspot.coverage in
                (ok && Float.abs (cum -. s.Hotspot.cum_coverage) < 1e-9, cum))
              (true, 0.) sel.Hotspot.spots))

let prop_quality_range =
  QCheck.Test.make ~name:"quality within [0,1], self = 1" ~count:300
    QCheck.(pair arbitrary_blockstats arbitrary_blockstats)
    (fun (measured, candidate) ->
      let q = Quality.quality ~measured ~candidate ~k:5 in
      let qself = Quality.quality ~measured ~candidate:measured ~k:5 in
      q >= 0. && q <= 1. +. 1e-9 && Float.abs (qself -. 1.) < 1e-9)

let prop_bet_mass_conservation =
  (* Total root work of a generated program is finite and the build
     never raises; node probabilities stay in [0,1]. *)
  QCheck.Test.make ~name:"BET probabilities within [0,1]" ~count:150
    arbitrary_program (fun p ->
      let b =
        Build.build ~lib_work:(Core.Hw.Libmix.work_fn Core.Hw.Libmix.default) p
      in
      List.for_all
        (fun ((n : Node.t), enr) ->
          n.Node.prob >= -1e-9
          && n.Node.prob <= 1. +. 1e-9
          && n.Node.trips >= -1e-9
          && enr >= -1e-9 && Float.is_finite enr)
        (Node.to_list_enr b.Build.root))

let prop_bet_enr_matches_simulated_execs =
  (* Feed one simulated profile back into the BET: the projected
     expected repetitions per block must then match the simulator's
     observed execution counts (exactly for deterministic control
     flow, within sampling noise for data-dependent branches). *)
  QCheck.Test.make ~name:"BET ENR matches simulated executions" ~count:60
    arbitrary_program (fun p ->
      let config = Core.Sim.Interp.default_config ~seed:9L () in
      let sim = Core.Sim.Interp.run ~config ~inputs:[] p in
      let built =
        Build.build ~hints:sim.Core.Sim.Interp.hints
          ~lib_work:(Core.Hw.Libmix.work_fn Core.Hw.Libmix.default)
          p
      in
      (* Aggregate ENR per block id. *)
      let enr_tbl = Hashtbl.create 16 in
      Node.iter_enr
        (fun node ~enr ->
          let prev =
            Option.value ~default:0. (Hashtbl.find_opt enr_tbl node.Node.block)
          in
          Hashtbl.replace enr_tbl node.Node.block (prev +. enr))
        built.Build.root;
      List.for_all
        (fun (b : Blockstat.t) ->
          let measured = b.Blockstat.enr in
          let projected =
            Option.value ~default:0.
              (Hashtbl.find_opt enr_tbl b.Blockstat.block)
          in
          (* Generated branch probabilities are multiples of 0.1 over
             small loops: allow sampling noise plus slack for nested
             break/continue interactions. *)
          let tol = 4. *. Float.sqrt (measured +. 1.) +. (0.25 *. measured) in
          Float.abs (measured -. projected) <= tol)
        sim.Core.Sim.Interp.blocks)

let prop_sim_model_total_positive =
  (* Any generated program simulates without raising and yields
     non-negative time on both machines. *)
  QCheck.Test.make ~name:"simulator total time non-negative" ~count:60
    arbitrary_program (fun p ->
      let config = Core.Sim.Interp.default_config ~seed:3L () in
      let r = Core.Sim.Interp.run ~config ~inputs:[] p in
      r.Core.Sim.Interp.total_time >= 0. && Float.is_finite r.Core.Sim.Interp.total_time)

let suite =
  [
    ( "props",
      List.map to_alcotest
        [
          prop_eval_deterministic;
          prop_eval_total_on_bound_env;
          prop_expr_pretty_roundtrip;
          prop_program_roundtrip;
          prop_programs_validate;
          prop_normalize_preserves_mass;
          prop_normalize_caps;
          prop_normalize_idempotent;
          prop_truncated_geometric_bounds;
          prop_work_assoc;
          prop_work_scale_distributes;
          prop_roofline_nonnegative;
          prop_cache_matches_reference;
          prop_selection_invariants;
          prop_quality_range;
          prop_bet_mass_conservation;
          prop_bet_enr_matches_simulated_execs;
          prop_sim_model_total_positive;
        ] );
  ]
