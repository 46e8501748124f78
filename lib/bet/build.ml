(** Bayesian Execution Tree construction (paper §IV-B).

    The builder conceptually traverses the BST from the entry function,
    threading a set of weighted contexts:

    - at each function call the callee's tree is mounted in place with
      arguments evaluated in the caller's contexts;
    - a loop becomes a {e single} node carrying its expected trip
      count — the body is modeled once with the loop variable bound to
      the midpoint of its range, so analysis cost is independent of the
      input size;
    - branches split context mass; [let] under different outcomes makes
      contexts diverge, and identical contexts re-merge;
    - [return] moves mass out of the function, [break]/[continue]
      promote their probability to the enclosing loop; the expected
      trip count of a breaking loop is the truncated-geometric
      expectation [(1-(1-p)^n)/p].

    One walk serves two models.  [Make] is parameterized by a
    {!DOMAIN} that carries a companion next to every quantity the walk
    computes: [build] is the plain instance, whose companions are all
    [unit], and the audit's symbolic model is the instance whose
    companions are closed forms over the input parameters. *)

open Skope_skeleton
module Smap = Eval.Smap

type result = {
  root : Node.t;
  bst : Bst.t;
  node_count : int;
  warnings : string list;
}

(** Expected trips of a loop over at most [n] iterations when each
    iteration exits early with probability [p]. *)
let truncated_geometric ~p ~n =
  if n <= 0. then 0.
    (* Below ~1e-12 the cancellation in [1 - (1-p)^n] loses all
       precision; the limit is simply [n]. *)
  else if p <= 1e-12 then n
  else if p >= 1. then 1.
  else Float.min n ((1. -. ((1. -. p) ** n)) /. p)

(** Expected trips of a [while] loop continuing with probability [p]
    per iteration, capped at [n] iterations (first iteration always
    runs). *)
let while_trips ~p ~n =
  if n <= 0. then 0.
  else if p >= 1. then n
  else if p <= 0. then 1.
  else Float.min n ((1. -. (p ** n)) /. (1. -. p))

module type DOMAIN = sig
  type env
  type value
  type num
  type work
  type node

  val inputs : (string * Value.t) list -> env
  val value : env -> Ast.expr -> Value.t -> value
  val value_lit : Value.t -> value
  val bind : env -> string -> value -> env
  val unbind : env -> string -> env
  val lit : float -> num
  val once : num
  val count : env Context.t list -> Ast.expr -> float -> num
  val weigh : num -> float -> num -> num
  val per : num -> float -> num
  val expect : default:float -> env Context.t list -> Ast.expr -> num

  val range :
    env -> lo:Ast.expr -> hi:Ast.expr -> step:Ast.expr ->
    Value.t * Value.t * Value.t -> n:float -> mid:Value.t -> num * value

  val while_trips : p:float -> n:float -> num -> num
  val truncated_geometric : p:float -> n:float -> num -> num
  val check : float -> num -> num
  val no_work : work
  val add_comp : work -> flops:num -> iops:num -> divs:num -> vec:int -> work
  val add_lit : work -> Work.t -> work
  val touch : work -> Ast.access list -> (Ast.access -> float) -> work
  val lib : num -> Work.t option -> work

  val node :
    id:int -> block:Block_id.t -> kind:Node.kind -> prob:float -> note:string ->
    trips:float -> num -> work:Work.t -> work -> node list -> node

  val retrip : node -> float -> num -> node
end

module Make (D : DOMAIN) = struct
  type flow = {
    live : D.env Context.t list;
    returned : float;
    broke : float;
    continued : float;
  }

  type state = {
    program : Ast.program;
    hints : Hints.t;
    lib_work : string -> Work.t option;
    cap : int;
    mutable next_id : int;
    mutable warnings : string list;
    global_bindings : (string * Value.t) list;
    global_cenv : D.env;
    global_abytes : int Smap.t;
  }

  let warn st fmt =
    Fmt.kstr (fun m -> if not (List.mem m st.warnings) then st.warnings <- m :: st.warnings) fmt

  let fresh st =
    let id = st.next_id in
    st.next_id <- id + 1;
    id

  let abytes_of st (arrays : Ast.array_decl list) =
    List.fold_left
      (fun m (a : Ast.array_decl) -> Smap.add a.aname a.elem_bytes m)
      st.global_abytes arrays

  let empty_flow live = { live; returned = 0.; broke = 0.; continued = 0. }

  (* Mass-weighted sum of [e] over contexts, normalized by [entry_mass]:
     the expected per-execution contribution of a conditionally-reached
     statement. *)
  let weighted_count st entry_mass ctxs e =
    List.fold_left
      (fun acc (c : D.env Context.t) ->
        match Eval.eval c.env e with
        | Some v -> acc +. (c.mass *. Float.max 0. (Value.to_float v))
        | None ->
          warn st "count expression did not evaluate; treated as 0";
          acc)
      0. ctxs
    /. entry_mass

  (* A loop node's effective trips once its body's exits are known:
     [break] and [return] truncate the expected count geometrically, and
     mass returning from inside the loop exits the function for good, so
     the surviving contexts are thinned accordingly. *)
  let exit_loop ~flow ~live ~live_mass ~add_child node bflow ~body_mass ~trips ~trips_c =
    let p_exit = (bflow.broke +. bflow.returned) /. body_mass in
    let trips_eff = Float.min trips (truncated_geometric ~p:p_exit ~n:trips) in
    add_child
      (D.retrip node trips_eff
         (D.check trips_eff (D.truncated_geometric ~p:p_exit ~n:trips trips_c)));
    let p_ret_iter = bflow.returned /. body_mass in
    let surv = (1. -. p_ret_iter) ** trips_eff in
    let live =
      if surv >= 1. then live
      else List.map (fun c -> Context.scale c surv) live
    in
    {
      live;
      returned = flow.returned +. (live_mass *. (1. -. surv));
      broke = flow.broke;
      continued = flow.continued;
    }

  (* Builds the node for one code block: processes [stmts] under [ctxs],
     accumulating exclusive work and creating child nodes. [entry_mass]
     is the total mass entering the block (for normalizing conditional
     statements inside it). *)
  let rec build_region st ~kind ~block ~prob ~trips ~trips_c ~note ~abytes ~ctxs
      ~stmts : D.node * flow =
    let entry_mass = Context.mass_of ctxs in
    let work = ref Work.zero and work_c = ref D.no_work in
    let children = ref [] in
    let add_child c = children := c :: !children in
    let flow =
      if entry_mass <= 0. then empty_flow ctxs
      else
        List.fold_left
          (fun flow stmt ->
            if Context.mass_of flow.live <= 0. then flow
            else build_stmt st ~entry_mass ~abytes ~work ~work_c ~add_child flow stmt)
          (empty_flow ctxs) stmts
    in
    let node =
      D.node ~id:(fresh st) ~block ~kind ~prob ~note ~trips trips_c ~work:!work !work_c
        (List.rev !children)
    in
    (node, flow)

  and build_stmt st ~entry_mass ~abytes ~work ~work_c ~add_child flow (s : Ast.stmt) :
      flow =
    let live = flow.live in
    let live_mass = Context.mass_of live in
    match s.kind with
    | Ast.Comp { flops; iops; divs; vec } ->
      let w e = weighted_count st entry_mass live e in
      let c e = D.count live e entry_mass in
      work :=
        Work.add !work
          (Work.of_comp ~flops:(w flops) ~iops:(w iops) ~divs:(w divs) ~vec);
      work_c := D.add_comp !work_c ~flops:(c flops) ~iops:(c iops) ~divs:(c divs) ~vec;
      flow
    | Ast.Mem { loads; stores } ->
      let frac = live_mass /. entry_mass in
      let elem_bytes (a : Ast.access) =
        match Smap.find_opt a.array abytes with
        | Some eb -> eb
        | None ->
          warn st "access to undeclared array %s; assuming 8 bytes" a.array;
          8
      in
      let count_side accesses =
        let n = float_of_int (List.length accesses) *. frac in
        let bytes =
          List.fold_left (fun acc a -> acc +. float_of_int (elem_bytes a)) 0. accesses
          *. frac
        in
        (n, bytes)
      in
      let nl, lb = count_side loads in
      let ns, sb = count_side stores in
      let w = Work.of_mem ~loads:nl ~stores:ns ~lbytes:lb ~sbytes:sb in
      let moved a = float_of_int (elem_bytes a) *. frac in
      work := Work.add !work w;
      work_c := D.touch (D.touch (D.add_lit !work_c w) loads moved) stores moved;
      flow
    | Ast.Let (v, e) ->
      let w = { Work.zero with iops = live_mass /. entry_mass } in
      work := Work.add !work w;
      work_c := D.add_lit !work_c w;
      let live =
        List.map
          (fun (c : D.env Context.t) ->
            match Eval.eval c.env e with
            | Some value -> Context.bind c v value (D.bind c.cenv v (D.value c.cenv e value))
            | None ->
              warn st "let %s: rhs did not evaluate; variable left unbound" v;
              Context.unbind c v (D.unbind c.cenv v))
          live
      in
      { flow with live = Context.normalize ~cap:st.cap live }
    | Ast.If { cond; then_; else_ } ->
      let t_ctxs, f_ctxs = split_cond st live cond in
      let arm which ctxs stmts =
        if stmts = [] then empty_flow ctxs
        else begin
          let prob = Context.mass_of ctxs /. entry_mass in
          if prob <= 0. then empty_flow []
          else begin
            let node, aflow =
              build_region st ~kind:(Node.Arm which)
                ~block:(Block_id.Arm (s.sid, which))
                ~prob ~trips:1. ~trips_c:D.once ~note:"" ~abytes ~ctxs ~stmts
            in
            add_child node;
            aflow
          end
        end
      in
      let tf = arm true t_ctxs then_ in
      let ff = arm false f_ctxs else_ in
      {
        live = Context.normalize ~cap:st.cap (tf.live @ ff.live);
        returned = flow.returned +. tf.returned +. ff.returned;
        broke = flow.broke +. tf.broke +. ff.broke;
        continued = flow.continued +. tf.continued +. ff.continued;
      }
    | Ast.For { var; lo; hi; step; body } ->
      let prob = live_mass /. entry_mass in
      (* Per-context trip count and midpoint binding. *)
      let trips_of (c : D.env Context.t) =
        match (Eval.eval c.env lo, Eval.eval c.env hi, Eval.eval c.env step) with
        | Some lov, Some hiv, Some stv ->
          let lof = Value.to_float lov
          and hif = Value.to_float hiv
          and stf = Value.to_float stv in
          if stf <= 0. then (
            warn st "loop at %s has non-positive step; 0 trips assumed"
              (Loc.to_string s.loc);
            (c, 0., D.lit 0., lov, D.value_lit lov))
          else
            let n = Float.max 0. (Float.floor ((hif -. lof) /. stf) +. 1.) in
            let mid =
              Value.of_float (lof +. (stf *. Float.floor ((n -. 1.) /. 2.)))
            in
            let n_c, mid_c = D.range c.cenv ~lo ~hi ~step (lov, hiv, stv) ~n ~mid in
            (c, n, n_c, mid, mid_c)
        | _ ->
          warn st "loop bounds at %s did not evaluate; 1 trip assumed"
            (Loc.to_string s.loc);
          (c, 1., D.lit 1., Value.I 0, D.value_lit (Value.I 0))
      in
      let per_ctx = List.map trips_of live in
      let n_expected =
        List.fold_left (fun acc (c, n, _, _, _) -> acc +. (c.Context.mass *. n)) 0. per_ctx
        /. live_mass
      in
      let n_expected_c =
        D.per
          (List.fold_left
             (fun acc (c, _, n_c, _, _) -> D.weigh acc c.Context.mass n_c)
             (D.lit 0.) per_ctx)
          live_mass
      in
      let body_ctxs =
        List.filter_map
          (fun (c, n, _, mid, mid_c) ->
            if n <= 0. then None else Some (Context.bind c var mid (D.bind c.cenv var mid_c)))
          per_ctx
      in
      let note =
        Fmt.str "%s=%a..%a x%.6g" var Pretty.pp_expr lo Pretty.pp_expr hi
          n_expected
      in
      if n_expected <= 0. || body_ctxs = [] then begin
        let node, _ =
          build_region st ~kind:Node.Loop ~block:(Block_id.Loop s.sid) ~prob
            ~trips:0. ~trips_c:(D.lit 0.) ~note ~abytes ~ctxs:[] ~stmts:[]
        in
        add_child node;
        flow
      end
      else begin
        let node, bflow =
          build_region st ~kind:Node.Loop ~block:(Block_id.Loop s.sid) ~prob
            ~trips:n_expected ~trips_c:n_expected_c ~note ~abytes
            ~ctxs:(Context.normalize ~cap:st.cap body_ctxs)
            ~stmts:body
        in
        let body_mass = Context.mass_of body_ctxs in
        exit_loop ~flow ~live ~live_mass ~add_child node bflow ~body_mass
          ~trips:n_expected ~trips_c:n_expected_c
      end
    | Ast.While { name; p_continue; max_iter; body } ->
      let prob = live_mass /. entry_mass in
      let p_declared = Context.expect_prob live p_continue in
      let nmax = Float.max 0. (Context.expect live max_iter) in
      let trips_declared = while_trips ~p:p_declared ~n:nmax in
      let trips =
        Hints.loop_trips st.hints name ~default:trips_declared
      in
      let trips_c =
        if Float.equal trips trips_declared then
          D.while_trips ~p:p_declared ~n:nmax (D.expect ~default:0. live max_iter)
        else D.lit trips
      in
      let note = Fmt.str "while %s x%.6g" name trips in
      let node, bflow =
        build_region st ~kind:Node.Loop ~block:(Block_id.Loop s.sid) ~prob
          ~trips ~trips_c ~note ~abytes ~ctxs:live ~stmts:body
      in
      exit_loop ~flow ~live ~live_mass ~add_child node bflow
        ~body_mass:(Float.max live_mass 1e-300) ~trips ~trips_c
    | Ast.Call (fname, args) -> (
      match Ast.find_func st.program fname with
      | exception Not_found ->
        warn st "call to undefined function %s ignored" fname;
        flow
      | callee ->
        let prob = live_mass /. entry_mass in
        let callee_ctxs =
          List.map
            (fun (c : D.env Context.t) ->
              let cenv = ref st.global_cenv in
              let bindings =
                List.filter_map
                  (fun (param, arg) ->
                    match Eval.eval c.env arg with
                    | Some v ->
                      cenv := D.bind !cenv param (D.value c.cenv arg v);
                      Some (param, v)
                    | None ->
                      warn st "argument %s of %s did not evaluate" param fname;
                      None)
                  (List.combine callee.params
                     (if List.length args = List.length callee.params then args
                      else (
                        warn st "arity mismatch calling %s" fname;
                        List.init (List.length callee.params) (fun _ -> Ast.Int 0))))
              in
              Context.make ~mass:c.mass (st.global_bindings @ bindings) !cenv)
            live
        in
        let note =
          Fmt.str "%s(%s)" fname
            (String.concat ","
               (List.map (fun a -> Fmt.str "%a" Pretty.pp_expr a) args))
        in
        let node, _callee_flow =
          build_region st ~kind:(Node.Func fname) ~block:(Block_id.Fn fname)
            ~prob ~trips:1. ~trips_c:D.once ~note
            ~abytes:(abytes_of st callee.arrays)
            ~ctxs:(Context.normalize ~cap:st.cap callee_ctxs)
            ~stmts:callee.body
        in
        add_child node;
        (* Returns inside the callee are absorbed at the function
           boundary; the caller's contexts continue unchanged. *)
        flow)
    | Ast.Lib { name; args = _; scale } ->
      let prob = live_mass /. entry_mass in
      let scale_v = Float.max 0. (Context.expect ~default:1. live scale) in
      let scale_c = D.check scale_v (D.expect ~default:1. live scale) in
      let profile = st.lib_work name in
      let w =
        match profile with
        | Some w -> Work.scale scale_v w
        | None ->
          warn st "no instruction-mix profile for library function %s" name;
          Work.zero
      in
      add_child
        (D.node ~id:(fresh st) ~block:(Block_id.Libc s.sid) ~kind:(Node.Libcall name)
           ~prob ~note:(Fmt.str "scale=%.6g" scale_v) ~trips:1. D.once ~work:w
           (D.lib scale_c profile) []);
      flow
    | Ast.Return ->
      { flow with live = []; returned = flow.returned +. live_mass }
    | Ast.Break { name; p } ->
      let p_v = Hints.branch_prob st.hints name ~default:(Context.expect_prob live p) in
      {
        flow with
        live = List.map (fun c -> Context.scale c (1. -. p_v)) live;
        broke = flow.broke +. (live_mass *. p_v);
      }
    | Ast.Continue { name; p } ->
      let p_v = Hints.branch_prob st.hints name ~default:(Context.expect_prob live p) in
      {
        flow with
        live = List.map (fun c -> Context.scale c (1. -. p_v)) live;
        continued = flow.continued +. (live_mass *. p_v);
      }

  and split_cond st (live : D.env Context.t list) (cond : Ast.cond) =
    match cond with
    | Ast.Cexpr e ->
      List.fold_left
        (fun (ts, fs) (c : D.env Context.t) ->
          match Eval.eval c.env e with
          | Some v -> if Value.truthy v then (c :: ts, fs) else (ts, c :: fs)
          | None ->
            warn st "branch condition did not evaluate; 50/50 split assumed";
            (Context.scale c 0.5 :: ts, Context.scale c 0.5 :: fs))
        ([], []) live
      |> fun (ts, fs) -> (List.rev ts, List.rev fs)
    | Ast.Cdata { name; p } ->
      let p_v =
        Hints.branch_prob st.hints name ~default:(Context.expect_prob live p)
      in
      ( List.filter_map
          (fun c -> if p_v > 0. then Some (Context.scale c p_v) else None)
          live,
        List.filter_map
          (fun c -> if p_v < 1. then Some (Context.scale c (1. -. p_v)) else None)
          live )

  let build ?(hints = Hints.empty) ?(lib_work = fun _ -> None)
      ?(max_contexts = 64) ?(inputs = []) (program : Ast.program) =
    Skope_telemetry.Span.with_ ~name:"bet_build" (fun () ->
        let global_abytes =
          List.fold_left
            (fun m (a : Ast.array_decl) -> Smap.add a.aname a.elem_bytes m)
            Smap.empty program.globals
        in
        let st =
          {
            program;
            hints;
            lib_work;
            cap = max_contexts;
            next_id = 0;
            warnings = [];
            global_bindings = inputs;
            global_cenv = D.inputs inputs;
            global_abytes;
          }
        in
        let entry = Ast.entry_func program in
        let root, _flow =
          build_region st ~kind:(Node.Func entry.fname)
            ~block:(Block_id.Fn entry.fname) ~prob:1. ~trips:1. ~trips_c:D.once
            ~note:"entry" ~abytes:(abytes_of st entry.arrays)
            ~ctxs:[ Context.make ~mass:1.0 inputs st.global_cenv ]
            ~stmts:entry.body
        in
        Skope_telemetry.Span.count "bet_nodes_built" (float_of_int st.next_id);
        (root, List.rev st.warnings))
end

(* The plain BET: every companion is [unit]. *)
module Plain = Make (struct
  type env = unit
  type value = unit
  type num = unit
  type work = unit
  type node = Node.t

  let inputs _ = ()
  let value () _ _ = ()
  let value_lit _ = ()
  let bind () _ () = ()
  let unbind () _ = ()
  let lit _ = ()
  let once = ()
  let count _ _ _ = ()
  let weigh () _ () = ()
  let per () _ = ()
  let expect ~default:_ _ _ = ()
  let range () ~lo:_ ~hi:_ ~step:_ _ ~n:_ ~mid:_ = ((), ())
  let while_trips ~p:_ ~n:_ () = ()
  let truncated_geometric ~p:_ ~n:_ () = ()
  let check _ () = ()
  let no_work = ()
  let add_comp () ~flops:() ~iops:() ~divs:() ~vec:_ = ()
  let add_lit () _ = ()
  let touch () _ _ = ()
  let lib () _ = ()

  let node ~id ~block ~kind ~prob ~note ~trips () ~work () children =
    { Node.id; block; kind; prob; trips; work; note; children }

  let retrip n trips () = { n with Node.trips }
end)

(** Build the BET for [program].

    [inputs] supplies the entry-point parameters and any global
    constants (the paper's "hint file" of input sizes); they are
    visible in every function.  [hints] carries profiled branch
    statistics; [lib_work] maps a library function name to its
    per-unit-scale instruction mix (§IV-C).  [max_contexts] caps the
    number of simultaneously tracked contexts per program point. *)
let build ?hints ?lib_work ?max_contexts ?inputs (program : Ast.program) : result =
  let root, warnings = Plain.build ?hints ?lib_work ?max_contexts ?inputs program in
  { root; bst = Bst.build program; node_count = Node.size root; warnings }
