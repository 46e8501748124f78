open Skope_skeleton
open Ast
module I = Interval
module Value = Skope_bet.Value
module Smap = Map.Make (String)
module Sset = Set.Make (String)

type config = { disabled : string list; hints : string list }

let default_config = { disabled = []; hints = [] }

let rules =
  [
    ("L001", "loop never executes or its step is not positive");
    ("L002", "possible division by zero");
    ("L003", "probability outside [0, 1]");
    ("L004", "array index possibly out of bounds");
    ("L005", "statically dead branch");
    ("L006", "comp statement models zero work");
    ("L007", "function unreachable from the entry point");
    ("L008", "data-dependent construct without a profile hint");
    ("L009", "while loop with p_continue = 1 and no finite cap");
    ("L010", "send and receive volumes can never balance");
    ("L011", "lint stopped at its statement-visit budget");
  ]

(* A function is reached from several call contexts, so a branch
   condition can be decided in one context and open in another.  L005
   only fires when every visit of the checking walk agreed — tracked
   per statement id.  The condition is printed only if it fires. *)
type verdict = {
  v_loc : Loc.t;
  v_cond : expr;
  v_fname : string;
  mutable all_true : bool;
  mutable all_false : bool;
}

(* Statement visits per run, discovery walks included, so that a
   pathological call tree cannot hang the linter. *)
let max_visits = 200_000

(* Mutable pass state.  [sends]/[recvs] accumulate (site, volume)
   pairs for L010; [budget] counts down from [max_visits], and
   [stopped_at] is the first statement it refused (L011). *)
type st = {
  disabled : Sset.t;
  hints : Sset.t;
  funcs : func Smap.t;
  global_arrays : array_decl Smap.t;
  base_env : I.t Smap.t;
  verdicts : (int, verdict) Hashtbl.t;
  mutable diags : Diagnostic.t list;
  mutable sends : (Loc.t * I.t) list;
  mutable recvs : (Loc.t * I.t) list;
  mutable budget : int;
  mutable stopped_at : Loc.t option;
}

(* A diagnostic's text is built only when it is kept: a disabled
   code's message is consumed unformatted and its notes never forced. *)
let emit st ~code ~severity ~loc ?(notes = fun () -> []) fmt =
  if Sset.mem code st.disabled then Format.ikfprintf ignore Fmt.stderr fmt
  else
    Fmt.kstr
      (fun message ->
        st.diags <-
          Diagnostic.make ~notes:(notes ()) ~code ~severity ~loc message
          :: st.diags)
      fmt

let expr_str e = Fmt.str "%a" Pretty.pp_expr e
let in_function fname = Fmt.str "in function `%s`" fname

let arrays_of st (f : func) =
  List.fold_left
    (fun m (a : array_decl) -> Smap.add a.aname a m)
    st.global_arrays f.arrays

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

(* --- abstract evaluation -------------------------------------------- *)

let of_tri = function
  | I.True -> I.of_bool true
  | I.False -> I.of_bool false
  | I.Unknown -> I.make 0. 1.

let rec eval env e =
  match e with
  | Int n -> I.of_int n
  | Float f -> I.of_float f
  | Bool b -> I.of_bool b
  | Var v -> ( match Smap.find_opt v env with Some i -> i | None -> I.top)
  | Binop (op, a, b) ->
    let f =
      match op with
      | Add -> I.add
      | Sub -> I.sub
      | Mul -> I.mul
      | Div -> I.div
      | Mod -> I.rem
      | Min -> I.min_
      | Max -> I.max_
      | Pow -> I.pow
    in
    f (eval env a) (eval env b)
  | (Cmp _ | And _ | Or _) as e -> of_tri (truth env e)
  | Unop (op, a) -> (
    match op with
    | Neg -> I.neg (eval env a)
    | Not -> of_tri (I.tri_not (truth env a))
    | Floor -> I.floor_ (eval env a)
    | Ceil -> I.ceil_ (eval env a)
    | Sqrt -> I.sqrt_ (eval env a)
    | Log2 -> I.log2_ (eval env a)
    | Abs -> I.abs_ (eval env a))

and truth env e =
  match e with
  | Bool b -> if b then I.True else I.False
  | Cmp (op, a, b) ->
    let f =
      match op with
      | Lt -> I.lt
      | Le -> I.le
      | Gt -> I.gt
      | Ge -> I.ge
      | Eq -> I.eq
      | Ne -> I.ne
    in
    f (eval env a) (eval env b)
  | And (a, b) -> I.tri_and (truth env a) (truth env b)
  | Or (a, b) -> I.tri_or (truth env a) (truth env b)
  | Unop (Not, a) -> I.tri_not (truth env a)
  | e -> I.truthy (eval env e)

(* --- branch-condition environment refinement ------------------------ *)

let flip_op = function
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le
  | Eq -> Eq
  | Ne -> Ne

let negate_op = function
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt
  | Eq -> Ne
  | Ne -> Eq

let refine_var env v op bound =
  let cur = match Smap.find_opt v env with Some i -> i | None -> I.top in
  let constrained =
    match op with
    | Lt | Le -> I.make neg_infinity bound.I.hi
    | Gt | Ge -> I.make bound.I.lo infinity
    | Eq -> bound
    | Ne -> cur
  in
  match I.meet cur constrained with
  | Some m -> Smap.add v m env
  | None -> env (* contradictory branch; leave unrefined *)

(* Conservatively narrow [env] under the assumption that [cond] is
   [positive].  Only simple var-vs-expression comparisons refine;
   anything else leaves the environment unchanged (sound: refinement
   only ever meets). *)
let rec refine env cond positive =
  match cond with
  | Unop (Not, a) -> refine env a (not positive)
  | And (a, b) when positive -> refine (refine env a true) b true
  | Or (a, b) when not positive -> refine (refine env a false) b false
  | Cmp (op, Var v, rhs) ->
    let op = if positive then op else negate_op op in
    refine_var env v op (eval env rhs)
  | Cmp (op, lhs, Var v) ->
    let op = flip_op (if positive then op else negate_op op) in
    refine_var env v op (eval env lhs)
  | _ -> env

(* --- per-construct checks ------------------------------------------- *)

(* L002: every division or modulus anywhere in a statement's
   expressions.  Top divisors are skipped — "we know nothing" is not
   evidence of a zero. *)
let rec check_div st env loc ~fname e =
  match e with
  | Int _ | Float _ | Bool _ | Var _ -> ()
  | Binop (op, a, b) -> (
    check_div st env loc ~fname a;
    check_div st env loc ~fname b;
    match op with
    | Div | Mod -> (
      let d = eval env b in
      match I.const d with
      | Some 0. ->
        emit st ~code:"L002" ~severity:Diagnostic.Error ~loc
          ~notes:(fun () ->
            [
              Fmt.str "divisor `%s` is always 0" (expr_str b);
              in_function fname;
            ])
          "division by zero"
      | _ ->
        if I.contains d 0. && not (I.is_top d) then
          emit st ~code:"L002" ~severity:Diagnostic.Warning ~loc
            ~notes:(fun () ->
              [
                Fmt.str "divisor `%s` has interval %s" (expr_str b)
                  (I.to_string d);
                in_function fname;
              ])
            "possible division by zero")
    | _ -> ())
  | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
    check_div st env loc ~fname a;
    check_div st env loc ~fname b
  | Unop (_, a) -> check_div st env loc ~fname a

(* L003.  [what] prints the construct's label into the message. *)
let check_prob st env loc ~fname ~what p =
  let i = eval env p in
  let notes () =
    [
      Fmt.str "`%s` evaluates to %s" (expr_str p) (I.to_string i);
      in_function fname;
    ]
  in
  if i.I.lo > 1. || i.I.hi < 0. then
    emit st ~code:"L003" ~severity:Diagnostic.Error ~loc ~notes
      "%t probability is outside [0, 1]" what
  else if
    (Float.is_finite i.I.hi && i.I.hi > 1.)
    || (Float.is_finite i.I.lo && i.I.lo < 0.)
  then
    emit st ~code:"L003" ~severity:Diagnostic.Warning ~loc ~notes
      "%t probability may fall outside [0, 1]" what

(* L008 *)
let check_hint st loc ~fname ~what name =
  if not (Sset.mem name st.hints) then
    emit st ~code:"L008" ~severity:Diagnostic.Info ~loc
      ~notes:(fun () -> [ in_function fname ])
      "%s `%s` has no profile hint; projection will trust the declared \
       probability"
      what name

(* L004 *)
let check_access st env arrays loc ~fname ({ array; index } : access) =
  match Smap.find_opt array arrays with
  | None -> () (* Validate's V003 *)
  | Some decl ->
    if List.length index = List.length decl.dims then
      List.iteri
        (fun k idx ->
          let iv = eval env idx in
          let dv = eval env (List.nth decl.dims k) in
          let notes () =
            [
              Fmt.str "index `%s` evaluates to %s; the dimension is %s"
                (expr_str idx) (I.to_string iv) (I.to_string dv);
              in_function fname;
            ]
          in
          if iv.I.hi < 0. then
            emit st ~code:"L004" ~severity:Diagnostic.Error ~loc ~notes
              "index %d of array `%s` is always negative" k array
          else if Float.is_finite dv.I.hi && iv.I.lo > dv.I.hi -. 1. then
            emit st ~code:"L004" ~severity:Diagnostic.Error ~loc ~notes
              "index %d of array `%s` is always out of bounds" k array
          else begin
            if Float.is_finite iv.I.lo && iv.I.lo < 0. then
              emit st ~code:"L004" ~severity:Diagnostic.Warning ~loc ~notes
                "index %d of array `%s` may be negative" k array;
            if
              Float.is_finite iv.I.hi
              && Float.is_finite dv.I.hi
              && iv.I.hi > dv.I.hi -. 1.
            then
              emit st ~code:"L004" ~severity:Diagnostic.Warning ~loc ~notes
                "index %d of array `%s` may exceed its dimension" k array
          end)
        index

(* --- the walk -------------------------------------------------------- *)

(* Restrict [result] to the variables visible before a nested block:
   names introduced inside go out of scope, but rebinds of outer names
   persist (the BET's context is threaded through branches — the
   pedagogical example's [knob] depends on it). *)
let restrict outer result =
  Smap.mapi
    (fun v cur ->
      match Smap.find_opt v result with Some x -> x | None -> cur)
    outer

let join_envs outer a b =
  Smap.mapi
    (fun v cur ->
      let get m = match Smap.find_opt v m with Some x -> x | None -> cur in
      I.join (get a) (get b))
    outer

let record_verdict st s ~fname cond t =
  let v =
    match Hashtbl.find_opt st.verdicts s.sid with
    | Some v -> v
    | None ->
      let v =
        {
          v_loc = s.loc;
          v_cond = cond;
          v_fname = fname;
          all_true = true;
          all_false = true;
        }
      in
      Hashtbl.add st.verdicts s.sid v;
      v
  in
  v.all_true <- v.all_true && t = I.True;
  v.all_false <- v.all_false && t = I.False

(* Every statement visit, checking or discovery, spends one unit of
   budget; once it is gone, statements are skipped unvisited. *)
let spend st s =
  if st.budget > 0 then begin
    st.budget <- st.budget - 1;
    true
  end
  else begin
    if st.stopped_at = None then st.stopped_at <- Some s.loc;
    false
  end

(* A for loop's variable ranges over its bounds' hull. *)
let enter_for var lo hi entry =
  let li = eval entry lo and hi_i = eval entry hi in
  Smap.add var (I.make li.I.lo hi_i.I.hi) entry

(* Widening discovery needs only the environment each statement leaves
   behind, so it runs no checks (they could only emit), skips callees
   (a call never rebinds its caller's variables), follows only the live
   arm of a decided branch, and does not walk a loop body again once
   its entry is widened.  A d-deep nest costs about d² visits, but 2^d
   when each loop body resets a variable the next loop carries: every
   round re-widens that inner loop from a constant. *)
let rec bind_block st env b = List.fold_left (bind_stmt st) env b

and bind_stmt st env s =
  if not (spend st s) then env
  else
    match s.kind with
    | Let (v, e) -> Smap.add v (eval env e) env
    | If { cond = Cexpr e; then_; else_ } -> (
      let arm positive b = bind_block st (refine env e positive) b in
      match truth env e with
      | I.True -> restrict env (arm true then_)
      | I.False -> restrict env (arm false else_)
      | I.Unknown ->
        let env_t = arm true then_ in
        join_envs env env_t (arm false else_))
    | If { cond = Cdata _; then_; else_ } ->
      let env_t = bind_block st env then_ in
      join_envs env env_t (bind_block st env else_)
    | For { var; lo; hi; body; _ } ->
      restrict env (widen_for_body st env body ~enter:(enter_for var lo hi))
    | While { body; _ } ->
      restrict env (widen_for_body st env body ~enter:Fun.id)
    | Comp _ | Mem _ | Call _ | Lib _ | Return | Break _ | Continue _ -> env

(* One-step widening for loop bodies: find which outer variables the
   body rebinds to a different abstract value, widen those to top, and
   repeat until the set is stable (a Let that only depends on stable
   values is re-established identically every iteration, so the widened
   entry env is a fixpoint). *)
and widen_for_body st env body ~enter =
  let apply widen = Sset.fold (fun v m -> Smap.add v I.top m) widen env in
  let rec discover widen n =
    let entry = apply widen in
    let out = bind_block st (enter entry) body in
    let changed =
      Smap.fold
        (fun v cur acc ->
          match Smap.find_opt v out with
          | Some x when x <> cur -> Sset.add v acc
          | _ -> acc)
        entry Sset.empty
    in
    let widen' = Sset.union widen changed in
    if n >= 4 || Sset.equal widen' widen then widen' else discover widen' (n + 1)
  in
  apply (discover Sset.empty 0)

(* The checking walk.  [mult] is the interval of expected execution
   counts of the current statement (entry body = 1); it only feeds
   L010's volume totals.  [stack] guards against recursive call chains
   (flagged by V011, so we silently stop inlining). *)
let rec walk_block st ~fname ~stack env arrays mult b =
  List.fold_left
    (fun env s -> walk_stmt st ~fname ~stack env arrays mult s)
    env b

and walk_stmt st ~fname ~stack env arrays mult s =
  if not (spend st s) then env
  else begin
    let loc = s.loc in
    match s.kind with
    | Comp { flops; iops; divs; vec = _ } ->
      List.iter (check_div st env loc ~fname) [ flops; iops; divs ];
      let zero e = I.const (eval env e) = Some 0. in
      if zero flops && zero iops && zero divs then
        emit st ~code:"L006" ~severity:Diagnostic.Warning ~loc
          ~notes:(fun () -> [ in_function fname ])
          "comp models no work (flops, iops and divs are all 0)";
      env
    | Mem { loads; stores } ->
      List.iter
        (fun (a : access) ->
          List.iter (check_div st env loc ~fname) a.index;
          check_access st env arrays loc ~fname a)
        (loads @ stores);
      env
    | Let (v, e) ->
      check_div st env loc ~fname e;
      Smap.add v (eval env e) env
    | If { cond; then_; else_ } -> (
      match cond with
      | Cexpr e ->
        check_div st env loc ~fname e;
        let t = truth env e in
        record_verdict st s ~fname e t;
        let half = I.mul mult (I.make 0. 1.) in
        let then_mult, else_mult =
          match t with
          | I.True -> (mult, I.of_int 0)
          | I.False -> (I.of_int 0, mult)
          | I.Unknown -> (half, half)
        in
        let env_t =
          walk_block st ~fname ~stack (refine env e true) arrays then_mult
            then_
        in
        let env_e =
          walk_block st ~fname ~stack (refine env e false) arrays else_mult
            else_
        in
        (match t with
        | I.True -> restrict env env_t
        | I.False -> restrict env env_e
        | I.Unknown -> join_envs env env_t env_e)
      | Cdata { name; p } ->
        check_div st env loc ~fname p;
        check_prob st env loc ~fname
          ~what:(fun ppf -> Fmt.pf ppf "data branch `%s`" name)
          p;
        check_hint st loc ~fname ~what:"data branch" name;
        let m = I.mul mult (I.make 0. 1.) in
        let env_t = walk_block st ~fname ~stack env arrays m then_ in
        let env_e = walk_block st ~fname ~stack env arrays m else_ in
        join_envs env env_t env_e)
    | For { var; lo; hi; step; body } ->
      let wenv = widen_for_body st env body ~enter:(enter_for var lo hi) in
      List.iter (check_div st wenv loc ~fname) [ lo; hi; step ];
      let li = eval wenv lo and hi_i = eval wenv hi and si = eval wenv step in
      let step_note () =
        [
          Fmt.str "step `%s` evaluates to %s" (expr_str step) (I.to_string si);
          in_function fname;
        ]
      in
      if si.I.hi <= 0. then
        emit st ~code:"L001" ~severity:Diagnostic.Error ~loc ~notes:step_note
          "loop step is never positive"
      else if si.I.lo <= 0. && Float.is_finite si.I.lo then
        emit st ~code:"L001" ~severity:Diagnostic.Warning ~loc
          ~notes:step_note "loop step may be non-positive";
      if hi_i.I.hi < li.I.lo then
        emit st ~code:"L001" ~severity:Diagnostic.Warning ~loc
          ~notes:(fun () ->
            [
              Fmt.str "range `%s` to `%s` evaluates to %s to %s"
                (expr_str lo) (expr_str hi) (I.to_string li)
                (I.to_string hi_i);
              in_function fname;
            ])
          "loop never executes (empty range)";
      let trips =
        if si.I.hi <= 0. then I.of_int 0
        else
          let pos_step =
            match I.meet si (I.make Float.min_float infinity) with
            | Some s -> s
            | None -> si
          in
          I.clamp_nonneg (I.add (I.div (I.sub hi_i li) pos_step) (I.of_int 1))
      in
      let venv = Smap.add var (I.make li.I.lo hi_i.I.hi) wenv in
      let out = walk_block st ~fname ~stack venv arrays (I.mul mult trips) body in
      ignore out;
      restrict env wenv
    | While { name; p_continue; max_iter; body } ->
      let wenv = widen_for_body st env body ~enter:Fun.id in
      List.iter (check_div st wenv loc ~fname) [ p_continue; max_iter ];
      check_prob st wenv loc ~fname
        ~what:(fun ppf -> Fmt.pf ppf "while loop `%s` continue" name)
        p_continue;
      check_hint st loc ~fname ~what:"while loop" name;
      let pi = eval wenv p_continue and mi = eval wenv max_iter in
      if mi.I.hi < 1. then
        emit st ~code:"L001" ~severity:Diagnostic.Warning ~loc
          ~notes:(fun () ->
            [
              Fmt.str "max_iter `%s` evaluates to %s" (expr_str max_iter)
                (I.to_string mi);
              in_function fname;
            ])
          "while loop body never executes (max_iter < 1)"
      else if pi.I.lo >= 1. && mi.I.hi = infinity then
        emit st ~code:"L009" ~severity:Diagnostic.Warning ~loc
          ~notes:(fun () ->
            [
              Fmt.str "p_continue `%s` evaluates to %s" (expr_str p_continue)
                (I.to_string pi);
              Fmt.str "max_iter `%s` is unbounded" (expr_str max_iter);
              in_function fname;
            ])
          "while loop `%s` has p_continue = 1 and no finite iteration cap"
          name;
      let iters = I.make 0. (Float.max 0. mi.I.hi) in
      ignore (walk_block st ~fname ~stack wenv arrays (I.mul mult iters) body);
      restrict env wenv
    | Call (callee, args) ->
      List.iter (check_div st env loc ~fname) args;
      (match Smap.find_opt callee st.funcs with
      | Some f
        when (not (List.mem callee stack))
             && List.length f.params = List.length args ->
        let cenv =
          List.fold_left2
            (fun m prm a -> Smap.add prm (eval env a) m)
            st.base_env f.params args
        in
        ignore
          (walk_block st ~fname:callee ~stack:(callee :: stack) cenv
             (arrays_of st f) mult f.body)
      | _ -> () (* undefined/recursive/mis-aritied: Validate's turf *));
      env
    | Lib { name; args; scale } ->
      List.iter (check_div st env loc ~fname) (scale :: args);
      let lower = String.lowercase_ascii name in
      (* Dead code (mult = 0) transfers nothing. *)
      if I.const mult <> Some 0. then begin
        let vol = I.mul mult (eval env scale) in
        if contains_sub lower "send" then st.sends <- (loc, vol) :: st.sends
        else if contains_sub lower "recv" then
          st.recvs <- (loc, vol) :: st.recvs
      end;
      env
    | Return -> env
    | Break { name; p } ->
      check_div st env loc ~fname p;
      check_prob st env loc ~fname
        ~what:(fun ppf -> Fmt.pf ppf "break `%s`" name)
        p;
      check_hint st loc ~fname ~what:"break" name;
      env
    | Continue { name; p } ->
      check_div st env loc ~fname p;
      check_prob st env loc ~fname
        ~what:(fun ppf -> Fmt.pf ppf "continue `%s`" name)
        p;
      check_hint st loc ~fname ~what:"continue" name;
      env
  end

(* --- entry points ---------------------------------------------------- *)

let interval_of_value = function
  | Value.I n -> I.of_int n
  | Value.F f -> I.of_float f
  | Value.B b -> I.of_bool b

let run ?(config = default_config) ?(inputs = []) (p : program) =
  Skope_telemetry.Span.with_ ~name:"lint_run" (fun () ->
  let funcs =
    List.fold_left (fun m f -> Smap.add f.fname f m) Smap.empty p.funcs
  in
  let global_arrays =
    List.fold_left
      (fun m (a : array_decl) -> Smap.add a.aname a m)
      Smap.empty p.globals
  in
  let base_env =
    List.fold_left
      (fun m (v, value) -> Smap.add v (interval_of_value value) m)
      Smap.empty inputs
  in
  let st =
    {
      disabled = Sset.of_list config.disabled;
      hints = Sset.of_list config.hints;
      funcs;
      global_arrays;
      base_env;
      verdicts = Hashtbl.create 64;
      diags = [];
      sends = [];
      recvs = [];
      budget = max_visits;
      stopped_at = None;
    }
  in
  (* Static reachability from the entry, for L007. *)
  let reachable = Hashtbl.create 16 in
  let rec reach name =
    if not (Hashtbl.mem reachable name) then begin
      Hashtbl.add reachable name ();
      match Smap.find_opt name st.funcs with
      | None -> ()
      | Some f ->
        fold_block
          (fun () s -> match s.kind with Call (n, _) -> reach n | _ -> ())
          () f.body
    end
  in
  reach p.entry;
  (match Smap.find_opt p.entry st.funcs with
  | None -> () (* Validate's V002 *)
  | Some f ->
    let env =
      List.fold_left
        (fun m prm -> Smap.add prm I.top m)
        st.base_env f.params
    in
    ignore
      (walk_block st ~fname:f.fname ~stack:[ f.fname ] env (arrays_of st f)
         (I.of_int 1) f.body));
  (* Only reachable code has contributed volumes (L010) so far. *)
  let sends = st.sends and recvs = st.recvs in
  (* L007, then walk the unreachable functions anyway so their local
     defects still surface (with zero execution count). *)
  List.iter
    (fun (f : func) ->
      if not (Hashtbl.mem reachable f.fname) then begin
        let loc = match f.body with s :: _ -> s.loc | [] -> Loc.none in
        emit st ~code:"L007" ~severity:Diagnostic.Warning ~loc
          "function `%s` is unreachable from entry `%s`" f.fname p.entry;
        let env =
          List.fold_left
            (fun m prm -> Smap.add prm I.top m)
            st.base_env f.params
        in
        ignore
          (walk_block st ~fname:f.fname ~stack:[ f.fname ] env
             (arrays_of st f) (I.of_int 0) f.body)
      end)
    p.funcs;
  (match st.stopped_at with
  | Some loc ->
    (* L011 stands in for L005 and L010, whose verdicts and totals
       would miss the visits never made. *)
    emit st ~code:"L011" ~severity:Diagnostic.Warning ~loc
      ~notes:(fun () ->
        [
          "statements reached after this one were not checked";
          "dead branches (L005) and volume balance (L010) were not judged";
        ])
      "lint stopped after %d statement visits" max_visits
  | None ->
    (* L010: total send and receive volumes that cannot meet. *)
    (match (List.rev sends, List.rev recvs) with
    | (loc, _) :: _, _ :: _ ->
      let total =
        List.fold_left (fun acc (_, v) -> I.add acc v) (I.of_int 0)
      in
      let s = total sends and r = total recvs in
      if I.meet s r = None then
        emit st ~code:"L010" ~severity:Diagnostic.Warning ~loc
          ~notes:(fun () ->
            [
              Fmt.str "total send volume %s" (I.to_string s);
              Fmt.str "total receive volume %s" (I.to_string r);
            ])
          "send and receive volumes can never balance"
    | _ -> ());
    (* L005: a branch is only dead if EVERY inlined visit (call sites
       can bind parameters differently) decided the condition the same
       way. *)
    Hashtbl.iter
      (fun _sid v ->
        let notes holds () =
          [
            Fmt.str "condition `%s` %s" (expr_str v.v_cond) holds;
            in_function v.v_fname;
          ]
        in
        if v.all_true then
          emit st ~code:"L005" ~severity:Diagnostic.Warning ~loc:v.v_loc
            ~notes:(notes "always holds")
            "branch condition is statically true; the else branch is dead"
        else if v.all_false then
          emit st ~code:"L005" ~severity:Diagnostic.Warning ~loc:v.v_loc
            ~notes:(notes "never holds")
            "branch condition is statically false; the then branch is dead")
      st.verdicts);
  let diags = Diagnostic.normalize st.diags in
  Skope_telemetry.Span.count "lint_visits"
    (float_of_int (max_visits - st.budget));
  Skope_telemetry.Span.count "lint_diagnostics"
    (float_of_int (List.length diags));
  diags)

exception Rejected of Diagnostic.t list

let check_exn ?inputs p =
  let errors =
    List.filter
      (fun d -> d.Diagnostic.severity = Diagnostic.Error)
      (run ?inputs p)
  in
  if errors <> [] then raise (Rejected errors)
