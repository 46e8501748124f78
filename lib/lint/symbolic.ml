(** Symbolic cost model over skeleton ASTs (the core of `skope audit`).

    [derive] runs the BET builder ([Bet.Build.Make]) over a closed-form
    domain: next to every concrete quantity the builder computes, the
    domain carries a reified [Ast.expr] over the workload's input
    parameters (n, p, ...).  The result is the BET whose per-node trip
    counts and work vectors are closed-form expressions: evaluating them
    with [Bet.Eval] at the reference inputs reproduces the BET's
    concrete counts bit for bit, and evaluating them at other bindings
    predicts how each block scales.

    Two approximations are inherent and documented here once:

    - {e frozen control flow}: context masses and branch/exit
      probabilities are embedded as float literals taken from the
      reference scale, so a branch decided differently at another scale
      is not re-decided symbolically;
    - {e reconciliation}: each expression is checked as it is formed,
      by evaluating it at the reference inputs against the concrete
      value it accompanies.  Any divergence (non-evaluable
      substitution, float-path corner, oversized expression) demotes
      that expression to a literal of the concrete value and bumps
      [fallbacks] — so soundness of the evaluated-at-reference counts
      is unconditional, and [fallbacks] measures how much genuine
      symbolic structure survived. *)

open Skope_skeleton
module Value = Skope_bet.Value
module Eval = Skope_bet.Eval
module Context = Skope_bet.Context
module Work = Skope_bet.Work
module Bnode = Skope_bet.Node
module Block_id = Skope_bet.Block_id
module Smap = Eval.Smap

(* --- expression construction ---------------------------------------- *)

let const_v : Value.t -> Ast.expr = function
  | Value.I i -> Ast.Int i
  | Value.F f -> Ast.Float f
  | Value.B b -> Ast.Bool b

let cf f : Ast.expr = Ast.Float f

let is_zero = function Ast.Float 0. | Ast.Int 0 -> true | _ -> false
let is_one = function Ast.Float 1. | Ast.Int 1 -> true | _ -> false

(* Only identities that are exact in float arithmetic are folded, so a
   simplified expression still evaluates to the bit-identical value. *)
let add a b = if is_zero a then b else if is_zero b then a else Ast.Binop (Ast.Add, a, b)
let sub a b = if is_zero b then a else Ast.Binop (Ast.Sub, a, b)

let mul a b =
  if is_one a then b
  else if is_one b then a
  else if is_zero a || is_zero b then cf 0.
  else Ast.Binop (Ast.Mul, a, b)

let div a b = if is_one b then a else Ast.Binop (Ast.Div, a, b)
let min_ a b = if a = b then a else Ast.Binop (Ast.Min, a, b)
let max_ a b = if a = b then a else Ast.Binop (Ast.Max, a, b)
let pow a b = Ast.Binop (Ast.Pow, a, b)
let floor_ a = Ast.Unop (Ast.Floor, a)

(* Integer floor division for b > 0: (a - (((a mod b) + b) mod b)) / b.
   All-integer operands make this evaluate exactly like Build's
   [Float.floor (a /. b)] on the same values. *)
let fdiv a b =
  let r = Ast.Binop (Ast.Mod, Ast.Binop (Ast.Add, Ast.Binop (Ast.Mod, a, b), b), b) in
  Ast.Binop (Ast.Div, Ast.Binop (Ast.Sub, a, r), b)

let rec size = function
  | Ast.Int _ | Ast.Float _ | Ast.Bool _ | Ast.Var _ -> 1
  | Ast.Binop (_, a, b) | Ast.Cmp (_, a, b) | Ast.And (a, b) | Ast.Or (a, b) ->
    1 + size a + size b
  | Ast.Unop (_, a) -> 1 + size a

exception Cut

let max_expr_size = 4096

(* Substitute the symbolic environment into [e]; [None] when a variable
   has no symbolic binding or the result would blow past the size cap. *)
let subst (senv : Ast.expr Smap.t) (e : Ast.expr) : Ast.expr option =
  let budget = ref max_expr_size in
  let spend n =
    budget := !budget - n;
    if !budget < 0 then raise Cut
  in
  let rec go e =
    match e with
    | Ast.Int _ | Ast.Float _ | Ast.Bool _ ->
      spend 1;
      e
    | Ast.Var v -> (
      match Smap.find_opt v senv with
      | Some se ->
        spend (size se);
        se
      | None -> raise Cut)
    | Ast.Binop (op, a, b) ->
      spend 1;
      let a = go a in
      let b = go b in
      Ast.Binop (op, a, b)
    | Ast.Cmp (op, a, b) ->
      spend 1;
      let a = go a in
      let b = go b in
      Ast.Cmp (op, a, b)
    | Ast.And (a, b) ->
      spend 1;
      let a = go a in
      let b = go b in
      Ast.And (a, b)
    | Ast.Or (a, b) ->
      spend 1;
      let a = go a in
      let b = go b in
      Ast.Or (a, b)
    | Ast.Unop (op, a) ->
      spend 1;
      Ast.Unop (op, go a)
  in
  match go e with x -> Some x | exception Cut -> None

(* --- symbolic work vectors ------------------------------------------- *)

type swork = {
  s_flops : Ast.expr;
  s_iops : Ast.expr;
  s_divs : Ast.expr;
  s_vec_flops : Ast.expr;
  s_vec_issue : Ast.expr;
  s_loads : Ast.expr;
  s_stores : Ast.expr;
  s_lbytes : Ast.expr;
  s_sbytes : Ast.expr;
}

(* [f] over every field of a concrete work vector. *)
let swork_map f (w : Work.t) =
  {
    s_flops = f w.Work.flops;
    s_iops = f w.Work.iops;
    s_divs = f w.Work.divs;
    s_vec_flops = f w.Work.vec_flops;
    s_vec_issue = f w.Work.vec_issue;
    s_loads = f w.Work.loads;
    s_stores = f w.Work.stores;
    s_lbytes = f w.Work.lbytes;
    s_sbytes = f w.Work.sbytes;
  }

(* A work vector fixed by control flow, as literals. *)
let swork_lit = swork_map cf
let swork_zero = swork_lit Work.zero

(* As Work.scale: k *. field. *)
let swork_of_lib scale_s = swork_map (fun x -> mul scale_s (cf x))

let swork_add a b =
  {
    s_flops = add a.s_flops b.s_flops;
    s_iops = add a.s_iops b.s_iops;
    s_divs = add a.s_divs b.s_divs;
    s_vec_flops = add a.s_vec_flops b.s_vec_flops;
    s_vec_issue = add a.s_vec_issue b.s_vec_issue;
    s_loads = add a.s_loads b.s_loads;
    s_stores = add a.s_stores b.s_stores;
    s_lbytes = add a.s_lbytes b.s_lbytes;
    s_sbytes = add a.s_sbytes b.s_sbytes;
  }

let swork_of_comp ~flops ~iops ~divs ~vec =
  let vec = max 1 vec in
  {
    swork_zero with
    s_flops = flops;
    s_iops = iops;
    s_divs = divs;
    s_vec_flops = (if vec > 1 then flops else cf 0.);
    s_vec_issue = (if vec > 1 then div flops (cf (float_of_int vec)) else cf 0.);
  }

(* --- the symbolic tree ----------------------------------------------- *)

type node = {
  id : int;
  block : Block_id.t;
  kind : Bnode.kind;
  prob : float;
  trips_ref : float;  (** concrete trips at the reference inputs *)
  trips : Ast.expr;  (** symbolic trips *)
  work_ref : Work.t;
  work : swork;
  touched : (string * float) list;
      (** bytes moved per array by one execution of the node's direct
          statements; scale dependence enters through [trips] *)
  lib_scale : Ast.expr option;  (** symbolic call volume for lib nodes *)
  note : string;
  children : node list;
}

type result = {
  sroot : node;
  checked : int;  (** expressions verified at the reference inputs *)
  fallbacks : int;  (** expressions demoted to concrete literals *)
}

(* --- reconciliation ----------------------------------------------------- *)

(* The bookkeeping of one derivation: the reference inputs every
   expression is checked at, and the two counters. *)
type tally = { root_env : Eval.env; mutable checked : int; mutable fallbacks : int }

(* Representation-strict equality: [Value.equal] calls I 2 and F 2
   equal, but downstream Div/Mod behave differently on the two, so a
   symbolic binding must reproduce the exact representative. *)
let strict_equal a b =
  match (a, b) with
  | Value.I a, Value.I b -> a = b
  | Value.F a, Value.F b -> Float.equal a b
  | Value.B a, Value.B b -> a = b
  | _ -> false

let recon_f t conc e =
  t.checked <- t.checked + 1;
  match Eval.eval t.root_env e with
  | Some v when Float.equal (Value.to_float v) conc -> e
  | _ ->
    t.fallbacks <- t.fallbacks + 1;
    cf conc

let recon_v t conc e =
  match Eval.eval t.root_env e with
  | Some v when strict_equal v conc -> e
  | _ ->
    t.fallbacks <- t.fallbacks + 1;
    const_v conc

let recon_swork t (w : Work.t) (sw : swork) =
  {
    s_flops = recon_f t w.Work.flops sw.s_flops;
    s_iops = recon_f t w.Work.iops sw.s_iops;
    s_divs = recon_f t w.Work.divs sw.s_divs;
    s_vec_flops = recon_f t w.Work.vec_flops sw.s_vec_flops;
    s_vec_issue = recon_f t w.Work.vec_issue sw.s_vec_issue;
    s_loads = recon_f t w.Work.loads sw.s_loads;
    s_stores = recon_f t w.Work.stores sw.s_stores;
    s_lbytes = recon_f t w.Work.lbytes sw.s_lbytes;
    s_sbytes = recon_f t w.Work.sbytes sw.s_sbytes;
  }

(* --- the closed-form domain ----------------------------------------- *)

(* The companions [Bet.Build.Make] threads for the audit.  Expectations
   branch on the same concrete values as Build (frozen control flow), so
   each closed form evaluates at the reference inputs exactly like the
   float it accompanies. *)
module Closed (T : sig
  val tally : tally
end) =
struct
  let t = T.tally

  type env = Ast.expr Smap.t
  type value = Ast.expr
  type num = Ast.expr

  (* Work forms, the bytes each array moves per execution, and a lib
     call's volume. *)
  type work = { sw : swork; touched : float Smap.t; scale : Ast.expr option }
  type nonrec node = node

  let fallback conc =
    t.fallbacks <- t.fallbacks + 1;
    const_v conc

  let inputs bindings =
    List.fold_left (fun m (k, _) -> Smap.add k (Ast.Var k) m) Smap.empty bindings

  let value env e v =
    match subst env e with Some se -> recon_v t v se | None -> fallback v

  let value_lit = const_v
  let bind env k v = Smap.add k v env
  let unbind env k = Smap.remove k env
  let lit = cf
  let once = Ast.Int 1

  let weigh sum m x = add sum (mul (cf m) x)
  let per sum total = div sum (cf total)

  let count (cs : env Context.t list) e total =
    let term (c : env Context.t) v =
      max_ (cf 0.) (match subst c.cenv e with Some se -> se | None -> const_v v)
    in
    per
      (List.fold_left
         (fun sum (c : env Context.t) ->
           match Eval.eval c.env e with Some v -> weigh sum c.mass (term c v) | None -> sum)
         (cf 0.) cs)
      total

  let expect ~default (cs : env Context.t list) e =
    let total = Context.mass_of cs in
    let term (c : env Context.t) =
      match (Eval.eval c.env e, subst c.cenv e) with
      | Some _, Some se -> se
      | _ -> cf default
    in
    max_ (cf 0.)
      (if total <= 0. then cf default
       else per (List.fold_left (fun sum c -> weigh sum c.Context.mass (term c)) (cf 0.) cs) total)

  (* Integer bounds get exact floor division, matching Build's float
     arithmetic on the same values. *)
  let range env ~lo ~hi ~step (lov, hiv, stv) ~n ~mid =
    let subst_or e v = match subst env e with Some se -> se | None -> fallback v in
    let lo_s = subst_or lo lov and hi_s = subst_or hi hiv and st_s = subst_or step stv in
    let n_s, mid_s =
      match (lov, hiv, stv) with
      | Value.I _, Value.I _, Value.I _ ->
        let n_s = max_ (Ast.Int 0) (add (fdiv (sub hi_s lo_s) st_s) (Ast.Int 1)) in
        (n_s, add lo_s (mul st_s (fdiv (sub n_s (Ast.Int 1)) (Ast.Int 2))))
      | _ -> (max_ (cf 0.) (add (floor_ (div (sub hi_s lo_s) st_s)) (cf 1.)), const_v mid)
    in
    (recon_f t n n_s, recon_v t mid mid_s)

  let while_trips ~p ~n n_s =
    if n <= 0. then cf 0.
    else if p >= 1. then n_s
    else if p <= 0. then cf 1.
    else min_ n_s (div (sub (cf 1.) (pow (cf p) n_s)) (cf (1. -. p)))

  let truncated_geometric ~p ~n n_s =
    min_ n_s
      (if n <= 0. then cf 0.
       else if p <= 1e-12 then n_s
       else if p >= 1. then cf 1.
       else min_ n_s (div (sub (cf 1.) (pow (cf (1. -. p)) n_s)) (cf p)))

  let check conc e = recon_f t conc e
  let no_work = { sw = swork_zero; touched = Smap.empty; scale = None }

  let add_comp w ~flops ~iops ~divs ~vec =
    { w with sw = swork_add w.sw (swork_of_comp ~flops ~iops ~divs ~vec) }

  let add_lit w x = { w with sw = swork_add w.sw (swork_lit x) }

  let touch w accesses bytes =
    let add m (a : Ast.access) =
      let b = bytes a in
      Smap.update a.Ast.array (function None -> Some b | Some x -> Some (x +. b)) m
    in
    { w with touched = List.fold_left add w.touched accesses }

  let lib scale profile =
    let sw = match profile with Some p -> swork_of_lib scale p | None -> swork_zero in
    { no_work with sw; scale = Some scale }

  let node ~id ~block ~kind ~prob ~note ~trips:trips_ref trips ~work:work_ref w children
      =
    {
      id;
      block;
      kind;
      prob;
      trips_ref;
      trips;
      work_ref;
      work = recon_swork t work_ref w.sw;
      touched = Smap.bindings w.touched;
      lib_scale = w.scale;
      note;
      children;
    }

  let retrip n trips_ref trips = { n with trips_ref; trips }
end

let derive ?hints ?lib_work ?max_contexts ?(inputs = []) (program : Ast.program) :
    result =
  let tally = { root_env = Eval.env_of_list inputs; checked = 0; fallbacks = 0 } in
  let module B = Skope_bet.Build.Make (Closed (struct
    let tally = tally
  end)) in
  let root, _warnings = B.build ?hints ?lib_work ?max_contexts ~inputs program in
  (* Every node's trips and work forms, checked once more against the
     node's own concrete values: the forms the audit rules read. *)
  let rec verify n =
    {
      n with
      trips = recon_f tally n.trips_ref n.trips;
      work = recon_swork tally n.work_ref n.work;
      children = List.map verify n.children;
    }
  in
  let sroot = verify root in
  { sroot; checked = tally.checked; fallbacks = tally.fallbacks }

(* --- aggregation and growth probing ---------------------------------- *)

(** Pre-order fold with both the concrete expected number of
    repetitions (ENR) and its symbolic form, mirroring
    [Bet.Node.fold_enr]. *)
let fold_enr f acc root =
  let rec go acc n ~enr_ref ~enr_sym =
    let enr_ref = n.trips_ref *. n.prob *. enr_ref in
    let enr_sym = mul (mul n.trips (cf n.prob)) enr_sym in
    let acc = f acc n ~enr_ref ~enr_sym in
    List.fold_left (fun acc c -> go acc c ~enr_ref ~enr_sym) acc n.children
  in
  go acc root ~enr_ref:1. ~enr_sym:(cf 1.)

let rec node_count n = List.fold_left (fun a c -> a + node_count c) 1 n.children

(** Empirical growth order of [e] along a parameter sweep: evaluate at
    multipliers 1/2/4 via [eval_at] and average the log2 ratios.  [Some
    0.] for expressions that stay (near) zero, [None] when evaluation
    fails or values are not positive. *)
let growth_order ~eval_at (e : Ast.expr) : float option =
  let v m = Option.map Value.to_float (Eval.eval (eval_at m) e) in
  match (v 1., v 2., v 4.) with
  | Some a, Some b, Some c ->
    if Float.abs a <= 1e-9 && Float.abs b <= 1e-9 && Float.abs c <= 1e-9 then
      Some 0.
    else if a > 1e-9 && b > 1e-9 && c > 1e-9 then
      Some ((Float.log (b /. a) +. Float.log (c /. b)) /. (2. *. Float.log 2.))
    else None
  | _ -> None

(* --- approximate Laurent-polynomial display form ---------------------- *)

type mono = { coef : float; pows : (string * int) list }

type poly = mono list

let mono_mul a b =
  let pows =
    List.fold_left
      (fun acc (v, k) ->
        match List.assoc_opt v acc with
        | Some k0 -> (v, k0 + k) :: List.remove_assoc v acc
        | None -> (v, k) :: acc)
      a.pows b.pows
  in
  {
    coef = a.coef *. b.coef;
    pows = List.sort compare (List.filter (fun (_, k) -> k <> 0) pows);
  }

let poly_norm (p : poly) : poly =
  let merged =
    List.fold_left
      (fun acc m ->
        match List.partition (fun m' -> m'.pows = m.pows) acc with
        | [ m' ], rest -> { m with coef = m.coef +. m'.coef } :: rest
        | _ -> m :: acc)
      [] p
  in
  List.filter (fun m -> Float.abs m.coef > 1e-12) merged
  |> List.sort (fun a b -> compare b.pows a.pows)

(* Display-only extraction: Min/Max/Floor and the integer floor-div
   pattern are passed through as their real-valued approximations, so
   the result is printed with an "approximately" sign. *)
let rec poly_of (e : Ast.expr) : poly option =
  let ( let* ) = Option.bind in
  match e with
  | Ast.Int i -> Some [ { coef = float_of_int i; pows = [] } ]
  | Ast.Float f -> Some [ { coef = f; pows = [] } ]
  | Ast.Bool _ -> None
  | Ast.Var v -> Some [ { coef = 1.; pows = [ (v, 1) ] } ]
  | Ast.Binop (Ast.Add, a, b) ->
    let* a = poly_of a in
    let* b = poly_of b in
    Some (poly_norm (a @ b))
  | Ast.Binop (Ast.Sub, a, b) ->
    let* a = poly_of a in
    let* b = poly_of b in
    Some (poly_norm (a @ List.map (fun m -> { m with coef = -.m.coef }) b))
  | Ast.Binop (Ast.Mul, a, b) ->
    let* a = poly_of a in
    let* b = poly_of b in
    if List.length a * List.length b > 64 then None
    else Some (poly_norm (List.concat_map (fun ma -> List.map (mono_mul ma) b) a))
  | Ast.Binop (Ast.Div, Ast.Binop (Ast.Sub, a, Ast.Binop (Ast.Mod, _, _)), b) ->
    (* the sfdiv shape: a/b up to the remainder correction *)
    poly_of (Ast.Binop (Ast.Div, a, b))
  | Ast.Binop (Ast.Div, a, b) -> (
    let* a = poly_of a in
    let* b = poly_of b in
    match b with
    | [ m ] when Float.abs m.coef > 1e-300 ->
      let inv = { coef = 1. /. m.coef; pows = List.map (fun (v, k) -> (v, -k)) m.pows } in
      Some (poly_norm (List.map (mono_mul inv) a))
    | _ -> None)
  | Ast.Binop (Ast.Pow, a, Ast.Int k) when k >= 0 && k <= 8 ->
    let* a = poly_of a in
    let rec go acc i =
      if i = 0 then Some acc
      else if List.length acc * List.length a > 64 then None
      else
        go (poly_norm (List.concat_map (fun ma -> List.map (mono_mul ma) a) acc)) (i - 1)
    in
    go [ { coef = 1.; pows = [] } ] k
  | Ast.Binop ((Ast.Min | Ast.Max), a, b) -> (
    (* display approximation: prefer the non-constant side *)
    match (poly_of a, poly_of b) with
    | Some [ { pows = []; _ } ], Some p -> Some p
    | Some p, Some [ { pows = []; _ } ] -> Some p
    | Some p, None | None, Some p -> Some p
    | Some p, Some _ -> Some p
    | None, None -> None)
  | Ast.Unop (Ast.Floor, a) | Ast.Unop (Ast.Ceil, a) -> poly_of a
  | Ast.Unop (Ast.Neg, a) ->
    let* a = poly_of a in
    Some (List.map (fun m -> { m with coef = -.m.coef }) a)
  | _ -> None

let pp_mono ppf (m : mono) =
  let num = List.filter (fun (_, k) -> k > 0) m.pows in
  let den = List.filter (fun (_, k) -> k < 0) m.pows in
  let pp_v ppf (v, k) =
    if abs k = 1 then Fmt.string ppf v else Fmt.pf ppf "%s^%d" v (abs k)
  in
  (if num = [] then Fmt.pf ppf "%.4g" m.coef
   else begin
     if not (Float.equal m.coef 1.) then Fmt.pf ppf "%.4g " m.coef;
     Fmt.(list ~sep:(any " ") pp_v) ppf num
   end);
  if den <> [] then Fmt.pf ppf "/%a" Fmt.(list ~sep:(any "/") pp_v) den

let pp_poly ppf (p : poly) =
  match p with
  | [] -> Fmt.string ppf "0"
  | p -> Fmt.(list ~sep:(any " + ") pp_mono) ppf p

(** Human-readable closed form: the polynomial approximation when one
    exists, otherwise the raw expression. *)
let pp_closed_form ppf e =
  match poly_of e with
  | Some p when List.length p <= 6 -> Fmt.pf ppf "~ %a" pp_poly p
  | _ -> Pretty.pp_expr ppf e
