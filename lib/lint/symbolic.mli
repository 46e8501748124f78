(** Symbolic cost model over skeleton ASTs.

    [derive] is the BET builder ([Bet.Build.Make]) over a closed-form
    domain: next to every concrete expectation it carries a closed-form
    [Ast.expr] over the workload's input parameters.  Each expression
    is checked at the reference inputs as it is formed and demoted to a
    literal if it diverges (counted in [fallbacks]), so evaluating the
    symbolic tree there reproduces the BET's concrete counts exactly;
    evaluating it at other bindings predicts per-block scaling. *)

open Skope_skeleton
module Value = Skope_bet.Value
module Eval = Skope_bet.Eval
module Work = Skope_bet.Work
module Block_id = Skope_bet.Block_id
module Smap = Eval.Smap

(** {1 Expression construction and manipulation}

    Smart constructors folding only float-exact identities, shared
    with the audit rules. *)

val const_v : Value.t -> Ast.expr
val cf : float -> Ast.expr
val add : Ast.expr -> Ast.expr -> Ast.expr
val sub : Ast.expr -> Ast.expr -> Ast.expr
val mul : Ast.expr -> Ast.expr -> Ast.expr
val div : Ast.expr -> Ast.expr -> Ast.expr
val min_ : Ast.expr -> Ast.expr -> Ast.expr
val max_ : Ast.expr -> Ast.expr -> Ast.expr

(** Expression node count. *)
val size : Ast.expr -> int

(** Substitute symbolic bindings for variables; [None] on an unbound
    variable or when the result exceeds the internal size budget. *)
val subst : Ast.expr Smap.t -> Ast.expr -> Ast.expr option

(** {1 Symbolic work vectors} *)

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

val swork_zero : swork

(** {1 The symbolic tree} *)

type node = {
  id : int;
  block : Block_id.t;
  kind : Skope_bet.Node.kind;
  prob : float;
  trips_ref : float;  (** concrete trips at the reference inputs *)
  trips : Ast.expr;  (** symbolic trips *)
  work_ref : Work.t;  (** concrete work at the reference inputs *)
  work : swork;
  touched : (string * float) list;
      (** bytes moved per array by one execution of the node's direct
          statements; scale dependence enters through [trips] *)
  lib_scale : Ast.expr option;  (** symbolic call volume of lib nodes *)
  note : string;
  children : node list;
}

type result = {
  sroot : node;  (** the BET, node for node, with closed forms *)
  checked : int;  (** expressions verified at the reference inputs *)
  fallbacks : int;  (** expressions demoted to concrete literals *)
}

val derive :
  ?hints:Skope_bet.Hints.t ->
  ?lib_work:(string -> Work.t option) ->
  ?max_contexts:int ->
  ?inputs:(string * Value.t) list ->
  Ast.program ->
  result

(** Pre-order fold carrying both the concrete expected number of
    repetitions and its symbolic form (root parent = 1). *)
val fold_enr :
  ('a -> node -> enr_ref:float -> enr_sym:Ast.expr -> 'a) -> 'a -> node -> 'a

val node_count : node -> int

(** Empirical growth order of [e] along a parameter sweep: evaluates
    at multipliers 1, 2, 4 via [eval_at] and averages the log2 ratios.
    [Some 0.] when the expression stays near zero; [None] when
    evaluation fails or values are not positive. *)
val growth_order : eval_at:(float -> Eval.env) -> Ast.expr -> float option

(** {1 Display} *)

(** Human-readable closed form: an approximate Laurent-polynomial
    rendering ("~ 0.5 n^2/p") when one is extractable, the raw
    expression otherwise.  Display only — never used for verdicts. *)
val pp_closed_form : Ast.expr Fmt.t
