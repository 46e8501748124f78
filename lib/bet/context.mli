(** Weighted execution contexts (paper §IV-A).

    A context is a probability-carrying snapshot of the variables that
    influence control flow.  BET construction threads a small set of
    contexts through each block; data-dependent branches split mass,
    diverging [let] bindings fork contexts, and value-identical
    contexts re-merge.

    ['c] is the companion environment a builder domain threads next to
    the concrete bindings ({!Build.DOMAIN}): [unit] for the plain BET,
    closed forms of every binding for the audit's symbolic model. *)

type 'c t = { env : Eval.env; cenv : 'c; mass : float }

val make : ?mass:float -> (string * Value.t) list -> 'c -> 'c t

(** Total probability mass of a context set. *)
val mass_of : 'c t list -> float

(** [bind c name v cenv] binds [name] to [v] and replaces the
    companion environment with [cenv]; [unbind] likewise. *)
val bind : 'c t -> string -> Value.t -> 'c -> 'c t

val unbind : 'c t -> string -> 'c -> 'c t
val scale : 'c t -> float -> 'c t
val lookup : 'c t -> string -> Value.t option
val env_equal : Eval.env -> Eval.env -> bool
val pp : 'c t Fmt.t

(** Merge value-identical contexts (summing mass), drop negligible
    mass, and enforce [cap] by folding the lightest contexts into the
    heaviest.  Total mass is preserved; the result is sorted by
    decreasing mass.  A merged context keeps the first one's companion
    environment. *)
val normalize : ?cap:int -> 'c t list -> 'c t list

(** Mass-weighted mean value of an expression over live contexts. *)
val expect : ?default:float -> 'c t list -> Skope_skeleton.Ast.expr -> float

(** Mass-weighted mean probability, clamped to [0, 1]. *)
val expect_prob : ?default:float -> 'c t list -> Skope_skeleton.Ast.expr -> float
