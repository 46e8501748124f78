(** Bayesian Execution Tree construction (paper §IV-B).

    Traverses the BST from the entry function, threading weighted
    contexts: function calls mount the callee in place, loops become
    single nodes carrying expected trip counts, branches split context
    mass, and [return]/[break]/[continue] promote their probabilities
    to the right ancestor.  Construction cost is independent of the
    input size.

    The walk is written once, over a {!DOMAIN} of companions: {!build}
    is the plain instance, and the audit's symbolic model
    ([Skope_lint.Symbolic]) is the instance whose companions are closed
    forms over the input parameters. *)

open Skope_skeleton

type result = {
  root : Node.t;
  bst : Bst.t;
  node_count : int;
  warnings : string list;
}

(** Expected trips of a loop over at most [n] iterations when each
    iteration exits early with probability [p]:
    [(1 - (1-p)^n) / p], clamped to [\[0, n\]]. *)
val truncated_geometric : p:float -> n:float -> float

(** Expected trips of a [while] loop continuing with probability [p]
    per iteration, capped at [n] (the first iteration always runs). *)
val while_trips : p:float -> n:float -> float

(** The companion of every quantity the builder computes.  Masses and
    probabilities are plain floats shared by every instance; a domain
    sees them only as arguments.  Each function receives the concrete
    value it accompanies where the companion depends on it. *)
module type DOMAIN = sig
  type env  (** companion of one context's bindings *)

  type value  (** companion of one bound value *)

  type num  (** companion of one count, trip count or scale *)

  type work  (** companion of a node's accumulated work *)

  type node  (** a BET node with its companions *)

  (** The entry parameters and global constants, each standing for
      itself. *)
  val inputs : (string * Value.t) list -> env

  (** [value env e v]: [e], which evaluated to [v] (a [let] right-hand
      side or a call argument). *)
  val value : env -> Ast.expr -> Value.t -> value

  (** A value fixed by control flow: a degenerate loop's midpoint. *)
  val value_lit : Value.t -> value

  val bind : env -> string -> value -> env
  val unbind : env -> string -> env

  (** A quantity fixed by control flow: the 0 or 1 trips of a
      degenerate loop, or a hinted trip count. *)
  val lit : float -> num

  (** The trip count of a node that runs once per entry. *)
  val once : num

  (** [count cs e total]: the mass-weighted sum of [Float.max 0. e]
      over the contexts where [e] evaluates, divided by [total]. *)
  val count : env Context.t list -> Ast.expr -> float -> num

  (** Mass-weighted means: a sum starts at [lit 0.], [weigh sum mass x]
      adds [mass·x] to it, and [per sum total] divides it by [total]. *)
  val weigh : num -> float -> num -> num

  val per : num -> float -> num

  (** [Float.max 0. (Context.expect ~default cs e)]. *)
  val expect : default:float -> env Context.t list -> Ast.expr -> num

  (** Trip count [n] and midpoint [mid] of a loop whose [lo], [hi] and
      positive [step] evaluated to the given values. *)
  val range :
    env -> lo:Ast.expr -> hi:Ast.expr -> step:Ast.expr ->
    Value.t * Value.t * Value.t -> n:float -> mid:Value.t -> num * value

  (** {!while_trips}[ ~p ~n], given [n]'s companion. *)
  val while_trips : p:float -> n:float -> num -> num

  (** [Float.min n (]{!truncated_geometric}[ ~p ~n)], given [n]'s
      companion. *)
  val truncated_geometric : p:float -> n:float -> num -> num

  (** [check v x]: [x] as the companion of [v], verified against it. *)
  val check : float -> num -> num

  val no_work : work

  (** Adds [Work.of_comp] over the companions of the three counts. *)
  val add_comp : work -> flops:num -> iops:num -> divs:num -> vec:int -> work

  (** Adds a work vector fixed by control flow. *)
  val add_lit : work -> Work.t -> work

  (** [touch w accesses bytes]: records the [bytes a] each access moves,
      per array. *)
  val touch : work -> Ast.access list -> (Ast.access -> float) -> work

  (** A library call's work: its profile (if any) at the scale whose
      companion is given. *)
  val lib : num -> Work.t option -> work

  (** A node with its trip count and work, each followed by its
      companion. *)
  val node :
    id:int -> block:Block_id.t -> kind:Node.kind -> prob:float -> note:string ->
    trips:float -> num -> work:Work.t -> work -> node list -> node

  (** [node] with its trip count replaced (a loop's effective trips). *)
  val retrip : node -> float -> num -> node
end

(** The builder over domain [D].  [build] returns the root node and
    the deduplicated warnings, in order; it records the [bet_build]
    span and the [bet_nodes_built] count. *)
module Make (D : DOMAIN) : sig
  val build :
    ?hints:Hints.t ->
    ?lib_work:(string -> Work.t option) ->
    ?max_contexts:int ->
    ?inputs:(string * Value.t) list ->
    Ast.program ->
    D.node * string list
end

(** Build the BET for a program.

    [inputs] supplies the entry parameters and global constants (the
    paper's "hint file"), visible in every function.  [hints] carries
    profiled branch statistics, which override declared probabilities.
    [lib_work] maps a library function name to its per-unit-scale
    instruction mix (§IV-C).  [max_contexts] caps the number of
    simultaneously tracked contexts per program point. *)
val build :
  ?hints:Hints.t ->
  ?lib_work:(string -> Work.t option) ->
  ?max_contexts:int ->
  ?inputs:(string * Value.t) list ->
  Ast.program ->
  result
