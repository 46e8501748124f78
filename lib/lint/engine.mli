(** Abstract-interpretation lint pass over skeleton programs.

    Walks the program from its entry function with an {!Interval}
    environment seeded from the supplied inputs, inlining calls (the
    BET mounts callee trees in place, so this mirrors projection),
    and emits {!Diagnostic.t}s with stable rule codes:

    {ul
    {- [L001] zero-or-negative-trip loop / non-positive step}
    {- [L002] possible division by zero}
    {- [L003] probability outside [\[0, 1\]]}
    {- [L004] array index possibly out of bounds}
    {- [L005] statically dead branch}
    {- [L006] comp statement modeling zero work}
    {- [L007] function unreachable from the entry point}
    {- [L008] data-dependent construct without a profile hint (info)}
    {- [L009] unbounded while loop ([p_continue] = 1 and no finite cap)}
    {- [L010] send/recv volume asymmetry}
    {- [L011] the statement-visit budget ran out (see {!run})}}

    The pass subsumes {!Validate.check}'s literal-only loop-step and
    vec checks by evaluating expressions symbolically; it assumes the
    program already passed validation and degrades gracefully (skips,
    never raises) when it has not.  Soundness caveats are documented
    in DESIGN.md §9.

    Cost: each loop is widened by walks that track bindings only (no
    checks, no callees), so a [d]-deep loop nest costs about [d²]
    statement visits (DESIGN.md §9 has the case that still costs
    [2^d]), and a diagnostic's message and notes are formatted only
    when the diagnostic is kept. *)

open Skope_skeleton

type config = {
  disabled : string list;  (** rule codes to suppress, e.g. [["L008"]] *)
}

val default_config : config

(** [code, one-line summary] for every rule, in code order; drives
    [skope lint --rules] and the README table. *)
val rules : (string * string) list

(** Run the pass.  [inputs] seed the environment exactly as they seed
    {!Skope_bet.Build}; unlisted context variables start at top.
    Result is {!Diagnostic.normalize}d.

    The pass visits at most 200000 statements, widening walks
    included; the count is added to the [lint_visits] telemetry
    counter.  When the budget runs out, the statements left are
    skipped, L005 and L010 are not judged (their verdicts and totals
    would miss those visits) and one [L011] warning points at the
    first statement skipped. *)
val run :
  ?config:config ->
  ?inputs:(string * Skope_bet.Value.t) list ->
  Ast.program ->
  Diagnostic.t list

exception Rejected of Diagnostic.t list

(** [check_exn ?inputs p] raises {!Rejected} when [run] finds at
    least one [Error]-severity diagnostic (warnings and infos pass).
    Used by the projection pipeline to refuse meaningless models. *)
val check_exn : ?inputs:(string * Skope_bet.Value.t) list -> Ast.program -> unit
