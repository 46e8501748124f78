(** Seeded fault injection for `skoped` — a deterministic chaos layer.

    A {!spec} gives each fault class an independent probability; a
    seeded {!t} turns it into a reproducible stream of per-request
    {!decision}s.  The server applies decisions at well-defined points
    of a request's lifecycle (see {!Server}), so every client
    retry/degradation path can be exercised deterministically in tests
    and in the smoke script: same seed, same spec, same traffic order
    — same faults.

    Spec strings are comma-separated [key=value] pairs:

    - [drop=P] — close the connection before reading the request;
    - [overload=P] — answer with a transient [overloaded] error
      (plus a [retry_after_ms] hint) instead of dispatching;
    - [truncate=P] — write only the first half of the response and
      close without the terminating newline;
    - [delay_p=P], [delay_ms=MS] — sleep [MS] milliseconds before
      writing the response, with probability [P].

    Example: [drop=0.3,delay_p=0.2,delay_ms=50,overload=0.1]. *)

type spec = {
  drop : float;  (** probability of dropping the connection *)
  overload : float;  (** probability of an injected overloaded reply *)
  truncate : float;  (** probability of truncating the response *)
  delay_p : float;  (** probability of delaying the response *)
  delay_ms : float;  (** delay length when a delay fires *)
}

(** All probabilities zero. *)
val no_faults : spec

(** Parse a spec string ([drop=0.3,delay_ms=50,...]).  Unknown keys,
    non-numeric values and probabilities outside [0, 1] are errors. *)
val spec_of_string : string -> (spec, string) result

val spec_to_string : spec -> string

type t

(** A fault stream: [spec] plus a seeded deterministic generator.
    Thread-safe — worker domains share one [t]. *)
val create : ?seed:int -> spec -> t

val spec : t -> spec

val seed : t -> int
(** The seed this stream was created with — stamped on the structured
    log event each injected fault emits, so a logged fault names the
    schedule that produced it. *)

(** What to do with one request.  Fault classes draw independently
    (in the fixed order drop, overload, truncate, delay) so a given
    seed yields the same decision sequence regardless of which faults
    are enabled. *)
type decision = {
  d_drop : bool;
  d_overload : bool;
  d_truncate : bool;
  d_delay_ms : float option;
}

(** No faults fire. *)
val clean : decision

val decide : t -> decision

(** Number of faults a decision will inject (for the
    [faults_injected_total] counter). *)
val injected : decision -> int
