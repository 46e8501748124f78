(** Differential fuzzing harness over generated skeletons.

    Every case must pass five gates:

    + {b round-trip}: parse(pretty(p)) is structurally identical to p
      (modulo load/store fission, {!Skope_skeleton.Equal}), and
      pretty-printing the reparse reproduces the exact text;
    + {b lint}: {!Skope_lint.Engine.run} neither raises nor reports an
      [Error]-severity finding (the generator promises error-free
      programs);
    + {b audit}: {!Skope_lint.Audit.run} neither raises nor reports an
      [Error] (generated comm exchanges are phased, so A007 must stay
      quiet);
    + {b pricing parity}: arena pricing
      ({!Skope_analysis.Arena_price}) agrees bit-for-bit with its
      oracle, the tree walk ({!Skope_analysis.Perf}), on total time
      and ranked block statistics;
    + {b sim bounds}: {!Skope_sim.Interp} executes the program; both
      the simulated and the projected times must be finite and
      positive, and their ratio within a (generous) factor — the
      analytic model and the simulator may disagree on constants but
      never catastrophically.

    A failing case carries a one-line reproducer command that
    regenerates and re-checks exactly that case. *)

type gate = Roundtrip | Lint | Audit | Parity | Sim

val gate_name : gate -> string

(** Number of gates every case runs through. *)
val n_gates : int

type failure = {
  index : int;
  archetype : Archetype.t;
  gate : gate;
  detail : string;
  repro : string;
}

type report = {
  total : int;
  gates_per_case : int;
  failures : failure list;  (** ordered by case index, then gate *)
  by_archetype : (Archetype.t * int) list;  (** cases per archetype *)
}

(** The one-line command that regenerates case [index]:
    [skope fuzz --seed S --index I ...] plus whichever config flags
    differ from the defaults.  [archetype] must be passed iff the run
    forced one (the forced and mixed streams differ). *)
val repro_command :
  ?config:Gen.config -> ?archetype:Archetype.t -> seed:int64 -> index:int ->
  unit -> string

(** Check one case against every gate; returns its failures (empty =
    clean).  [sim_bound] is the allowed analyze/sim time ratio in
    either direction (default 1e4). *)
val check_case :
  ?sim_bound:float -> repro:string -> Gen.case -> failure list

(** Generate and check cases [0 .. count-1].  [jobs] parallelizes
    across domains; the report is deterministic for fixed
    [(seed, config, archetype, count)] regardless of [jobs]. *)
val run :
  ?config:Gen.config ->
  ?archetype:Archetype.t ->
  ?jobs:int ->
  ?sim_bound:float ->
  seed:int64 ->
  count:int ->
  unit ->
  report

val report_json : seed:int64 -> report -> Skope_report.Json.t
