(** Structured, leveled, rate-limited event logging.

    One JSON object per line: [{"ts":…,"level":…,"event":…,
    "trace_id":…,"attrs":{…}}].  Events are keyed for rate limiting
    by their [event] name — a fault-injection storm or a shedding
    burst cannot flood the log; suppressed repeats are counted and
    reported on the next line that passes the limiter
    (["suppressed":N]).

    This module sits in the telemetry layer (depends only on [unix]),
    so the JSON is emitted locally; the schema is validated against
    the report layer's parser in the test suite.

    The default output is [stderr].  [set_output] redirects every
    line (tests capture, servers could ship to a file); the writer
    must be fast — it runs under the log mutex. *)

type level = Debug | Info | Warn | Error

val level_label : level -> string
(** ["debug" | "info" | "warn" | "error"]. *)

val level_of_string : string -> level option

val set_level : level -> unit
(** Drop events below this level.  Default [Info]. *)

val get_level : unit -> level

(** Attribute values, typed so numbers stay numbers in the JSON. *)
type value = Str of string | F of float | I of int | B of bool

val emit :
  ?level:level -> ?trace_id:string -> string -> (string * value) list -> unit
(** [emit ?level ?trace_id event attrs] writes one JSON line.
    Default level [Info].  Never raises: output-writer exceptions are
    swallowed (logging must not take down the request path). *)

val set_output : (string -> unit) -> unit
(** Redirect lines (without the trailing newline). *)

val use_stderr : unit -> unit
(** Restore the default writer. *)

val set_rate : burst:int -> per_s:float -> unit
(** Per-event token bucket: up to [burst] lines at once, refilled at
    [per_s] lines/second.  Default burst 50 at 10/s.  A non-positive
    [burst] disables rate limiting entirely (useful in tests). *)

val suppressed_total : unit -> int
(** Lines dropped by the rate limiter since process start. *)

val escape : string -> string
(** The body of a JSON string literal for [s] (RFC 8259 escaping,
    control bytes as [\u00XX]); the Chrome exporter writes with it
    too. *)
