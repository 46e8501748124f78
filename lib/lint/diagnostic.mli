(** Span-carrying diagnostics with stable rule codes, a rustc-style
    text renderer and a machine-readable JSON form.

    Used by the lint engine (L001..L011), the validator bridge
    (V001..V011) and the parse-error bridge (P001/P002). *)

open Skope_skeleton

type severity = Info | Warning | Error

val severity_label : severity -> string

(** Info < Warning < Error. *)
val compare_severity : severity -> severity -> int

type t = {
  code : string;  (** stable rule code, e.g. ["L002"] *)
  severity : severity;
  loc : Loc.t;
  message : string;
  notes : string list;
}

val make :
  ?notes:string list -> code:string -> severity:severity -> loc:Loc.t ->
  string -> t

(** Bridge a validator issue (codes V001..V011, severity [Error]). *)
val of_validate : Validate.issue -> t

(** Bridge a lexer (P001) or parser (P002) error. *)
val of_lex_error : Loc.t -> string -> t
val of_parse_error : Loc.t -> string -> t

(** Sort by file, line, column, code; drop exact duplicates. *)
val normalize : t list -> t list

(** [(errors, warnings, infos)] counts. *)
val counts : t list -> int * int * int

val max_severity : t list -> severity option

(** True when [ds] contains an [Error], or a [Warning] and
    [deny_warnings] is set. *)
val fails : ?deny_warnings:bool -> t list -> bool

(** Render one diagnostic; when [source] (the full program text) is
    given, includes the offending line with a caret under the column:

    {v
    warning[L001]: loop never executes
      --> demo.skope:4:3
       |
     4 |   for i = 9 to 0 { comp flops=1 }
       |   ^
       = note: in function `main`
    v} *)
val render : ?source:string -> unit -> t Fmt.t

(** Render a list followed by a [summary] line (when non-empty). *)
val render_all : ?source:string -> unit -> t list Fmt.t

val summary : t list -> string

val to_json : t -> Skope_report.Json.t
val list_to_json : t list -> Skope_report.Json.t
