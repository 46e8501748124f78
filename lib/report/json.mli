(** Minimal JSON emitter and parser (no external dependencies).

    Non-finite floats serialize as [null] (NaN) or out-of-range
    literals; strings are escaped per RFC 8259. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
      (** text emitted verbatim: always the {!to_string} of some
          value, kept so that a value rendered once (a cached
          projection) is spliced into larger replies without being
          rendered again.  The parser never produces it, and the
          accessors see no structure in it. *)

val to_string : t -> string

(** How a [Float] is emitted: integral values below 1e15 in magnitude
    as ["%.1f"], other finite values as ["%.17g"] (so they read back
    bit for bit), NaN as [null] and infinities as [±1e999].  The bytes
    are Printf's; see {!float_g17} for how they are made. *)
val float_repr : float -> string

(** The bytes of [Printf.sprintf "%.17g"], without its format
    interpreter or the C call where the value allows.  Integer values
    below 1e17 in magnitude print their digits; other values with
    1e-10 <= |x| < 1e17 take their 17 significant digits from an exact
    multi-limb product, rounded half to even as the C library rounds;
    every other value goes to the C primitive. *)
val float_g17 : float -> string

(** Parse one RFC 8259 JSON text.  Numbers without a fraction or
    exponent that fit [int] parse as [Int], everything else as
    [Float]; out-of-range literals such as [1e999] become infinities.
    String escapes (including [\uXXXX] and surrogate pairs, decoded to
    UTF-8) are handled.  Errors carry a byte offset and a message;
    trailing non-whitespace input is an error. *)
val of_string : string -> (t, string) result

(** [check s] is [Ok ()] exactly when [of_string s] is [Ok _], with the
    same error otherwise, but builds no tree: a relay that only needs
    to know a reply is well formed pays a scan, not a decode. *)
val check : string -> (unit, string) result

(** {1 Accessors}

    Total lookups used by the service layer to destructure requests. *)

val member : string -> t -> t option
val to_string_opt : t -> string option
val to_float_opt : t -> float option
val to_int_opt : t -> int option
