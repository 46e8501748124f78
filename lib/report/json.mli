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

(** A growable byte buffer that keeps its capacity and lets its bytes
    be used in place: a socket write or read can take them, and
    {!check_buf} scans them, where [Stdlib.Buffer] would copy them
    out.  The content is the bytes [\[0, length)] of {!Buf.bytes}.
    A server worker owns one for its replies (see [Server]), so it
    grows to the largest reply the worker writes and stays that size. *)
module Buf : sig
  type t

  (** An empty buffer with room for [n] bytes (at least 16). *)
  val create : int -> t

  val length : t -> int

  (** The backing store: the content, then free space.  Valid until
      the next call that grows the buffer ({!reserve} or an add). *)
  val bytes : t -> Bytes.t

  (** Empty the buffer, keeping its capacity. *)
  val clear : t -> unit

  (** Keep the first [n] bytes.
      @raise Invalid_argument unless [0 <= n <= length]. *)
  val truncate : t -> int -> unit

  (** Make room for [n] more bytes past the content, doubling the
      capacity as often as that takes. *)
  val reserve : t -> int -> unit

  (** Count [n] bytes written into the free space after the content
      as content.
      @raise Invalid_argument when they run past the capacity. *)
  val advance : t -> int -> unit

  val add_char : t -> char -> unit
  val add_string : t -> string -> unit

  (** [sub_string b pos n] copies [n] content bytes from [pos].
      @raise Invalid_argument when they are not all content. *)
  val sub_string : t -> int -> int -> string
end

(** [write b v] appends [v]'s text to [b]: the bytes of {!to_string}
    without the copy. *)
val write : Buf.t -> t -> unit

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

(** {!check} of [b]'s content, scanned where it lies: the same answer
    and the same error as [check] on those bytes as a string, and no
    allocation per byte. *)
val check_buf : Buf.t -> (unit, string) result

(** {1 Accessors}

    Total lookups used by the service layer to destructure requests. *)

val member : string -> t -> t option
val to_string_opt : t -> string option
val to_float_opt : t -> float option
val to_int_opt : t -> int option
