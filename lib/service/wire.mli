(** Socket helpers the client and the server share. *)

(** Close a descriptor, ignoring errors: it is being given up either
    way. *)
val close_quietly : Unix.file_descr -> unit

(** [write_all fd b pos len] writes all of [b]'s bytes [pos, pos+len),
    however many writes that takes. *)
val write_all : Unix.file_descr -> bytes -> int -> int -> unit

(** [newline b i n] is the index of the first ['\n'] in [b]'s bytes
    [i, n), or [-1]: where a newline-framed message ends. *)
val newline : bytes -> int -> int -> int
