(** Hardware design-space exploration: machine variants along one
    design axis — or a multi-axis grid — for sweeping conceptual
    architectures without any target execution (the point of the
    paper's title). *)

type axis =
  | Mem_bandwidth of float list  (** GB/s per core *)
  | Mem_latency of float list  (** cycles *)
  | Vector_width of int list
  | Issue_width of float list
  | Frequency of float list  (** GHz *)
  | L2_size of int list  (** bytes *)
  | Div_latency of float list

val axis_name : axis -> string

(** The short protocol/CLI key of an axis: ["bw"], ["lat"], ["vec"],
    ["issue"], ["freq"], ["l2"], ["div"]. *)
val axis_key : axis -> string

(** Every recognized short key, in canonical order (the capabilities
    response advertises these). *)
val axis_keys : string list

(** The one validity rule for a machine parameter, shared by swept
    axis values and protocol overrides: [positive what v] accepts a
    positive finite [v]; [positive_int what v] a positive integer (the
    integral parameters: vector width, L2 size).  [Error] is a message
    naming [what] and [v]. *)
val positive : string -> float -> (float, string) result

val positive_int : string -> float -> (int, string) result

(** Build an axis from its short key and swept values, each checked
    by {!positive} ({!positive_int} on the vector-width and L2 axes).
    [Error] carries a human-readable message: the first bad value, or
    the recognized keys. *)
val axis_of_key : string -> float list -> (axis, string) result

(** The swept values of an axis, as floats. *)
val axis_values : axis -> float list

(** Machine variants along [axis], tagged with the swept value. *)
val variants : Machine.t -> axis -> (string * Machine.t) list

(** Quarter to quadruple the base machine's memory bandwidth. *)
val default_bandwidth_sweep : Machine.t -> (string * Machine.t) list

(** One grid point: a machine with every axis value applied, under
    the base machine's name (so its projection matches an equivalent
    override of the base).  On a single axis the tag is the bare
    [variants] tag (["7.0"]); with more axes, comma-joined [key=tag]
    pairs (["bw=7.0,vec=4"]).  A grid formats each axis level's tag
    once, not once per point. *)
type point = {
  p_tag : string;
  p_values : (string * float) list;  (** axis key -> swept value *)
  p_machine : Machine.t;
}

(** Full cartesian product of [axes] around [base]; the first axis
    varies slowest, so a one-axis grid lists points in [variants]
    order. *)
val grid : Machine.t -> axis list -> point list

(** A point's swept values as ["bw=7,freq=0.8"], at ["%g"] precision:
    how an error names a point, since its tag rounds ([1e-320] GB/s
    tags as ["0.0"]). *)
val values_label : (string * float) list -> string

(** Number of points {!grid} would produce, without building them. *)
val grid_size : axis list -> int

(** [n] points of the grid chosen by a seeded discrete latin-hypercube
    (each axis's levels are covered as evenly as [n] allows).
    Deterministic for a given [seed] (default 42); duplicates are
    dropped, so fewer than [n] points may return. *)
val sample : ?seed:int -> n:int -> Machine.t -> axis list -> point list
