(** Hardware design-space exploration.

    The point of the paper's title: because projection needs no
    execution on the target, a designer can sweep architecture
    parameters of a {e conceptual} machine and watch how the
    application's hot spots and bottlenecks move.  This module builds
    machine variants along one design axis; the examples and benches
    combine it with the pipeline to produce sensitivity tables. *)

type axis =
  | Mem_bandwidth of float list  (** GB/s per core *)
  | Mem_latency of float list  (** cycles *)
  | Vector_width of int list
  | Issue_width of float list
  | Frequency of float list  (** GHz *)
  | L2_size of int list  (** bytes *)
  | Div_latency of float list

let axis_name = function
  | Mem_bandwidth _ -> "memory bandwidth (GB/s)"
  | Mem_latency _ -> "memory latency (cycles)"
  | Vector_width _ -> "vector width (DP lanes)"
  | Issue_width _ -> "issue width"
  | Frequency _ -> "frequency (GHz)"
  | L2_size _ -> "L2 size (bytes)"
  | Div_latency _ -> "division latency (cycles)"

(* The short axis keys are the protocol/CLI surface: `--axis bw=...`,
   {"axis":"bw"}; keep them in one place so every layer agrees. *)
let axis_key = function
  | Mem_bandwidth _ -> "bw"
  | Mem_latency _ -> "lat"
  | Vector_width _ -> "vec"
  | Issue_width _ -> "issue"
  | Frequency _ -> "freq"
  | L2_size _ -> "l2"
  | Div_latency _ -> "div"

let axis_keys = [ "bw"; "lat"; "vec"; "issue"; "freq"; "l2"; "div" ]

(* One validity rule for a machine parameter, whether an axis sweeps
   it or a protocol override sets it: a real-valued parameter must be
   positive and finite, an integral one (vector width, L2 size) a
   positive integer.  2^53 bounds the integers a float holds exactly. *)
let positive what v =
  if Float.is_finite v && v > 0. then Ok v
  else Error (Printf.sprintf "%s must be positive and finite (got %g)" what v)

let positive_int what v =
  if Float.is_integer v && v >= 1. && v <= 0x1p53 then Ok (int_of_float v)
  else Error (Printf.sprintf "%s must be a positive integer (got %g)" what v)

let axis_of_key key values =
  let rec each check = function
    | [] -> Ok []
    | v :: rest ->
      Result.bind (check v) (fun x ->
          Result.map (fun xs -> x :: xs) (each check rest))
  in
  let key = String.lowercase_ascii key in
  let what = Printf.sprintf "axis %S value" key in
  let reals make = Result.map make (each (positive what) values) in
  let ints make = Result.map make (each (positive_int what) values) in
  match key with
  | "bw" -> reals (fun vs -> Mem_bandwidth vs)
  | "lat" -> reals (fun vs -> Mem_latency vs)
  | "vec" -> ints (fun vs -> Vector_width vs)
  | "issue" -> reals (fun vs -> Issue_width vs)
  | "freq" -> reals (fun vs -> Frequency vs)
  | "l2" -> ints (fun vs -> L2_size vs)
  | "div" -> reals (fun vs -> Div_latency vs)
  | other ->
    Error
      (Printf.sprintf "unknown axis %S (expected %s)" other
         (String.concat "|" axis_keys))

let distinct axes =
  let keys = List.map axis_key axes in
  match
    List.find_opt (fun k -> List.length (List.filter (( = ) k) keys) > 1) keys
  with
  | Some k -> Error (Printf.sprintf "axis %S appears more than once" k)
  | None -> Ok ()

let axis_values = function
  | Mem_bandwidth vs | Mem_latency vs | Issue_width vs | Frequency vs
  | Div_latency vs ->
    vs
  | Vector_width vs | L2_size vs -> List.map float_of_int vs

(* How a swept value is shown: the tag of a sweep point ("7.0", "4",
   "512K") and, in [variants], the machine-name suffix ("bw=7.0"). *)
let tag axis v =
  match axis with
  | Mem_bandwidth _ | Frequency _ -> Printf.sprintf "%.1f" v
  | Mem_latency _ | Issue_width _ | Div_latency _ -> Printf.sprintf "%.0f" v
  | Vector_width _ -> string_of_int (int_of_float v)
  | L2_size _ -> string_of_int (int_of_float v / 1024) ^ "K"

let name_key = function
  | Mem_bandwidth _ -> "bw"
  | Mem_latency _ -> "lat"
  | Vector_width _ -> "vw"
  | Issue_width _ -> "iw"
  | Frequency _ -> "f"
  | L2_size _ -> "l2"
  | Div_latency _ -> "div"

(* [m] with the parameter [axis] sweeps set to [v]. *)
let set axis (m : Machine.t) v =
  match axis with
  | Mem_bandwidth _ -> { m with Machine.mem_bw_gbs = v }
  | Mem_latency _ -> { m with Machine.mem_latency_cycles = v }
  | Vector_width _ -> { m with Machine.vector_width = int_of_float v }
  | Issue_width _ -> { m with Machine.issue_width = v }
  | Frequency _ -> { m with Machine.freq_ghz = v }
  | L2_size _ ->
    { m with Machine.l2 = { m.Machine.l2 with Machine.size_bytes = int_of_float v } }
  | Div_latency _ -> { m with Machine.div_latency = v }

(** Machine variants along [axis], each tagged with the swept value
    rendered as a string. *)
let variants (base : Machine.t) (axis : axis) : (string * Machine.t) list =
  List.map
    (fun v ->
      let tag = tag axis v in
      ( tag,
        {
          (set axis base v) with
          Machine.name = base.Machine.name ^ "/" ^ name_key axis ^ "=" ^ tag;
        } ))
    (axis_values axis)

(** A balanced sweep around [base] for quick exploration: halve and
    double the memory bandwidth. *)
let default_bandwidth_sweep (base : Machine.t) =
  let bw = base.Machine.mem_bw_gbs in
  variants base (Mem_bandwidth [ bw /. 4.; bw /. 2.; bw; bw *. 2.; bw *. 4. ])

(* --- multi-axis grids ---------------------------------------------- *)

type point = {
  p_tag : string;  (** ["7.0"] on one axis, ["bw=7.0,vec=4"] on more *)
  p_values : (string * float) list;  (** axis key -> swept value *)
  p_machine : Machine.t;
}

(* One axis's levels, each tag formatted once per grid: the bare tag
   on a single axis (so a one-axis grid matches a sweep byte for
   byte), ["key=tag"] on more. *)
type level = { axis : axis; key : string; value : float; label : string }

let levels ~single axis =
  let key = axis_key axis in
  List.map
    (fun value ->
      let t = tag axis value in
      { axis; key; value; label = (if single then t else key ^ "=" ^ t) })
    (axis_values axis)

(* A point from one level per axis, in axis order.  The machine keeps
   [base]'s name, so a point's result (and its service fingerprint)
   matches an equivalent override query. *)
let point base chosen =
  {
    p_tag = String.concat "," (List.map (fun l -> l.label) chosen);
    p_values = List.map (fun l -> (l.key, l.value)) chosen;
    p_machine = List.fold_left (fun m l -> set l.axis m l.value) base chosen;
  }

(** Full cartesian product of [axes] around [base]; the first axis
    varies slowest, so a one-axis grid lists points in [variants]
    order (byte-compatible with a sweep). *)
let grid (base : Machine.t) (axes : axis list) : point list =
  let single = match axes with [ _ ] -> true | _ -> false in
  let rec go chosen = function
    | [] -> [ point base (List.rev chosen) ]
    | ls :: rest -> List.concat_map (fun l -> go (l :: chosen) rest) ls
  in
  go [] (List.map (levels ~single) axes)

let values_label values =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%s=%g" k v) values)

(** Number of points [grid] would produce, without building them. *)
let grid_size axes =
  List.fold_left (fun acc a -> acc * List.length (axis_values a)) 1 axes

(* Small deterministic xorshift; sampling must be reproducible across
   runs and machines, so no dependency on Stdlib.Random. *)
let sample ?(seed = 42) ~n (base : Machine.t) (axes : axis list) : point list =
  let n = max 1 n in
  let state = ref (((seed * 2654435761) lxor 0x9e3779b9) lor 1) in
  let next () =
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    let x = x land max_int in
    state := x;
    x
  in
  let shuffle a =
    for i = Array.length a - 1 downto 1 do
      let j = next () mod (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done
  in
  (* One stratified column per axis: sample [i]'s level index is drawn
     evenly across the axis's values then shuffled, so each axis's
     marginal coverage is as uniform as [n] allows — a discrete latin
     hypercube.  Duplicate points (possible when an axis has fewer
     levels than [n]) are dropped, keeping the first occurrence. *)
  let single = match axes with [ _ ] -> true | _ -> false in
  let columns =
    List.map
      (fun axis ->
        let ls = Array.of_list (levels ~single axis) in
        let idx = Array.init n (fun i -> i * Array.length ls / n) in
        shuffle idx;
        (idx, ls))
      axes
  in
  let pts =
    List.init n (fun i ->
        point base (List.map (fun (idx, ls) -> ls.(idx.(i))) columns))
  in
  let seen = Hashtbl.create 16 in
  List.filter
    (fun p ->
      if Hashtbl.mem seen p.p_tag then false
      else begin
        Hashtbl.add seen p.p_tag ();
        true
      end)
    pts
