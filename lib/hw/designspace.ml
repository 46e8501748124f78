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

let axis_values = function
  | Mem_bandwidth vs | Mem_latency vs | Issue_width vs | Frequency vs
  | Div_latency vs ->
    vs
  | Vector_width vs | L2_size vs -> List.map float_of_int vs

(** Machine variants along [axis], each tagged with the swept value
    rendered as a string. *)
let variants (base : Machine.t) (axis : axis) : (string * Machine.t) list =
  let tag fmt v = Fmt.str fmt v in
  match axis with
  | Mem_bandwidth vs ->
    List.map
      (fun v ->
        ( tag "%.1f" v,
          { base with Machine.name = Fmt.str "%s/bw=%.1f" base.Machine.name v;
            mem_bw_gbs = v } ))
      vs
  | Mem_latency vs ->
    List.map
      (fun v ->
        ( tag "%.0f" v,
          { base with Machine.name = Fmt.str "%s/lat=%.0f" base.Machine.name v;
            mem_latency_cycles = v } ))
      vs
  | Vector_width vs ->
    List.map
      (fun v ->
        ( tag "%d" v,
          { base with Machine.name = Fmt.str "%s/vw=%d" base.Machine.name v;
            vector_width = v } ))
      vs
  | Issue_width vs ->
    List.map
      (fun v ->
        ( tag "%.0f" v,
          { base with Machine.name = Fmt.str "%s/iw=%.0f" base.Machine.name v;
            issue_width = v } ))
      vs
  | Frequency vs ->
    List.map
      (fun v ->
        ( tag "%.1f" v,
          { base with Machine.name = Fmt.str "%s/f=%.1f" base.Machine.name v;
            freq_ghz = v } ))
      vs
  | L2_size vs ->
    List.map
      (fun v ->
        ( tag "%dK" (v / 1024),
          {
            base with
            Machine.name = Fmt.str "%s/l2=%dK" base.Machine.name (v / 1024);
            l2 = { base.Machine.l2 with Machine.size_bytes = v };
          } ))
      vs
  | Div_latency vs ->
    List.map
      (fun v ->
        ( tag "%.0f" v,
          { base with Machine.name = Fmt.str "%s/div=%.0f" base.Machine.name v;
            div_latency = v } ))
      vs

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

let with_value axis v =
  match axis with
  | Mem_bandwidth _ -> Mem_bandwidth [ v ]
  | Mem_latency _ -> Mem_latency [ v ]
  | Vector_width _ -> Vector_width [ int_of_float v ]
  | Issue_width _ -> Issue_width [ v ]
  | Frequency _ -> Frequency [ v ]
  | L2_size _ -> L2_size [ int_of_float v ]
  | Div_latency _ -> Div_latency [ v ]

(* Apply one swept value, reusing [variants] so tags (and therefore
   the single-axis wire format) stay identical to a plain sweep. *)
let apply machine axis v =
  match variants machine (with_value axis v) with
  | [ (tag, m) ] -> (tag, m)
  | _ -> assert false

let empty_point base = { p_tag = ""; p_values = []; p_machine = base }

let extend ~single pt axis v =
  let tag, m = apply pt.p_machine axis v in
  let tag = if single then tag else axis_key axis ^ "=" ^ tag in
  {
    p_tag = (if pt.p_tag = "" then tag else pt.p_tag ^ "," ^ tag);
    p_values = pt.p_values @ [ (axis_key axis, v) ];
    p_machine = m;
  }

(** Full cartesian product of [axes] around [base]; the first axis
    varies slowest, so a one-axis grid lists points in [variants]
    order (byte-compatible with a sweep). *)
let grid (base : Machine.t) (axes : axis list) : point list =
  let single = match axes with [ _ ] -> true | _ -> false in
  List.fold_left
    (fun pts axis ->
      List.concat_map
        (fun pt ->
          List.map (fun v -> extend ~single pt axis v) (axis_values axis))
        pts)
    [ empty_point base ] axes

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
  let columns =
    List.map
      (fun axis ->
        let vs = Array.of_list (axis_values axis) in
        let idx = Array.init n (fun i -> i * Array.length vs / n) in
        shuffle idx;
        (axis, idx, vs))
      axes
  in
  let single = match axes with [ _ ] -> true | _ -> false in
  let pts =
    List.init n (fun i ->
        List.fold_left
          (fun pt (axis, idx, vs) -> extend ~single pt axis vs.(idx.(i)))
          (empty_point base) columns)
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
