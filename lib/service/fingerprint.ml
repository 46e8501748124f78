open Skope_hw
open Skope_analysis

(* Printf's own float primitive, called without a format interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

(* Floats are rendered with full precision so that any parameter
   perturbation — however small — yields a distinct key. *)
let f x = format_float "%.17g" x

let cache_level (c : Machine.cache_level) =
  String.concat "/"
    [
      string_of_int c.size_bytes;
      string_of_int c.line_bytes;
      string_of_int c.assoc;
      f c.latency_cycles;
    ]

let canonical ~workload ~(machine : Machine.t) ~scale
    ~(criteria : Hotspot.criteria) ~top ~engine =
  String.concat ";"
    [
      "v2";
      "workload=" ^ workload;
      "engine=" ^ engine;
      "machine=" ^ machine.name;
      "freq=" ^ f machine.freq_ghz;
      "issue=" ^ f machine.issue_width;
      "vec=" ^ string_of_int machine.vector_width;
      "fma=" ^ string_of_bool machine.fma;
      "flop_issue=" ^ f machine.flop_issue_per_cycle;
      "div=" ^ f machine.div_latency;
      "vec_eff=" ^ f machine.vec_efficiency;
      "l1=" ^ cache_level machine.l1;
      "l2=" ^ cache_level machine.l2;
      "mem_lat=" ^ f machine.mem_latency_cycles;
      "mem_bw=" ^ f machine.mem_bw_gbs;
      "mlp=" ^ f machine.mlp;
      "scale=" ^ f scale;
      "coverage=" ^ f criteria.time_coverage;
      "leanness=" ^ f criteria.code_leanness;
      "top=" ^ string_of_int top;
    ]

let of_query ~workload ~machine ~scale ~criteria ~top ~engine =
  Digest.to_hex
    (Digest.string (canonical ~workload ~machine ~scale ~criteria ~top ~engine))
