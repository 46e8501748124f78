open Skope_hw
open Skope_analysis

(* Floats are rendered with full precision ("%.17g") so that any
   parameter perturbation — however small — yields a distinct key. *)
let f = Skope_report.Json.float_g17

let canonical ~workload ~(machine : Machine.t) ~scale
    ~(criteria : Hotspot.criteria) ~top ~engine =
  let b = Buffer.create 320 in
  let field key value =
    Buffer.add_char b ';';
    Buffer.add_string b key;
    Buffer.add_char b '=';
    Buffer.add_string b value
  in
  let cache_level key (c : Machine.cache_level) =
    field key (string_of_int c.size_bytes);
    List.iter
      (fun v ->
        Buffer.add_char b '/';
        Buffer.add_string b v)
      [ string_of_int c.line_bytes; string_of_int c.assoc; f c.latency_cycles ]
  in
  Buffer.add_string b "v2";
  field "workload" workload;
  field "engine" engine;
  field "machine" machine.name;
  field "freq" (f machine.freq_ghz);
  field "issue" (f machine.issue_width);
  field "vec" (string_of_int machine.vector_width);
  field "fma" (string_of_bool machine.fma);
  field "flop_issue" (f machine.flop_issue_per_cycle);
  field "div" (f machine.div_latency);
  field "vec_eff" (f machine.vec_efficiency);
  cache_level "l1" machine.l1;
  cache_level "l2" machine.l2;
  field "mem_lat" (f machine.mem_latency_cycles);
  field "mem_bw" (f machine.mem_bw_gbs);
  field "mlp" (f machine.mlp);
  field "scale" (f scale);
  field "coverage" (f criteria.time_coverage);
  field "leanness" (f criteria.code_leanness);
  field "top" (string_of_int top);
  Buffer.contents b

let of_query ~workload ~machine ~scale ~criteria ~top ~engine =
  Digest.to_hex
    (Digest.string (canonical ~workload ~machine ~scale ~criteria ~top ~engine))
