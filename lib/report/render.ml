(** Serializers from analysis results to JSON and roofline-position
    tables. *)

open Skope_bet
open Skope_hw
open Skope_analysis

let json_of_work (w : Work.t) =
  Json.Obj
    [
      ("flops", Json.Float w.Work.flops);
      ("iops", Json.Float w.Work.iops);
      ("divs", Json.Float w.Work.divs);
      ("loads", Json.Float w.Work.loads);
      ("stores", Json.Float w.Work.stores);
      ("bytes", Json.Float (Work.bytes w));
    ]

let json_of_blockstat ~total_time (b : Blockstat.t) =
  Json.Obj
    [
      ("block", Json.String (Block_id.to_string b.Blockstat.block));
      ("name", Json.String b.Blockstat.name);
      ("seconds", Json.Float b.Blockstat.time);
      ( "share",
        Json.Float
          (if total_time > 0. then b.Blockstat.time /. total_time else 0.) );
      ("tc", Json.Float b.Blockstat.tc);
      ("tm", Json.Float b.Blockstat.tm);
      ("t_overlap", Json.Float b.Blockstat.t_overlap);
      ("executions", Json.Float b.Blockstat.enr);
      ("static_size", Json.Int b.Blockstat.static_size);
      ("bound", Json.String (Roofline.bound_label b.Blockstat.bound));
      ("work", json_of_work b.Blockstat.work);
    ]

let json_of_projection (p : Perf.projection) =
  Json.Obj
    [
      ("machine", Json.String p.Perf.machine.Machine.name);
      ("total_seconds", Json.Float p.Perf.total_time);
      ( "blocks",
        Json.List
          (List.map (json_of_blockstat ~total_time:p.Perf.total_time) p.Perf.blocks)
      );
    ]

let json_of_selection (s : Hotspot.selection) =
  Json.Obj
    [
      ("coverage", Json.Float s.Hotspot.coverage);
      ("leanness", Json.Float s.Hotspot.leanness);
      ( "criteria",
        Json.Obj
          [
            ("time_coverage", Json.Float s.Hotspot.criteria.Hotspot.time_coverage);
            ("code_leanness", Json.Float s.Hotspot.criteria.Hotspot.code_leanness);
          ] );
      ( "spots",
        Json.List
          (List.map
             (fun (sp : Hotspot.spot) ->
               Json.Obj
                 [
                   ("rank", Json.Int sp.Hotspot.rank);
                   ("name", Json.String sp.Hotspot.stat.Blockstat.name);
                   ("coverage", Json.Float sp.Hotspot.coverage);
                   ("cumulative", Json.Float sp.Hotspot.cum_coverage);
                 ])
             s.Hotspot.spots) );
    ]

let rec json_of_hotpath (p : Hotpath.t) =
  Json.Obj
    [
      ("block", Json.String (Block_id.to_string p.Hotpath.node.Node.block));
      ("kind", Json.String (Fmt.str "%a" Node.pp_kind p.Hotpath.node.Node.kind));
      ("hot", Json.Bool p.Hotpath.is_hot);
      ("enr", Json.Float p.Hotpath.enr);
      ("prob", Json.Float p.Hotpath.node.Node.prob);
      ("trips", Json.Float p.Hotpath.node.Node.trips);
      ("seconds", Json.Float p.Hotpath.time);
      ("children", Json.List (List.map json_of_hotpath p.Hotpath.children));
    ]

(** Graphviz DOT rendering of a hot path (the diagram of the paper's
    Fig. 9): hot spots are filled boxes, structural nodes are plain
    ellipses, and edges carry the reaching probability. *)
let dot_of_hotpath ?(graph_name = "hotpath") (p : Hotpath.t) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Fmt.str "digraph %s {\n" graph_name);
  Buffer.add_string buf "  rankdir=TB;\n  node [fontsize=10];\n";
  let escape s =
    String.concat "\\\"" (String.split_on_char '"' s)
  in
  let next = ref 0 in
  let rec emit (t : Hotpath.t) : int =
    let id = !next in
    incr next;
    let label =
      Fmt.str "%s\\nx%.4g"
        (escape (Block_id.to_string t.Hotpath.node.Node.block))
        t.Hotpath.enr
    in
    let style =
      if t.Hotpath.is_hot then
        " shape=box style=filled fillcolor=\"#ffcccc\""
      else " shape=ellipse"
    in
    Buffer.add_string buf (Fmt.str "  n%d [label=\"%s\"%s];\n" id label style);
    List.iter
      (fun (c : Hotpath.t) ->
        let cid = emit c in
        Buffer.add_string buf
          (Fmt.str "  n%d -> n%d [label=\"p=%.3g\"];\n" id cid
             c.Hotpath.node.Node.prob))
      t.Hotpath.children;
    id
  in
  ignore (emit p);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(** Roofline position of each block: operational intensity, attainable
    performance under the roof, achieved performance, and how close to
    the roof the block runs. *)
let roofline_rows ?(opts = Roofline.default_opts) (m : Machine.t)
    (blocks : Blockstat.t list) ~k : string list list =
  List.filteri (fun i _ -> i < k) blocks
  |> List.filter_map (fun (b : Blockstat.t) ->
         if b.Blockstat.time <= 0. then None
         else begin
           let w = b.Blockstat.work in
           let oi = Work.intensity w in
           let achieved = w.Work.flops /. b.Blockstat.time in
           (* The roof's bandwidth leg is DRAM traffic: accesses that
              miss both cache levels fetch whole lines (same traffic
              model as Roofline.memory_time). *)
           let dram_bytes =
             Work.mem_accesses w
             *. (1. -. opts.Roofline.hit_l1)
             *. (1. -. opts.Roofline.hit_l2)
             *. float_of_int m.Machine.l2.Machine.line_bytes
           in
           let attainable =
             if dram_bytes > 0. then
               Roofline.attainable ~opts m ~oi:(w.Work.flops /. dram_bytes)
             else Machine.peak_flops m
           in
           Some
             [
               b.Blockstat.name;
               (if Float.is_finite oi then Fmt.str "%.3f" oi else "inf");
               Fmt.str "%.3g" (achieved /. 1e9);
               Fmt.str "%.3g" (attainable /. 1e9);
               Fmt.str "%.1f%%" (100. *. achieved /. attainable);
               Roofline.bound_label b.Blockstat.bound;
             ]
         end)

let roofline_table ?(opts = Roofline.default_opts) (m : Machine.t)
    (blocks : Blockstat.t list) ~k : Table.t =
  Table.make
    ~title:
      (Fmt.str "roofline positions on %s (peak %.1f GF/s, %.1f GB/s)"
         m.Machine.name
         (Machine.peak_flops m /. 1e9)
         m.Machine.mem_bw_gbs)
    ~headers:
      [ "block"; "flops/byte"; "achieved GF/s"; "attainable GF/s"; "of roof";
        "bound" ]
    ~aligns:Table.[ Left; Right; Right; Right; Right; Left ]
    (roofline_rows ~opts m blocks ~k)
