(* Printing: one "workload metric value unit" line per metric, the
   single-line JSON result last, and the bench-run.json record; plus the
   JSON lookups that reading replies and run records needs. *)

module Json = Core.Report.Json

(* Lookups along a path of object keys: [field ["a"; "b"] j] is j.a.b
   when present. *)
let field path j = List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path
let number path j = Option.bind (field path j) Json.to_float_opt
let text path j = Option.bind (field path j) Json.to_string_opt
let items path j = match field path j with Some (Json.List l) -> l | _ -> []

type metric = {
  name : string;
  unit_ : string;
  value : float;
  detail : string;  (** e.g. quartiles and sample count; may be empty *)
}

let metric ?(detail = "") name unit_ value = { name; unit_; value; detail }

(* Median with nearest-rank quartiles and the sample count; an empty
   sample (a layer the workload never calls) reads 0. *)
let dist name unit_ samples =
  let s = Stats.sorted samples in
  let n = Array.length s in
  if n = 0 then metric ~detail:"n=0" name unit_ 0.
  else
    metric
      ~detail:
        (Printf.sprintf "p25=%.4g p75=%.4g n=%d" (Stats.percentile s 25)
           (Stats.percentile s 75) n)
      name unit_ (Stats.percentile s 50)

let print_line workload m =
  Printf.printf "%-13s %-27s %-12.6g %s%s\n" workload m.name m.value m.unit_
    (if m.detail = "" then "" else "  " ^ m.detail)

let metrics_json ms =
  Json.Obj
    (List.map
       (fun m ->
         (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
       ms)

let result_line ~correct ~attempted ~failed ms =
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", metrics_json ms);
          ]))

type entry = {
  workload : string;
  attempted : int;
  failed : int;
  correct : bool;
  extra : (string * Json.t) list;
  metrics : metric list;
}

let host () =
  let cpu =
    try
      In_channel.with_open_bin "/proc/cpuinfo" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | key :: value :: _ when String.trim key = "model name" ->
               Some (String.trim value)
             | _ -> None)
    with Sys_error _ -> None
  in
  Json.Obj
    [
      ("name", Json.String (Unix.gethostname ()));
      ("cpu", Json.String (Option.value ~default:"unknown" cpu));
      ("cores", Json.Int (Domain.recommended_domain_count ()));
    ]

let write_run ~file ~mode ~seed ~seconds ~clients entries =
  let entry e =
    Json.Obj
      ([
         ("name", Json.String e.workload);
         ("attempted", Json.Int e.attempted);
         ("failed", Json.Int e.failed);
         ("correct", Json.Bool e.correct);
       ]
      @ e.extra
      @ [ ("metrics", metrics_json e.metrics) ])
  in
  let json =
    Json.Obj
      [
        ("schema", Json.String "skope-bench-run/1");
        ("mode", Json.String mode);
        ("commit", Json.String Core.Version.git);
        ("version", Json.String Core.Version.describe);
        ("host", host ());
        ("seed", Json.Int seed);
        ("seconds", Json.Float seconds);
        ("clients", Json.Int clients);
        ("workloads", Json.List (List.map entry entries));
      ]
  in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n')
