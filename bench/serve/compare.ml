(* skope_bench compare: paired verdicts between two sets of runs.

   Inputs are bench-run.json files from untraced runs of the same
   benchmark settings; the i-th base file pairs with the i-th change
   file, so alternate the two commits while collecting them.  Metric
   directions and bounds come from BENCHMARK.json. *)

module Json = Core.Report.Json

type spec = { name : string; dir : Stats.direction; bound : float }

let read path =
  match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error msg -> failwith (path ^ ": " ^ msg)

let specs path =
  Report.items [ "end_to_end" ] (read path)
  |> List.filter_map (fun m ->
         match
           ( Report.text [ "name" ] m,
             Option.bind (Report.text [ "better" ] m) Stats.direction_of_string,
             Report.number [ "bound" ] m )
         with
         | Some name, Some dir, Some bound -> Some { name; dir; bound }
         | _ -> None)

(* workload -> per-run entries, in file order. *)
let entries files =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun f ->
      let run = read f in
      if Report.text [ "mode" ] run = Some "e2e" then
        List.iter
          (fun w ->
            Option.iter
              (fun name ->
                Hashtbl.replace tbl name
                  (w :: Option.value ~default:[] (Hashtbl.find_opt tbl name)))
              (Report.text [ "name" ] w))
          (Report.items [ "workloads" ] run))
    files;
  fun name -> List.rev (Option.value ~default:[] (Hashtbl.find_opt tbl name))

let values metric ws =
  Array.of_list (List.filter_map (Report.number [ "metrics"; metric; "value" ]) ws)

let error_rate ws =
  let sum k =
    List.fold_left (fun a w -> a +. Option.value ~default:0. (Report.number [ k ] w)) 0. ws
  in
  let attempted = sum "attempted" in
  if attempted = 0. then 0. else sum "failed" /. attempted

let run ~spec ~base ~change =
  let specs = specs spec in
  let base = entries base and change = entries change in
  let failed = ref false in
  Printf.printf "%-13s %-15s %-28s %-28s %-6s %s\n" "workload" "metric"
    "base median [p25, p75]" "change median [p25, p75]" "wins" "verdict";
  List.iter
    (fun kind ->
      let w = Traffic.name kind in
      let bs = base w and cs = change w in
      if bs = [] || cs = [] then Printf.printf "%-13s (no runs on one side)\n" w
      else begin
        List.iter
          (fun s ->
            let a = values s.name bs and b = values s.name cs in
            if Array.length a > 0 && Array.length b > 0 then begin
              let q (x : float array) =
                let q1, m, q3 = Stats.quartiles x in
                Printf.sprintf "%.5g [%.5g, %.5g]" m q1 q3
              in
              let v = Stats.verdict s.dir ~bound:s.bound ~base:a ~change:b in
              if v = Stats.Regressed then failed := true;
              Printf.printf "%-13s %-15s %-28s %-28s %-6.2f %s\n" w s.name (q a) (q b)
                (Stats.win_fraction s.dir ~base:a ~change:b)
                (Stats.verdict_to_string v)
            end)
          specs;
        let ea = error_rate bs and eb = error_rate cs in
        if eb > ea then begin
          failed := true;
          Printf.printf "%-13s error_rate rose: %.3g -> %.3g\n" w ea eb
        end
      end)
    Traffic.all;
  not !failed
