(* skope_bench: the serving benchmark.

     skope_bench [--workload W] [--seed N] [--seconds S] [--trace 0|1]
     skope_bench compare --base A.json... --change B.json...

   Untraced (the default): for each workload, boot a fresh cluster
   seven times (set-up time is the median), check 64 replies against
   in-process answers and the golden MD5, then run the closed loop for
   S seconds and print the end-to-end metrics, its timings scaled by a
   host-speed probe that runs beside it.  --trace 1 prints the
   per-layer metrics instead and writes a Chrome trace.  Each metric is
   printed as "workload metric value unit"; the last line is one JSON
   object {correct, attempted, failed, metrics}; bench-run.json records
   the run. *)

open Bench_serve

let usage =
  "skope_bench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [options]\n\
   skope_bench compare --base RUN.json... --change RUN.json... [--spec \
   BENCHMARK.json]"

(* The timed phase's timings are scaled to the reference host speed
   (see Hostspeed): a time divides by the run's host factor and a rate
   multiplies by it, so runs on a host slowed by its neighbours compare
   with runs on a quiet one.  Each line's detail keeps the value as the
   clock read it.  Set-up time is not scaled: it is mostly process
   start-up and polling, which a slowed CPU stretches far less than it
   stretches the probe's kernel (README, calibration). *)
let e2e_metrics (r : E2e.result) =
  let f = Hostspeed.factor r.E2e.kernel_ns in
  let latency name raw detail =
    Report.metric name "ms" (raw /. f) ~detail:(Printf.sprintf "raw %.4g; %s" raw detail)
  in
  let lat = r.E2e.load.Load.latencies_ms in
  let n = Array.length lat in
  let tail = Printf.sprintf "n=%d, %d beyond" n (Stats.beyond n 95) in
  let rps =
    float_of_int (r.E2e.load.Load.attempted - r.E2e.load.Load.failed) /. r.E2e.load.Load.elapsed_s
  in
  [
    Report.metric "setup_s" "s"
      (Stats.median (Array.of_list r.E2e.setup_s))
      ~detail:
        (String.concat " " (List.map (Printf.sprintf "%.3f") r.E2e.setup_s));
    (* Over the whole phase: medians of one-second windows would
       quantize explore-grid's ~40 replies a second to a few percent. *)
    Report.metric "throughput_rps" "req/s" (rps *. f)
      ~detail:(Printf.sprintf "raw %.4g; %d requests in %.2f s" rps n r.E2e.load.Load.elapsed_s);
    latency "latency_p50_ms" (Stats.percentile lat 50) (Printf.sprintf "n=%d" n);
    latency "latency_p95_ms" (Stats.percentile lat 95)
      (if Stats.supported n 95 then tail else tail ^ " (unsupported)");
    Report.metric "server_rss_mb" "MB" r.E2e.rss_mb;
  ]

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable trace_file : string;
  mutable out : string;
  mutable skope : string;
  mutable smoke : bool;
}

(* Relative to the repository root, where run.sh starts the benchmark;
   elsewhere (the smoke alias) no golden digests are found and the
   golden check is skipped. *)
let golden_dir = "bench/serve/golden"
let log_dir = "bench-logs"

let run_workload o kind =
  let traffic = Traffic.create kind ~seed:o.seed ~seconds:o.seconds in
  let w = Traffic.name kind in
  if o.trace then begin
    let r =
      Layers.run ~skope:o.skope ~log_dir ~seconds:o.seconds
        ~trace_file:o.trace_file
        ~trace_requests:(if kind = Traffic.Explore_grid then 100 else 500)
        traffic
    in
    List.iter (Report.print_line w) (r.Layers.metrics @ r.Layers.notes);
    {
      Report.workload = w;
      attempted = r.Layers.attempted;
      failed = r.Layers.failed;
      correct = r.Layers.rerender_mismatches = 0;
      extra = [];
      metrics = r.Layers.metrics;
    }
  end
  else begin
    let r =
      E2e.run ~skope:o.skope ~log_dir
        ~setups:(if o.smoke then 1 else 7)
        ~seconds:o.seconds
        ~verify_n:(if o.smoke then 8 else Traffic.verify_count)
        ~golden_dir traffic
    in
    let v = r.E2e.verify and l = r.E2e.load in
    let metrics = e2e_metrics r in
    let attempted = l.Load.attempted + v.Verify.checked
    and failed = l.Load.failed + v.Verify.failed in
    List.iter (Report.print_line w)
      (metrics
      @ [
          Report.metric "error_rate" "ratio" (float_of_int failed /. float_of_int attempted)
            ~detail:(Printf.sprintf "%d of %d" failed attempted);
          Report.metric "output_mismatches" "count" (float_of_int v.Verify.mismatches)
            ~detail:(Printf.sprintf "of %d checked" v.Verify.checked);
          Report.metric "host_factor" "x" (Hostspeed.factor r.E2e.kernel_ns)
            ~detail:(Printf.sprintf "probe kernel %.1f us, reference %.0f us"
                       (r.E2e.kernel_ns /. 1e3) (Hostspeed.reference_ns /. 1e3));
        ]);
    Printf.printf "%-13s %-27s %s  golden: %s\n" w "output_md5" v.Verify.md5
      (match r.E2e.golden_ok with
      | None -> "none for this seed"
      | Some true -> "match"
      | Some false -> "MISMATCH");
    Option.iter (Printf.printf "first mismatch: %s\n") v.Verify.first_mismatch;
    {
      Report.workload = w;
      attempted;
      failed;
      correct = v.Verify.mismatches = 0 && v.Verify.failed = 0 && r.E2e.golden_ok <> Some false;
      extra =
        [
          ("requests", Core.Report.Json.Int l.Load.attempted);
          ("output_mismatches", Core.Report.Json.Int v.Verify.mismatches);
          ("output_md5", Core.Report.Json.String v.Verify.md5);
          ("host_factor", Core.Report.Json.Float (Hostspeed.factor r.E2e.kernel_ns));
        ];
      metrics;
    }
  end

let bench args =
  let o =
    {
      workload = None;
      seed = 1;
      seconds = 28.;
      trace = false;
      trace_file = "bench-trace.json";
      out = "bench-run.json";
      skope = "_build/default/bin/skope.exe";
      smoke = false;
    }
  in
  let spec =
    [
      ("--workload", Arg.String (fun s -> o.workload <- Some s), "W  one of the four workloads (default: all)");
      ("--seed", Arg.Int (fun n -> o.seed <- n), "N  workload seed (default 1)");
      ("--seconds", Arg.Float (fun s -> o.seconds <- s), "S  timed seconds per workload (default 28)");
      ("--trace", Arg.Int (fun n -> o.trace <- n <> 0), "0|1  per-layer traced run instead of end-to-end");
      ("--trace-file", Arg.String (fun s -> o.trace_file <- s), "FILE  Chrome trace of a traced run");
      ("--out", Arg.String (fun s -> o.out <- s), "FILE  run record (default bench-run.json)");
      ("--skope", Arg.String (fun s -> o.skope <- s), "PATH  the skope executable to boot servers from");
      ("--smoke", Arg.Unit (fun () -> o.smoke <- true), " a seconds-long pass over every workload");
    ]
  in
  Arg.parse_argv ~current:(ref 0) args (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if o.smoke then o.seconds <- (if o.trace then 1. else 0.4);
  let kinds =
    match o.workload with
    | None -> Traffic.all
    | Some w -> (
      match Traffic.of_name w with
      | Some k -> [ k ]
      | None -> raise (Arg.Bad ("unknown workload " ^ w)))
  in
  if not (Sys.file_exists o.skope) then failwith ("no skope executable at " ^ o.skope);
  if not (Sys.file_exists log_dir) then Sys.mkdir log_dir 0o755;
  let entries = List.map (run_workload o) kinds in
  Report.write_run ~file:o.out ~mode:(if o.trace then "trace" else "e2e") ~seed:o.seed
    ~seconds:o.seconds ~clients:Load.clients entries;
  let correct = List.for_all (fun e -> e.Report.correct) entries in
  let metrics =
    match entries with
    | [ e ] -> e.Report.metrics
    | es ->
      List.concat_map
        (fun e ->
          List.map
            (fun m -> { m with Report.name = e.Report.workload ^ "." ^ m.Report.name })
            e.Report.metrics)
        es
  in
  Report.result_line ~correct
    ~attempted:(List.fold_left (fun a e -> a + e.Report.attempted) 0 entries)
    ~failed:(List.fold_left (fun a e -> a + e.Report.failed) 0 entries)
    metrics;
  if correct then 0 else 1

let compare args =
  let base = ref [] and change = ref [] and spec = ref "BENCHMARK.json" in
  (* Shell globs expand to several files after each flag. *)
  let rec go side = function
    | [] -> ()
    | "--base" :: rest -> go (Some base) rest
    | "--change" :: rest -> go (Some change) rest
    | "--spec" :: file :: rest ->
      spec := file;
      go side rest
    | file :: rest -> (
      match side with
      | Some files ->
        files := file :: !files;
        go side rest
      | None -> raise (Arg.Bad usage))
  in
  go None (List.tl (List.tl (Array.to_list args)));
  if !base = [] || !change = [] then raise (Arg.Bad usage);
  if Compare.run ~spec:!spec ~base:(List.rev !base) ~change:(List.rev !change) then 0 else 1

let () =
  (* A torn client socket must not kill the benchmark; a signal exits
     through at_exit, which reaps the servers. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigint; Sys.sigterm ];
  let args = Sys.argv in
  let code =
    try
      if Array.length args > 1 && args.(1) = "compare" then compare args else bench args
    with
    | Arg.Bad msg | Arg.Help msg ->
      prerr_endline msg;
      2
    | Failure msg ->
      prerr_endline ("skope_bench: " ^ msg);
      1
  in
  exit code
