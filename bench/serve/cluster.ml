(* A real cluster as separate processes: two `skope serve --pool 1`
   shards and one `skope route --pool 2` over them, on ephemeral
   ports, with output logged under [log_dir].  Every child is reaped
   before the benchmark exits, also when it fails or is signalled. *)

module Json = Core.Report.Json
module Client = Skope_service.Client
module A = Skope_service.Service_api

let host = "127.0.0.1"

type proc = { pid : int; port : int }
type t = { shards : proc array; router : proc }

let live : int list ref = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let () = at_exit (fun () -> List.iter reap !live)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let spawn ~skope ~log args =
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close null)
      (fun () ->
        Unix.create_process skope (Array.of_list (skope :: args)) null out out)
  in
  live := pid :: !live;
  pid

let find_sub s sub =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then None
    else if String.sub s i k = sub then Some i
    else go (i + 1)
  in
  go 0

(* Both `serve` and `route` announce "... listening on HOST:PORT (...)"
   once bound. *)
let listening_port text =
  let marker = "listening on " in
  Option.bind (find_sub text marker) (fun i ->
      let start = i + String.length marker in
      match String.index_from_opt text start ' ' with
      | None -> None
      | Some stop ->
        let addr = String.sub text start (stop - start) in
        Option.bind (String.rindex_opt addr ':') (fun j ->
            int_of_string_opt
              (String.sub addr (j + 1) (String.length addr - j - 1))))

let fail_with_log what log =
  failwith
    (Printf.sprintf "%s did not come up; its log (%s):\n%s" what log
       (try read_file log with Sys_error _ -> ""))

let wait_port ~what ~deadline pid log =
  let rec go () =
    match listening_port (try read_file log with Sys_error _ -> "") with
    | Some port -> { pid; port }
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (( <> ) pid) !live;
        fail_with_log what log);
      if Unix.gettimeofday () > deadline then fail_with_log what log;
      Unix.sleepf 0.002;
      go ()
  in
  go ()

(* One round trip, no retries: a failure is a failure. *)
let request ~port body = Client.roundtrip ~host ~port body

let result_of resp =
  match Json.of_string resp with
  | Ok j when Json.member "ok" j = Some (Json.Bool true) -> Json.member "result" j
  | _ -> None

let query ~port req =
  match request ~port (A.to_body req) with
  | Ok resp -> result_of resp
  | Error _ -> None

let cluster_stats t = query ~port:t.router.port A.Cluster_stats

let healthy stats =
  let ms = Report.items [ "members" ] stats in
  ms <> []
  && Report.number [ "healthy" ] stats = Some (float_of_int (List.length ms))
  && List.for_all
       (fun m ->
         Json.member "state" m = Some (Json.String "healthy")
         && Json.member "stats" m <> None)
       ms

let start ~skope ~log_dir =
  let deadline = Unix.gettimeofday () +. 30. in
  let log name = Filename.concat log_dir (name ^ ".log") in
  let shards =
    Array.init 2 (fun i ->
        let l = log (Printf.sprintf "shard%d" i) in
        (spawn ~skope ~log:l [ "serve"; "--pool"; "1"; "-p"; "0" ], l))
    |> Array.mapi (fun i (pid, l) ->
           wait_port ~what:(Printf.sprintf "shard %d" i) ~deadline pid l)
  in
  let shard_args =
    Array.to_list shards
    |> List.concat_map (fun s -> [ "--shard"; Printf.sprintf "%s:%d" host s.port ])
  in
  let rlog = log "router" in
  let rpid = spawn ~skope ~log:rlog ([ "route"; "--pool"; "2"; "-p"; "0" ] @ shard_args) in
  let t = { shards; router = wait_port ~what:"router" ~deadline rpid rlog } in
  let rec wait_healthy () =
    match cluster_stats t with
    | Some s when healthy s -> ()
    | _ ->
      if Unix.gettimeofday () > deadline then
        failwith "cluster members did not all report healthy";
      Unix.sleepf 0.005;
      wait_healthy ()
  in
  wait_healthy ();
  t

(* SIGINT is the graceful path: the server drains and exits 0. *)
let stop_proc p =
  (try Unix.kill p.pid Sys.sigint with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ -> reap p.pid
    | _ -> live := List.filter (( <> ) p.pid) !live
    | exception Unix.Unix_error _ -> live := List.filter (( <> ) p.pid) !live
  in
  wait ()

let stop t =
  stop_proc t.router;
  Array.iter stop_proc t.shards

let with_cluster ~skope ~log_dir f =
  let t = start ~skope ~log_dir in
  Fun.protect ~finally:(fun () -> stop t) (fun () -> f t)

(* Peak resident set ("VmHWM") of a live process, in MB. *)
let peak_rss_mb p =
  let status = read_file (Printf.sprintf "/proc/%d/status" p.pid) in
  String.split_on_char '\n' status
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
           Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
         | _ -> None)
  |> Option.value ~default:nan

let procs t = t.router :: Array.to_list t.shards

(* The shard that answered a routed request ("shard":"s0" -> index 0;
   members are named s0, s1, ... in --shard order). *)
let owner t resp =
  Option.bind (Skope_cluster.Router.shard_of_response resp) (fun id ->
      Option.bind (Scanf.sscanf_opt id "s%d%!" Fun.id) (fun i ->
          if i >= 0 && i < Array.length t.shards then Some t.shards.(i) else None))
