module Span = Skope_telemetry.Span
module Log = Skope_telemetry.Log
module Recorder = Skope_telemetry.Recorder
module Json = Skope_report.Json

type net = {
  n_host : string;
  n_port : int;
  n_pool : int;
  n_queue_capacity : int;
  n_read_timeout_s : float;
  n_write_timeout_s : float;
  n_max_request_bytes : int;
}

let default_net =
  {
    n_host = "127.0.0.1";
    n_port = 0;
    n_pool = max 2 (Domain.recommended_domain_count () - 1);
    n_queue_capacity = 128;
    n_read_timeout_s = 10.;
    n_write_timeout_s = 10.;
    n_max_request_bytes = 1 lsl 20;
  }

type config = {
  host : string;
  port : int;
  pool : int;
  queue_capacity : int;
  read_timeout_s : float;
  write_timeout_s : float;
  faults : Faults.t option;
  dispatch : Dispatch.config;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7777;
    pool = max 2 (Domain.recommended_domain_count () - 1);
    queue_capacity = 128;
    read_timeout_s = 10.;
    write_timeout_s = 10.;
    faults = None;
    dispatch = Dispatch.default_config;
  }

(* A job is an accepted connection plus its accept timestamp (queue
   wait counts toward the request's deadline and latency). *)
type job = Conn of Unix.file_descr * float | Quit

let rec write_all fd bytes pos len =
  if len > 0 then begin
    let n = Unix.write fd bytes pos len in
    write_all fd bytes (pos + n) (len - n)
  end

(* Read up to (and including) one '\n', or EOF; [limit] bounds the
   total bytes buffered so an oversized body cannot exhaust memory —
   we keep one byte past the limit so the dispatcher sees "too big",
   not a truncated-but-valid body. *)
let read_line fd ~limit =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    if Buffer.length buf > limit then Buffer.contents buf
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> Buffer.contents buf
      | n -> (
        match Bytes.index_from_opt chunk 0 '\n' with
        | Some i when i < n ->
          Buffer.add_subbytes buf chunk 0 i;
          Buffer.contents buf
        | _ ->
          Buffer.add_subbytes buf chunk 0 n;
          go ())
  in
  go ()

(* The backoff hint sent with every shed or fault-injected overloaded
   response: roughly how long one queue slot takes to free up, scaled
   by how full the queue is.  Clamped so a misconfigured server never
   tells clients to hammer it or to go away for minutes. *)
let retry_after_ms ~queue_depth ~pool =
  let per_slot_ms = 25. in
  let slots_ahead = float_of_int (max 1 queue_depth) /. float_of_int (max 1 pool) in
  Float.max 25. (Float.min 1000. (per_slot_ms *. slots_ahead))

let overloaded_response ?trace_id ~queue ~pool message =
  Protocol.error_response
    ~retry_after_ms:(retry_after_ms ~queue_depth:(Workqueue.length queue) ~pool)
    ?trace_id Protocol.Overloaded message

let peer_label fd =
  match Unix.getpeername fd with
  | Unix.ADDR_INET (a, p) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | Unix.ADDR_UNIX s -> s
  | exception Unix.Unix_error _ -> "?"

(* Best-effort trace id extraction for fault log events.  Only runs
   when a fault actually fires (or a connection times out), so the
   happy path never parses the body twice.  A dropped connection's
   body is never read — its event carries no trace id. *)
let trace_id_of_body body =
  match Json.of_string body with
  | Error _ -> None
  | Ok json -> (
    match Option.bind (Json.member "trace" json) (Json.member "id") with
    | Some (Json.String s) -> Some s
    | _ -> None)

(* Every injected fault is attributable: the structured event names
   the fault class, the seed (so the schedule that produced it can be
   replayed), the peer, and the trace id when the body was read. *)
let count_fault ?trace_id ~faults ~fd fault =
  Span.count "faults_injected" 1.;
  Log.emit ~level:Log.Warn ?trace_id "fault_injected"
    ([ ("fault", Log.Str fault); ("peer", Log.Str (peer_label fd)) ]
    @
    match faults with
    | Some f ->
      [
        ("seed", Log.I (Faults.seed f));
        ("spec", Log.Str (Faults.spec_to_string (Faults.spec f)));
      ]
    | None -> [])

let handle_connection net faults handler queue fd accepted_at =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        (* A dead or stalled client must not pin a worker forever:
           every read/write on this socket carries its own deadline
           (slow-loris stalls surface as EAGAIN below). *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO net.n_read_timeout_s;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO net.n_write_timeout_s;
        let decision =
          match faults with
          | Some faults -> Faults.decide faults
          | None -> Faults.clean
        in
        if decision.Faults.d_drop then count_fault ~faults ~fd "drop"
          (* connection silently closed by [finally] — the client sees
             an unexpected EOF and retries *)
        else begin
          let body = read_line fd ~limit:net.n_max_request_bytes in
          let trace_id =
            if Faults.injected decision > 0 then trace_id_of_body body
            else None
          in
          let response =
            if decision.Faults.d_overload then begin
              count_fault ?trace_id ~faults ~fd "overload";
              overloaded_response ?trace_id ~queue ~pool:net.n_pool
                "injected transient overload (fault injection)"
            end
            else handler ~received_at:accepted_at body
          in
          (match decision.Faults.d_delay_ms with
          | Some ms ->
            count_fault ?trace_id ~faults ~fd "delay";
            Thread.delay (ms /. 1e3)
          | None -> ());
          let line = Protocol.frame response in
          if decision.Faults.d_truncate then begin
            count_fault ?trace_id ~faults ~fd "truncate";
            (* Half the payload, no newline: the client must detect
               the torn frame rather than parse garbage. *)
            write_all fd line 0 (Bytes.length line / 2)
          end
          else write_all fd line 0 (Bytes.length line)
        end
      with
      | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _)
        ->
        Span.count "connections_timed_out" 1.;
        Log.emit ~level:Log.Warn "connection_timeout"
          [ ("peer", Log.Str (peer_label fd)) ]
      | Unix.Unix_error _ -> ())

let worker net faults handler queue =
  let rec loop () =
    match Workqueue.pop queue with
    | Quit -> ()
    | Conn (fd, accepted_at) ->
      handle_connection net faults handler queue fd accepted_at;
      loop ()
  in
  loop ()

(* Admission control: a full queue answers immediately with a
   structured overloaded error instead of blocking the accept loop
   (which would let the kernel backlog and client timeouts absorb the
   overload invisibly).  The response is a few hundred bytes into a
   fresh socket buffer, so the write cannot stall the accept loop. *)
(* Shed responses are minted before the body is read, so the caller's
   trace id is unknown; a synthetic "shed-N" id ties the response,
   the log event and the flight-recorder entry together. *)
let next_shed = Atomic.make 1

let shed ?recorder net queue fd =
  Span.count "requests_shed" 1.;
  let trace_id = Printf.sprintf "shed-%06d" (Atomic.fetch_and_add next_shed 1) in
  let depth = Workqueue.length queue in
  Log.emit ~level:Log.Warn ~trace_id "request_shed"
    [ ("queue_depth", Log.I depth); ("peer", Log.Str (peer_label fd)) ];
  (match recorder with
  | Some r ->
    let now = Unix.gettimeofday () in
    Recorder.commit r ~trace_id ~kind:"?"
      ~outcome:(Protocol.error_code_to_string Protocol.Overloaded)
      ~queue_wait_ms:0. ~start:now ~duration_ms:0. ()
  | None -> ());
  (try
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.;
     let line =
       Protocol.frame
         (overloaded_response ~trace_id ~queue ~pool:net.n_pool
            "work queue is full; retry after the hinted backoff")
     in
     write_all fd line 0 (Bytes.length line)
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* The generic accept-loop/worker-pool server: everything skoped
   except request execution, which is the [handler]'s business.  Both
   the single-process skoped ([run], handler = Dispatch.handle) and
   the cluster router (handler = Router.handle) are instances. *)
let serve ?stop ?on_ready ?(handle_signals = true) ?faults ?recorder ?on_queue
    ?on_shutdown net ~handler =
  let stop = match stop with Some s -> s | None -> Atomic.make false in
  let restore_signals =
    if handle_signals then begin
      let request_stop _ = Atomic.set stop true in
      let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle request_stop) in
      let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle request_stop) in
      let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
      fun () ->
        Sys.set_signal Sys.sigint prev_int;
        Sys.set_signal Sys.sigterm prev_term;
        Sys.set_signal Sys.sigpipe prev_pipe
    end
    else Fun.id
  in
  let queue = Workqueue.create ~capacity:net.n_queue_capacity in
  (match on_queue with
  | Some f -> f (fun () -> Workqueue.length queue)
  | None -> ());
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:restore_signals @@ fun () ->
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  let addr = Unix.inet_addr_of_string net.n_host in
  Unix.bind sock (Unix.ADDR_INET (addr, net.n_port));
  Unix.listen sock 64;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> net.n_port
  in
  (match on_ready with
  | Some f -> f port
  | None ->
    Fmt.pr "skoped listening on %s:%d (%d workers)@." net.n_host port
      net.n_pool;
    (* Scripts wait for this line before issuing queries. *)
    Format.pp_print_flush Format.std_formatter ());
  let workers =
    List.init net.n_pool (fun _ ->
        Domain.spawn (fun () -> worker net faults handler queue))
  in
  let rec accept_loop () =
    if not (Atomic.get stop) then begin
      (match Unix.select [ sock ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept sock with
        | fd, _ ->
          if not (Workqueue.try_push queue (Conn (fd, Unix.gettimeofday ())))
          then shed ?recorder net queue fd
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (* Graceful shutdown: no new connections; queued requests drain in
     FIFO order, then each worker sees one Quit and exits — in-flight
     work always finishes before the process does. *)
  List.iter (fun _ -> Workqueue.push queue Quit) workers;
  List.iter Domain.join workers;
  match on_shutdown with Some f -> f () | None -> ()

let run ?stop ?on_ready ?handle_signals config =
  let dispatch = Dispatch.create ~config:config.dispatch () in
  let net =
    {
      n_host = config.host;
      n_port = config.port;
      n_pool = config.pool;
      n_queue_capacity = config.queue_capacity;
      n_read_timeout_s = config.read_timeout_s;
      n_write_timeout_s = config.write_timeout_s;
      n_max_request_bytes = config.dispatch.Dispatch.max_request_bytes;
    }
  in
  let on_ready =
    match on_ready with
    | Some f -> f
    | None ->
      fun port ->
        Fmt.pr "skoped listening on %s:%d (%d workers, cache %d)@." config.host
          port config.pool dispatch.Dispatch.config.cache_capacity;
        (match config.faults with
        | Some f ->
          Fmt.pr "skoped fault injection armed: %s@."
            (Faults.spec_to_string (Faults.spec f))
        | None -> ());
        (* Scripts wait for this line before issuing queries. *)
        Format.pp_print_flush Format.std_formatter ()
  in
  serve ?stop ~on_ready ?handle_signals ?faults:config.faults
    ~recorder:dispatch.Dispatch.recorder
    ~on_queue:(fun depth ->
      Metrics.register_gauge dispatch.Dispatch.metrics
        ~name:"skope_queue_depth"
        ~help:"Accepted connections waiting for a worker." (fun () ->
          float_of_int (depth ())))
    ~on_shutdown:(fun () ->
      let v = Metrics.view dispatch.Dispatch.metrics in
      Fmt.epr
        "skoped: served %d requests (cache hit rate %.1f%%, p50 %.2f ms); bye@."
        v.Metrics.total_requests
        (100. *. v.Metrics.hit_rate)
        (v.Metrics.p50 *. 1e3))
    net
    ~handler:(fun ~received_at body ->
      Dispatch.handle ~received_at dispatch body)
