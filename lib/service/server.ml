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
}

let default_net =
  {
    n_host = "127.0.0.1";
    n_port = 0;
    n_pool = max 2 (Domain.recommended_domain_count () - 1);
    n_queue_capacity = 128;
    n_read_timeout_s = 10.;
    n_write_timeout_s = 10.;
  }

type config = { net : net; faults : Faults.t option; dispatch : Dispatch.config }

let default_config =
  {
    net = { default_net with n_port = 7777 };
    faults = None;
    dispatch = Dispatch.default_config;
  }

(* A connection between two of its requests.  [rest] holds the bytes
   a worker read past the last request's newline: the start of the
   next request, or all of it when the client wrote several at once.
   [idle_since] orders the accept loop's idle set. *)
type conn = {
  fd : Unix.file_descr;
  mutable rest : Bytes.t;
  mutable idle_since : float;
}

(* A job is a connection with a request to read, plus when it arrived
   (accepted, or found readable): queue wait counts toward the
   request's deadline and latency. *)
type job = Conn of conn * float | Quit

(* Adds [b]'s bytes [pos, n) to the request in [buf]; at a newline the
   request is complete, and the bytes after it stay with [c]. *)
let take c buf b pos n =
  let i = Wire.newline b pos n in
  if i < 0 then begin
    Buffer.add_subbytes buf b pos (n - pos);
    false
  end
  else begin
    Buffer.add_subbytes buf b pos (i - pos);
    if i + 1 < n then c.rest <- Bytes.sub b (i + 1) (n - i - 1);
    true
  end

type request = Line of string | Torn of string | Eof

(* Read one request: up to its '\n' ([Line]), or to EOF ([Torn], and
   [Eof] when no byte of it came).  The bytes kept from the last read
   come first; the socket is read through the worker's [chunk], and
   each read scans only the bytes it received.
   [Protocol.max_request_bytes] bounds the bytes buffered so an
   oversized body cannot exhaust memory; one byte past it is kept, so
   the handler sees "too big", not a truncated-but-valid body, and the
   connection, out of step with its client, carries no further
   request. *)
let read_request chunk c =
  let buf = Buffer.create 512 in
  let kept = c.rest in
  c.rest <- Bytes.empty;
  let rec go () =
    if Buffer.length buf > Protocol.max_request_bytes then
      Torn (Buffer.contents buf)
    else
      match Unix.read c.fd chunk 0 (Bytes.length chunk) with
      | 0 -> if Buffer.length buf = 0 then Eof else Torn (Buffer.contents buf)
      | n -> if take c buf chunk 0 n then Line (Buffer.contents buf) else go ()
  in
  if take c buf kept 0 (Bytes.length kept) then Line (Buffer.contents buf)
  else go ()

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

(* Serve one request on [c]; [true] when the connection can carry
   another.  Faults are drawn per request, before the read, so a
   client that opens a connection per request meets the same sequence
   whatever the server keeps open. *)
let serve_request net faults handler queue chunk c received_at =
  let fd = c.fd in
  try
    let decision =
      match faults with
      | Some faults -> Faults.decide faults
      | None -> Faults.clean
    in
    if decision.Faults.d_drop then begin
      (* closed unread: the client sees an unexpected EOF and retries *)
      count_fault ~faults ~fd "drop";
      false
    end
    else
      match read_request chunk c with
      | Eof -> false
      | (Line body | Torn body) as request ->
        let trace_id =
          if Faults.injected decision > 0 then trace_id_of_body body else None
        in
        let response =
          if decision.Faults.d_overload then begin
            count_fault ?trace_id ~faults ~fd "overload";
            overloaded_response ?trace_id ~queue ~pool:net.n_pool
              "injected transient overload (fault injection)"
          end
          else handler ~received_at body
        in
        (match decision.Faults.d_delay_ms with
        | Some ms ->
          count_fault ?trace_id ~faults ~fd "delay";
          Thread.delay (ms /. 1e3)
        | None -> ());
        let line = Protocol.frame response in
        if decision.Faults.d_truncate then begin
          count_fault ?trace_id ~faults ~fd "truncate";
          (* Half the payload, no newline: the client must detect the
             torn frame rather than parse garbage. *)
          Wire.write_all fd line 0 (Bytes.length line / 2);
          false
        end
        else begin
          Wire.write_all fd line 0 (Bytes.length line);
          match request with Line _ -> true | Torn _ | Eof -> false
        end
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) ->
    Span.count "connections_timed_out" 1.;
    Log.emit ~level:Log.Warn "connection_timeout"
      [ ("peer", Log.Str (peer_label fd)) ];
    false
  | Unix.Unix_error _ -> false

(* [Unix.select] raises EINVAL for a descriptor at or past FD_SETSIZE
   (1024 with glibc), so such a connection is never watched: it is
   closed after its reply.  On Unix a [file_descr] is the descriptor
   number. *)
let selectable fd = (Obj.magic (fd : Unix.file_descr) : int) < 1024

(* Answered connections on their way back to the accept loop, which
   owns every idle connection.  A byte on [wake_w] interrupts the
   loop's select; it is written when the list turns non-empty, and the
   loop drains the pipe before it takes the list, so no return waits
   for the select timeout.  Once [closed] (the loop has stopped), a
   returning connection is closed instead. *)
type returns = {
  lock : Mutex.t;
  mutable conns : conn list;
  mutable closed : bool;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

let wake_byte = Bytes.make 1 '!'

let hand_back r c =
  if not (selectable c.fd) then Wire.close_quietly c.fd
  else begin
    Mutex.lock r.lock;
    if r.closed then begin
      Mutex.unlock r.lock;
      Wire.close_quietly c.fd
    end
    else begin
      let first = r.conns = [] in
      r.conns <- c :: r.conns;
      Mutex.unlock r.lock;
      if first then
        try ignore (Unix.single_write r.wake_w wake_byte 0 1)
        with Unix.Unix_error _ -> ()
    end
  end

let take_returns r ~close =
  Mutex.lock r.lock;
  let conns = r.conns in
  r.conns <- [];
  if close then r.closed <- true;
  Mutex.unlock r.lock;
  List.rev conns

(* Each worker reads through one chunk of its own, allocated once. *)
let worker net faults handler queue returns =
  let chunk = Bytes.create 4096 in
  let rec loop () =
    match Workqueue.pop queue with
    | Quit -> ()
    | Conn (c, received_at) ->
      if serve_request net faults handler queue chunk c received_at then
        hand_back returns c
      else Wire.close_quietly c.fd;
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
     Wire.write_all fd line 0 (Bytes.length line)
   with Unix.Unix_error _ -> ());
  Wire.close_quietly fd

(* The generic accept-loop/worker-pool server: everything skoped
   except request execution, which is the [handler]'s business.  Both
   the single-process skoped ([run], handler = Dispatch.handle) and
   the cluster router (handler = Router.handle) are instances. *)
let serve ?stop ~on_ready ?(handle_signals = true) ?faults ?recorder ?on_queue
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
  Fun.protect ~finally:(fun () -> Wire.close_quietly sock) @@ fun () ->
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  let addr =
    match Wire.inet_addr net.n_host with Ok a -> a | Error msg -> failwith msg
  in
  Unix.bind sock (Unix.ADDR_INET (addr, net.n_port));
  Unix.listen sock 64;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> net.n_port
  in
  on_ready port;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Fun.protect ~finally:(fun () ->
      Wire.close_quietly wake_r;
      Wire.close_quietly wake_w)
  @@ fun () ->
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let returns =
    { lock = Mutex.create (); conns = []; closed = false; wake_r; wake_w }
  in
  let workers =
    List.init net.n_pool (fun _ ->
        Domain.spawn (fun () -> worker net faults handler queue returns))
  in
  (* A connection with a request to read is queued the way a fresh
     accept always was: a full queue sheds it. *)
  let enqueue now c =
    if not (Workqueue.try_push queue (Conn (c, now))) then
      shed ?recorder net queue c.fd
  in
  (* The idle set, longest idle first.  It holds at most
     [n_queue_capacity] connections: a newcomer past that closes the
     longest idle one. *)
  let idle = ref [] in
  let park now c =
    if Wire.newline c.rest 0 (Bytes.length c.rest) >= 0 then enqueue now c
    else begin
      c.idle_since <- now;
      idle := !idle @ [ c ];
      if List.length !idle > net.n_queue_capacity then
        match !idle with
        | oldest :: rest ->
          Wire.close_quietly oldest.fd;
          idle := rest
        | [] -> ()
    end
  in
  let rec expire now = function
    | c :: rest when c.idle_since +. net.n_read_timeout_s <= now ->
      Wire.close_quietly c.fd;
      expire now rest
    | l -> l
  in
  (* A readable idle connection holds a request, or its client's EOF:
     a peek tells them apart without waking a worker for a client that
     has finished (unless part of a request is kept, which the worker
     then reports torn). *)
  let peek = Bytes.create 1 and drain = Bytes.create 64 in
  let readable now c =
    match Unix.recv c.fd peek 0 1 [ Unix.MSG_PEEK ] with
    | 0 when Bytes.length c.rest = 0 -> Wire.close_quietly c.fd
    | _ -> enqueue now c
    | exception Unix.Unix_error _ -> Wire.close_quietly c.fd
  in
  let accept now =
    match Unix.accept sock with
    | fd, _ -> (
      (* A dead or stalled client must not pin a worker forever: every
         read/write on this socket carries its own deadline (slow-loris
         stalls surface as EAGAIN in the worker). *)
      match
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO net.n_read_timeout_s;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO net.n_write_timeout_s
      with
      | () -> enqueue now { fd; rest = Bytes.empty; idle_since = now }
      | exception Unix.Unix_error _ -> Wire.close_quietly fd)
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
  in
  let rec accept_loop () =
    if not (Atomic.get stop) then begin
      (match
         Unix.select (sock :: wake_r :: List.map (fun c -> c.fd) !idle) [] [] 0.2
       with
      | ready, _, _ ->
        let now = Unix.gettimeofday () in
        if ready <> [] then begin
          (* Idle connections first: [ready] names descriptors as they
             were when select returned, before any close or accept
             below can reuse a number. *)
          let woke, still = List.partition (fun c -> List.mem c.fd ready) !idle in
          idle := still;
          List.iter (readable now) woke;
          if List.mem wake_r ready then begin
            (try ignore (Unix.read wake_r drain 0 (Bytes.length drain))
             with Unix.Unix_error _ -> ());
            List.iter (park now) (take_returns returns ~close:false)
          end;
          if List.mem sock ready then accept now
        end;
        idle := expire now !idle
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (* Graceful shutdown: no new connections, and idle ones are closed;
     queued requests drain in FIFO order, a worker that finishes one
     closes its connection, then each worker sees one Quit and exits.
     In-flight work always finishes before the process does. *)
  List.iter
    (fun c -> Wire.close_quietly c.fd)
    (!idle @ take_returns returns ~close:true);
  List.iter (fun _ -> Workqueue.push queue Quit) workers;
  List.iter Domain.join workers;
  match on_shutdown with Some f -> f () | None -> ()

let run ?stop ?on_ready ?handle_signals config =
  let dispatch = Dispatch.create ~config:config.dispatch () in
  let on_ready =
    match on_ready with
    | Some f -> f
    | None ->
      fun port ->
        Fmt.pr "skoped listening on %s:%d (%d workers, cache %d)@."
          config.net.n_host port config.net.n_pool
          dispatch.Dispatch.config.cache_capacity;
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
        ~help:"Connections with a request waiting for a worker." (fun () ->
          float_of_int (depth ())))
    ~on_shutdown:(fun () ->
      let v = Metrics.view dispatch.Dispatch.metrics in
      Fmt.epr
        "skoped: served %d requests (cache hit rate %.1f%%, p50 %.2f ms); bye@."
        v.Metrics.total_requests
        (100. *. v.Metrics.hit_rate)
        (v.Metrics.p50 *. 1e3))
    config.net
    ~handler:(fun ~received_at body ->
      Dispatch.handle ~received_at dispatch body)
