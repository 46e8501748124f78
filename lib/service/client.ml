module Span = Skope_telemetry.Span
module Json = Skope_report.Json

(* --- structured errors ---------------------------------------------- *)

type error =
  | Timeout of string
  | Refused of string
  | Overloaded of { retry_after_ms : float option; message : string }
  | Protocol of string

let error_label = function
  | Timeout _ -> "timeout"
  | Refused _ -> "refused"
  | Overloaded _ -> "overloaded"
  | Protocol _ -> "protocol"

let error_message = function
  | Timeout m | Refused m | Protocol m -> m
  | Overloaded { message; _ } -> message

let pp_error ppf e = Fmt.pf ppf "%s: %s" (error_label e) (error_message e)

(* Where an attempt failed decides its error: [Refused] while
   connecting, [Protocol] once the exchange began (a deadline is a
   [Timeout] either way). *)
type stage = Connecting | Exchanging

let errno_message e fn = Printf.sprintf "%s (%s)" (Unix.error_message e) fn

let classify_unix stage e fn =
  match (stage, e) with
  | _, (Unix.ETIMEDOUT | Unix.EAGAIN | Unix.EWOULDBLOCK) ->
    Timeout (errno_message e fn)
  | Connecting, _ -> Refused (errno_message e fn)
  | Exchanging, _ -> Protocol (errno_message e fn)

(* --- timeouts ------------------------------------------------------- *)

type timeouts = { connect_s : float; read_s : float; write_s : float }

let default_timeouts = { connect_s = 5.; read_s = 30.; write_s = 30. }

(* --- retry policy --------------------------------------------------- *)

type retry = { attempts : int; base_ms : float; max_ms : float; seed : int }

let default_retry = { attempts = 3; base_ms = 50.; max_ms = 2000.; seed = 42 }
let no_retry = { default_retry with attempts = 0 }

(* Stateless SplitMix64 finalizer: hash (seed, attempt) to a uniform
   in [0, 1).  Deterministic across runs and platforms, so a backoff
   schedule can be asserted byte-for-byte in tests. *)
let u01 ~seed k =
  let z =
    Int64.mul
      (Int64.add (Int64.of_int seed) (Int64.of_int (k + 1)))
      0x9E3779B97F4A7C15L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.

let backoff_ms retry k =
  let uncapped = retry.base_ms *. (2. ** float_of_int k) in
  let capped = Float.min retry.max_ms uncapped in
  (* Jitter scales into [0.5, 1.0]x so the cap stays a hard ceiling
     while concurrent clients still decorrelate. *)
  capped *. (0.5 +. (0.5 *. u01 ~seed:retry.seed k))

(* --- one attempt ---------------------------------------------------- *)

(* Non-blocking connect bounded by [connect_s]: a black-holed SYN must
   not pin the client for the kernel's minutes-long default.  A host
   that does not resolve is refused before a socket exists. *)
let connect ~timeouts ~host ~port =
  match Wire.inet_addr host with
  | Error msg -> Error (Refused msg)
  | Ok inet_addr -> (
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    try
      let addr = Unix.ADDR_INET (inet_addr, port) in
      Unix.set_nonblock sock;
      (try Unix.connect sock addr with
      | Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) -> (
        match Unix.select [] [ sock ] [] timeouts.connect_s with
        | _, [], _ ->
          raise
            (Unix.Unix_error
               (Unix.ETIMEDOUT, Printf.sprintf "connect to %s:%d" host port, ""))
        | _, _ :: _, _ -> (
          match Unix.getsockopt_error sock with
          | Some e -> raise (Unix.Unix_error (e, "connect", ""))
          | None -> ())));
      Unix.clear_nonblock sock;
      Unix.setsockopt_float sock Unix.SO_RCVTIMEO timeouts.read_s;
      Unix.setsockopt_float sock Unix.SO_SNDTIMEO timeouts.write_s;
      Ok sock
    with Unix.Unix_error (e, fn, _) ->
      (* Every failure closes [sock] here, and only here: the connect
         timeout's too. *)
      Wire.close_quietly sock;
      Error (classify_unix Connecting e fn))

(* A connection owns its read buffers.  [chunk] takes each read: its
   first size suits the few-KB replies most requests get, and a reply
   that outgrows it swaps in a 64 KiB one for the rest of the
   connection's life (an explore grid's reply runs to hundreds of KB).
   [buf] gathers a reply that spans reads.  One thread uses a
   connection at a time, so a pooled connection reuses both for every
   reply it carries. *)
type conn = { sock : Unix.file_descr; mutable chunk : Bytes.t; buf : Buffer.t }

let open_conn ~timeouts ~host ~port =
  Result.map
    (fun sock -> { sock; chunk = Bytes.create 4096; buf = Buffer.create 1024 })
    (connect ~timeouts ~host ~port)

(* Read one newline-terminated response.  EOF before the newline is a
   distinct, structured outcome: an empty buffer means the server
   closed without answering (or dropped us), a non-empty one means the
   response was truncated mid-flight.  A reply comes with whether it
   ended where the last read did: bytes past its newline belong to no
   exchange, so that connection must not carry another. *)
let rec read_response c =
  match Unix.read c.sock c.chunk 0 (Bytes.length c.chunk) with
  | 0 ->
    if Buffer.length c.buf = 0 then
      Error (Protocol "server closed the connection without a response")
    else
      Error
        (Protocol
           (Printf.sprintf "truncated response (%d bytes, no terminating newline)"
              (Buffer.length c.buf)))
  | n ->
    let i = Wire.newline c.chunk 0 n in
    if i < 0 then begin
      Buffer.add_subbytes c.buf c.chunk 0 n;
      if Bytes.length c.chunk < 65536 then c.chunk <- Bytes.create 65536;
      read_response c
    end
    else if Buffer.length c.buf = 0 then
      Ok (Bytes.sub_string c.chunk 0 i, i = n - 1)
    else begin
      Buffer.add_subbytes c.buf c.chunk 0 i;
      Ok (Buffer.contents c.buf, i = n - 1)
    end

(* A complete response that decodes to an [overloaded] envelope is a
   transient, retryable failure — surface it as a structured error so
   the retry loop (and the caller) can honor the backoff hint.  An ok
   reply cannot be one, so it is only checked for well-formedness:
   relaying or counting a large result never pays for its decode. *)
let classify_body response =
  if String.starts_with ~prefix:Protocol.ok_prefix response then
    match Json.check response with
    | Ok () -> Ok response
    | Error e -> Error (Protocol (Printf.sprintf "response is not JSON: %s" e))
  else
    match Service_api.parse_response response with
    | Ok { r_ok = false; r_error_code = Some "overloaded"; r_error_message;
           r_retry_after_ms; _ } ->
      Error
        (Overloaded
           {
             retry_after_ms = r_retry_after_ms;
             message =
               Option.value ~default:"server overloaded" r_error_message;
           })
    | Ok _ -> Ok response
    | Error msg -> Error (Protocol msg)

(* One request and its reply on [c], judged by [classify_body].  A
   reply comes with whether [c] can carry another.  A failure comes
   with whether the connection ended before any reply byte (EOF, EPIPE
   or ECONNRESET): on a reused connection, most likely a server that
   closed it while it sat idle.  [c.buf] is empty until a reply byte
   arrives. *)
let exchange c body =
  Buffer.clear c.buf;
  let ended e = Error (e, Buffer.length c.buf = 0) in
  match
    let line = Protocol.frame body in
    Wire.write_all c.sock line 0 (Bytes.length line);
    read_response c
  with
  | Ok (response, whole) -> (
    match classify_body response with
    | Ok response -> Ok (response, whole)
    | Error e -> Error (e, false))
  | Error e -> ended e
  | exception Unix.Unix_error (((Unix.EPIPE | Unix.ECONNRESET) as e), fn, _) ->
    ended (classify_unix Exchanging e fn)
  | exception Unix.Unix_error (e, fn, _) ->
    Error (classify_unix Exchanging e fn, false)

(* [close] failures must not mask the exchange's result, so a close
   error is deliberately dropped. *)
let roundtrip ?(timeouts = default_timeouts) ~host ~port body =
  match open_conn ~timeouts ~host ~port with
  | Error e -> Error e
  | Ok c -> (
    let result = exchange c body in
    Wire.close_quietly c.sock;
    match result with
    | Ok (response, _) -> Ok response
    | Error (e, _) -> Error e)

(* --- persistent connections ----------------------------------------- *)

type pool = {
  p_host : string;
  p_port : int;
  p_timeouts : timeouts;
  p_lock : Mutex.t;
  mutable p_idle : conn list;
}

let pool ~timeouts ~host ~port =
  {
    p_host = host;
    p_port = port;
    p_timeouts = timeouts;
    p_lock = Mutex.create ();
    p_idle = [];
  }

let take pool =
  Mutex.lock pool.p_lock;
  let c =
    match pool.p_idle with
    | c :: rest ->
      pool.p_idle <- rest;
      Some c
    | [] -> None
  in
  Mutex.unlock pool.p_lock;
  c

let give pool c =
  Mutex.lock pool.p_lock;
  pool.p_idle <- c :: pool.p_idle;
  Mutex.unlock pool.p_lock

let close_idle pool =
  Mutex.lock pool.p_lock;
  let idle = pool.p_idle in
  pool.p_idle <- [];
  Mutex.unlock pool.p_lock;
  List.iter (fun c -> Wire.close_quietly c.sock) idle

(* A reused connection that ended before any reply byte sends the
   request once more on a fresh connection.  That is part of this
   attempt, not a retry: the pool carries idempotent requests only. *)
let rec fresh_attempt pool body =
  match
    open_conn ~timeouts:pool.p_timeouts ~host:pool.p_host ~port:pool.p_port
  with
  | Error e -> Error e
  | Ok c -> attempt_on pool c ~reused:false body

and attempt_on pool c ~reused body =
  let result = exchange c body in
  (match result with
  | Ok (_, true) -> give pool c
  | Ok (_, false) | Error _ -> Wire.close_quietly c.sock);
  match result with
  | Ok (response, _) -> Ok response
  | Error (_, true) when reused -> fresh_attempt pool body
  | Error (e, _) -> Error e

let pooled_attempt pool body =
  match take pool with
  | Some c -> attempt_on pool c ~reused:true body
  | None -> fresh_attempt pool body

(* --- retry loop ----------------------------------------------------- *)

(* Every request kind is idempotent, so every failure is retried
   while the budget lasts. *)
let with_retries ~retry ?on_retry attempt =
  let rec go k =
    match attempt () with
    | Ok response -> Ok response
    | Error e ->
      if k >= retry.attempts then Error e
      else begin
        Span.count "client_retries" 1.;
        (match on_retry with Some f -> f k e | None -> ());
        let wait = backoff_ms retry k in
        (* An explicit server hint dominates the local schedule: the
           server knows how long its queue needs to drain. *)
        let wait =
          match e with
          | Overloaded { retry_after_ms = Some hint; _ } -> Float.max wait hint
          | _ -> wait
        in
        Thread.delay (wait /. 1e3);
        go (k + 1)
      end
  in
  go 0

let request ?timeouts ?(retry = default_retry) ?on_retry ~host ~port body =
  with_retries ~retry ?on_retry (fun () -> roundtrip ?timeouts ~host ~port body)

let pooled_request ?(retry = default_retry) pool body =
  with_retries ~retry (fun () -> pooled_attempt pool body)

(* --- load generator ------------------------------------------------- *)

type load_report = {
  requests : int;
  failures : int;
  retries : int;
  elapsed : float;
  throughput : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(min (n - 1) (max 0 (rank - 1)))
  end

let load_multi ?timeouts ?(retry = default_retry) ?on_result ~host ~port
    ~repeat ~concurrency bodies =
  if Array.length bodies = 0 then invalid_arg "Client.load_multi: no bodies";
  let repeat = max 1 repeat and concurrency = max 1 concurrency in
  let lock = Mutex.create () in
  let latencies = ref [] and failures = ref 0 and retries = ref 0 in
  let record dt ok my_retries =
    Mutex.lock lock;
    if ok then latencies := dt :: !latencies else incr failures;
    retries := !retries + my_retries;
    Mutex.unlock lock
  in
  (* Thread [i] owns requests i, i+K, i+2K, ... so shares sum to
     [repeat] exactly. *)
  let share i = (repeat - i + concurrency - 1) / concurrency in
  (* Decorrelate the threads' jitter streams while keeping the whole
     run reproducible for a given policy seed. *)
  let thread_retry i = { retry with seed = retry.seed + i } in
  let run_thread i () =
    let retry = thread_retry i in
    for k = 1 to share i do
      (* Retries are counted per request so [on_result] can attribute
         them (the per-shard retries column in loadgen stats). *)
      let my_retries = ref 0 in
      let on_retry k _ = if k >= !my_retries then my_retries := k + 1 in
      (* Thread [i] owns global request indices i, i+K, ...; cycling
         bodies by that index spreads a corpus round-robin across the
         whole run regardless of concurrency. *)
      let body =
        bodies.((i + ((k - 1) * concurrency)) mod Array.length bodies)
      in
      let t0 = Unix.gettimeofday () in
      let result = request ?timeouts ~retry ~on_retry ~host ~port body in
      let dt = Unix.gettimeofday () -. t0 in
      (match result with
      | Ok _ -> record dt true !my_retries
      | Error _ -> record 0. false !my_retries);
      match on_result with
      | Some f -> f ~result ~latency_s:dt ~retries:!my_retries
      | None -> ()
    done
  in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init concurrency (fun i -> Thread.create (run_thread i) ())
  in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  let sorted = Array.of_list !latencies in
  Array.sort Float.compare sorted;
  let requests = Array.length sorted in
  {
    requests;
    failures = !failures;
    retries = !retries;
    elapsed;
    throughput = (if elapsed > 0. then float_of_int requests /. elapsed else 0.);
    p50 = percentile sorted 0.50;
    p95 = percentile sorted 0.95;
    p99 = percentile sorted 0.99;
  }

let pp_load_report ppf r =
  Fmt.pf ppf
    "%d requests (%d failed, %d retries) in %.2fs: %.0f req/s; latency p50 \
     %.3f ms, p95 %.3f ms, p99 %.3f ms"
    r.requests r.failures r.retries r.elapsed r.throughput (r.p50 *. 1e3)
    (r.p95 *. 1e3) (r.p99 *. 1e3)
