(** `skoped` — the TCP server.

    One accept loop feeds a bounded {!Workqueue} drained by a fixed
    pool of OCaml 5 [Domain] workers.  A connection carries any number
    of newline-terminated JSON requests, each answered by one response
    line, in order.  A worker reads one request, has the handler build
    the response in the worker's output buffer, writes it from there
    and hands the connection back to the accept loop, which watches
    its idle connections with [select] alongside the listening socket:
    a connection that becomes readable is queued like a fresh accept,
    and one whose client has closed is closed without waking a worker.
    An idle connection never holds a worker.

    Reliability posture:
    - {b Admission control}: when the work queue is full, the accept
      loop does not block or let the kernel backlog absorb the load —
      it immediately writes a structured [overloaded] error (with a
      [retry_after_ms] hint derived from queue depth) and closes,
      bumping the [requests_shed] counter.  That holds for a fresh
      accept and for an idle connection that becomes readable alike.
    - {b Per-connection deadlines}: every accepted socket carries
      [SO_RCVTIMEO]/[SO_SNDTIMEO] from the config, so a stalled client
      costs one deadline, not a worker; expiries bump
      [connections_timed_out].  A connection idle between requests for
      the read timeout is closed.  The idle set holds at most
      [queue_capacity] connections (a newcomer past that closes the
      longest idle one), and a connection whose descriptor [select]
      cannot watch is closed after its reply.
    - {b Graceful shutdown}: SIGINT/SIGTERM (or the [stop] flag) stop
      the accept loop and close the idle connections; queued requests
      drain, each connection is closed after its reply, workers join,
      and only then does [run] return.
    - {b Fault injection}: an optional {!Faults.t} perturbs requests
      (drop / delay / truncate / injected overload) for testing client
      resilience; every injection bumps [faults_injected].  Decisions
      are drawn per request, and a drop or a truncation closes the
      connection. *)

(** The listener: transport-level knobs, independent of what the
    handler does.  skoped's {!config} and the cluster router's config
    both embed one.  A request body is read up to one byte past
    {!Protocol.max_request_bytes}; a larger one arrives torn, and its
    handler answers it [oversized]. *)
type net = {
  n_host : string;
  n_port : int;  (** 0 picks an ephemeral port *)
  n_pool : int;  (** worker domains *)
  n_queue_capacity : int;
  n_read_timeout_s : float;  (** per-connection [SO_RCVTIMEO] *)
  n_write_timeout_s : float;  (** per-connection [SO_SNDTIMEO] *)
}

(** 127.0.0.1, port 0, one worker per core but one (at least 2), queue
    128, 10 s socket timeouts. *)
val default_net : net

type config = {
  net : net;
  faults : Faults.t option;  (** [None] in production *)
  dispatch : Dispatch.config;
}

(** {!default_net} on port 7777, no faults, {!Dispatch.default_config}. *)
val default_config : config

(** The generic accept-loop/worker-pool server: [handler] receives one
    request body at a time (with the time it arrived: accepted, or
    found readable on an idle connection, so queue wait counts toward
    deadlines) and the worker's output buffer, and leaves the whole
    response line in that buffer, newline included: the worker writes
    it from there.  Each worker owns one buffer, allocated once; it
    grows to the largest response the worker writes (~200 KB for a
    128-point explore) and keeps that capacity.  All the reliability
    posture above — admission control, per-connection deadlines,
    graceful drain, optional fault injection — applies to any handler.
    [on_ready] receives the bound port (useful with [n_port = 0])
    before the first accept.  [handle_signals] (default [true])
    installs the SIGINT/SIGTERM/SIGPIPE handlers; pass [false] when
    embedding several servers in one process and let the host own its
    signals.
    [on_queue] receives a queue-depth thunk once, before accepting
    (the hook for a gauge); [on_shutdown] runs after the drain.
    [recorder] receives a flight-recorder entry for every shed
    request (sheds never reach the handler, so without it they would
    be invisible to [{"kind":"recent"}]).
    [n_host] is a numeric address or a name the system resolver
    knows; raises [Failure] naming a host that does not resolve, and
    [Unix.Unix_error] when the bind fails. *)
val serve :
  ?stop:bool Atomic.t ->
  on_ready:(int -> unit) ->
  ?handle_signals:bool ->
  ?faults:Faults.t ->
  ?recorder:Skope_telemetry.Recorder.t ->
  ?on_queue:((unit -> int) -> unit) ->
  ?on_shutdown:(unit -> unit) ->
  net ->
  handler:(received_at:float -> Skope_report.Json.Buf.t -> string -> unit) ->
  unit

(** Serve until SIGINT/SIGTERM, or until [stop] (checked a few times a
    second) becomes [true] — the embedding hook for in-process tests.
    [on_ready] (default: prints a "listening" line) receives the bound
    port.  [serve] specialised to a fresh {!Dispatch.t}. *)
val run :
  ?stop:bool Atomic.t ->
  ?on_ready:(int -> unit) ->
  ?handle_signals:bool ->
  config ->
  unit
