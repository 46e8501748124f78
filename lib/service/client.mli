(** `skope query` — fault-tolerant client for a running `skoped`,
    doubling as a load generator.

    Every transport failure is a structured {!error}; {!request} wraps
    one-shot {!roundtrip} in a bounded, capped-exponential-backoff
    retry loop with seeded deterministic jitter.  Server [overloaded]
    responses are decoded into {!Overloaded} (with the server's
    [retry_after_ms] hint) so load shedding composes with client
    backoff instead of fighting it. *)

(** Terminal request outcomes:

    - [Timeout]: connect, read or write exceeded its deadline;
    - [Refused]: the connection could not be established (connection
      refused, unreachable network, ... — the errno is in the
      message);
    - [Overloaded]: the server shed the request (full work queue or
      injected fault) and hinted when to retry;
    - [Protocol]: the transport broke mid-exchange — unexpected EOF,
      truncated or non-JSON response, reset connection.

    Protocol-level failures of a well-delivered request (unknown
    workload, lint findings, ...) are NOT errors here: they come back
    as [Ok] response bodies with ["ok":false]. *)
type error =
  | Timeout of string
  | Refused of string
  | Overloaded of { retry_after_ms : float option; message : string }
  | Protocol of string

(** ["timeout" | "refused" | "overloaded" | "protocol"] — stable
    labels for scripts and metrics. *)
val error_label : error -> string

val error_message : error -> string
val pp_error : error Fmt.t

type timeouts = {
  connect_s : float;  (** TCP connect deadline, seconds *)
  read_s : float;  (** per-[read(2)] deadline ([SO_RCVTIMEO]) *)
  write_s : float;  (** per-[write(2)] deadline ([SO_SNDTIMEO]) *)
}

(** connect 5 s, read 30 s, write 30 s. *)
val default_timeouts : timeouts

(** Retry budget: up to [attempts] retries after the initial attempt,
    sleeping [backoff_ms] between tries. *)
type retry = {
  attempts : int;
  base_ms : float;  (** first backoff step *)
  max_ms : float;  (** hard cap on any single backoff *)
  seed : int;  (** jitter seed — same seed, same schedule *)
}

(** 3 retries, 50 ms base, 2 s cap, seed 42. *)
val default_retry : retry

(** Zero retries (single attempt). *)
val no_retry : retry

(** The backoff before retry [k] (0-based):
    [min max_ms (base_ms * 2^k)] scaled by a deterministic jitter in
    [0.5, 1.0] drawn from [(seed, k)].  Pure — tests can assert the
    exact schedule. *)
val backoff_ms : retry -> int -> float

(** How a complete response body is judged (every call below ends
    here): a reply starting with {!Protocol.ok_prefix} is only checked
    to be well-formed JSON, never decoded; any other reply is decoded,
    and an [overloaded] envelope becomes {!Overloaded} with its
    [retry_after_ms].  Malformed JSON is a [Protocol] error. *)
val classify_body : string -> (string, error) result

(** One request/response round trip on a fresh connection, closed
    after the reply (the server would keep it open for more requests;
    see {!pooled_request} for a caller that uses that).  No retries. *)
val roundtrip :
  ?timeouts:timeouts ->
  host:string ->
  port:int ->
  string ->
  (string, error) result

(** [roundtrip] plus the retry loop.  Every request kind is
    idempotent, so every failure is retried until the [retry] budget
    runs out.  Each retry bumps the [client_retries] telemetry counter
    and calls [on_retry] with the 0-based retry index and the error
    being retried.  An [Overloaded] hint extends the backoff when it
    is longer. *)
val request :
  ?timeouts:timeouts ->
  ?retry:retry ->
  ?on_retry:(int -> error -> unit) ->
  host:string ->
  port:int ->
  string ->
  (string, error) result

(** {1 Persistent connections} *)

(** Idle connections to one server, each with read buffers of its own
    that every reply it carries reuses.  A connection serves one
    request at a time, so a pool holds at most as many connections as
    it has had concurrent requests. *)
type pool

(** An empty pool for [host:port]; connections it opens carry
    [timeouts]. *)
val pool : timeouts:timeouts -> host:string -> port:int -> pool

(** {!request} over the pool, for idempotent requests only: each
    attempt takes an idle connection (or opens one) and gives it back
    after a reply that {!classify_body} accepts; any other outcome
    closes it.  A reused connection that ends before any reply byte
    (EOF, EPIPE or ECONNRESET: the server closed it while it was idle)
    sends the request once more on a fresh connection, within the same
    attempt: that is neither a retry nor a [client_retries] count. *)
val pooled_request : ?retry:retry -> pool -> string -> (string, error) result

(** Close every idle connection (in-use ones return to the pool). *)
val close_idle : pool -> unit

type load_report = {
  requests : int;  (** completed *)
  failures : int;  (** terminally failed after retries *)
  retries : int;  (** total retries across all requests *)
  elapsed : float;  (** wall seconds *)
  throughput : float;  (** completed requests per second *)
  p50 : float;  (** seconds *)
  p95 : float;
  p99 : float;
}

(** Fire [repeat] requests from [concurrency] client threads (each
    thread jitters with [retry.seed + thread index]), cycling over
    [bodies] round-robin by global request index, and report
    throughput, retry volume and client-observed latency percentiles.
    The body schedule is a pure function of [(repeat, concurrency)],
    so a run is reproducible.  [on_result] sees every terminal outcome
    (success or failure) with its client-observed latency and
    per-request retry count, called from the issuing thread — the
    hook for per-shard latency/retry breakdowns against a cluster
    router; the callback must synchronize its own state.
    @raise Invalid_argument when [bodies] is empty. *)
val load_multi :
  ?timeouts:timeouts ->
  ?retry:retry ->
  ?on_result:
    (result:(string, error) result ->
    latency_s:float ->
    retries:int ->
    unit) ->
  host:string ->
  port:int ->
  repeat:int ->
  concurrency:int ->
  string array ->
  load_report

val pp_load_report : load_report Fmt.t
