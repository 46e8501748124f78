(** Request execution: the request lifecycle, validation, catalog
    lookup, the projection cache, and metrics accounting.  Pure with
    respect to I/O — the server hands it a request body and writes
    back the returned string — so the whole protocol is testable
    without sockets. *)

module Json = Skope_report.Json

type config = { cache_capacity : int  (** LRU slots for projection results *) }

val default_config : config

(** One cached projection: the analysis object rendered once, when it
    was priced, and its total time.  Analyze replies, sweep points and
    explore points splice [rendered] through {!Json.Raw}; explore ranks
    its Pareto frontier by [total_ms] without reading the bytes back. *)
type entry = { rendered : string; total_ms : float }

type t = {
  config : config;
  cache : entry Lru.t;  (** fingerprint -> the projection's entry *)
  metrics : Metrics.t;
  recorder : Skope_telemetry.Recorder.t;
      (** flight recorder behind [{"kind":"recent"}] / [{"kind":"trace"}] *)
}

val create : ?config:config -> unit -> t

(** A projection query with its defaults applied and its machine
    resolved (catalog plus overrides). *)
type query_parts = {
  workload : Core.Workloads.Registry.t;
  machine : Core.Hw.Machine.t;
  scale : float;
  criteria : Core.Analysis.Hotspot.criteria;
  top : int;
  engine : string;
      (** the v1 ["engine"] name, ["tree"] when absent: sweep and
          explore replies echo it and the fingerprint folds it in, but
          it selects nothing *)
  fingerprint : string;  (** {!Fingerprint.of_query} of the fields above *)
}

(** Resolve a query once: the shard keys its cache on the
    [fingerprint] and the router routes on it.  Errors are the
    structured [unknown_workload] / [unknown_machine] / override
    failures the shard answers with. *)
val query_parts :
  Protocol.query -> (query_parts, Protocol.error_code * string) result

(** {1 The request lifecycle}

    What every request goes through, in skoped ({!handle}) and in the
    cluster router ([Router.handle]) alike. *)

(** One request as its handler sees it: its trace id, when it entered
    the system and its [timeout_ms], plus what the handler notes for
    the flight-recorder record. *)
type call = {
  trace_id : string;
  received_at : float;
  timeout_ms : float option;
  mutable fingerprint : string option;  (** the cache key it resolved to *)
  mutable shard : string option;  (** the member that answered it *)
  mutable retries : int;  (** shards it failed over past *)
}

(** A handler's answer: a result, sent as an ok response under the
    request's trace id, or a whole response, returned as is. *)
type reply = Answer of Json.t | Relay of string

(** Refuse the request: {!answer} turns this into an error response
    with [code], [message] and, when given, [retry_after_ms]. *)
val reject : ?retry_after_ms:float -> Protocol.error_code -> string -> 'a

(** Answer one request body, returning the response body (always a
    single-line JSON string, never raising).  A body over
    {!Protocol.max_request_bytes} is answered [oversized], and one
    that {!Protocol.parse_request} refuses gets its error; either way
    [handler] never sees it.  A caller-supplied [{"trace":{"id":…}}]
    context is adopted; otherwise an id ["<prefix>-NNNNNN"] is minted.
    Either way the id is echoed as ["trace_id"] and names the
    request's flight-recorder record in [recorder], which is opened
    before [handler] runs and committed after, with kind ["?"] when
    the body was refused.
    [handler] runs inside a span named [span] that carries the trace
    id, the request kind and any ["trace_parent"]; a {!reject} becomes
    an error response, any other exception an [internal] one (logged
    as [internal_error]).  [received_at] is when the request entered
    the system (defaults to now): queue wait counts toward the
    recorded latency, and toward [metrics]' per-kind counts and
    latency when given. *)
val answer :
  recorder:Skope_telemetry.Recorder.t ->
  ?metrics:Metrics.t ->
  span:string ->
  prefix:string ->
  ?received_at:float ->
  string ->
  (call -> Protocol.request -> reply) ->
  string

(** {!answer} for skoped: span ["request"], ids ["req-NNNNNN"], this
    dispatcher's recorder and metrics.  Queue wait also counts toward
    the request's [timeout_ms] deadline. *)
val handle : ?received_at:float -> t -> string -> string
