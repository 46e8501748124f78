(** Request execution: the request lifecycle, validation, catalog
    lookup, the projection cache, and metrics accounting.  Pure with
    respect to I/O — the server hands it a request body and a worker's
    output buffer, and writes out what it leaves there — so the whole
    protocol is testable without sockets. *)

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

    What every request goes through, in skoped ({!respond}) and in the
    cluster router ([Router.respond]) alike. *)

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

(** A handler's answer: a result, rendered as an ok response under
    the request's trace id, or [Relay]: the handler has written a whole
    response (without its newline) into the output buffer, which is
    sent as is. *)
type reply = Answer of Json.t | Relay

(** Refuse the request: {!answer} turns this into an error response
    with [code], [message] and, when given, [retry_after_ms]. *)
val reject : ?retry_after_ms:float -> Protocol.error_code -> string -> 'a

(** Answer one request body into [out]: what it leaves there is the
    whole response and its newline (one JSON line, always; it never
    raises).  [out] is emptied first, and the ok or error response is
    rendered straight into it, so a reply is never copied on its way
    to the socket; a {!reject} or an exception after the handler wrote
    there replaces those bytes.  A body over
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
  Json.Buf.t ->
  string ->
  (call -> Protocol.request -> reply) ->
  unit

(** [unframed respond] runs [respond] on a fresh buffer and returns the
    response it left there, without its newline. *)
val unframed : (Json.Buf.t -> unit) -> string

(** {!answer} for skoped, into a worker's buffer: span ["request"],
    ids ["req-NNNNNN"], this dispatcher's recorder and metrics.  Queue
    wait also counts toward the request's [timeout_ms] deadline.  A
    cached projection's bytes are copied into [out] once. *)
val respond : ?received_at:float -> t -> Json.Buf.t -> string -> unit

(** {!respond} on a fresh buffer: the response, without its newline. *)
val handle : ?received_at:float -> t -> string -> string
