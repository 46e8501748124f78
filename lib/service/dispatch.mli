(** Request execution: validation, catalog lookup, the projection
    cache, and metrics accounting.  Pure with respect to I/O — the
    server hands it a request body and writes back the returned
    string — so the whole protocol is testable without sockets. *)

module Json = Skope_report.Json

type config = {
  max_request_bytes : int;  (** larger bodies get an [oversized] error *)
  cache_capacity : int;  (** LRU slots for projection results *)
}

val default_config : config

type t = {
  config : config;
  cache : Json.t Lru.t;  (** fingerprint -> analyze result object *)
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

(** Handle one request body, returning the response body (always a
    single-line JSON string, never raising).  [received_at] is when
    the request entered the system (defaults to now): queue wait
    counts toward both the request's [timeout_ms] deadline and its
    recorded latency.  A caller-supplied [{"trace":{"id":…}}] context
    is adopted (and echoed as ["trace_id"]); otherwise an id is
    minted. *)
val handle : ?received_at:float -> t -> string -> string
