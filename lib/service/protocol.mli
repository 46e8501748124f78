(** `skoped` wire protocol: newline-delimited JSON over TCP.  A
    connection carries one request line after another, each answered
    by one response line, in order.

    Requests are JSON objects with a ["kind"] field:

    - [{"kind":"analyze","workload":W,"machine":M, ...}] — analytic
      projection; optional ["scale"], ["top"], ["coverage"],
      ["leanness"], and ["overrides"] (an object of machine-parameter
      overrides, e.g. [{"mem_bw_gbs": 50.0}]);
    - [{"kind":"sweep", ...,"axis":A,"values":[...]}] — the same
      query fanned out server-side along one design axis
      (bw | lat | vec | issue | freq | l2 | div);
    - [{"kind":"explore", ...,"axes":[{"axis":A,"values":[...]}, ...]}]
      — a multi-axis grid (cartesian product of the axes) priced
      against one shared BET; optional ["sample"] (latin-hypercube
      sample size) and ["seed"].  The result carries the point list,
      the Pareto frontier over (projected time, cost proxy) and the
      per-point Tc/Tm/To split;
    - [{"kind":"lint","workload":W}] or
      [{"kind":"lint","source":"skeleton p { ... }"}] — run the
      interval-domain linter; optional ["scale"],
      ["deny_warnings"] (bool) and ["disable"] (list of rule codes);
    - [{"kind":"workloads"}], [{"kind":"machines"}] — catalogs;
    - [{"kind":"stats"}] — metrics snapshot;
    - [{"kind":"metrics_prom"}] — Prometheus text exposition (the
      result is [{"content_type":...,"body":...}]);
    - [{"kind":"version"}] — server version and git revision;
    - [{"kind":"capabilities"}] — protocol version, supported request
      kinds and design axes (feature discovery);
    - [{"kind":"cluster_stats"}] — cluster topology and per-shard
      health/cache statistics.  Served only by the cluster router
      ([skope route]); a plain skoped answers [invalid_request].

    Responses proxied through the cluster router additionally carry a
    top-level ["shard"] field naming the member that produced them —
    an additive field that single-process clients ignore.

    Any request may carry ["timeout_ms"]: the server refuses to start
    (or continue fanning out) work past the deadline.

    Responses are [{"v":1,"ok":true,"result":...}] or
    [{"v":1,"ok":false,"error":{"code":C,"message":M}}].  An
    [overloaded] error additionally carries ["retry_after_ms"], the
    server's backoff hint for the retrying client.

    {2 Compatibility rules}

    - ["v"] is the protocol major version, stamped on every response.
      It only changes when an existing client could misread a
      response: a field is removed or renamed, a field's type or
      meaning changes, or an error code is repurposed.
    - {e Additions} are not breaking and do not bump ["v"]: servers
      may add response fields, request kinds, axes and error codes at
      any time.  Clients must ignore unknown response fields and
      treat unknown error codes as [Internal].
    - Clients should reject responses whose ["v"] is greater than the
      version they were built against, and may use
      [{"kind":"capabilities"}] to discover what a server supports
      before issuing requests.
    - Servers answer requests with unknown fields by ignoring them
      (so old servers tolerate new optional fields); an unknown
      ["kind"] is an [Invalid_request] error, which is what a client
      probing for a feature on an old server will see. *)

open Skope_hw
module Json = Skope_report.Json

type query = {
  workload : string;
  machine : string;
  overrides : (string * float) list;  (** machine-parameter overrides *)
  scale : float option;  (** [None]: the workload's default scale *)
  coverage : float;
  leanness : float;
  top : int;  (** hot spots to return *)
  engine : string option;
      (** optional ["engine"] field, lower-cased: one of
          {!engine_names} in any letter case, anything else is an
          [Invalid_request].  It selects nothing — every projection is
          priced by the arena — but protocol v1 keeps it: sweep and
          explore replies echo it and the cache fingerprint folds it
          in.  Removing it waits for protocol v2. *)
}

type lint_query = {
  l_workload : string option;  (** bundled workload name … *)
  l_source : string option;  (** … or inline DSL source (exactly one) *)
  l_scale : float option;  (** workload scale; [None]: its default *)
  l_deny_warnings : bool;
  l_disabled : string list;  (** rule codes to suppress *)
}

type audit_query = {
  a_workload : string option;  (** bundled workload name … *)
  a_source : string option;  (** … or inline DSL source (exactly one) *)
  a_scale : float option;  (** workload scale; [None]: its default *)
  a_machine : string;  (** cache geometry/balance; default ["bgq"] *)
  a_ranks : int;  (** rank space when no rank-count input; default 4 *)
  a_deny_warnings : bool;
  a_disabled : string list;  (** rule codes to suppress *)
}

(** Multi-axis exploration: the cartesian grid of [e_axes], optionally
    latin-hypercube sampled down to [e_sample] points with [e_seed].
    The parsed grid is capped at 4096 points. *)
type explore_spec = {
  e_axes : Designspace.axis list;
  e_sample : int option;
  e_seed : int;
}

(** Flight-recorder readback ([{"kind":"recent"}]): the last [rc_n]
    requests (default 20), newest first; [rc_errors_only] keeps only
    non-ok outcomes and [rc_min_ms] only requests at least that
    slow. *)
type recent_query = {
  rc_n : int;
  rc_errors_only : bool;
  rc_min_ms : float option;
}

type request =
  | Analyze of query
  | Sweep of query * Designspace.axis
  | Explore of query * explore_spec
  | Lint of lint_query
  | Audit of audit_query
  | Workloads
  | Machines
  | Stats
  | Metrics_prom
  | Version
  | Capabilities
  | Cluster_stats
      (** parsed everywhere, served only by the cluster router *)
  | Recent of recent_query
  | Trace of string
      (** [{"kind":"trace","id":ID}] — one request's span tree from
          the flight recorder *)

(** Cross-process trace context, from the request's optional
    [{"trace":{"id":ID,"parent":P}}] object: handlers adopt [t_id]
    instead of minting one, so a single id follows a query through
    client → router → shard; [t_parent] labels the forwarding hop. *)
type trace_context = { t_id : string; t_parent : string option }

(** Request fields that ride alongside every [kind]. *)
type envelope = { timeout_ms : float option; trace : trace_context option }

type error_code =
  | Parse_error  (** body is not valid JSON *)
  | Invalid_request  (** valid JSON, invalid shape/kind/field *)
  | Unknown_workload
  | Unknown_machine
  | Oversized
  | Deadline_exceeded
  | Overloaded
      (** transient: the work queue is full (admission control) or a
          fault-injection layer simulated saturation.  The error object
          carries a ["retry_after_ms"] hint; retrying after a backoff
          is expected to succeed.  Every other code is terminal for
          the request as written. *)
  | Internal

val error_code_to_string : error_code -> string

(** Kind label for metrics, even for invalid requests ("?" when the
    kind cannot be determined). *)
val kind_label : request -> string

(** The protocol major version stamped as ["v"] on every response. *)
val protocol_version : int

(** Every request kind a single-process skoped serves, as advertised
    by [{"kind":"capabilities"}].  [cluster_stats] is excluded: the
    router appends it to the capabilities it proxies. *)
val request_kinds : string list

(** The ["engine"] names protocol v1 accepts, advertised by
    [capabilities] as ["bet_engines"]: [["tree"; "arena"]]. *)
val engine_names : string list

(** Upper bound on the (possibly sampled) explore grid size. *)
val max_grid_points : int

(** Upper bound on a request body, 1 MiB: a larger one is answered
    [Oversized], by skoped and by the router alike. *)
val max_request_bytes : int

(** Parse and validate a request body.  Returns the request plus its
    envelope (optional [timeout_ms] and trace context).  Catalog
    existence of workload/machine names is NOT checked here (the
    dispatcher owns the catalogs). *)
val parse_request : string -> (request * envelope, error_code * string) result

(** Build the machine for [q]: catalog lookup plus overrides.
    Recognized override keys: freq_ghz, issue_width, vector_width,
    flop_issue_per_cycle, div_latency, vec_efficiency,
    mem_latency_cycles, mem_bw_gbs, mlp, l2_size_bytes.  Values obey
    the swept axes' rule ({!Designspace.positive}; vector_width and
    l2_size_bytes {!Designspace.positive_int}); vec_efficiency lies
    in [0, 1]. *)
val resolve_machine :
  query -> (Machine.t, error_code * string) result

(** [trace_id] is echoed as a top-level ["trace_id"] field so callers
    can correlate responses with the flight recorder and logs. *)
val ok_response : ?trace_id:string -> Json.t -> string

(** The bytes every {!ok_response} starts with, and no error response
    does: a relay that sees them needs only to check the rest is well
    formed, not decode it. *)
val ok_prefix : string

(** A body as it goes on the wire: its bytes plus the terminating
    newline, in one copy. *)
val frame : string -> bytes

(** [retry_after_ms] adds the client backoff hint — meaningful only
    with {!Overloaded}.  [trace_id] as in {!ok_response}. *)
val error_response :
  ?retry_after_ms:float -> ?trace_id:string -> error_code -> string -> string
