(** The cluster router: one front process owning a consistent-hash
    ring over N skoped shards.

    Keyed requests (analyze / sweep / explore — anything with a
    projection fingerprint) are forwarded to the shard owning their
    {!Skope_service.Fingerprint}, so each shard's LRU stays hot and
    the shard caches are disjoint: a given fingerprint is only ever
    built, and only ever a hit, on one shard.  Unkeyed requests
    (catalogs, version, stats) spread round-robin.  Forwarding rides
    the existing {!Skope_service.Client} retry/deadline machinery over
    each member's persistent connections ({!Member.pool}); a
    [refused]/[timeout] terminal failure fails over to the next ring
    successor and feeds the member's {!Health} state machine, ejecting
    it from the ring after [fall] consecutive failures.  A background
    prober (periodic [version] probes; [capabilities] — including a
    protocol-version check — for ejected members) readmits recovered
    shards after [rise] consecutive successes.

    The router answers five kinds locally: [cluster_stats] (topology,
    member health, per-shard cache stats), [capabilities] (a shard's
    answer extended with a ["cluster"] object), [metrics_prom]
    (per-shard scrapes merged by {!Aggregate} under its own
    [skope_cluster_*] families), [recent] (its own flight recorder)
    and [trace] (its record merged with the owning shard's).  Every
    proxied response gains a ["shard"] field naming the member that
    produced it. *)

type member_spec = { m_id : string; m_host : string; m_port : int }

type config = {
  net : Skope_service.Server.net;  (** the router's own listener *)
  members : member_spec list;
  vnodes : int;
  ring_seed : int;
  health : Health.config;
  probe_interval_s : float;
  probe_timeouts : Skope_service.Client.timeouts;
  forward_timeouts : Skope_service.Client.timeouts;
  forward_retry : Skope_service.Client.retry;
  load_factor : float;  (** bounded-load factor; [<= 0] disables *)
}

(** {!Skope_service.Server.default_net} on port 7878 with 4 workers,
    128 vnodes, ring seed 42, fall 3 / rise 2, 2 s probe interval, 1
    forward retry, load factor 1.25 — and no members: every deployment
    must name its shards. *)
val default_config : config

type t

(** Raises [Invalid_argument] on an empty member list or duplicate
    member ids.  All members start [Healthy] (optimistic: the first
    probe cycle or data-path failure corrects this). *)
val create : config -> t

(** Answer one request body into a worker's buffer [out] (the
    router's [Server.serve] handler): {!Skope_service.Dispatch.answer}
    with span ["route"], ids ["rtr-NNNNNN"] and the router's own
    flight recorder, whose records name the answering shard and the
    failovers.  So an oversized or unparsable body is answered here,
    under a trace id, and never reaches a shard.  A forwarded reply is
    read from the shard straight into [out], checked there
    ({!Skope_service.Client.classify_body}) and spliced in place
    ({!splice_reply}): it is never copied.  Never raises. *)
val respond :
  ?received_at:float -> t -> Skope_report.Json.Buf.t -> string -> unit

(** {!respond} on a fresh buffer: the response, without its newline. *)
val handle : ?received_at:float -> t -> string -> string

(** One synchronous probe sweep over all members — the prober thread's
    body, exposed so tests can drive the state machine without
    sleeping. *)
val probe_once : t -> unit

(** Serve until [stop]; starts the prober thread, then delegates to
    {!Skope_service.Server.serve}.  The default [on_ready] prints a
    "listening" line (scripts wait for it). *)
val run :
  ?stop:bool Atomic.t ->
  ?on_ready:(int -> unit) ->
  ?handle_signals:bool ->
  config ->
  unit

(** Turn the proxied response in [out] into the router's, in place:
    ["trace_id"] (only when the shard did not already echo one) and
    ["shard"] appended to its top-level object, with no leading comma
    in an empty one.  A body that does not end in ['}'] is left
    unchanged. *)
val splice_reply :
  trace_id:string -> shard:string -> Skope_report.Json.Buf.t -> unit

(** The ["shard"] field the router appended to a proxied response —
    shared by the CLI histogram, the bench and the tests.  A cheap
    tail scan, not a full JSON parse, so load generators can call it
    per response. *)
val shard_of_response : string -> string option
