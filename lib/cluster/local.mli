(** An in-process cluster: N skoped shards plus a router, each in its
    own thread (sharing the process — this is the test/bench/smoke
    harness behind [skope serve --cluster N], not a deployment mode).

    Each shard gets its own {!Skope_service.Dispatch} — so its own LRU
    and its own request/cache counters, which is what the disjointness
    gates measure.  The process-global telemetry sink means per-phase
    histograms mix across shards; the counters the cluster gates rely
    on ([cache_hits]/[cache_misses], request totals) do not.

    Signals: the supervisor ignores SIGPIPE (a torn client socket must
    not kill the process) and installs no other handlers — pass [stop]
    and flip it from your own SIGINT/SIGTERM handler if you need
    one. *)

type t

(** Boot [shards] servers on ephemeral ports, then the router over
    them (member ids [s0], [s1], ...).  Blocks until every listener is
    ready; raises [Failure] if [host] does not resolve or a listener
    fails to come up within ~10 s.
    [stop] stops the whole cluster when set.  Defaults: 2 shards,
    pool 2 / queue 64 / cache 4096 per shard, router pool 4, probe
    every 0.25 s, fall 3 / rise 2. *)
val start :
  ?stop:bool Atomic.t ->
  ?host:string ->
  ?router_port:int ->
  ?shards:int ->
  ?shard_pool:int ->
  ?shard_queue:int ->
  ?cache_capacity:int ->
  ?router_pool:int ->
  ?probe_interval_s:float ->
  ?health:Health.config ->
  unit ->
  t

val router_port : t -> int
val shard_ports : t -> int array

(** [s0], [s1], ... — index-aligned with {!shard_ports}. *)
val shard_ids : t -> string array

(** Stop one shard and join its thread (the in-process stand-in for
    killing a worker: its port starts refusing connections, the router
    fails over and eventually ejects it). *)
val stop_shard : t -> int -> unit

(** Block until the cluster stops (via [stop] or {!stop}). *)
val join : t -> unit

(** Stop everything and join. *)
val stop : t -> unit
