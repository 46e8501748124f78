(** One shard as the router sees it: address, health, the
    persistent connections that forwards to it share, and the counters
    behind [cluster_stats] and the cluster Prometheus families.  All
    mutation is behind a per-member mutex — the data path (worker
    domains) and the prober thread race on these. *)

type t

(** [timeouts] are the deadlines the member's pooled connections
    carry. *)
val create :
  id:string ->
  host:string ->
  port:int ->
  timeouts:Skope_service.Client.timeouts ->
  t

val id : t -> string
val host : t -> string
val port : t -> int

(** The idle connections forwards take and give back; closed when the
    member is ejected. *)
val pool : t -> Skope_service.Client.pool

(** Current health, and whether the member is routable. *)
val health : t -> Health.state

val available : t -> bool

(** Requests currently forwarded to (and not yet answered by) this
    member — the bounded-load signal. *)
val in_flight : t -> int

(** Feed a data-path or probe outcome through {!Health.observe};
    returns the transition event, if any, so the caller can rebuild
    the ring.  An ejection closes the member's idle connections. *)
val observe : Health.config -> t -> ok:bool -> Health.event option

val begin_request : t -> unit

(** [ok] decides between the [forwarded] and [errors] counters. *)
val end_request : t -> ok:bool -> unit

(** This member failed and the request moved on to its successor. *)
val skip : t -> unit

val probe_result : t -> ok:bool -> unit

type snapshot = {
  s_health : Health.state;
  s_in_flight : int;
  s_forwarded : int;  (** responses obtained from this shard *)
  s_failovers : int;  (** requests that failed over past it *)
  s_errors : int;  (** transport failures talking to it *)
  s_probes_ok : int;
  s_probes_failed : int;
}

(** A consistent copy of the counters (one lock acquisition). *)
val snapshot : t -> snapshot
