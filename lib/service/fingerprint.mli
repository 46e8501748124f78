(** Content-addressed cache keys for projection queries.

    A fingerprint digests everything the analytic projection depends
    on — workload name, every machine parameter, input scale and the
    hot-spot criteria — so two requests that would compute the same
    projection share one cache slot, whether they arrived as
    [analyze] queries, parameter-override queries, or server-side
    sweep fan-out. *)

open Skope_hw
open Skope_analysis

(** Canonical, human-readable key material (stable field order).
    [engine] is the request's protocol-v1 engine name ("tree" or
    "arena").  It selects nothing, but it stays in the key until
    protocol v2 so that cache keys and router placement do not
    move. *)
val canonical :
  workload:string ->
  machine:Machine.t ->
  scale:float ->
  criteria:Hotspot.criteria ->
  top:int ->
  engine:string ->
  string

(** MD5 hex digest of {!canonical}. *)
val of_query :
  workload:string ->
  machine:Machine.t ->
  scale:float ->
  criteria:Hotspot.criteria ->
  top:int ->
  engine:string ->
  string
