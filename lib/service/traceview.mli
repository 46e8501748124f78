(** Wire rendering of flight-recorder records.

    One JSON dialect for the [{"kind":"recent"}] and
    [{"kind":"trace"}] responses, shared by the single-process server
    and the cluster router (which merges its own record with the
    owning shard's).  {!chrome_of_trace} turns a merged trace result
    back into a Chrome [trace_event] file, with one pid per process,
    so router and shard phases line up on one timeline. *)

module Json = Skope_report.Json
module Recorder = Skope_telemetry.Recorder

val record_to_json : Recorder.record -> Json.t
(** Full record: identity, outcome, timings and the span list
    ([{"id","parent","name","start","duration_ms","domain",
    "attrs","counters"}]). *)

val recent_result : Recorder.t -> Protocol.recent_query -> Json.t
(** A [{"kind":"recent"}] result: [{"count","capacity","records"}],
    each record a row of everything but its span list (plus a
    ["spans"] count). *)

val trace_result : trace_id:string -> (string * Recorder.record) list -> Json.t
(** A [{"kind":"trace"}] result: [{"trace_id":…,"processes":[
    {"process":NAME,"record":…},…]}]. *)

val relabel_processes : process:string -> Json.t -> Json.t
(** Rewrite every ["process"] name in a trace result — the router
    stamps the owning shard's id over the shard's generic label. *)

val processes_of_trace : Json.t -> Json.t list
(** The ["processes"] entries of a trace result ([[]] if absent). *)

val chrome_of_trace : Json.t -> (string, string) result
(** Convert a trace result (as returned by {!trace_result}, possibly
    merged across processes) into Chrome [trace_event] JSON.  Each
    process gets its own pid and a process-name metadata event;
    timestamps are microseconds relative to the earliest span. *)
