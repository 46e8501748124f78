(** Batched re-pricing of a flat BET {!Arena} (paper §V-A).

    The pricing engine of the pipeline, the service and the explorer;
    {!Perf.project} is its test and fuzz oracle.  Bit-for-bit
    identical to it on blocks, total time and per-node times: per-node
    pricing calls the same {!Roofline.estimate} on the same work
    records with the same opts resolution, and per-block aggregation
    replays the arena's recorded pre-order so float addition rounds
    identically. *)

open Skope_bet
open Skope_hw

(** Pricing state for one machine point: the unscaled breakdown of
    every arena slot, retained so a later point can re-price only the
    slots a machine-axis change reaches. *)
type state

type priced = {
  p_machine : Machine.t;
  p_blocks : Blockstat.t list;  (** ranked, as {!Perf.project} ranks *)
  p_total_time : float;
  p_state : state;
}

(** Raised by {!price} and {!price_delta} when the total projected
    time on the machine is infinite or NaN, which a positive but tiny
    parameter causes (memory bandwidth 1e-320 GB/s overflows the
    memory term).  Nothing prices such a machine; callers report it
    as a bad parameter.  A finite time, however absurd, is returned. *)
exception Non_finite_time of Machine.t

val machine : priced -> Machine.t
val blocks : priced -> Blockstat.t list
val total_time : priced -> float

(** Changed-axes bitmask ({!Arena} dep bits) between two machines.
    Zero means no field the evaluator reads differs. *)
val change_mask : cache:Perf.cache_model -> Machine.t -> Machine.t -> int

(** Price every slot (full pass). *)
val price :
  ?opts:Roofline.opts ->
  ?cache:Perf.cache_model ->
  Arena.t ->
  Machine.t ->
  priced

(** Re-price against [prev]: only slots whose dependency mask
    intersects the machine diff are re-estimated; the rest reuse
    [prev]'s breakdowns.  Counters ["arena_nodes_priced"] and
    ["arena_reprice_skipped"] record the split. *)
val price_delta :
  ?opts:Roofline.opts ->
  ?cache:Perf.cache_model ->
  prev:priced ->
  Arena.t ->
  Machine.t ->
  priced

(** The priced point as a {!Perf.projection}, with the per-node
    tables hot-path annotation reads: node time [total *. enr] and
    ENR, keyed by BET node id.  [priced] must come from [arena]. *)
val projection : Arena.t -> priced -> Perf.projection

(** Price a machine sweep, delta-chaining consecutive points so each
    slot is estimated at most once per point and usually far less. *)
val price_batch :
  ?opts:Roofline.opts ->
  ?cache:Perf.cache_model ->
  Arena.t ->
  Machine.t array ->
  priced array
