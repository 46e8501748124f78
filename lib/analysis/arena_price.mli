(** Pricing of a flat BET {!Arena} (paper §V-A).

    The pricing engine of the pipeline, the service and the explorer;
    {!Perf.project} is its test and fuzz oracle.  A machine point is
    one full pass over the arena, bit-for-bit identical to the oracle
    on blocks, total time and per-node times: per-node pricing calls
    the same {!Roofline.estimate} on the same work records with the
    same opts resolution, and per-block aggregation replays the
    arena's recorded pre-order so float addition rounds identically. *)

open Skope_bet
open Skope_hw

(** One priced machine point. *)
type priced

(** Raised by {!price} when the total projected time on the machine
    is infinite or NaN, which a positive but tiny parameter causes
    (memory bandwidth 1e-320 GB/s overflows the memory term).  Nothing
    prices such a machine; callers report it as a bad parameter.  A
    finite time, however absurd, is returned. *)
exception Non_finite_time of Machine.t

val machine : priced -> Machine.t

(** Ranked, as {!Perf.project} ranks. *)
val blocks : priced -> Blockstat.t list

val total_time : priced -> float

(** Price every slot of the arena on the machine.  The counter
    ["arena_nodes_priced"] grows by the arena's slot count. *)
val price :
  ?opts:Roofline.opts ->
  ?cache:Perf.cache_model ->
  Arena.t ->
  Machine.t ->
  priced

(** {!price}, ignoring [prev].  Its only caller is the in-process
    replay of the serving benchmark ([bench/serve/layers.ml]), which
    times it as [arena_price.delta_us]; the name goes when that replay
    does. *)
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
