(** Analytic performance projection over a BET (paper §V-A).

    Every node's exclusive work is priced once with the roofline; its
    total contribution is [t * ENR] where
    [ENR = trips * prob * ENR(parent)].  Contributions are aggregated
    per static block — the granularity of hot spots. *)

open Skope_bet
open Skope_hw

type projection = {
  machine : Machine.t;
  blocks : Blockstat.t list;  (** ranked by decreasing projected time *)
  total_time : float;
  node_time : (int, float) Hashtbl.t;
      (** BET node id -> projected seconds, for hot-path annotation *)
  node_enr : (int, float) Hashtbl.t;
}

(** Cache-ratio model: [Constant] is the paper's fixed-hit-ratio
    assumption; [Footprint] derives per-level hit ratios from whether
    the innermost enclosing loop's working set fits in the level —
    the refinement the paper leaves to future work (§VIII). *)
type cache_model = Constant | Footprint

(** Expected bytes touched by one execution of a node (children
    included, no cross-iteration reuse assumed). *)
val bytes_per_exec : Node.t -> float

(** Hit ratios under the [Footprint] model: per cache level, 0.95 if
    the working set fits, else only spatial (within-line) reuse.
    Shared by the tree walk and {!Arena_price} so the two price
    identically. *)
val footprint_hits :
  Machine.t -> footprint:float -> base:Roofline.opts -> Roofline.opts

(** Project [built] onto [machine] by a recursive walk of the BET;
    [opts] selects roofline refinements and [cache] the hit-ratio
    model (default: the paper's baseline).  The pipeline prices
    through {!Arena_price}; this walk is the reference it is tested
    against, bit for bit. *)
val project :
  ?opts:Roofline.opts ->
  ?cache:cache_model ->
  Machine.t ->
  Build.result ->
  projection
