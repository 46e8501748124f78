(** Flat post-order BET arena.

    A built BET flattened into contiguous int-indexed arrays by a
    single [of_build] pass: children occupy lower slots than their
    parent, the root is the last slot, and every machine-independent
    quantity — ENR and loop working-set footprint — is frozen at
    construction.  Pricing a machine point (lib/analysis
    [Arena_price]) is then one tight forward loop over these arrays
    instead of a pointer-chasing tree walk. *)

type t = {
  n : int;  (** number of nodes *)
  root : int;  (** slot of the BET root (always [n - 1]) *)
  ids : int array;  (** slot -> original BET node id *)
  kinds : Node.kind array;
  probs : float array;
  trips : float array;
  notes : string array;
  works : Work.t array;  (** shared with the tree nodes, not copied *)
  enrs : float array;  (** frozen ENR: trips * prob * ENR(parent) *)
  footprints : float array;
      (** frozen working set of the innermost enclosing loop, bytes *)
  parents : int array;  (** slot of parent; -1 for the root *)
  children : int array array;  (** child slots, in execution order *)
  pre_order : int array;
      (** depth-first visit sequence of slots (root first); replaying
          accumulation in this order reproduces the tree walk's float
          rounding bit-for-bit *)
  block_ix : int array;  (** slot -> dense block index *)
  block_ids : Block_id.t array;  (** dense block index -> static block *)
  block_names : string array;
  block_sizes : int array;
  block_slots : int array array;
      (** dense block index -> its slots in [pre_order] visit order;
          per-block accumulation over this sequence reproduces the
          tree walk's per-block float rounding exactly *)
  block_enrs : float array;  (** frozen per-block ENR sum *)
  block_works : Work.t array;  (** frozen per-block ENR-scaled work *)
  block_notes : string array;
      (** first non-empty invocation note, in visit order *)
  total_instructions : int;  (** static weight (leanness denominator) *)
}

val node_count : t -> int

(** Flatten a built BET.  One pass; ENRs and footprints are frozen
    here. *)
val of_build : Build.result -> t

(** Structural invariants (post-order child < parent, index bounds,
    [pre_order] a root-first permutation respecting parent order).
    [Error msg] describes the first violation. *)
val check : t -> (unit, string) result
