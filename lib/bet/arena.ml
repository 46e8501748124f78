(** Flat post-order BET arena.

    [of_build] flattens a built BET into contiguous int-indexed arrays
    in a single pass: children occupy lower slots than their parent
    (post-order), the root is the last slot, and [pre_order] records
    the original depth-first visit sequence so per-block accumulation
    can replay the tree walk's exact floating point order.

    Everything machine-independent is frozen here, once: the expected
    number of repetitions of every node ([enrs], paper §V-A) and the
    working-set footprint of the innermost enclosing loop
    ([footprints], used by the footprint cache model).  Pricing the
    arena for a machine point then touches only frozen floats. *)

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
      (** dense block index -> its slots, in [pre_order] visit order:
          per-block accumulation over this sequence reproduces the
          tree walk's per-block float rounding exactly *)
  block_enrs : float array;  (** frozen per-block ENR sum *)
  block_works : Work.t array;  (** frozen per-block ENR-scaled work *)
  block_notes : string array;
      (** first non-empty invocation note, in visit order *)
  total_instructions : int;  (** static weight (leanness denominator) *)
}

let node_count t = t.n

let of_build (built : Build.result) : t =
  let n = Node.size built.Build.root in
  let ids = Array.make n 0 in
  let kinds = Array.make n Node.Loop in
  let probs = Array.make n 0. in
  let trips = Array.make n 0. in
  let notes = Array.make n "" in
  let works = Array.make n Work.zero in
  let enrs = Array.make n 0. in
  let footprints = Array.make n 0. in
  let parents = Array.make n (-1) in
  let children = Array.make n [||] in
  let pre_order = Array.make n 0 in
  let block_ix = Array.make n 0 in
  let blocks_tbl : (Block_id.t, int) Hashtbl.t = Hashtbl.create 64 in
  let blocks_rev = ref [] in
  let nblocks = ref 0 in
  let next_slot = ref 0 in
  (* Post-order flattening: one recursive pass assigns children their
     slots before the parent, so a forward loop over [0, n) always
     sees children first. *)
  let rec flatten (node : Node.t) =
    let kids = List.map flatten node.Node.children in
    let slot = !next_slot in
    incr next_slot;
    ids.(slot) <- node.Node.id;
    kinds.(slot) <- node.Node.kind;
    probs.(slot) <- node.Node.prob;
    trips.(slot) <- node.Node.trips;
    notes.(slot) <- node.Node.note;
    works.(slot) <- node.Node.work;
    children.(slot) <- Array.of_list kids;
    Array.iter (fun c -> parents.(c) <- slot) children.(slot);
    (block_ix.(slot) <-
       (match Hashtbl.find_opt blocks_tbl node.Node.block with
       | Some b -> b
       | None ->
         let b = !nblocks in
         incr nblocks;
         Hashtbl.add blocks_tbl node.Node.block b;
         blocks_rev := node.Node.block :: !blocks_rev;
         b));
    slot
  in
  let root = flatten built.Build.root in
  (* Bytes touched by one execution, children included — memoized
     bottom-up with the same left-to-right fold as the recursive
     [Perf.bytes_per_exec], so every value is bit-identical to what
     the tree walk computes. *)
  let bpe = Array.make n 0. in
  for slot = 0 to n - 1 do
    bpe.(slot) <-
      Array.fold_left
        (fun acc c -> acc +. (probs.(c) *. trips.(c) *. bpe.(c)))
        (Work.bytes works.(slot))
        children.(slot)
  done;
  (* Freeze ENR and footprint top-down, in the tree walk's visit
     order; that visit order is also the [pre_order] replay
     sequence. *)
  let step = ref 0 in
  let rec freeze slot ~parent_enr ~footprint =
    let enr = trips.(slot) *. probs.(slot) *. parent_enr in
    let footprint =
      match kinds.(slot) with
      | Node.Loop -> trips.(slot) *. bpe.(slot)
      | _ -> footprint
    in
    enrs.(slot) <- enr;
    footprints.(slot) <- footprint;
    pre_order.(!step) <- slot;
    incr step;
    Array.iter (fun c -> freeze c ~parent_enr:enr ~footprint) children.(slot)
  in
  freeze root ~parent_enr:1. ~footprint:bpe.(root);
  let block_ids = Array.of_list (List.rev !blocks_rev) in
  let nb = Array.length block_ids in
  (* Per-block frozen aggregates, replayed in visit order.  The
     machine-dependent time sums of a block only ever accumulate over
     the block's own slots, so their relative visit order is all that
     matters for float rounding — recorded here as [block_slots].  ENR
     and work sums never depend on the machine at all, so they are
     frozen outright with the tree walk's exact expressions. *)
  let block_slots_rev = Array.make nb [] in
  let block_enrs = Array.make nb 0. in
  let block_notes = Array.make nb "" in
  let w_acc = Array.make nb Work.zero in
  Array.iter
    (fun slot ->
      let b = block_ix.(slot) in
      let enr = enrs.(slot) in
      let w = works.(slot) in
      block_slots_rev.(b) <- slot :: block_slots_rev.(b);
      block_enrs.(b) <- block_enrs.(b) +. enr;
      (let acc = w_acc.(b) in
       w_acc.(b) <-
         {
           Work.flops = acc.Work.flops +. (enr *. w.Work.flops);
           iops = acc.Work.iops +. (enr *. w.Work.iops);
           divs = acc.Work.divs +. (enr *. w.Work.divs);
           vec_flops = acc.Work.vec_flops +. (enr *. w.Work.vec_flops);
           vec_issue = acc.Work.vec_issue +. (enr *. w.Work.vec_issue);
           loads = acc.Work.loads +. (enr *. w.Work.loads);
           stores = acc.Work.stores +. (enr *. w.Work.stores);
           lbytes = acc.Work.lbytes +. (enr *. w.Work.lbytes);
           sbytes = acc.Work.sbytes +. (enr *. w.Work.sbytes);
         });
      if block_notes.(b) = "" then block_notes.(b) <- notes.(slot))
    pre_order;
  let block_slots =
    Array.map (fun l -> Array.of_list (List.rev l)) block_slots_rev
  in
  let bst = built.Build.bst in
  {
    n;
    root;
    ids;
    kinds;
    probs;
    trips;
    notes;
    works;
    enrs;
    footprints;
    parents;
    children;
    pre_order;
    block_ix;
    block_ids;
    block_names = Array.map (Bst.block_name bst) block_ids;
    block_sizes = Array.map (Bst.block_size bst) block_ids;
    block_slots;
    block_enrs;
    block_works = w_acc;
    block_notes;
    total_instructions = Bst.total_instructions bst;
  }

(** Structural invariants; used by the test suite and cheap enough to
    assert after [of_build] in debug contexts.  Returns [Error msg] on
    the first violation. *)
let check (t : t) : (unit, string) result =
  let fail fmt = Fmt.kstr (fun m -> Error m) fmt in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let* () = if t.n > 0 then Ok () else fail "empty arena" in
  let* () =
    if t.root = t.n - 1 then Ok ()
    else fail "root slot %d is not the last slot %d" t.root (t.n - 1)
  in
  let* () =
    if t.parents.(t.root) = -1 then Ok () else fail "root has a parent"
  in
  let rec slots i =
    if i >= t.n then Ok ()
    else
      let* () =
        Array.fold_left
          (fun r c ->
            let* () = r in
            if c < 0 || c >= t.n then
              fail "slot %d: child %d out of bounds" i c
            else if c >= i then
              fail "slot %d: child %d not in post-order (child >= parent)" i c
            else if t.parents.(c) <> i then
              fail "slot %d: child %d has parent %d" i c t.parents.(c)
            else Ok ())
          (Ok ()) t.children.(i)
      in
      let* () =
        let b = t.block_ix.(i) in
        if b < 0 || b >= Array.length t.block_ids then
          fail "slot %d: block index %d out of bounds" i b
        else Ok ()
      in
      slots (i + 1)
  in
  let* () = slots 0 in
  (* pre_order must be a permutation of the slots starting at the
     root, with every node visited after its parent. *)
  let seen = Array.make t.n false in
  let rec pre k =
    if k >= t.n then Ok ()
    else
      let s = t.pre_order.(k) in
      let* () =
        if s < 0 || s >= t.n then fail "pre_order.(%d) = %d out of bounds" k s
        else if seen.(s) then fail "pre_order visits slot %d twice" s
        else if k = 0 && s <> t.root then
          fail "pre_order starts at %d, not the root" s
        else if k > 0 && not seen.(t.parents.(s)) then
          fail "pre_order visits slot %d before its parent" s
        else Ok ()
      in
      seen.(s) <- true;
      pre (k + 1)
  in
  pre 0
