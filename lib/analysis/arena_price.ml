(** Pricing of a flat BET arena (paper §V-A, executed as a forward
    loop instead of a tree walk).

    Every machine point is one pass, bit-for-bit identical to
    {!Perf.project}: each block's slots, in the arena's pre-order
    visit sequence, are priced with {!Roofline.estimate} — the very
    same function, on the very same [Work.t] record, with the very
    same opts resolution as the tree walk — and accumulated with
    exactly the floating point expressions of the tree walk's visit
    function, so non-associative float addition rounds identically. *)

open Skope_bet
open Skope_hw

type priced = {
  p_machine : Machine.t;
  p_blocks : Blockstat.t list;  (** ranked, as {!Perf.project} ranks *)
  p_total_time : float;
  p_totals : float array;  (** unscaled total time of every slot *)
}

let machine p = p.p_machine
let blocks p = p.p_blocks
let total_time p = p.p_total_time

exception Non_finite_time of Machine.t

let price ?(opts = Roofline.default_opts) ?(cache = Perf.Constant)
    (a : Arena.t) (machine : Machine.t) : priced =
  Skope_telemetry.Span.with_ ~name:"eval"
    ~attrs:[ ("machine", machine.Machine.name) ]
  @@ fun () ->
  let n = a.Arena.n in
  let totals = Array.make n 0. in
  (* A block's time sums only ever accumulate over its own slots, so
     replaying [block_slots] (the block's slice of the pre-order visit
     sequence) rounds identically to the tree walk.  ENR, work and note
     sums are machine-independent and were frozen at arena build. *)
  let block b =
    let time = ref 0. and tc = ref 0. and tm = ref 0. and tov = ref 0. in
    Array.iter
      (fun i ->
        let opts =
          match cache with
          | Perf.Constant -> opts
          | Perf.Footprint ->
            Perf.footprint_hits machine ~footprint:a.Arena.footprints.(i)
              ~base:opts
        in
        let e = Roofline.estimate ~opts machine a.Arena.works.(i) in
        let enr = a.Arena.enrs.(i) in
        totals.(i) <- e.Roofline.total;
        time := !time +. (e.Roofline.total *. enr);
        tc := !tc +. (e.Roofline.tc *. enr);
        tm := !tm +. (e.Roofline.tm *. enr);
        tov := !tov +. (e.Roofline.t_overlap *. enr))
      a.Arena.block_slots.(b);
    let bound =
      if !tc > !tm *. 1.25 then Roofline.Compute_bound
      else if !tm > !tc *. 1.25 then Roofline.Memory_bound
      else Roofline.Balanced
    in
    Blockstat.make ~block:a.Arena.block_ids.(b) ~name:a.Arena.block_names.(b)
      ~time:!time ~tc:!tc ~tm:!tm ~t_overlap:!tov ~enr:a.Arena.block_enrs.(b)
      ~static_size:a.Arena.block_sizes.(b) ~bound
      ~work:a.Arena.block_works.(b) ~note:a.Arena.block_notes.(b) ()
  in
  (* Merge sort (List.sort) does about half the comparisons heapsort
     (Array.sort) would; comparisons dominate here. *)
  let blocks =
    List.sort Blockstat.compare_rank
      (List.init (Array.length a.Arena.block_ids) block)
  in
  Skope_telemetry.Span.count "arena_nodes_priced" (float_of_int n);
  (* A machine parameter so small that a time term overflows (memory
     bandwidth 1e-320 GB/s, say) must not come back as an infinite or
     NaN answer. *)
  let total = Blockstat.total_time blocks in
  if not (Float.is_finite total) then raise (Non_finite_time machine);
  { p_machine = machine; p_blocks = blocks; p_total_time = total; p_totals = totals }

let price_delta ?opts ?cache ~prev:_ a machine = price ?opts ?cache a machine

(* Filled in the tree walk's visit order into tables of the tree
   walk's initial size, so even their bucket layout matches. *)
let projection (a : Arena.t) (p : priced) : Perf.projection =
  let node_time = Hashtbl.create 256 and node_enr = Hashtbl.create 256 in
  Array.iter
    (fun i ->
      let enr = a.Arena.enrs.(i) in
      Hashtbl.replace node_time a.Arena.ids.(i) (p.p_totals.(i) *. enr);
      Hashtbl.replace node_enr a.Arena.ids.(i) enr)
    a.Arena.pre_order;
  {
    Perf.machine = p.p_machine;
    blocks = p.p_blocks;
    total_time = p.p_total_time;
    node_time;
    node_enr;
  }
