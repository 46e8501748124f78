(** Batched re-pricing of a flat BET arena (paper §V-A, executed as a
    forward loop instead of a tree walk).

    The engine is split in two passes so that per-node pricing and
    per-block aggregation can be optimized independently while staying
    bit-for-bit identical to {!Perf.project}:

    - pass 1 prices each arena slot with {!Roofline.estimate} — the
      very same function, on the very same [Work.t] record, with the
      very same opts resolution as the tree walk — and stores the
      unscaled breakdown in flat float arrays;
    - pass 2 replays the arena's [pre_order] sequence, accumulating
      per-block statistics with exactly the floating point expressions
      of the tree walk's visit function, so non-associative float
      addition rounds identically.

    Incrementality: [price_delta] diffs the previous and next machine
    into a changed-axes bitmask and re-runs pass 1 only for slots
    whose frozen dependency mask intersects it; every other slot
    reuses its stored breakdown (bit-identical by purity of
    [Roofline.estimate]).  Pass 2 re-aggregates only the blocks a
    re-priced slot feeds and merges them back into the previous rank
    order, reusing every untouched block's immutable record. *)

open Skope_bet
open Skope_hw

(* Per-machine pricing state: the unscaled roofline breakdown of every
   arena slot, kept so the next machine point can re-price only the
   slots an axis change actually reaches. *)
type state = {
  s_machine : Machine.t;
  s_tc : float array;
  s_tm : float array;
  s_to : float array;
  s_tot : float array;
  s_stats : Blockstat.t array;
      (** per dense block index; records are immutable, so a delta
          pricing shares the untouched blocks' records with its
          predecessor instead of rebuilding them *)
  s_order : int array;
      (** dense block indices in {!Blockstat.rank} order; a delta
          pricing merges the few re-ranked blocks into the previous
          order instead of re-sorting from scratch *)
}

type priced = {
  p_machine : Machine.t;
  p_blocks : Blockstat.t list;  (** ranked, as {!Perf.project} ranks *)
  p_total_time : float;
  p_state : state;
}

let machine p = p.p_machine
let blocks p = p.p_blocks
let total_time p = p.p_total_time

(* Machine-side changed-axes mask: which dependency groups a diff
   between two machines can reach.  Under the [Constant] cache model
   the structural cache fields are never read, so pure geometry
   changes contribute nothing. *)
let change_mask ~(cache : Perf.cache_model) (a : Machine.t) (b : Machine.t) =
  let m = ref 0 in
  let on bit cond = if cond then m := !m lor bit in
  on Arena.dep_freq (a.freq_ghz <> b.freq_ghz);
  on Arena.dep_cpu
    (a.fma <> b.fma || a.flop_issue_per_cycle <> b.flop_issue_per_cycle);
  on Arena.dep_issue (a.issue_width <> b.issue_width);
  on Arena.dep_vec (a.vector_width <> b.vector_width);
  on Arena.dep_div (a.div_latency <> b.div_latency);
  on Arena.dep_mem
    (a.mem_bw_gbs <> b.mem_bw_gbs
    || a.mem_latency_cycles <> b.mem_latency_cycles
    || a.mlp <> b.mlp
    || a.l1.latency_cycles <> b.l1.latency_cycles
    || a.l2.latency_cycles <> b.l2.latency_cycles
    || a.l2.line_bytes <> b.l2.line_bytes);
  (match cache with
  | Perf.Constant -> ()
  | Perf.Footprint ->
    on Arena.dep_geom
      (a.l1.size_bytes <> b.l1.size_bytes
      || a.l2.size_bytes <> b.l2.size_bytes
      || a.l1.line_bytes <> b.l1.line_bytes
      || a.l2.line_bytes <> b.l2.line_bytes));
  !m

(* Pass 1: (re-)price the slots selected by [mask] and store their
   unscaled breakdowns in [st]. *)
let reprice ~opts ~cache ~mask (a : Arena.t) (machine : Machine.t) st =
  let priced = ref 0 in
  for i = 0 to a.Arena.n - 1 do
    if a.Arena.deps.(i) land mask <> 0 then begin
      incr priced;
      let opts =
        match cache with
        | Perf.Constant -> opts
        | Perf.Footprint ->
          Perf.footprint_hits machine ~footprint:a.Arena.footprints.(i)
            ~base:opts
      in
      let b = Roofline.estimate ~opts machine a.Arena.works.(i) in
      st.s_tc.(i) <- b.Roofline.tc;
      st.s_tm.(i) <- b.Roofline.tm;
      st.s_to.(i) <- b.Roofline.t_overlap;
      st.s_tot.(i) <- b.Roofline.total
    end
  done;
  Skope_telemetry.Span.count "arena_nodes_priced" (float_of_int !priced);
  Skope_telemetry.Span.count "arena_reprice_skipped"
    (float_of_int (a.Arena.n - !priced))

(* Pass 2: per-block aggregation.  A block's time sums only ever
   accumulate over its own slots, so replaying [block_slots] (the
   block's slice of the pre_order visit sequence) with the tree walk's
   exact float expressions rounds identically to the full replay.
   ENR, work and note sums are machine-independent and were frozen at
   arena build; and a block none of whose slots were re-priced under
   [mask] has bit-identical sums to the previous point, so its
   immutable [Blockstat.t] record is reused outright. *)
let aggregate ~mask ?prev (a : Arena.t) st =
  let nb = Array.length a.Arena.block_ids in
  let rebuild b =
    let time = ref 0. and tc = ref 0. and tm = ref 0. and tov = ref 0. in
    Array.iter
      (fun i ->
        let enr = a.Arena.enrs.(i) in
        time := !time +. (st.s_tot.(i) *. enr);
        tc := !tc +. (st.s_tc.(i) *. enr);
        tm := !tm +. (st.s_tm.(i) *. enr);
        tov := !tov +. (st.s_to.(i) *. enr))
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
  let by_rank i j = Blockstat.compare_rank st.s_stats.(i) st.s_stats.(j) in
  (match prev with
  | Some (p : state) ->
    (* Re-aggregate only the blocks a re-priced slot feeds, then merge
       them back into the previous rank order: both sequences are
       sorted under the same strict total order, so the merge result
       is the unique rank order — bit-identical to a full re-sort. *)
    let changed = ref [] in
    let nc = ref 0 in
    for b = 0 to nb - 1 do
      if a.Arena.block_deps.(b) land mask = 0 then
        st.s_stats.(b) <- p.s_stats.(b)
      else begin
        st.s_stats.(b) <- rebuild b;
        changed := b :: !changed;
        incr nc
      end
    done;
    let changed = Array.of_list !changed in
    Array.sort by_rank changed;
    let chg = Array.make nb false in
    Array.iter (fun b -> chg.(b) <- true) changed;
    let nc = !nc in
    let ci = ref 0 and pi = ref 0 in
    for oi = 0 to nb - 1 do
      while !pi < nb && chg.(p.s_order.(!pi)) do
        incr pi
      done;
      if
        !ci < nc
        && (!pi >= nb || by_rank changed.(!ci) p.s_order.(!pi) < 0)
      then begin
        st.s_order.(oi) <- changed.(!ci);
        incr ci
      end
      else begin
        st.s_order.(oi) <- p.s_order.(!pi);
        incr pi
      end
    done
  | None ->
    for b = 0 to nb - 1 do
      st.s_stats.(b) <- rebuild b
    done;
    (* Merge sort (List.sort) does about half the comparisons heapsort
       (Array.sort) would; comparisons dominate here. *)
    List.iteri
      (fun oi b -> st.s_order.(oi) <- b)
      (List.sort by_rank (List.init nb (fun b -> b))));
  let blocks = ref [] in
  for oi = nb - 1 downto 0 do
    blocks := st.s_stats.(st.s_order.(oi)) :: !blocks
  done;
  !blocks

let with_eval_span (machine : Machine.t) f =
  Skope_telemetry.Span.with_ ~name:"eval"
    ~attrs:[ ("machine", machine.Machine.name) ]
    f

let price ?(opts = Roofline.default_opts) ?(cache = Perf.Constant)
    (a : Arena.t) (machine : Machine.t) : priced =
  with_eval_span machine (fun () ->
      let n = a.Arena.n in
      let st =
        {
          s_machine = machine;
          s_tc = Array.make n 0.;
          s_tm = Array.make n 0.;
          s_to = Array.make n 0.;
          s_tot = Array.make n 0.;
          s_stats =
            Array.make
              (Array.length a.Arena.block_ids)
              (Blockstat.make ~block:a.Arena.block_ids.(0) ~name:"" ~time:0.
                 ~static_size:0 ());
          s_order = Array.make (Array.length a.Arena.block_ids) 0;
        }
      in
      reprice ~opts ~cache ~mask:Arena.dep_all a machine st;
      let blocks = aggregate ~mask:Arena.dep_all a st in
      {
        p_machine = machine;
        p_blocks = blocks;
        p_total_time = Blockstat.total_time blocks;
        p_state = st;
      })

let price_delta ?(opts = Roofline.default_opts) ?(cache = Perf.Constant)
    ~(prev : priced) (a : Arena.t) (machine : Machine.t) : priced =
  let mask = change_mask ~cache prev.p_state.s_machine machine in
  if mask = 0 then begin
    (* Nothing the model reads changed: the previous pricing is the
       answer (the machines may still differ in unread fields such as
       the name or associativity). *)
    Skope_telemetry.Span.count "arena_reprice_skipped"
      (float_of_int a.Arena.n);
    {
      prev with
      p_machine = machine;
      p_state = { prev.p_state with s_machine = machine };
    }
  end
  else
    with_eval_span machine (fun () ->
        let st =
          {
            s_machine = machine;
            s_tc = Array.copy prev.p_state.s_tc;
            s_tm = Array.copy prev.p_state.s_tm;
            s_to = Array.copy prev.p_state.s_to;
            s_tot = Array.copy prev.p_state.s_tot;
            s_stats = Array.copy prev.p_state.s_stats;
            s_order = Array.make (Array.length prev.p_state.s_order) 0;
          }
        in
        reprice ~opts ~cache ~mask a machine st;
        let blocks = aggregate ~mask ~prev:prev.p_state a st in
        {
          p_machine = machine;
          p_blocks = blocks;
          p_total_time = Blockstat.total_time blocks;
          p_state = st;
        })

(* Filled in the tree walk's visit order into tables of the tree
   walk's initial size, so even their bucket layout matches. *)
let projection (a : Arena.t) (p : priced) : Perf.projection =
  let node_time = Hashtbl.create 256 and node_enr = Hashtbl.create 256 in
  Array.iter
    (fun i ->
      let enr = a.Arena.enrs.(i) in
      Hashtbl.replace node_time a.Arena.ids.(i) (p.p_state.s_tot.(i) *. enr);
      Hashtbl.replace node_enr a.Arena.ids.(i) enr)
    a.Arena.pre_order;
  {
    Perf.machine = p.p_machine;
    blocks = p.p_blocks;
    total_time = p.p_total_time;
    node_time;
    node_enr;
  }

let price_batch ?opts ?cache (a : Arena.t) (machines : Machine.t array) :
    priced array =
  let prev = ref None in
  Array.map
    (fun m ->
      let p =
        match !prev with
        | None -> price ?opts ?cache a m
        | Some p -> price_delta ?opts ?cache ~prev:p a m
      in
      prev := Some p;
      p)
    machines
