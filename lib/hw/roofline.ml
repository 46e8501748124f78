(** Extended roofline performance model (paper §III-C, §V-A).

    For one execution of a code block with work vector [w], the model
    computes the computation time [tc], the memory time [tm], and the
    overlapped portion [t_overlap = min(tc,tm) * delta] with
    [delta = 1 - 1/flops] — small blocks cannot hide their memory
    accesses behind computation.  The block estimate is
    [t = tc + tm - t_overlap].

    Following the paper, the baseline model deliberately:
    - prices all floating point operations alike (divisions included),
    - assumes scalar issue (no SIMD),
    - assumes a constant cache hit ratio at each level.

    [opts] can switch on division-latency and vectorization awareness;
    the ablation benches use these to quantify the two error sources
    the paper identifies in §VII-B. *)

open Skope_bet

type opts = {
  hit_l1 : float;  (** constant L1 hit ratio (paper footnote: 0.85) *)
  hit_l2 : float;  (** constant L2 hit ratio for L1 misses *)
  vector_aware : bool;
      (** price vectorizable flops at SIMD throughput (off in paper) *)
  div_aware : bool;
      (** charge divisions their real latency (off in paper) *)
  ilp : float;
      (** fraction of the issue width real dependency chains sustain;
          1.0 is the paper's perfect-ILP assumption (§VII-C) *)
}

let default_opts =
  {
    hit_l1 = 0.85;
    hit_l2 = 0.85;
    vector_aware = false;
    div_aware = false;
    ilp = 1.0;
  }

type bound = Compute_bound | Memory_bound | Balanced

let bound_label = function
  | Compute_bound -> "compute"
  | Memory_bound -> "memory"
  | Balanced -> "balanced"

let pp_bound ppf b = Fmt.string ppf (bound_label b)

type breakdown = {
  tc : float;  (** computation seconds *)
  tm : float;  (** memory seconds *)
  t_overlap : float;  (** overlapped seconds *)
  total : float;  (** tc + tm - t_overlap *)
  bound : bound;
}

let zero_breakdown =
  { tc = 0.; tm = 0.; t_overlap = 0.; total = 0.; bound = Balanced }

(** Degree of computation/memory overlap: blocks with more floating
    point work overlap better (paper §V-A). *)
let overlap_degree ~flops =
  if flops <= 1. then 0. else 1. -. (1. /. flops)

let compute_time ?(opts = default_opts) (m : Machine.t) (w : Work.t) =
  let cps = Machine.cycles_per_sec m in
  (* Floating point throughput term.  [vec_issue] was recorded at the
     lane count the compiler would use; a narrower machine caps it. *)
  let flop_instr =
    if opts.vector_aware then
      let vec_issue =
        Float.max w.vec_issue
          (w.vec_flops /. float_of_int (max 1 m.vector_width))
      in
      w.flops -. w.vec_flops +. vec_issue
    else w.flops
  in
  let flop_time = flop_instr /. Machine.scalar_flops m in
  let div_extra =
    if opts.div_aware then
      Float.max 0.
        ((w.divs *. m.div_latency /. cps) -. (w.divs /. Machine.scalar_flops m))
    else 0.
  in
  (* Issue bandwidth term over all instructions; vectorized flops
     issue as vector instructions. *)
  let issue_ops = Work.ops w -. w.flops +. flop_instr in
  let ilp = Float.min 1. (Float.max 0.05 opts.ilp) in
  let issue_time = issue_ops /. (m.issue_width *. ilp *. cps) in
  Float.max flop_time issue_time +. div_extra

let memory_time ?(opts = default_opts) (m : Machine.t) (w : Work.t) =
  let cps = Machine.cycles_per_sec m in
  let acc = Work.mem_accesses w in
  let l1 = acc *. opts.hit_l1 in
  let l2 = acc *. (1. -. opts.hit_l1) *. opts.hit_l2 in
  let dram = acc *. (1. -. opts.hit_l1) *. (1. -. opts.hit_l2) in
  let latency_time =
    ((l1 *. m.l1.latency_cycles)
    +. (l2 *. m.l2.latency_cycles)
    +. (dram *. m.mem_latency_cycles))
    /. m.mlp /. cps
  in
  (* DRAM traffic moves whole lines: each access that misses both
     levels fetches [l2.line_bytes]. *)
  let dram_bytes = dram *. float_of_int m.l2.line_bytes in
  let bw_time = dram_bytes /. (m.mem_bw_gbs *. 1e9) in
  Float.max latency_time bw_time

(** Estimate the run time of one execution of a block with work [w]
    on machine [m]. *)
let estimate ?(opts = default_opts) (m : Machine.t) (w : Work.t) : breakdown =
  if Work.is_zero w then zero_breakdown
  else begin
    let tc = compute_time ~opts m w in
    let tm = memory_time ~opts m w in
    let delta = overlap_degree ~flops:w.flops in
    let t_overlap = Float.min tc tm *. delta in
    let total = tc +. tm -. t_overlap in
    let bound =
      if tc > tm *. 1.25 then Compute_bound
      else if tm > tc *. 1.25 then Memory_bound
      else Balanced
    in
    { tc; tm; t_overlap; total; bound }
  end

(** Classic roofline attainable performance (flops/s) at operational
    intensity [oi] (flops/DRAM-byte): min(peak, oi * bandwidth).  Used
    by reports to position blocks under the roof. *)
let attainable ?(opts = default_opts) (m : Machine.t) ~oi =
  ignore opts;
  Float.min (Machine.peak_flops m) (oi *. m.mem_bw_gbs *. 1e9)
