(** Extended roofline performance model (paper §III-C, §V-A).

    For one execution of a code block with work [w]:
    [t = tc + tm - t_overlap] where
    [t_overlap = min(tc, tm) * (1 - 1/flops)] — small blocks cannot
    hide their memory accesses behind computation.

    The baseline model deliberately prices all flops alike (divisions
    included), assumes scalar issue, and uses constant cache hit
    ratios; [opts] switches on the refinements the paper identifies as
    its two main error sources (§VII-B). *)

open Skope_bet

type opts = {
  hit_l1 : float;  (** constant L1 hit ratio (default 0.85) *)
  hit_l2 : float;  (** constant L2 hit ratio for L1 misses *)
  vector_aware : bool;  (** price vectorizable flops at SIMD rate *)
  div_aware : bool;  (** charge divisions their real latency *)
  ilp : float;
      (** sustained fraction of issue width (1.0 = the paper's
          perfect-ILP assumption, §VII-C); clamped to [0.05, 1] *)
}

val default_opts : opts

type bound = Compute_bound | Memory_bound | Balanced

(** ["compute"], ["memory"] or ["balanced"]: the text every report,
    JSON reply and {!pp_bound} prints for a bound. *)
val bound_label : bound -> string

val pp_bound : bound Fmt.t

type breakdown = {
  tc : float;  (** computation seconds *)
  tm : float;  (** memory seconds *)
  t_overlap : float;  (** overlapped seconds *)
  total : float;  (** [tc + tm - t_overlap] *)
  bound : bound;
}

val zero_breakdown : breakdown

(** [1 - 1/flops], clamped to 0 for tiny blocks. *)
val overlap_degree : flops:float -> float

val compute_time : ?opts:opts -> Machine.t -> Work.t -> float
val memory_time : ?opts:opts -> Machine.t -> Work.t -> float

(** Estimate one execution of a block with work [w] on machine [m]. *)
val estimate : ?opts:opts -> Machine.t -> Work.t -> breakdown

(** Classic roofline attainable flops/s at operational intensity
    [oi]: [min(peak, oi * bandwidth)]. *)
val attainable : ?opts:opts -> Machine.t -> oi:float -> float
