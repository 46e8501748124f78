(** Multi-axis design-space exploration (the paper's co-design loop at
    grid scale).

    The paper's pitch is that projection needs no execution on the
    target, so a designer can ask "what if?" for whole families of
    conceptual machines.  A naive sweep re-runs the entire pipeline —
    workload construction, validation, lint, BET build — for every
    machine point even though only the roofline pricing depends on the
    machine.  This engine runs the machine-independent prefix once
    ({!Core.Pipeline.Prepared.create}) and re-prices the shared BET
    per grid point ({!Core.Pipeline.Prepared.project}), turning
    O(points x full pipeline) into O(1 build + points x projection).
    Consecutive points within a worker's chunk are additionally
    delta-chained ({!Core.Pipeline.Prepared.project_delta}), so a point
    differing from its neighbour on one axis re-prices only the
    dependent BET nodes.

    Evaluation is embarrassingly parallel: the BET is read-only during
    pricing, so a pool of OCaml 5 domains walks the grid with chunked
    work distribution.  Results stream through [on_point] as they
    complete; the final result also carries the Pareto frontier over
    (projected time, hardware cost proxy). *)

module P = Core.Pipeline
module Machine = Core.Hw.Machine
module Designspace = Core.Hw.Designspace
module Hotspot = Core.Analysis.Hotspot
module Blockstat = Core.Analysis.Blockstat
module Span = Core.Telemetry.Span

type point = {
  index : int;  (** position in grid order *)
  tag : string;  (** {!Designspace.point} tag, e.g. ["bw=7.0,vec=4"] *)
  values : (string * float) list;  (** axis key -> swept value *)
  machine : Machine.t;
  outcome : P.Prepared.outcome;  (** pricing result (state stripped) *)
  time : float;  (** projected seconds (the outcome total) *)
  cost : float;  (** {!cost_proxy} of [machine] *)
}

type result = {
  points : point list;  (** grid order *)
  pareto : point list;  (** non-dominated points, by increasing time *)
  elapsed : float;  (** wall seconds for the grid evaluation *)
}

(* A dimensionless "hardware budget" so the Pareto frontier has a
   second objective.  Deliberately simple and fixed: relative units
   that grow with everything a designer pays for — pipeline width and
   clock, SIMD datapath, memory interface, SRAM.  Absolute values are
   meaningless; only comparisons within one grid matter. *)
let cost_proxy (m : Machine.t) =
  (m.Machine.freq_ghz *. m.Machine.issue_width)
  +. 0.25 *. m.Machine.freq_ghz
     *. float_of_int m.Machine.vector_width
     *. (if m.Machine.fma then 2. else 1.)
  +. (m.Machine.mem_bw_gbs /. 4.)
  +. (float_of_int m.Machine.l2.Machine.size_bytes /. (1024. *. 1024.) *. 2.)

(** Aggregate (compute, memory, overlapped) seconds over all blocks of
    an outcome — the Tc/Tm/To split of one grid point. *)
let split (o : P.Prepared.outcome) =
  List.fold_left
    (fun (tc, tm, ov) (b : Blockstat.t) ->
      (tc +. b.Blockstat.tc, tm +. b.Blockstat.tm, ov +. b.Blockstat.t_overlap))
    (0., 0., 0.) o.P.Prepared.o_blocks

(** Minimizing Pareto frontier of [items] under [metrics] (both
    objectives smaller-is-better), in increasing order of the first
    objective.  Duplicated metric pairs all survive. *)
let pareto_by ~metrics items =
  let dominates a b =
    let ta, ca = metrics a and tb, cb = metrics b in
    ta <= tb && ca <= cb && (ta < tb || ca < cb)
  in
  List.filter (fun x -> not (List.exists (fun y -> dominates y x) items)) items
  |> List.sort (fun a b -> compare (metrics a) (metrics b))

let pareto_points = pareto_by ~metrics:(fun p -> (p.time, p.cost))

(** The grid to evaluate: the cartesian product of [axes] around
    [base], or — when [sample] is given — that many latin-hypercube
    samples of it.  Every point's machine keeps [base]'s name so
    results (and service fingerprints) match an equivalent
    override query. *)
let grid_points ?sample ?seed (base : Machine.t)
    (axes : Designspace.axis list) : Designspace.point list =
  match sample with
  | None -> Designspace.grid base axes
  | Some n -> Designspace.sample ?seed ~n base axes

(** Evaluate [pts] against a shared prepared BET.

    [jobs] sizes the domain pool (default 1: run in the caller's
    domain).  A point that raises aborts the grid: the first exception
    wins, the pool drains, and it is re-raised to the caller.
    [on_point] observes points as they complete (serialized, any
    domain's points). *)
let evaluate ?(jobs = 1) ?(criteria = Hotspot.default_criteria) ?on_point
    (prepared : P.Prepared.t) (pts : Designspace.point list) : result =
  let t0 = Unix.gettimeofday () in
  let arr = Array.of_list pts in
  let n = Array.length arr in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let failure : exn option Atomic.t = Atomic.make None in
  let out_lock = Mutex.create () in
  (* [prev] delta-chains consecutive points of one worker's chunk (a
     [None] prev is a full pricing).  Chains never cross chunks, so
     workers share nothing mutable. *)
  let eval_one ~prev i =
    let pt = arr.(i) in
    let outcome =
      match prev with
      | Some prev ->
        P.Prepared.project_delta ~criteria ~prev prepared
          pt.Designspace.p_machine
      | None -> P.Prepared.project ~criteria prepared pt.Designspace.p_machine
    in
    Span.count "explore_points_evaluated" 1.;
    (* Every priced point reuses the shared BET instead of rebuilding
       the machine-independent prefix. *)
    Span.count "explore_bet_reuse_hits" 1.;
    let point =
      {
        index = i;
        tag = pt.Designspace.p_tag;
        values = pt.Designspace.p_values;
        machine = pt.Designspace.p_machine;
        outcome = P.Prepared.strip_state outcome;
        time = outcome.P.Prepared.o_total_time;
        cost = cost_proxy pt.Designspace.p_machine;
      }
    in
    results.(i) <- Some point;
    (match on_point with
    | None -> ()
    | Some f ->
      Mutex.lock out_lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock out_lock) (fun () -> f point));
    outcome
  in
  let jobs = max 1 (min jobs (max 1 n)) in
  (* Chunked distribution: cheap points amortize the atomic fetch,
     while ~4 chunks per worker keep the tail balanced. *)
  let chunk = max 1 (n / (jobs * 4)) in
  let worker () =
    let rec loop () =
      if Atomic.get failure = None then begin
        let start = Atomic.fetch_and_add next chunk in
        if start < n then begin
          (try
             let prev = ref None in
             for i = start to min (start + chunk) n - 1 do
               if Atomic.get failure = None then
                 prev := Some (eval_one ~prev:!prev i)
             done
           with e -> ignore (Atomic.compare_and_set failure None (Some e)));
          loop ()
        end
      end
    in
    loop ()
  in
  Span.with_ ~name:"explore"
    ~attrs:
      [
        ( "workload",
          (P.Prepared.workload prepared).Core.Workloads.Registry.name );
        ("points", string_of_int n);
        ("jobs", string_of_int jobs);
      ]
    (fun () ->
      let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      List.iter Domain.join domains);
  (match Atomic.get failure with Some e -> raise e | None -> ());
  let points =
    Array.to_list results |> List.filter_map Fun.id
  in
  {
    points;
    pareto = pareto_points points;
    elapsed = Unix.gettimeofday () -. t0;
  }
