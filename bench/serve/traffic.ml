(* The four workloads: seeded request-body generators.

   Body [i] of a workload is a pure function of (seed, i), so two
   commits measured with the same seed issue the same requests in the
   same order, and every body carries the trace id
   [bench-<workload>-<i>], which makes reply bytes reproducible.
   Verification bodies ([verify_body]) come from an index range the
   timed phase never reaches (hot-hits excepted: its working set is the
   point) and carry [bench-<workload>-v<j>]. *)

module A = Skope_service.Service_api
module Registry = Core.Workloads.Registry
module Machine = Core.Hw.Machine
module Machines = Core.Hw.Machines

type kind = Hot_hits | Cold_analyze | Explore_grid | Static_check

let all = [ Hot_hits; Cold_analyze; Explore_grid; Static_check ]

let name = function
  | Hot_hits -> "hot-hits"
  | Cold_analyze -> "cold-analyze"
  | Explore_grid -> "explore-grid"
  | Static_check -> "static-check"

let of_name s = List.find_opt (fun k -> name k = s) all

let bundled = [| "pedagogical"; "sord"; "chargei"; "srad"; "cfd"; "stassuij" |]
let paper = [| "sord"; "chargei"; "srad"; "cfd"; "stassuij" |]
let machines = [| "bgq"; "xeon" |]

let verify_count = 64

(* Far beyond any index a timed phase reaches. *)
let verify_base = 1 lsl 40

let machine name =
  match Machines.find name with
  | Some m -> m
  | None -> invalid_arg ("unknown machine " ^ name)

let default_scale w = (Registry.find_exn w).Registry.default_scale

(* Three decimals keep bodies short and readable; JSON floats
   round-trip exactly either way. *)
let round3 x = Float.round (x *. 1000.) /. 1000.
let uniform st lo hi = lo +. Random.State.float st (hi -. lo)
let rng ~seed ~salt i = Random.State.make [| seed; salt; i |]

let opts ?scale ?(overrides = []) () =
  { A.default_query_opts with A.scale; overrides }

(* An 8-point bandwidth sweep: base/8 .. 16x base in octaves. *)
let bw_values bw = List.init 8 (fun j -> round3 (bw *. (2. ** float_of_int (j - 3))))

(* What a request costs must not depend on the seed, or runs on
   different seeds would disagree for reasons no commit caused.  So the
   structure of each workload (which bundled workload, which machine,
   analyze or sweep) is fixed by the request index, and the seed draws
   only cost-neutral values: scales, bandwidths, clocks, orders and
   sampling seeds. *)

(* A seeded permutation of [0, n). *)
let permutation st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

type hot = {
  analyzes : A.request array;
  sweeps : A.request array;
  analyze_order : int array;
  sweep_order : int array;
}

(* hot-hits' fixed working set: the 6 bundled workloads x {bgq, xeon}
   x 2 drawn scales as analyzes, plus 8 bandwidth sweeps. *)
let hot_set ~seed =
  let st = rng ~seed ~salt:0 0 in
  let analyzes =
    Array.to_list bundled
    |> List.concat_map (fun w ->
           let scales =
             List.init 2 (fun _ -> round3 (default_scale w *. uniform st 0.5 1.5))
           in
           List.concat_map
             (fun m ->
               List.map
                 (fun s ->
                   A.analyze ~opts:(opts ~scale:s ()) ~workload:w ~machine:m ())
                 scales)
             (Array.to_list machines))
    |> Array.of_list
  in
  let sweeps =
    Array.init 8 (fun k ->
        let m = machines.(k mod 2) in
        A.sweep
          ~workload:bundled.(k mod Array.length bundled)
          ~machine:m ~axis:"bw"
          ~values:(bw_values ((machine m).Machine.mem_bw_gbs *. uniform st 0.8 1.25))
          ())
  in
  {
    analyzes;
    sweeps;
    analyze_order = permutation st (Array.length analyzes);
    sweep_order = permutation st (Array.length sweeps);
  }

(* Every 4th request is a sweep; both kinds cycle through their set in
   a seeded order, so each member is hit equally often. *)
let hot_request h i =
  let round = i / 4 in
  if i mod 4 = 3 then h.sweeps.(h.sweep_order.(round mod Array.length h.sweeps))
  else
    let k = (3 * round) + (i mod 4) in
    h.analyzes.(h.analyze_order.(k mod Array.length h.analyzes))

(* Every cold body is new: drawn scale, bandwidth and clock.  Sweeps
   (every 5th request) carry the clock override so their points are
   new too.  Workload, machine and kind cycle with period 60. *)
let cold_request ~seed i =
  let st = rng ~seed ~salt:2 i in
  let w = bundled.(i mod Array.length bundled) in
  let m = machines.(i / 30 mod 2) in
  let base = machine m in
  let scale = round3 (default_scale w *. uniform st 0.5 1.5) in
  let bw = round3 (base.Machine.mem_bw_gbs *. uniform st 0.5 2.) in
  let freq = round3 (base.Machine.freq_ghz *. uniform st 0.75 1.25) in
  if i mod 5 <> 4 then
    A.analyze
      ~opts:(opts ~scale ~overrides:[ ("mem_bw_gbs", bw); ("freq_ghz", freq) ] ())
      ~workload:w ~machine:m ()
  else
    A.sweep
      ~opts:(opts ~scale ~overrides:[ ("freq_ghz", freq) ] ())
      ~workload:w ~machine:m ~axis:"bw" ~values:(bw_values bw) ()

(* A 128-point latin-hypercube sample of a 5-axis, 5-level grid around
   the base machine, with a fresh sampling seed per request.  The drawn
   scale keeps points from repeating across requests, so the grid is
   priced rather than served from the cache. *)
let explore_request ~seed i =
  let st = rng ~seed ~salt:3 i in
  let w = paper.(i mod Array.length paper) in
  let m = machines.(i / Array.length paper mod 2) in
  let base = machine m in
  let around x factors = List.map (fun f -> round3 (x *. f)) factors in
  let axes =
    [
      ("bw", around base.Machine.mem_bw_gbs [ 0.25; 0.5; 1.; 2.; 4. ]);
      ("freq", around base.Machine.freq_ghz [ 0.5; 0.75; 1.; 1.25; 1.5 ]);
      ("vec", [ 1.; 2.; 4.; 8.; 16. ]);
      ("lat", around base.Machine.mem_latency_cycles [ 0.5; 0.75; 1.; 1.5; 2. ]);
      ("issue", around base.Machine.issue_width [ 0.5; 1.; 1.5; 2.; 4. ]);
    ]
  in
  let scale = round3 (default_scale w *. uniform st 0.5 1.5) in
  A.explore ~opts:(opts ~scale ()) ~sample:128 ~seed:(Random.State.bits st)
    ~workload:w ~machine:m ~axes ()

(* static-check's generated skeletons vary widely in cost (a few cost
   30x the median), so the mean over a short corpus depends on the seed.
   The corpus is therefore sized to about one pass at 1000 skeletons
   per second (each linted and audited), at least 2000. *)
let corpus_size ~seconds = max 2000 (int_of_float (1000. *. seconds))

let check_request i src = if i mod 2 = 0 then A.lint_source src else A.audit_source src

(* Alternating lint and audit over the generated corpus, cycled. *)
let static_request sources i = check_request i sources.(i / 2 mod Array.length sources)

(* What a workload precomputes from its seed. *)
type data = Nothing | Hot_set of hot | Corpus of string array

type t = { kind : kind; seed : int; data : data }

let create ?(seconds = 0.) kind ~seed =
  let data =
    match kind with
    | Hot_hits -> Hot_set (hot_set ~seed)
    | Static_check ->
      Corpus
        (Skope_gen.Corpus.generate ~jobs:2 ~seed:(Int64.of_int seed)
           ~count:(corpus_size ~seconds) ()
        |> List.map Skope_gen.Gen.to_source
        |> Array.of_list)
    | Cold_analyze | Explore_grid -> Nothing
  in
  { kind; seed; data }

let request t i =
  match t.data with
  | Hot_set h -> hot_request h i
  | Corpus sources -> static_request sources i
  | Nothing when t.kind = Cold_analyze -> cold_request ~seed:t.seed i
  | Nothing -> explore_request ~seed:t.seed i

let body t i =
  A.to_body ~trace_id:(Printf.sprintf "bench-%s-%d" (name t.kind) i) (request t i)

let hot_working_set t =
  match t.data with
  | Hot_set h -> Array.append h.analyzes h.sweeps
  | Nothing | Corpus _ -> [||]

(* hot-hits verifies its whole working set (twice over at the default
   64 bodies); the others draw past the timed phase's indices. *)
let verify_body t j =
  let request =
    match t.kind with
    | Hot_hits ->
      let set = hot_working_set t in
      set.(j mod Array.length set)
    | Cold_analyze -> cold_request ~seed:t.seed (verify_base + j)
    | Explore_grid -> explore_request ~seed:t.seed (verify_base + j)
    | Static_check ->
      check_request j
        (Skope_gen.Gen.to_source
           (Skope_gen.Gen.generate ~seed:(Int64.of_int t.seed) ~index:(verify_base + j) ()))
  in
  A.to_body ~trace_id:(Printf.sprintf "bench-%s-v%d" (name t.kind) j) request

(* Bodies that bring a fresh cluster into the cache state the timed
   phase assumes: hot-hits' working set (sent to every shard, so
   bounded-load diversion can never land on a cold cache); nothing for
   the others, whose every timed body is new or uncached. *)
let warm_bodies t =
  Array.mapi
    (fun j r -> A.to_body ~trace_id:(Printf.sprintf "bench-warm-%d" j) r)
    (hot_working_set t)
