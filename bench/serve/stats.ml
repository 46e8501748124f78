(* Order statistics for one run (nearest-rank percentiles over request
   latencies) and across runs (quartiles, pairwise wins, verdicts). *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank [p]th percentile (integer percent, so no rounding
   surprises at e.g. 0.99 * 1000) of an ascending array: the smallest
   sample with at least p% of the samples at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let k = ((p * n) + 99) / 100 in
    sorted.(max 0 (min (n - 1) (k - 1)))

(* Samples strictly above the nearest-rank [p]th percentile. *)
let beyond n p = n - (((p * n) + 99) / 100)

(* A percentile means something only when at least ten samples lie
   beyond it; otherwise it is the extreme of a handful of samples. *)
let supported n p = beyond n p >= 10

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] (its default
   "exclusive" method) computes them, so spreads printed here agree
   with any script that checks the same runs. *)
let quartiles xs =
  let d = sorted xs in
  let ld = Array.length d in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, m, q3 = quartiles xs in
  (q3 -. q1) /. m

type direction = Lower | Higher

let direction_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

(* [better dir a b]: does [b] read better than [a]? *)
let better dir a b = match dir with Lower -> b < a | Higher -> b > a

(* Share of runs, paired in order, where the change beats the base;
   ties count for neither side. *)
let win_fraction dir ~base ~change =
  let n = min (Array.length base) (Array.length change) in
  if n = 0 then 0.
  else begin
    let wins = ref 0 in
    for i = 0 to n - 1 do
      if better dir base.(i) change.(i) then incr wins
    done;
    float_of_int !wins /. float_of_int n
  end

type verdict = Improved | No_regression | Regressed | Unresolved

let verdict_to_string = function
  | Improved -> "improved"
  | No_regression -> "no regression"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* The comparison rule for one metric on one workload:
   - regressed: the change's median is worse than the base's by more
     than [bound] (a share of the base median);
   - improved: the change wins at least 9 of 10 pairs and the medians
     differ by more than the base's own interquartile range;
   - unresolved: either side's spread is wider than [bound], unless
     every change run beats every base run;
   - otherwise no regression. *)
let verdict dir ~bound ~base ~change =
  let q1a, ma, q3a = quartiles base in
  let mb = median change in
  let worse_by =
    match dir with Lower -> (mb -. ma) /. ma | Higher -> (ma -. mb) /. ma
  in
  let all_better =
    Array.for_all (fun a -> Array.for_all (fun b -> better dir a b) change) base
  in
  if worse_by > bound then Regressed
  else if
    win_fraction dir ~base ~change >= 0.9
    && better dir ma mb
    && Float.abs (mb -. ma) > q3a -. q1a
  then Improved
  else if Float.max (spread base) (spread change) > bound && not all_better
  then Unresolved
  else No_regression
