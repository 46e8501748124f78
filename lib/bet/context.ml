(** Weighted execution contexts.

    A context is a probability-carrying snapshot of the variables that
    influence control flow (paper §IV-A).  BET construction threads a
    small set of contexts through each block; data-dependent branches
    split mass, [let] bindings under different outcomes make contexts
    diverge, and value-identical contexts are re-merged to keep the set
    small.  Each context also carries a companion environment of the
    builder's domain ([unit] for the plain BET, closed forms for the
    audit's symbolic model). *)

module Smap = Eval.Smap

type 'c t = { env : Eval.env; cenv : 'c; mass : float }

let make ?(mass = 1.0) bindings cenv = { env = Eval.env_of_list bindings; cenv; mass }

let mass_of cs = List.fold_left (fun acc c -> acc +. c.mass) 0. cs

let bind c name v cenv = { c with env = Smap.add name v c.env; cenv }

let unbind c name cenv = { c with env = Smap.remove name c.env; cenv }

let scale c f = { c with mass = c.mass *. f }

let lookup c name = Smap.find_opt name c.env

let env_equal (a : Eval.env) (b : Eval.env) = Smap.equal Value.equal a b

let pp ppf c =
  Fmt.pf ppf "{%a | %.4f}"
    (Fmt.iter_bindings ~sep:Fmt.comma Smap.iter (fun ppf (k, v) ->
         Fmt.pf ppf "%s=%a" k Value.pp v))
    c.env c.mass

(** Merge value-identical contexts (summing mass), drop negligible
    mass, and enforce the [cap]: when more than [cap] distinct contexts
    remain, the lightest ones are folded into the heaviest context.
    Total mass is preserved up to the negligible-mass cutoff.  Returns
    contexts sorted by decreasing mass.  A merged context keeps the
    companion environment of the first one: value-identical contexts
    have companions that agree at the reference inputs. *)
let normalize ?(cap = 64) (cs : 'c t list) : 'c t list =
  let cs = List.filter (fun c -> c.mass > 1e-12) cs in
  (* Group by environment equality.  Context lists are tiny (<= cap),
     so the quadratic grouping is fine. *)
  let groups : 'c t list ref = ref [] in
  List.iter
    (fun c ->
      let rec insert = function
        | [] -> [ c ]
        | g :: rest when env_equal g.env c.env ->
          { g with mass = g.mass +. c.mass } :: rest
        | g :: rest -> g :: insert rest
      in
      groups := insert !groups)
    cs;
  let sorted =
    List.sort (fun a b -> Float.compare b.mass a.mass) !groups
  in
  if List.length sorted <= cap then sorted
  else
    match sorted with
    | [] -> []
    | heaviest :: _ ->
      let kept = List.filteri (fun i _ -> i < cap) sorted in
      let dropped_mass =
        List.fold_left
          (fun acc c -> acc +. c.mass)
          0.
          (List.filteri (fun i _ -> i >= cap) sorted)
      in
      List.map
        (fun c ->
          if env_equal c.env heaviest.env then
            { c with mass = c.mass +. dropped_mass }
          else c)
        kept

(** Expected (mass-weighted mean) value of [e] over live contexts,
    normalized by their total mass; [default] when nothing evaluates. *)
let expect ?(default = 0.) (cs : _ t list) e =
  let total, weighted =
    List.fold_left
      (fun (t, w) c ->
        (t +. c.mass, w +. (c.mass *. Eval.eval_float ~default c.env e)))
      (0., 0.) cs
  in
  if total <= 0. then default else weighted /. total

(** Mass-weighted mean probability of [e] over live contexts. *)
let expect_prob ?(default = 0.5) (cs : _ t list) e =
  let total, weighted =
    List.fold_left
      (fun (t, w) c ->
        (t +. c.mass, w +. (c.mass *. Eval.eval_prob ~default c.env e)))
      (0., 0.) cs
  in
  if total <= 0. then default else weighted /. total
