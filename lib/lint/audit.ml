(** The `skope audit` pass: scaling, working-set and communication
    diagnostics (rules A001..A008) over the symbolic cost model.

    Where lint (L-rules) reasons over concrete intervals at one scale,
    audit reasons over {e closed forms}: [Symbolic.derive] builds the
    BET over a closed-form domain, so every block carries a trip/work
    expression in the workload's input parameters, and the rules probe
    those expressions along parameter sweeps —
    work that refuses to shrink with the rank count (Amdahl),
    communication outgrowing computation, Kerncraft-style layer
    conditions for L1/L2 working-set fits and the scale at which a
    block falls out of cache, per-rank load imbalance, and a
    synchronous-rendezvous deadlock check over send/recv patterns. *)

open Skope_skeleton
module Json = Skope_report.Json
module Span = Skope_telemetry.Span
module Value = Skope_bet.Value
module Eval = Skope_bet.Eval
module Work = Skope_bet.Work
module Bnode = Skope_bet.Node
module Block_id = Skope_bet.Block_id
module Machine = Skope_hw.Machine
module Commsim = Skope_multinode.Commsim
module Smap = Eval.Smap
module S = Symbolic

let rules =
  [
    ("A001", "serial (Amdahl) block: work does not shrink as ranks grow");
    ("A002", "communication volume grows faster with ranks than computation");
    ("A003", "loop working set exceeds L1 at the analyzed scale");
    ("A004", "loop working set exceeds L2 at the analyzed scale (DRAM streaming)");
    ("A005", "working set crosses L2 within reachable scales: flips memory-bound");
    ("A006", "rank load imbalance across the rank space");
    ("A007", "static deadlock: send/recv wait-for cycle");
    ("A008", "scaling hotspot shift: a minor block outgrows the dominant one");
  ]

type config = {
  disabled : string list;
  machine : Machine.t;
  ranks : int;  (** rank-space size for A006/A007 when no [p] input *)
  vary : (float -> (string * Value.t) list) option;
      (** full input rebinding at scale multiplier [m]; defaults to
          multiplying every non-rank numeric input that is [>= 2] *)
}

let default_config =
  {
    disabled = [];
    machine = Skope_hw.Machines.find_exn "bgq";
    ranks = 4;
    vary = None;
  }

type report = { diags : Diagnostic.t list; sym : S.result }

(* --- parameter-space helpers ----------------------------------------- *)

let p_names = [ "p"; "np"; "nproc"; "nprocs"; "nranks"; "ranks"; "npes"; "commsize" ]
let rank_names = [ "rank"; "myrank"; "my_rank"; "rankid"; "rank_id"; "pe"; "mype" ]

let find_input names inputs =
  List.find_opt (fun (k, _) -> List.mem (String.lowercase_ascii k) names) inputs

let scale_param v m =
  match v with
  | Value.I i when i >= 2 ->
    Value.I (max 1 (int_of_float (Float.round (float_of_int i *. m))))
  | Value.F f when f >= 2. -> Value.F (f *. m)
  | v -> v

(* Default sweep: every non-rank numeric input >= 2 scales with [m]
   (rank identities stay fixed; flags and small constants too). *)
let default_vary inputs m =
  List.map
    (fun (k, v) ->
      if List.mem (String.lowercase_ascii k) rank_names then (k, v)
      else (k, scale_param v m))
    inputs

let vary_one inputs name m =
  List.map (fun (k, v) -> if String.equal k name then (k, scale_param v m) else (k, v)) inputs

let rebind inputs name value =
  List.map (fun (k, v) -> if String.equal k name then (k, value) else (k, v)) inputs

(* --- source locations for blocks ------------------------------------- *)

let loc_table program =
  let tbl = Hashtbl.create 64 in
  Ast.fold_program (fun () (s : Ast.stmt) -> Hashtbl.replace tbl s.Ast.sid s.Ast.loc) () program;
  tbl

let block_loc program tbl = function
  | Block_id.Loop sid | Block_id.Arm (sid, _) | Block_id.Libc sid ->
    Option.value ~default:Loc.none (Hashtbl.find_opt tbl sid)
  | Block_id.Fn f -> (
    match Ast.find_func program f with
    | exception Not_found -> Loc.none
    | fn -> ( match fn.Ast.body with s :: _ -> s.Ast.loc | [] -> Loc.none))

(* --- misc ------------------------------------------------------------- *)

let human_bytes b =
  if b >= 1073741824. then Fmt.str "%.3g GiB" (b /. 1073741824.)
  else if b >= 1048576. then Fmt.str "%.3g MiB" (b /. 1048576.)
  else if b >= 1024. then Fmt.str "%.3g KiB" (b /. 1024.)
  else Fmt.str "%.0f B" b

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

let is_comm_name name =
  let l = String.lowercase_ascii name in
  contains_sub l "send" || contains_sub l "recv"

(* --- per-block enr-weighted totals ----------------------------------- *)

type bt = {
  ops_ref : float;
  flops_ref : float;
  bytes_ref : float;
  ops_sym : Ast.expr;
  flops_sym : Ast.expr;
  bytes_sym : Ast.expr;
}

let ops_expr (n : S.node) =
  S.add (S.add n.S.work.S.s_flops n.S.work.S.s_iops)
    (S.add n.S.work.S.s_loads n.S.work.S.s_stores)

let block_totals sroot =
  S.fold_enr
    (fun m (n : S.node) ~enr_ref ~enr_sym ->
      let entry =
        {
          ops_ref = enr_ref *. Work.ops n.S.work_ref;
          flops_ref = enr_ref *. n.S.work_ref.Work.flops;
          bytes_ref = enr_ref *. Work.bytes n.S.work_ref;
          ops_sym = S.mul enr_sym (ops_expr n);
          flops_sym = S.mul enr_sym n.S.work.S.s_flops;
          bytes_sym = S.mul enr_sym (S.add n.S.work.S.s_lbytes n.S.work.S.s_sbytes);
        }
      in
      Block_id.Map.update n.S.block
        (function
          | None -> Some entry
          | Some t ->
            Some
              {
                ops_ref = t.ops_ref +. entry.ops_ref;
                flops_ref = t.flops_ref +. entry.flops_ref;
                bytes_ref = t.bytes_ref +. entry.bytes_ref;
                ops_sym = S.add t.ops_sym entry.ops_sym;
                flops_sym = S.add t.flops_sym entry.flops_sym;
                bytes_sym = S.add t.bytes_sym entry.bytes_sym;
              })
        m)
    Block_id.Map.empty sroot

(* --- A007 machinery: per-rank op extraction --------------------------- *)

let rec stmts_have_comm program depth stmts =
  List.exists (stmt_has_comm program depth) stmts

and stmt_has_comm program depth (s : Ast.stmt) =
  match s.Ast.kind with
  | Ast.Lib { name; _ } -> is_comm_name name
  | Ast.If { then_; else_; _ } ->
    stmts_have_comm program depth then_ || stmts_have_comm program depth else_
  | Ast.For { body; _ } | Ast.While { body; _ } -> stmts_have_comm program depth body
  | Ast.Call (f, _) when depth > 0 -> (
    match Ast.find_func program f with
    | exception Not_found -> false
    | fn -> stmts_have_comm program (depth - 1) fn.Ast.body)
  | _ -> false

let program_has_comm program =
  Ast.fold_program
    (fun acc (s : Ast.stmt) ->
      acc || match s.Ast.kind with Ast.Lib { name; _ } -> is_comm_name name | _ -> false)
    false program

type xstate = {
  mutable ops_rev : Commsim.op list;
  mutable n_ops : int;
  mutable dropped : bool;
      (** a comm op in the {e middle} of the sequence was skipped
          (unevaluable branch, deep call, unresolvable peer): verdicts
          would be unsound, so A007 abstains *)
  mutable truncated : bool;
      (** a {e suffix} was cut (op cap): cycles remain sound,
          terminated-rank chains do not *)
  mutable first_loc : Loc.t option;
}

exception Capped

let rec lets_of acc stmts =
  List.fold_left
    (fun acc (s : Ast.stmt) ->
      match s.Ast.kind with
      | Ast.Let (v, _) -> v :: acc
      | Ast.If { then_; else_; _ } -> lets_of (lets_of acc then_) else_
      | Ast.For { var; body; _ } -> lets_of (var :: acc) body
      | Ast.While { body; _ } -> lets_of acc body
      | _ -> acc)
    acc stmts

let remove_lets stmts env = List.fold_left (fun e v -> Smap.remove v e) env (lets_of [] stmts)

let max_rank_ops = 128
let max_unroll = 8

(* Concrete straight-line extraction of rank [r]'s blocking comm ops.
   For loops unroll up to [max_unroll] iterations with real index
   values; branches are taken only when decidable ([Cdata] needs p
   outside (0.001, 0.999)); peers come from the first lib argument
   evaluated mod [nranks], falling back to left/right-style name
   suffixes. *)
let extract_rank_ops program ~inputs ~rank_name ~nranks r =
  let xs = { ops_rev = []; n_ops = 0; dropped = false; truncated = false; first_loc = None } in
  let base =
    match rank_name with Some k -> rebind inputs k (Value.I r) | None -> inputs
  in
  let genv = Eval.env_of_list base in
  let flag_if_comm stmts = if stmts_have_comm program max_unroll stmts then xs.dropped <- true in
  let rec walk_block env depth stmts =
    List.fold_left
      (fun envo s -> match envo with None -> None | Some env -> walk env depth s)
      (Some env) stmts
  and walk env depth (s : Ast.stmt) : Eval.env option =
    match s.Ast.kind with
    | Ast.Comp _ | Ast.Mem _ | Ast.Break _ | Ast.Continue _ -> Some env
    | Ast.Let (v, e) ->
      Some
        (match Eval.eval env e with
        | Some value -> Smap.add v value env
        | None -> Smap.remove v env)
    | Ast.Return -> None
    | Ast.If { cond; then_; else_ } -> (
      let undecided () =
        flag_if_comm then_;
        flag_if_comm else_;
        Some (remove_lets then_ (remove_lets else_ env))
      in
      match cond with
      | Ast.Cexpr e -> (
        match Eval.eval env e with
        | Some v -> if Value.truthy v then walk_block env depth then_ else walk_block env depth else_
        | None -> undecided ())
      | Ast.Cdata { p; _ } ->
        let pv = Eval.eval_prob ~default:0.5 env p in
        if pv >= 0.999 then walk_block env depth then_
        else if pv <= 0.001 then walk_block env depth else_
        else undecided ())
    | Ast.For { var; lo; hi; step; body } -> (
      match (Eval.eval env lo, Eval.eval env hi, Eval.eval env step) with
      | Some lov, Some hiv, Some stv ->
        let lof = Value.to_float lov
        and hif = Value.to_float hiv
        and stf = Value.to_float stv in
        if stf <= 0. then Some env
        else begin
          let n = int_of_float (Float.max 0. (Float.floor ((hif -. lof) /. stf) +. 1.)) in
          let k = min n max_unroll in
          if n > k then flag_if_comm body;
          let rec iter i env =
            if i >= k then Some env
            else
              let iv = Value.of_float (lof +. (stf *. float_of_int i)) in
              match walk_block (Smap.add var iv env) depth body with
              | None -> None
              | Some env -> iter (i + 1) env
          in
          match iter 0 env with
          | None -> None
          | Some env ->
            let env = Smap.remove var env in
            Some (if n > k then remove_lets body env else env)
        end
      | _ ->
        flag_if_comm body;
        Some (remove_lets body env))
    | Ast.While { max_iter; body; _ } ->
      (match Eval.eval env max_iter with
      | Some v when Value.to_float v <= 1. -> ignore (walk_block env depth body)
      | _ -> flag_if_comm body);
      Some (remove_lets body env)
    | Ast.Call (fname, args) -> (
      match Ast.find_func program fname with
      | exception Not_found -> Some env
      | callee ->
        if depth >= 8 then begin
          flag_if_comm callee.Ast.body;
          Some env
        end
        else begin
          let params = callee.Ast.params in
          let args' =
            if List.length args = List.length params then args
            else List.init (List.length params) (fun _ -> Ast.Int 0)
          in
          let cenv =
            List.fold_left2
              (fun m p a ->
                match Eval.eval env a with
                | Some v -> Smap.add p v m
                | None -> Smap.remove p m)
              genv params args'
          in
          ignore (walk_block cenv (depth + 1) callee.Ast.body);
          Some env
        end)
    | Ast.Lib { name; args; scale = _ } ->
      let l = String.lowercase_ascii name in
      let is_send = contains_sub l "send" in
      let is_recv = (not is_send) && contains_sub l "recv" in
      if not (is_send || is_recv) then Some env
      else begin
        if xs.n_ops >= max_rank_ops then begin
          xs.truncated <- true;
          raise Capped
        end;
        let peer =
          match args with
          | a :: _ -> (
            match Eval.eval env a with
            | Some v ->
              Some (((int_of_float (Value.to_float v) mod nranks) + nranks) mod nranks)
            | None -> None)
          | [] -> None
        in
        let peer =
          match peer with
          | Some q -> Some q
          | None ->
            if contains_sub l "left" || contains_sub l "prev" || contains_sub l "up" then
              Some ((r - 1 + nranks) mod nranks)
            else if contains_sub l "right" || contains_sub l "next" || contains_sub l "down"
            then Some ((r + 1) mod nranks)
            else None
        in
        (match peer with
        | None -> xs.dropped <- true
        | Some q ->
          if xs.first_loc = None then xs.first_loc <- Some s.Ast.loc;
          xs.ops_rev <- (if is_send then Commsim.Send q else Commsim.Recv q) :: xs.ops_rev;
          xs.n_ops <- xs.n_ops + 1);
        Some env
      end
  in
  (try
     let entry = Ast.entry_func program in
     ignore (walk_block genv 0 entry.Ast.body)
   with
  | Capped -> ()
  | Not_found -> ());
  (List.rev xs.ops_rev, xs)

(* --- the rules -------------------------------------------------------- *)

let run ?(config = default_config) ?(inputs = []) program : report =
  Span.with_ ~name:"audit" (fun () ->
      let sym =
        S.derive ~lib_work:(Skope_hw.Libmix.work_fn Skope_hw.Libmix.default) ~inputs
          program
      in
      let sroot = sym.S.sroot in
      let tbl = loc_table program in
      let bloc = block_loc program tbl in
      let totals = block_totals sroot in
      let grand_ops = Block_id.Map.fold (fun _ t acc -> acc +. t.ops_ref) totals 0. in
      let vary_all =
        match config.vary with Some f -> f | None -> default_vary inputs
      in
      let env_all m = Eval.env_of_list (vary_all m) in
      let p_param = find_input p_names inputs in
      let rank_param = find_input rank_names inputs in
      let nranks =
        match p_param with
        | Some (_, Value.I i) when i >= 2 -> min i 16
        | _ -> max 2 config.ranks
      in
      let m = config.machine in
      let l1 = float_of_int m.Machine.l1.Machine.size_bytes in
      let l2 = float_of_int m.Machine.l2.Machine.size_bytes in
      let balance = Machine.peak_flops m /. (m.Machine.mem_bw_gbs *. 1e9) in

      (* subtree aggregates under a node, given its parent's global ENR *)
      let rec sub_agg ~enr (n : S.node) =
        let enr = n.S.trips_ref *. n.S.prob *. enr in
        let w = n.S.work_ref in
        List.fold_left
          (fun (o, f, b) c ->
            let o', f', b' = sub_agg ~enr c in
            (o +. o', f +. f', b +. b'))
          (enr *. Work.ops w, enr *. w.Work.flops, enr *. Work.bytes w)
          n.S.children
      in

      (* loops with their parent ENR, in traversal order *)
      let loops = ref [] in
      let rec collect ~penr (n : S.node) =
        let enr = n.S.trips_ref *. n.S.prob *. penr in
        (match n.S.kind with
        | Bnode.Loop -> loops := (n, penr) :: !loops
        | _ -> ());
        List.iter (collect ~penr:enr) n.S.children
      in
      collect ~penr:1. sroot;
      let loops = List.rev !loops in
      let rec desc_loops (n : S.node) =
        List.concat_map
          (fun (c : S.node) ->
            (match c.S.kind with Bnode.Loop -> [ c ] | _ -> []) @ desc_loops c)
          n.S.children
      in

      (* per-array subtree traffic as closed forms (bytes per one
         execution of the node), memoized by node id *)
      let traffic_tbl : (int, Ast.expr Smap.t) Hashtbl.t = Hashtbl.create 32 in
      let add_to m a e =
        Smap.update a (function None -> Some e | Some x -> Some (S.add x e)) m
      in
      let rec traffic (n : S.node) : Ast.expr Smap.t =
        match Hashtbl.find_opt traffic_tbl n.S.id with
        | Some t -> t
        | None ->
          let own =
            List.fold_left (fun m (a, b) -> add_to m a (S.cf b)) Smap.empty n.S.touched
          in
          let merged =
            List.fold_left
              (fun m (c : S.node) ->
                Smap.fold (fun a e m -> add_to m a (S.mul (S.cf c.S.prob) e)) (traffic c) m)
              own n.S.children
          in
          let t = Smap.map (fun e -> S.mul n.S.trips e) merged in
          Hashtbl.replace traffic_tbl n.S.id t;
          t
      in
      let decls =
        List.fold_left
          (fun m (a : Ast.array_decl) -> Smap.add a.Ast.aname a m)
          Smap.empty
          (program.Ast.globals
          @ List.concat_map (fun (f : Ast.func) -> f.Ast.arrays) program.Ast.funcs)
      in
      (* layer condition: per-array traffic capped at the array's total
         footprint (a loop re-touching one array never needs more than
         the array), summed over arrays *)
      let cap_at env (a : Ast.array_decl) =
        let rec go = function
          | [] -> Some 1.
          | d :: rest -> (
            match Eval.eval env d with
            | Some v -> Option.map (fun r -> r *. Float.max 0. (Value.to_float v)) (go rest)
            | None -> None)
        in
        Option.map (fun p -> p *. float_of_int a.Ast.elem_bytes) (go a.Ast.dims)
      in
      let ws_detail_at env n =
        Smap.fold
          (fun a e acc ->
            let t = Float.max 0. (Eval.eval_float ~default:0. env e) in
            let t =
              match Smap.find_opt a decls with
              | Some d -> (
                match cap_at env d with Some c -> Float.min c t | None -> t)
              | None -> t
            in
            (a, t) :: acc)
          (traffic n) []
        |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
      in
      let ws_at env n = List.fold_left (fun acc (_, t) -> acc +. t) 0. (ws_detail_at env n) in
      let ws_ref_tbl = Hashtbl.create 32 in
      let root_env = Eval.env_of_list inputs in
      let ws_ref n =
        match Hashtbl.find_opt ws_ref_tbl n.S.id with
        | Some w -> w
        | None ->
          let w = ws_at root_env n in
          Hashtbl.replace ws_ref_tbl n.S.id w;
          w
      in

      let order_at eval_at e = S.growth_order ~eval_at e in

      (* A001: blocks holding >=5% of work whose ops do not shrink as
         the rank count grows. *)
      let a001 () =
        match p_param with
        | Some (pname, _) when grand_ops > 0. ->
          let eval_at mm = Eval.env_of_list (vary_one inputs pname mm) in
          Block_id.Map.fold
            (fun block t acc ->
              let share = t.ops_ref /. grand_ops in
              if share < 0.05 then acc
              else
                match order_at eval_at t.ops_sym with
                | Some o when o >= -0.2 ->
                  Diagnostic.make ~code:"A001" ~severity:Diagnostic.Warning
                    ~loc:(bloc block)
                    ~notes:
                      [
                        Fmt.str "work %a" S.pp_closed_form t.ops_sym;
                        Fmt.str "Amdahl: overall speedup capped near %.3gx" (1. /. share);
                      ]
                    (Fmt.str
                       "serial bottleneck: `%s` holds %.0f%% of total work, independent \
                        of `%s`"
                       (Block_id.to_string block) (100. *. share) pname)
                  :: acc
                | _ -> acc)
            totals []
        | _ -> []
      in

      (* A002: send/recv volume outgrows computation along the rank
         axis. *)
      let comm_sym, comm_ref, comm_loc =
        S.fold_enr
          (fun (cs, cr, loc) (n : S.node) ~enr_ref ~enr_sym ->
            match (n.S.kind, n.S.lib_scale) with
            | Bnode.Libcall name, Some sc when is_comm_name name ->
              let v = enr_ref *. Float.max 0. (Eval.eval_float ~default:0. root_env sc) in
              let loc = match loc with Some _ -> loc | None -> Some (bloc n.S.block) in
              (S.add cs (S.mul enr_sym sc), cr +. v, loc)
            | _ -> (cs, cr, loc))
          (S.cf 0., 0., None) sroot
      in
      let flops_sym, _flops_ref =
        S.fold_enr
          (fun (fs, fr) (n : S.node) ~enr_ref ~enr_sym ->
            ( S.add fs (S.mul enr_sym n.S.work.S.s_flops),
              fr +. (enr_ref *. n.S.work_ref.Work.flops) ))
          (S.cf 0., 0.) sroot
      in
      let a002 () =
        match p_param with
        | Some (pname, _) when comm_ref > 0. -> (
          let eval_at mm = Eval.env_of_list (vary_one inputs pname mm) in
          match (order_at eval_at comm_sym, order_at eval_at flops_sym) with
          | Some oc, Some of_ when oc -. of_ > 0.2 ->
            [
              Diagnostic.make ~code:"A002" ~severity:Diagnostic.Warning
                ~loc:(Option.value ~default:Loc.none comm_loc)
                ~notes:
                  [
                    Fmt.str "comm volume %a" S.pp_closed_form comm_sym;
                    Fmt.str "compute %a" S.pp_closed_form flops_sym;
                  ]
                (Fmt.str
                   "communication outgrows computation with `%s`: comm scales as order \
                    %.2g vs compute %.2g"
                   pname oc of_);
            ]
          | _ -> [])
        | _ -> []
      in

      (* A003/A004: Kerncraft-style layer conditions.  Fire on the
         deepest loop whose working set exceeds the level, weighted by
         the subtree's share of total work. *)
      let a003_a004 () =
        List.filter_map
          (fun ((n : S.node), penr) ->
            let ws = ws_ref n in
            let level =
              if ws > l2 then Some ("A004", "L2", l2, "streams from DRAM")
              else if ws > l1 then Some ("A003", "L1", l1, "spills to L2")
              else None
            in
            match level with
            | None -> None
            | Some (code, lname, lsize, verdict) ->
              if not (List.mem code [ "A003"; "A004" ]) then None
              else if List.exists (fun d -> ws_ref d > lsize) (desc_loops n) then None
              else begin
                let ops, _, _ = sub_agg ~enr:penr n in
                let share = if grand_ops > 0. then ops /. grand_ops else 0. in
                if share < 0.05 then None
                else
                  let detail = ws_detail_at root_env n in
                  let top =
                    List.filteri (fun i _ -> i < 3) detail
                    |> List.map (fun (a, t) ->
                           Fmt.str "array `%s`: %s per loop execution" a (human_bytes t))
                  in
                  Some
                    (Diagnostic.make ~code ~severity:Diagnostic.Info ~loc:(bloc n.S.block)
                       ~notes:
                         (top
                         @ [
                             Fmt.str "subtree holds %.0f%% of total work" (100. *. share);
                           ])
                       (Fmt.str
                          "loop working set ~%s exceeds %s (%s): %s at the analyzed scale"
                          (human_bytes ws) lname (human_bytes lsize) verdict))
              end)
          loops
      in

      (* A005: the loop fits in L2 today but its intensity is below the
         machine balance — probe the default sweep for the multiplier
         where the working set falls out of L2. *)
      let a005 () =
        List.filter_map
          (fun ((n : S.node), penr) ->
            let ws = ws_ref n in
            if ws <= 0. || ws > l2 then None
            else begin
              let ops, flops, bytes = sub_agg ~enr:penr n in
              let share = if grand_ops > 0. then ops /. grand_ops else 0. in
              let intensity = if bytes > 0. then flops /. bytes else infinity in
              if share < 0.05 || intensity >= balance then None
              else
                let crossing =
                  List.find_opt
                    (fun mm -> ws_at (env_all mm) n > l2)
                    [ 2.; 4.; 8.; 16.; 32.; 64. ]
                in
                match crossing with
                | None -> None
                | Some mm ->
                  Some
                    (Diagnostic.make ~code:"A005" ~severity:Diagnostic.Info
                       ~loc:(bloc n.S.block)
                       ~notes:
                         [
                           Fmt.str "working set %s now; L2 = %s" (human_bytes ws)
                             (human_bytes l2);
                           Fmt.str
                             "intensity %.3g flop/byte < machine balance %.3g: \
                              DRAM-bound once out of cache"
                             intensity balance;
                         ]
                       (Fmt.str
                          "working set crosses L2 near %gx the analyzed scale: loop \
                           flips memory-bound"
                          mm))
            end)
          loops
      in

      (* A006: re-run the concrete BET across the rank space and compare
         per-rank total work. *)
      let a006 () =
        match rank_param with
        | None -> []
        | Some (rname, _) ->
          let lib_work = Skope_hw.Libmix.work_fn Skope_hw.Libmix.default in
          let per_rank =
            List.init nranks (fun r ->
                let res =
                  Skope_bet.Build.build ~lib_work
                    ~inputs:(rebind inputs rname (Value.I r))
                    program
                in
                Bnode.fold_enr
                  (fun acc (bn : Bnode.t) ~enr -> acc +. (enr *. Work.ops bn.Bnode.work))
                  0. res.Skope_bet.Build.root)
          in
          let total = List.fold_left ( +. ) 0. per_rank in
          let mean = total /. float_of_int nranks in
          let mx = List.fold_left Float.max 0. per_rank in
          if mean <= 0. || mx /. mean <= 1.25 then []
          else
            let notes =
              List.mapi (fun r o -> Fmt.str "rank %d: %.6g ops" r o) per_rank
              |> List.filteri (fun i _ -> i < 8)
            in
            let notes =
              if nranks > 8 then notes @ [ Fmt.str "... (%d ranks)" nranks ] else notes
            in
            [
              Diagnostic.make ~code:"A006" ~severity:Diagnostic.Warning
                ~loc:(bloc (Block_id.Fn program.Ast.entry))
                ~notes
                (Fmt.str "rank load imbalance: max/mean ops = %.2f across %d ranks"
                   (mx /. mean) nranks);
            ]
      in

      (* A007: extract each rank's blocking op sequence and run the
         rendezvous simulator.  Abstains when a comm op had to be
         dropped mid-sequence (unsound); suffix truncation keeps cycle
         verdicts sound. *)
      let a007 () =
        if not (program_has_comm program) then []
        else begin
          let rank_name = Option.map fst rank_param in
          let per =
            Array.init nranks (fun r ->
                extract_rank_ops program ~inputs ~rank_name ~nranks r)
          in
          let dropped = Array.exists (fun (_, xs) -> xs.dropped) per in
          let truncated = Array.exists (fun (_, xs) -> xs.truncated) per in
          if dropped then []
          else
            match Commsim.simulate (Array.map fst per) with
            | Commsim.Clean -> []
            | Commsim.Deadlock { stuck; cycle } ->
              if cycle = [] && truncated then []
              else begin
                let loc =
                  Array.to_list per
                  |> List.find_map (fun (_, xs) -> xs.first_loc)
                  |> Option.value ~default:Loc.none
                in
                let pending =
                  List.filteri (fun i _ -> i < 8) stuck
                  |> List.map (fun (s : Commsim.stuck) ->
                         Fmt.str "rank %d blocked at op %d: %a" s.Commsim.rank
                           s.Commsim.index Commsim.pp_op s.Commsim.op)
                in
                let model =
                  Fmt.str
                    "model: synchronous rendezvous point-to-point over %d ranks; peers \
                     from first lib arg (mod ranks) or left/right name suffix"
                    nranks
                in
                let msg =
                  if cycle <> [] then
                    Fmt.str "static deadlock: send/recv wait-for cycle %s"
                      (String.concat " -> "
                         (List.map string_of_int (cycle @ [ List.hd cycle ])))
                  else
                    Fmt.str "static deadlock: %d rank(s) blocked on terminated peers"
                      (List.length stuck)
                in
                [
                  Diagnostic.make ~code:"A007" ~severity:Diagnostic.Error ~loc
                    ~notes:(pending @ [ model ])
                    msg;
                ]
              end
        end
      in

      (* A008: a minor block whose growth order along the default sweep
         beats the dominant block's — today's profile is misleading. *)
      let a008 () =
        if grand_ops <= 0. then []
        else
          let dominant =
            Block_id.Map.fold
              (fun b t acc ->
                match acc with
                | Some (_, t') when t'.ops_ref >= t.ops_ref -> acc
                | _ -> Some (b, t))
              totals None
          in
          match dominant with
          | None -> []
          | Some (db, dt) -> (
            match order_at env_all dt.ops_sym with
            | None -> []
            | Some od ->
              let best =
                Block_id.Map.fold
                  (fun b t acc ->
                    if Block_id.equal b db then acc
                    else
                      let share = t.ops_ref /. grand_ops in
                      if share < 0.001 then acc
                      else
                        match order_at env_all t.ops_sym with
                        | Some o when o > od +. 0.3 -> (
                          match acc with
                          | Some (_, _, o') when o' >= o -> acc
                          | _ -> Some (b, t, o))
                        | _ -> acc)
                  totals None
              in
              match best with
              | None -> []
              | Some (b, t, o) ->
                [
                  Diagnostic.make ~code:"A008" ~severity:Diagnostic.Info ~loc:(bloc b)
                    ~notes:
                      [
                        Fmt.str "block work %a" S.pp_closed_form t.ops_sym;
                        Fmt.str "dominant `%s` work %a" (Block_id.to_string db)
                          S.pp_closed_form dt.ops_sym;
                      ]
                    (Fmt.str
                       "hotspot shift: `%s` (%.1f%% of work) grows as order %.2g, \
                        outpacing dominant `%s` (order %.2g)"
                       (Block_id.to_string b)
                       (100. *. t.ops_ref /. grand_ops)
                       o (Block_id.to_string db) od);
                ])
      in

      let guard code f = if List.mem code config.disabled then [] else f () in
      let diags =
        List.concat
          [
            guard "A001" a001;
            guard "A002" a002;
            (if List.mem "A003" config.disabled && List.mem "A004" config.disabled then
               []
             else
               a003_a004 ()
               |> List.filter (fun (d : Diagnostic.t) ->
                      not (List.mem d.Diagnostic.code config.disabled)));
            guard "A005" a005;
            guard "A006" a006;
            guard "A007" a007;
            guard "A008" a008;
          ]
      in
      let diags = Diagnostic.normalize diags in
      Span.count "audit_diagnostics" (float_of_int (List.length diags));
      Span.count "audit_sym_fallbacks" (float_of_int sym.S.fallbacks);
      { diags; sym })

(* --- shared JSON rendering (CLI / skoped / cluster parity) ------------ *)

let diags_json ~target ~deny_warnings diags =
  let errors, warnings, infos = Diagnostic.counts diags in
  Json.Obj
    [
      ("target", Json.String target);
      ("diagnostics", Diagnostic.list_to_json diags);
      ("errors", Json.Int errors);
      ("warnings", Json.Int warnings);
      ("infos", Json.Int infos);
      ("clean", Json.Bool (not (Diagnostic.fails ~deny_warnings diags)));
    ]

let result_json ~target ?scale ~deny_warnings (config : config) (report : report) =
  let errors, warnings, infos = Diagnostic.counts report.diags in
  Json.Obj
    ([
       ("target", Json.String target);
       ("machine", Json.String config.machine.Machine.name);
     ]
    @ (match scale with Some s -> [ ("scale", Json.Float s) ] | None -> [])
    @ [
        ("diagnostics", Diagnostic.list_to_json report.diags);
        ("errors", Json.Int errors);
        ("warnings", Json.Int warnings);
        ("infos", Json.Int infos);
        ("clean", Json.Bool (not (Diagnostic.fails ~deny_warnings report.diags)));
        ( "sym",
          Json.Obj
            [
              ("nodes", Json.Int (S.node_count report.sym.S.sroot));
              ("checked", Json.Int report.sym.S.checked);
              ("fallbacks", Json.Int report.sym.S.fallbacks);
              (* v1 field: the symbolic tree is the BET by construction *)
              ("shape_mismatches", Json.Int 0);
            ] );
      ])
