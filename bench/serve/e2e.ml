(* One untraced end-to-end run of a workload: boot a fresh cluster
   (several times, to time set-up), check outputs, then drive the timed
   closed loop through the router, with the host-speed probe running
   beside it. *)

type result = {
  setup_s : float list;  (** one per boot, in order *)
  verify : Verify.outcome;
  golden_ok : bool option;  (** [None]: no golden for this seed *)
  load : Load.result;
  rss_mb : float;  (** max peak RSS over the cluster's processes *)
  kernel_ns : float;  (** {!Hostspeed} kernel's mean over the timed phase *)
}

(* Send the warm set to every shard directly, one thread per shard. *)
let warm (c : Cluster.t) traffic =
  let bodies = Traffic.warm_bodies traffic in
  let failures = Atomic.make 0 in
  Array.map
    (fun (s : Cluster.proc) ->
      Thread.create
        (fun () ->
          Array.iter
            (fun b ->
              match Cluster.request ~port:s.port b with
              | Ok r when String.starts_with ~prefix:Load.ok_prefix r -> ()
              | Ok _ | Error _ -> Atomic.incr failures)
            bodies)
        ())
    c.Cluster.shards
  |> Array.iter Thread.join;
  if Atomic.get failures > 0 then
    failwith (Printf.sprintf "%d warm-up requests failed" (Atomic.get failures))

(* Set-up time: from spawning the three processes until every member
   reports healthy and the warm set has been served. *)
let boot ~skope ~log_dir traffic =
  let t0 = Mono.now_ns () in
  let c = Cluster.start ~skope ~log_dir in
  match warm c traffic with
  | () -> (c, Mono.since_s t0)
  | exception e ->
    Cluster.stop c;
    raise e

let run ~skope ~log_dir ~setups ~seconds ~verify_n ~golden_dir traffic =
  let rec boots k acc =
    let c, s = boot ~skope ~log_dir traffic in
    if k <= 1 then (c, List.rev (s :: acc))
    else begin
      Cluster.stop c;
      boots (k - 1) (s :: acc)
    end
  in
  let c, setup_s = boots setups [] in
  Fun.protect
    ~finally:(fun () -> Cluster.stop c)
    (fun () ->
      let port = c.Cluster.router.Cluster.port in
      let verify =
        Verify.run ~port (Array.init verify_n (Traffic.verify_body traffic))
      in
      let golden_ok =
        if verify_n <> Traffic.verify_count then None
        else
          Option.map (String.equal verify.Verify.md5)
            (Verify.golden ~dir:golden_dir ~seed:traffic.Traffic.seed
               (Traffic.name traffic.Traffic.kind))
      in
      let probe = Hostspeed.start () in
      let load =
        Fun.protect
          ~finally:(fun () -> ignore (Hostspeed.finish probe))
          (fun () -> Load.run ~port ~seconds (Traffic.body traffic))
      in
      let rss_mb =
        List.fold_left
          (fun acc p -> Float.max acc (Cluster.peak_rss_mb p))
          0. (Cluster.procs c)
      in
      { setup_s; verify; golden_ok; load; rss_mb; kernel_ns = Hostspeed.finish probe })
