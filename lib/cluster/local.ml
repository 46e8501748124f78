module Server = Skope_service.Server
module Dispatch = Skope_service.Dispatch

type t = {
  stop_all : bool Atomic.t;
  shard_stops : bool Atomic.t array;
  shard_threads : Thread.t array;
  watcher : Thread.t;
  router_thread : Thread.t;
  router_port : int;
  shard_ports : int array;
  shard_ids : string array;
}

let wait_port ?(timeout_s = 10.) cell what =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Atomic.get cell with
    | 0 ->
      if Unix.gettimeofday () > deadline then
        failwith (Printf.sprintf "Local.start: %s did not come up" what)
      else begin
        Thread.delay 0.01;
        go ()
      end
    | p -> p
  in
  go ()

let start ?stop ?(host = "127.0.0.1") ?(router_port = 0) ?(shards = 2)
    ?(shard_pool = 2) ?(shard_queue = 64) ?(cache_capacity = 4096)
    ?(router_pool = 4) ?(probe_interval_s = 0.25)
    ?(health = Health.default_config) () =
  if shards < 1 then invalid_arg "Local.start: shards must be >= 1";
  (* A late write into a shard torn down by [stop_shard] must not kill
     the process. *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let stop_all = match stop with Some s -> s | None -> Atomic.make false in
  let shard_stops = Array.init shards (fun _ -> Atomic.make false) in
  let ready = Array.init shards (fun _ -> Atomic.make 0) in
  let shard_threads =
    Array.init shards (fun i ->
        Thread.create
          (fun () ->
            let config =
              {
                Server.default_config with
                Server.net =
                  {
                    Server.default_net with
                    Server.n_host = host;
                    n_pool = shard_pool;
                    n_queue_capacity = shard_queue;
                  };
                dispatch = { Dispatch.cache_capacity };
              }
            in
            Server.run ~stop:shard_stops.(i) ~handle_signals:false
              ~on_ready:(fun p -> Atomic.set ready.(i) p)
              config)
          ())
  in
  (* Each Server.run watches exactly one flag, so a global stop is
     fanned out to the per-shard flags by a tiny watcher thread. *)
  let watcher =
    Thread.create
      (fun () ->
        while not (Atomic.get stop_all) do
          Thread.delay 0.05
        done;
        Array.iter (fun s -> Atomic.set s true) shard_stops)
      ()
  in
  let shard_ports =
    Array.mapi (fun i c -> wait_port c (Printf.sprintf "shard s%d" i)) ready
  in
  let shard_ids = Array.init shards (Printf.sprintf "s%d") in
  let members =
    Array.to_list
      (Array.mapi
         (fun i id ->
           { Router.m_id = id; m_host = host; m_port = shard_ports.(i) })
         shard_ids)
  in
  let router_ready = Atomic.make 0 in
  let router_thread =
    Thread.create
      (fun () ->
        let config =
          {
            Router.default_config with
            Router.net =
              {
                Router.default_config.Router.net with
                Server.n_host = host;
                n_port = router_port;
                n_pool = router_pool;
              };
            members;
            probe_interval_s;
            health;
          }
        in
        Router.run ~stop:stop_all ~handle_signals:false
          ~on_ready:(fun p -> Atomic.set router_ready p)
          config)
      ()
  in
  let router_port = wait_port router_ready "router" in
  {
    stop_all;
    shard_stops;
    shard_threads;
    watcher;
    router_thread;
    router_port;
    shard_ports;
    shard_ids;
  }

let router_port t = t.router_port
let shard_ports t = Array.copy t.shard_ports
let shard_ids t = Array.copy t.shard_ids

let stop_shard t i =
  Atomic.set t.shard_stops.(i) true;
  Thread.join t.shard_threads.(i)

let join t =
  Thread.join t.router_thread;
  Thread.join t.watcher;
  Array.iter Thread.join t.shard_threads

let stop t =
  Atomic.set t.stop_all true;
  join t
