module Client = Skope_service.Client

type t = {
  id : string;
  host : string;
  port : int;
  pool : Client.pool;
  lock : Mutex.t;
  mutable health : Health.state;
  mutable in_flight : int;
  mutable forwarded : int;
  mutable failovers : int;
  mutable errors : int;
  mutable probes_ok : int;
  mutable probes_failed : int;
}

let create ~id ~host ~port ~timeouts =
  {
    id;
    host;
    port;
    pool = Client.pool ~timeouts ~host ~port;
    lock = Mutex.create ();
    health = Health.initial;
    in_flight = 0;
    forwarded = 0;
    failovers = 0;
    errors = 0;
    probes_ok = 0;
    probes_failed = 0;
  }

let id t = t.id
let host t = t.host
let port t = t.port
let pool t = t.pool

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let health t = with_lock t (fun () -> t.health)
let available t = Health.available (health t)
let in_flight t = with_lock t (fun () -> t.in_flight)

let observe config t ~ok =
  let event =
    with_lock t (fun () ->
        let state, event = Health.observe config t.health ~ok in
        t.health <- state;
        event)
  in
  if event = Some Health.Ejection then Client.close_idle t.pool;
  event

let begin_request t = with_lock t (fun () -> t.in_flight <- t.in_flight + 1)

let end_request t ~ok =
  with_lock t (fun () ->
      t.in_flight <- max 0 (t.in_flight - 1);
      if ok then t.forwarded <- t.forwarded + 1
      else t.errors <- t.errors + 1)

let skip t = with_lock t (fun () -> t.failovers <- t.failovers + 1)

let probe_result t ~ok =
  with_lock t (fun () ->
      if ok then t.probes_ok <- t.probes_ok + 1
      else t.probes_failed <- t.probes_failed + 1)

type snapshot = {
  s_health : Health.state;
  s_in_flight : int;
  s_forwarded : int;
  s_failovers : int;
  s_errors : int;
  s_probes_ok : int;
  s_probes_failed : int;
}

let snapshot t =
  with_lock t (fun () ->
      {
        s_health = t.health;
        s_in_flight = t.in_flight;
        s_forwarded = t.forwarded;
        s_failovers = t.failovers;
        s_errors = t.errors;
        s_probes_ok = t.probes_ok;
        s_probes_failed = t.probes_failed;
      })
