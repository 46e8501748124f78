(* The closed loop: [clients] threads, each sending its next request
   only after the previous reply has fully arrived, over a fresh
   connection per request (the protocol's one-request-per-connection
   framing), until the deadline.  Request indices are handed out in
   order from a shared counter, so the bodies sent are a prefix of the
   workload's sequence whatever the interleaving.

   The loop checks only the reply's ok-prefix; it never parses bodies.
   A transport failure or an ok:false reply counts as failed, and its
   latency as infinite, so it misses any latency limit. *)

let ok_prefix = {|{"v":1,"ok":true|}

(* Every caller of skoped waits for its reply; two of them keep this
   2-core host's servers busy without queueing behind each other. *)
let clients = 2

type result = {
  latencies_ms : float array;  (** ascending, one per attempted request *)
  attempted : int;
  failed : int;
  reply_bytes : int;  (** over successful replies *)
  elapsed_s : float;  (** first send to last reply *)
  next_index : int;  (** first body index not sent *)
}

let run ~port ~seconds body =
  let next = Atomic.make 0 in
  let t0 = Mono.now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let worker (lat, failed, bytes) =
    while Mono.now_ns () < deadline do
      let b = body (Atomic.fetch_and_add next 1) in
      let s = Mono.now_ns () in
      (match Cluster.request ~port b with
      | Ok r when String.starts_with ~prefix:ok_prefix r ->
        lat := (float_of_int (Mono.now_ns () - s) *. 1e-6) :: !lat;
        bytes := !bytes + String.length r
      | Ok _ | Error _ ->
        lat := infinity :: !lat;
        incr failed)
    done
  in
  let states = List.init clients (fun _ -> (ref [], ref 0, ref 0)) in
  List.map (Thread.create worker) states |> List.iter Thread.join;
  let elapsed_s = Mono.since_s t0 in
  let latencies_ms =
    Stats.sorted (Array.of_list (List.concat_map (fun (l, _, _) -> !l) states))
  in
  let attempted = Array.length latencies_ms in
  {
    latencies_ms;
    attempted;
    failed = List.fold_left (fun a (_, f, _) -> a + !f) 0 states;
    reply_bytes = List.fold_left (fun a (_, _, b) -> a + !b) 0 states;
    elapsed_s;
    next_index = Atomic.get next;
  }
