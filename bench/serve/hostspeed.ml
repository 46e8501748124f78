(* A host-speed probe.  On a shared virtual machine the CPU's own speed
   moves with the neighbours' load: a fixed loop runs up to 1.8x slower
   for minutes at a time, and CPU time stretches with it, so no
   statistic over one run's requests can tell a slow host from a slow
   commit.  A thread runs a fixed kernel every 50 ms beside the timed
   phase and times it by its own thread CPU time, which leaves out waits
   for a CPU (the cluster keeps both cores busy) but not a slowed CPU.
   The kernel uses only the standard library, so no change to skope can
   move it.

   Its samples are bimodal (about 150 us on a quiet core, 270 us on a
   busy one), so the mean, which follows the share of time spent slow,
   measures the host; a median jumps between the two modes. *)

let period_s = 0.05

(* The kernel's mean CPU time on the calibration host (README), the unit
   that [factor] measures against. *)
let reference_ns = 250_000.

(* Hashing, small allocations and table updates, as the server does. *)
let kernel tbl =
  let acc = ref 0 in
  for i = 0 to 15_000 do
    acc := !acc + Hashtbl.hash (i * 7919);
    if i land 31 = 0 then Hashtbl.replace tbl (i land 1023) (string_of_int i)
  done;
  ignore (Sys.opaque_identity !acc)

type t = { stop : bool Atomic.t; samples : float list ref; thread : Thread.t }

let start () =
  let stop = Atomic.make false and samples = ref [] in
  let run () =
    let tbl = Hashtbl.create 1024 in
    while not (Atomic.get stop) do
      Thread.delay period_s;
      let c0 = Mono.thread_cpu_ns () in
      kernel tbl;
      samples := float_of_int (Mono.thread_cpu_ns () - c0) :: !samples
    done
  in
  { stop; samples; thread = Thread.create run () }

(* Stops the thread (the first call waits for it) and returns the
   kernel's mean CPU time in ns, or the reference when the phase was too
   short to take a sample. *)
let finish t =
  if not (Atomic.exchange t.stop true) then Thread.join t.thread;
  match !(t.samples) with
  | [] -> reference_ns
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* How much slower than the reference the host ran: > 1 when slower. *)
let factor kernel_ns = kernel_ns /. reference_ns
