(* Monotonic clock, nanoseconds since an arbitrary origin. *)

external now_ns : unit -> int = "bench_mono_now_ns" [@@noalloc]

let since_s t0 = float_of_int (now_ns () - t0) *. 1e-9

(* CPU time of the calling thread, nanoseconds. *)
external thread_cpu_ns : unit -> int = "bench_thread_cpu_ns" [@@noalloc]
