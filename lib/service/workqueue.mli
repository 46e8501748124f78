(** Bounded FIFO connecting the accept loop to the worker pool.  The
    loop queues with [try_push] and sheds when it is full; [push]
    blocks when full (shutdown posts its stop messages with it), and
    [pop] blocks when empty. *)

type 'a t

val create : capacity:int -> 'a t

(** Blocks while the queue is at capacity. *)
val push : 'a t -> 'a -> unit

(** Non-blocking push; [false] when the queue is at capacity. *)
val try_push : 'a t -> 'a -> bool

(** Blocks while the queue is empty. *)
val pop : 'a t -> 'a

val length : 'a t -> int
val capacity : 'a t -> int
