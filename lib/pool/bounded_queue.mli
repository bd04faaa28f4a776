(** A bounded, blocking, multi-producer multi-consumer FIFO — the work
    queue of {!Pool}.  Producers block when the queue is at capacity
    (natural backpressure on job submission); consumers block when it
    is empty.  [close] wakes everyone: blocked pushes raise {!Closed},
    blocked pops drain the remaining items and then return [None]. *)

type 'a t

exception Closed

val create : capacity:int -> 'a t
(** @raise Invalid_argument when [capacity < 1]. *)

val push : 'a t -> 'a -> unit
(** Blocks while the queue is full.
    @raise Closed if the queue is (or becomes) closed. *)

val try_push : 'a t -> 'a -> bool
(** Non-blocking {!push}: [false] instead of waiting when the queue is
    at capacity — the primitive behind the server's typed [overloaded]
    response.  @raise Closed if the queue is closed. *)

val pop : 'a t -> 'a option
(** Blocks while the queue is empty and open; [None] once the queue is
    closed and drained. *)

val close : 'a t -> unit
(** Idempotent.  Already-queued items remain poppable. *)

val length : 'a t -> int
(** Instantaneous queue depth (racy by nature; for gauges). *)
