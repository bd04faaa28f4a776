(** A fixed-size pool of OCaml 5 [Domain] workers fed from a bounded
    work queue.

    The pool is deliberately simple: workers pull thunks off the queue
    and run them to completion; submission blocks when the queue is at
    capacity (backpressure); {!map} preserves input order regardless of
    completion order, so pool-backed evaluation is a drop-in,
    deterministically-ordered replacement for [List.map] whenever the
    mapped function itself is deterministic and shares no mutable
    state across items. *)

type t

val create : ?queue_capacity:int -> domains:int -> unit -> t
(** A pool of [domains] workers ([queue_capacity] defaults to [256]).
    The workers spawn with the first {!submit} or {!try_submit}, so a
    pool that is never given a task spawns no domain.
    @raise Invalid_argument when [domains < 1]. *)

val shutdown : t -> unit
(** Closes the queue, lets workers drain it, and joins the workers that
    started.  Idempotent. *)

val with_pool : ?queue_capacity:int -> domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] on a fresh pool and always shuts
    it down, even when [f] raises. *)

val submit : t -> (unit -> unit) -> unit
(** Queue a thunk; blocks while the queue is full.  The first
    submission spawns the workers.
    @raise Invalid_argument after {!shutdown}.
    @raise Failure when a worker cannot be spawned (the runtime's
    domain limit); the thunk is not queued, the workers that did spawn
    stay until {!shutdown}, and the next submission spawns the rest. *)

val try_submit : t -> (unit -> unit) -> bool
(** Non-blocking {!submit}: [false] instead of waiting when the queue
    is at capacity, so a caller holding a client connection can shed
    load (reply [overloaded]) rather than stall every other client.
    @raise Invalid_argument after {!shutdown}.
    @raise Failure as {!submit}. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel map, results in input order.  If any application raised,
    the exception of the smallest-index failing item is re-raised
    after all items finished. *)

val run : ?queue_capacity:int -> domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** One-shot convenience: [List.map] when [domains <= 1] (no domain is
    spawned), otherwise {!with_pool} + {!map}. *)

val domains : t -> int
(** Number of worker domains the pool runs once given work. *)

val queue_depth : t -> int
(** Instantaneous queue depth (racy; for gauges). *)
