(** Content-addressed result cache: {!Job.hash} → {!Outcome.t},
    LRU-bounded, safe to share across the worker domains of a batch.
    Repeated sweep points — the common case in design-space exploration
    — become cache hits instead of solver runs. *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument when [capacity < 1]. *)

val find : t -> string -> Outcome.t option
(** Lookup by job hash; counts a hit or a miss, refreshes recency. *)

val store : t -> string -> Outcome.t -> bool
(** Insert (or refresh) an outcome; evicts the least recently used
    entry beyond capacity and returns [true] when that happened.  Store
    only deterministic outcomes — the cache does not distinguish a
    [Failed] produced by the job from one produced by the
    environment. *)

type stats = { hits : int; misses : int; evictions : int; entries : int }

val stats : t -> stats
val hit_rate : stats -> float
(** Hits over lookups; [0.] before any lookup. *)

val reset_counters : t -> unit
(** Zero the hit/miss/eviction counters, keep the entries — used
    between the cold and warm arms of the service bench. *)
