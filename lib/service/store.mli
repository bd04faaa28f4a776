(** Persistent content-addressed result store: {!Job.hash} →
    {!Outcome.t} on disk, LRU-bounded, safe to share across worker
    domains.  The disk-backed successor of {!Result_cache} for the
    [noc serve] daemon — warm hits survive restarts.

    On-disk layout under [root]:
    {v
    objects/ab/cdef0123….json   one object per job hash (sharded)
    index.json                  LRU order, most recent first
    v}

    All writes are write-to-temp + rename, so a crash leaves whole
    files or nothing.  The index is exact or absent: while it exists it
    names every object on disk.  {!store} writes its own object and
    nothing else; the first change to the key set after {!create} or
    {!flush} unlinks the index, and {!flush} writes it back.  When the
    index is missing or corrupt, the objects directory is rescanned.  A
    crash at any instant therefore loses at most the recency order
    since the last flush, never a stored result.  An object that fails
    its integrity check at read time (hash mismatch, unparsable
    payload) is deleted and reported as a miss. *)

type t

val create : root:string -> capacity:int -> t
(** Open (creating directories as needed) the store at [root] and load
    its index, dropping entries whose object file is gone, or rescan
    the objects when there is no index.  Entries beyond [capacity] are
    evicted now, least recent first.
    @raise Invalid_argument when [capacity < 1]. *)

val root : t -> string

val find : t -> string -> Outcome.t option
(** Lookup by job hash; verifies the stored object's schema and hash,
    counts a hit or a miss, refreshes recency. *)

val store : t -> string -> Outcome.t -> bool
(** Write (or refresh) an outcome atomically; evicts the least
    recently used object beyond capacity and returns [true] when that
    happened.  Store only deterministic outcomes.
    @raise Invalid_argument when the key is not a hex hash. *)

val flush : t -> unit
(** Write the LRU index.  Call it before a planned exit: without it the
    next {!create} rescans the objects and starts from an arbitrary
    recency order whenever the key set changed since the last flush. *)

type stats = { hits : int; misses : int; evictions : int; entries : int }

val stats : t -> stats
val hit_rate : stats -> float
