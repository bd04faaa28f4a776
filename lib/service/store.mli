(** Persistent content-addressed result store: {!Job.hash} →
    {!Outcome.t} on disk, LRU-bounded, safe to share across worker
    domains.  The disk-backed successor of {!Result_cache} for the
    [noc serve] daemon — warm hits survive restarts.

    On-disk layout under [root]: one append-only log of one-line
    records, each starting with the job hash.
    {v
    store.log   <hash> {"schema":"noc-store/1","job_hash":…,"outcome":…}   put
                <hash> -                                                   drop
    v}

    A result costs one [write(2)] to a descriptor opened once, and a
    lookup one read at the record's offset.  {!create} rebuilds the key
    set in one sequential read of the log, looking only at each line's
    head; a final record torn mid-append is cut off.  A record that
    fails its integrity check at read time (wrong schema or hash,
    unparsable payload) is dropped and reported as a miss.  Once dead
    bytes (superseded puts, drops) outnumber live ones, the log is
    rewritten (temp file + rename), so it stays under about twice its
    live size.

    Nothing is fsynced.  A crash at any instant loses at most the record
    being appended and the recency order since the last {!flush}, never
    another stored result.  One process per root: a second appender can
    cause misses, never a wrong result.  An [objects/] tree left by an
    older daemon is neither read nor deleted. *)

type t

val create : root:string -> capacity:int -> t
(** Open (creating the directory and the log as needed) the store at
    [root] and replay its log.  Entries beyond [capacity] are evicted
    now, least recent first.
    @raise Invalid_argument when [capacity < 1].
    @raise Unix.Unix_error or [Sys_error] when the log cannot be opened
    or read. *)

val root : t -> string

val find : t -> string -> Outcome.t option
(** Lookup by job hash; verifies the stored record's schema and hash,
    counts a hit or a miss, refreshes recency. *)

val store : t -> string -> Outcome.t -> bool
(** Append (or refresh) an outcome; evicts the least recently used
    entry beyond capacity and returns [true] when that happened.  A
    write the disk refuses is counted in
    [noc_store_write_errors_total], not raised: the result is just not
    kept.  Store only deterministic outcomes.
    @raise Invalid_argument when the key is not a hex hash. *)

val flush : t -> unit
(** Rewrite the log in LRU order when it holds dead records or a hit
    has changed the order since it was written; otherwise write
    nothing.  Call it before a planned exit: without it the next
    {!create} sees the order of the last writes, not of the last hits.
    A failed rewrite is counted like a failed {!store}. *)

type stats = { hits : int; misses : int; evictions : int; entries : int }

val stats : t -> stats
val hit_rate : stats -> float
