(** Least-recently-used bookkeeping shared by {!Result_cache} and
    {!Store}: a table from key to value in which every entry carries a
    recency stamp.  A hit or an insert restamps one entry in O(1); only
    an eviction past capacity scans the table for the oldest stamp.
    Not synchronised: each owner serialises access under its own
    mutex. *)

type 'a t

val create : capacity:int -> 'a t
(** An empty table holding at most [capacity] entries ([>= 1]; the
    owner validates it). *)

val length : 'a t -> int
val mem : 'a t -> string -> bool

val find : 'a t -> string -> 'a option
(** The value under the key, made most recent. *)

val add : 'a t -> string -> 'a -> string option
(** Insert or replace the key as the most recent entry.  When that
    takes the table past capacity, the least recent entry is removed
    and its key returned. *)

val remove : 'a t -> string -> unit

val keys : 'a t -> string list
(** Every key, most recent first. *)
