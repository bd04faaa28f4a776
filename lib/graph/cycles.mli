(** Cycle detection and search.

    A cycle is represented as the list of its vertices in traversal
    order, [[c1; c2; ...; ck]], meaning the edges
    [c1->c2, ..., c(k-1)->ck, ck->c1] are all present.  A self-loop is
    the singleton [[v]]. *)

val has_cycle : Digraph.t -> bool
(** [true] iff the graph contains a directed cycle (including
    self-loops). *)

val find_any : Digraph.t -> int list option
(** Some cycle if one exists; not necessarily the smallest.  Found by
    DFS back-edge detection, so it costs one traversal. *)

val shortest_through : ?bound:int -> Digraph.t -> int -> int list option
(** [shortest_through g v] is a minimum-length cycle containing [v]
    (BFS from each successor of [v] back to [v]), or [None].

    [bound] is an exclusive cap: only cycles {e strictly} shorter than
    [bound] are returned, and the underlying BFSs stop exploring at
    the matching depth.  When the true minimum is below the cap, the
    result is identical to the unbounded call. *)

val shortest : ?prefer:int list -> Digraph.t -> int list option
(** A globally minimum-length cycle, or [None] when the graph is
    acyclic.  This is the paper's [GetSmallestCycle]: every vertex of
    a non-trivial SCC is a candidate root and the shortest returning
    path wins; ties break towards the smallest root id, making the
    result deterministic.

    [prefer] hints at vertices likely to lie on a short cycle (for the
    removal loop: the channels touched by the previous break).  They
    are probed first so the global length bound tightens early and the
    remaining per-candidate searches can be cut off.  Hints are purely
    an acceleration: the returned cycle is the same with or without
    them, and unknown vertex ids are ignored. *)

val enumerate : ?max_cycles:int -> Digraph.t -> int list list
(** All elementary cycles, by Johnson's algorithm, each rotated so its
    smallest vertex comes first; enumeration stops after [max_cycles]
    (default [10_000]) as a safety valve on pathological graphs. *)
