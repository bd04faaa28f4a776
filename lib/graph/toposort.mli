(** Topological ordering (Kahn's algorithm). *)

val sort : Digraph.t -> int list option
(** [sort g] is [Some order] with every edge pointing forward in
    [order], or [None] if [g] has a cycle.  Vertices of equal depth
    come out in increasing id order (a min-heap of ready vertices), so
    the result is deterministic. *)
