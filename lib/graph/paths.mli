(** Weighted shortest paths over {!Digraph.t}.

    Weights are supplied as a function on edges, which lets callers
    price a topology link by load, wire length, or uniformly by hop
    without materializing a weighted graph. *)

exception Negative_weight
(** Raised by {!dijkstra} when the weight function returns a negative
    value. *)

val dijkstra :
  Digraph.t -> weight:(int -> int -> float) -> int -> float array * int array
(** [dijkstra g ~weight src] is [(dist, parent)]: [dist.(v)] the
    minimum total weight from [src] to [v] ([infinity] when
    unreachable) and [parent.(v)] the predecessor of [v] on such a
    path ([-1] for [src] and unreachable vertices).
    @raise Negative_weight on a negative edge weight. *)

val shortest_path :
  Digraph.t -> weight:(int -> int -> float) -> int -> int -> int list option
(** Minimum-weight path [[src; ...; dst]], or [None].  The search
    stops once [dst] settles; the path is the one {!dijkstra}'s parent
    array gives (vertices settle in (distance, id) order, and an edge
    relaxes only on a strict improvement). *)

val path_weight : weight:(int -> int -> float) -> int list -> float
(** Total weight of a path given as a vertex list; [0.] on paths with
    fewer than two vertices. *)

val eccentricity : Digraph.t -> int -> int
(** Largest finite BFS distance from the vertex (hops); [0] when
    nothing else is reachable. *)

val diameter : Digraph.t -> int
(** Largest finite pairwise hop distance over the whole graph. *)
