(** The Channel Dependency Graph (Definition 4): one vertex per channel
    of the topology, one edge [ci -> cj] when at least one flow's route
    uses [ci] and then immediately [cj].  A cycle in this graph is the
    necessary condition for a wormhole routing deadlock (Dally &
    Towles), and its absence is sufficient for deadlock freedom under
    static routing. *)

type t

val build : Network.t -> t
(** Builds the CDG of the network's current topology and routes. *)

type change = {
  new_channels : Channel.t list;
      (** Channels (fresh VCs or links) added to the topology. *)
  reroutes : (Ids.Flow.t * Route.t * Route.t) list;
      (** Per rerouted flow: its route before and after the edit. *)
}
(** A delta against the network state the CDG currently reflects —
    the CDG-relevant part of a {e break-cycle} step. *)

val apply_change : t -> change -> unit
(** [apply_change t c] updates [t] in place so that it equals (in the
    sense of {!equal}, i.e. bit-for-bit including vertex numbering and
    adjacency order) a fresh {!build} of the edited network.  This is
    the removal loop's fast path: the flow→dependency index is patched
    with only the rerouted flows' old and new pairs, and the digraph is
    re-projected from the index without touching the network at all. *)

val equal : t -> t -> bool
(** Structural identity: same channels in the same vertex order, same
    digraph including adjacency-list order, same dependency→flows
    index.  Two equal CDGs drive the removal algorithm through the
    same trajectory; the test suites use it to check, after every
    break of a removal run, that the CDG {!apply_change} maintains
    equals a fresh {!build}. *)

val graph : t -> Noc_graph.Digraph.t
(** The underlying digraph; vertex ids are dense channel indices. *)

val n_channels : t -> int

val channel_of_vertex : t -> int -> Channel.t
(** @raise Invalid_argument on an out-of-range vertex. *)

val vertex_of_channel : t -> Channel.t -> int
(** @raise Not_found when the channel does not exist in the topology
    snapshot this CDG was built from. *)

val flows_on_dependency : t -> src:Channel.t -> dst:Channel.t -> Ids.Flow.t list
(** The flows whose routes create the dependency edge, in flow-id
    order; empty when the edge is absent. *)

val is_deadlock_free : t -> bool
(** [true] iff the CDG is acyclic. *)

val smallest_cycle : ?hint:Channel.t list -> t -> Channel.t list option
(** The paper's [GetSmallestCycle]: a minimum-length cycle as a channel
    list in dependency order, or [None] when acyclic.  [hint] channels
    (typically those touched by the last break) seed the search bound —
    they accelerate the scan but never change the returned cycle;
    channels unknown to this CDG are ignored. *)

val cycles : ?max_cycles:int -> t -> Channel.t list list
(** All elementary cycles (bounded enumeration), for diagnostics. *)

val pp : Format.formatter -> t -> unit
