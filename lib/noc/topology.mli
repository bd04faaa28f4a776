(** The topology graph TG(S, L): switches connected by directed
    physical links, each carrying one or more virtual channels
    (Definition 1 of the paper).

    The structure is mutable in exactly the two ways the deadlock
    removal algorithm needs: adding links (during synthesis) and
    adding VCs to an existing link (during cycle breaking). *)

type t

type link = { id : Ids.Link.t; src : Ids.Switch.t; dst : Ids.Switch.t }

val create : n_switches:int -> t
(** A topology with [n_switches] switches and no links.
    @raise Invalid_argument when [n_switches <= 0]. *)

val copy : t -> t
(** Independent deep copy (used to compare methods on one input). *)

val n_switches : t -> int
val n_links : t -> int

val add_link : t -> src:Ids.Switch.t -> dst:Ids.Switch.t -> Ids.Link.t
(** Adds a directed link with one VC.  Parallel links are permitted
    (they model physical duplication); self-loops are rejected.
    @raise Invalid_argument on a self-loop or an unknown switch. *)

val link : t -> Ids.Link.t -> link
(** @raise Invalid_argument on an unknown link id. *)

val mem_link : t -> Ids.Link.t -> bool
(** Whether the topology declares the link. *)

val links : t -> link list
(** All links in id order. *)

val vc_count : t -> Ids.Link.t -> int
(** Number of VCs currently on the link (at least 1). *)

val add_vc : t -> Ids.Link.t -> int
(** Adds one VC to the link; returns the new VC's index. *)

val total_vcs : t -> int
(** Sum of [vc_count] over all links — the paper's resource count
    |L'|. *)

val extra_vcs : t -> int
(** [total_vcs t - n_links t]: VCs beyond the baseline one-per-link,
    i.e. the paper's |L'| - |L| cost metric. *)

val channels : t -> Channel.t list
(** Every (link, vc) channel, ordered by link id then VC index. *)

val out_links : t -> Ids.Switch.t -> link list
val in_links : t -> Ids.Switch.t -> link list

val find_links : t -> src:Ids.Switch.t -> dst:Ids.Switch.t -> link list
(** All parallel links from [src] to [dst] (possibly empty). *)

val switch_graph : t -> Noc_graph.Digraph.t
(** The switch-level connectivity as a plain digraph (vertex [i] is
    switch [i]); parallel links collapse to one edge. *)

val degree : t -> Ids.Switch.t -> int
(** Total number of link endpoints (in + out) at the switch. *)

val is_connected : t -> bool
(** [true] iff every switch can reach every other treating links as
    bidirectional (weak connectivity); vacuously true for a single
    switch. *)

val pp : Format.formatter -> t -> unit
