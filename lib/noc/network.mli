(** A complete NoC design instance: topology + traffic + core-to-switch
    mapping + one static route per flow.  This is the object the
    deadlock-removal algorithm transforms. *)

type t

val make :
  topology:Topology.t ->
  traffic:Traffic.t ->
  mapping:(Ids.Core.t -> Ids.Switch.t) ->
  t
(** Builds a design with empty routes.  [mapping] is sampled once for
    every core and stored.
    @raise Invalid_argument if [mapping] returns an out-of-range
    switch. *)

val topology : t -> Topology.t
val traffic : t -> Traffic.t
val switch_of_core : t -> Ids.Core.t -> Ids.Switch.t

val set_route : t -> Ids.Flow.t -> Route.t -> unit
val route : t -> Ids.Flow.t -> Route.t
(** The flow's route ([[]] until set). *)

val routes : t -> (Ids.Flow.t * Route.t) list
(** All (flow, route) pairs in flow-id order. *)

val endpoints : t -> Ids.Flow.t -> Ids.Switch.t * Ids.Switch.t
(** Source and destination switches of a flow (through the mapping). *)

val copy : t -> t
(** Deep copy: mutating the copy's topology or routes leaves the
    original untouched. *)

val channel_load : t -> Channel.t -> float
(** Total bandwidth of the flows routed over the channel. *)

type loads
(** What the current routes put on each link and inject at each
    switch. *)

val loads : t -> loads
(** One pass over the routes in flow-id order.  Sums add the flows in
    that order, and a flow crossing one link on several VCs counts once
    on it.  Channels naming no link of the topology are ignored.  The
    table is a snapshot: re-take it after changing routes. *)

val load_on_link : loads -> Ids.Link.t -> float
(** Total bandwidth over all VCs of a link. *)

val flows_on_link : loads -> Ids.Link.t -> Ids.Flow.t list
(** The flows crossing a link, in id order. *)

val injected_at : loads -> Ids.Switch.t -> float
(** Total bandwidth of the flows whose route starts at the switch. *)

val pp : Format.formatter -> t -> unit
