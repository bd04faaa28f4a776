(** Static route computation.  Routes are computed on the switch graph
    and realized on VC 0 of each link; the deadlock-removal pass is
    what later moves flows onto higher VCs. *)

val route_flow :
  ?weight:(Topology.link -> float) -> Network.t -> Ids.Flow.t ->
  (Route.t, string) result
(** Minimum-weight route for one flow (default weight: 1 per hop).
    Between parallel links the smallest weight wins, then the smallest
    link id.  Returns [Error] when the destination switch is
    unreachable. *)

val route_all :
  ?weight:(Topology.link -> float) -> Network.t -> (unit, string) result
(** Routes every flow in id order as {!route_flow} would, building the
    switch graph and the link table once, and installs the results.
    Stops at the first unroutable flow. *)

val route_all_load_aware : Network.t -> (unit, string) result
(** Routes flows in decreasing bandwidth order; each flow's weight is
    [1 + load(link)/total_bandwidth], which spreads heavy flows over
    distinct links.  Deterministic. *)
