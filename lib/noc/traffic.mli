(** The communication graph G(V, E): cores and directed communication
    flows between them (Definition 2 of the paper).  Each flow carries
    a bandwidth demand in MB/s, used by the synthesizer for clustering
    and by the power model for load estimation. *)

type t

type flow = {
  id : Ids.Flow.t;
  src : Ids.Core.t;
  dst : Ids.Core.t;
  bandwidth : float;
}

val create : n_cores:int -> t
(** @raise Invalid_argument when [n_cores <= 0]. *)

val n_cores : t -> int
val n_flows : t -> int

val add_flow : t -> src:Ids.Core.t -> dst:Ids.Core.t -> bandwidth:float -> Ids.Flow.t
(** Adds a directed flow.  Self-flows are rejected; duplicate pairs
    are permitted (they model independent traffic classes).
    @raise Invalid_argument on a self-flow, an unknown core, or a
    bandwidth that is not a positive finite number ([nan] and [inf]
    included). *)

val flow : t -> Ids.Flow.t -> flow
(** @raise Invalid_argument on an unknown flow id. *)

val flows : t -> flow list
(** All flows in id order. *)

val flows_from : t -> Ids.Core.t -> flow list
val flows_to : t -> Ids.Core.t -> flow list

val total_bandwidth : t -> float

val demand_between : t -> Ids.Core.t -> Ids.Core.t -> float
(** Sum of bandwidths of flows from the first core to the second. *)

val pp : Format.formatter -> t -> unit
