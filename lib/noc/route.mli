(** A route: the ordered list of channels a flow traverses from its
    source switch to its destination switch (Definition 3). *)

type t = Channel.t list

val links : t -> Ids.Link.t list
val length : t -> int

val uses_channel : t -> Channel.t -> bool

val consecutive_pairs : t -> (Channel.t * Channel.t) list
(** The channel dependencies a route induces: [(c1,c2); (c2,c3); ...].
    Empty for routes with fewer than two channels. *)

type error =
  | Unknown_link of Channel.t
      (** The channel's link is not declared by the topology. *)
  | Missing_route of { src : Ids.Switch.t; dst : Ids.Switch.t }
      (** Empty route between distinct switches. *)
  | Bad_vc of { channel : Channel.t; have : int }
      (** VC index at or above the link's VC count. *)
  | Wrong_source of { actual : Ids.Switch.t; expected : Ids.Switch.t }
  | Wrong_destination of { actual : Ids.Switch.t; expected : Ids.Switch.t }
  | Discontinuity of Channel.t * Channel.t
      (** Consecutive links are not head-to-tail. *)
  | Repeated_channel of Channel.t  (** Routes must be simple. *)

val error_code : error -> Diag_code.t
(** The stable diagnostic code of each violation class. *)

val error_message : error -> string

val check_detailed : Topology.t -> src:Ids.Switch.t -> dst:Ids.Switch.t -> t ->
  (unit, error) result
(** Structural validation of a route on a topology:
    - non-empty unless [src = dst];
    - every channel is on a declared link, and its VC index is within
      the link's VC count (checked hop by hop, link first);
    - the first link leaves [src], the last enters [dst];
    - consecutive links are head-to-tail;
    - no channel repeats (routes are simple, as required for
      wormhole-deadlock analysis on static routes).

    The first violation found (in the order above) is returned. *)

val check : Topology.t -> src:Ids.Switch.t -> dst:Ids.Switch.t -> t ->
  (unit, string) result
(** [check_detailed] with the error rendered via {!error_message}. *)

val pp : Format.formatter -> t -> unit
