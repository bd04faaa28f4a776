(** Whole-design quality metrics: hop counts, link-load statistics and
    switch connectivity.  [noc_tool analyze] and the toolflow example
    print them to judge a design before/after a transformation. *)

type t = {
  n_switches : int;
  n_links : int;
  total_vcs : int;
  n_routed_flows : int;
  avg_hops : float;  (** Mean route length over routed flows. *)
  max_hops : int;
  avg_link_load : float;  (** MB/s, over links carrying any traffic. *)
  max_link_load : float;
  load_imbalance : float;
      (** [max_link_load / avg_link_load]; [1.0] = perfectly even,
          higher = hotter hotspots.  [0.] when nothing is routed. *)
  switch_connectivity : float;
      (** Fraction of ordered switch pairs with a directed path. *)
}

val of_network : Network.t -> t

val pp : Format.formatter -> t -> unit
