(** One evaluation point: a benchmark synthesized at a given switch
    count, compared across deadlock-handling methods.  This is the
    shared machinery behind Figures 8, 9 and 10. *)

type variant = {
  vcs_added : int;
  total_vcs : int;
  power_mw : float;
  area_mm2 : float;
}

type point = {
  benchmark : string;
  n_switches : int;
  n_flows : int;
  initially_deadlock_free : bool;
      (** Whether the synthesized design's CDG was already acyclic —
          the paper's "overhead is zero for most topologies"
          observation on D26_media. *)
  baseline : variant;  (** No deadlock handling at all. *)
  removal : variant;  (** The paper's algorithm. *)
  ordering : variant;  (** Greedy resource ordering. *)
  ordering_hop : variant;  (** Hop-index resource ordering. *)
  removal_iterations : int;
}

val evaluate : Noc_benchmarks.Spec.t -> n_switches:int -> point
(** Synthesizes the benchmark's topology at [n_switches], then applies
    each method to an independent copy and evaluates power/area.
    @raise Failure if synthesis cannot route the traffic (not observed
    on the shipped benchmarks). *)

val pp_point : Format.formatter -> point -> unit
