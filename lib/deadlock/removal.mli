(** The deadlock-removal driver — Algorithm 1 of the paper.

    Repeatedly: find the CDG's smallest cycle, price breaking
    every dependency of that cycle in the forward and the backward
    direction, break at the overall cheapest spot, update topology and
    routes; stop when the CDG is acyclic.  The network is mutated in
    place; use {!Noc_model.Network.copy} first to keep the original. *)

open Noc_model

type report = {
  iterations : int;  (** Number of cycles broken. *)
  vcs_added : int;
      (** Channels added — the paper's |L'| - |L| cost.  With the
          [Physical_link] resource kind this counts fresh parallel
          links instead of VCs. *)
  changes : Break_cycle.change list;  (** One entry per broken cycle. *)
  deadlock_free : bool;  (** [true] unless the iteration cap was hit. *)
}

type heuristic = Smallest_cycle_first | Any_cycle_first
(** Which cycle to attack each round.  The paper argues for smallest
    first (breaking it often breaks overlapping larger cycles);
    [Any_cycle_first] exists for the ablation study. *)

val run :
  ?max_iterations:int ->
  ?heuristic:heuristic ->
  ?directions:Cost_table.direction list ->
  ?resource:Break_cycle.resource_kind ->
  Network.t ->
  report
(** Removes all CDG cycles.  [max_iterations] (default [10_000]) is a
    safety valve; if it is hit, [deadlock_free] is [false] and the
    network is left in its last (valid, but still cyclic) state.
    [directions] restricts the candidate break directions (default
    both; forward wins ties, as in Algorithm 1 step 7).  [resource]
    selects what a duplicate costs: a VC (default) or a parallel
    physical link for VC-less architectures.
    @raise Invalid_argument when a cycle is found and [directions] is
    empty.

    The CDG is built once up front and then maintained {e in place}
    across iterations via {!Noc_model.Cdg.apply_change}, with the
    channels touched by each break hinting the next smallest-cycle
    search.  Both are exact: the trajectory (cycles chosen, breaks
    applied, VCs added) is identical to rebuilding the CDG from scratch
    every round.  The test suites pin this against a reference driver
    that does rebuild every round, and the removal benchmark times that
    driver as its rebuild arm. *)

val is_deadlock_free : Network.t -> bool
(** [true] iff the network's CDG is already acyclic. *)

val pp_report : Format.formatter -> report -> unit
