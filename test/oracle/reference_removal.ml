(* Reference removal driver: the loop of Algorithm 1 that
   [Noc_deadlock.Removal.run] must agree with, break for break.  Every
   round builds the CDG afresh, finds its smallest cycle with the
   unpruned {!Cycles_oracle.shortest} scan, prices both directions with
   the per-cell {!Cost_table_oracle} tables, lets forward win ties and
   breaks there, until the CDG is acyclic or 10,000 cycles have been
   broken.  Slow, but each step is the definition.  It records no spans
   or counters of its own; the benchmark times it as the rebuild arm. *)

open Noc_model
open Noc_deadlock

let max_iterations = 10_000

let run net =
  let before = Topology.total_vcs (Network.topology net) in
  let report iterations changes deadlock_free =
    {
      Removal.iterations;
      vcs_added = Topology.total_vcs (Network.topology net) - before;
      changes = List.rev changes;
      deadlock_free;
    }
  in
  let rec loop iter changes =
    let cdg = Cdg.build net in
    match Cycles_oracle.shortest (Cdg.graph cdg) with
    | None -> report iter changes true
    | Some _ when iter >= max_iterations -> report iter changes false
    | Some vertices ->
        let cycle = List.map (Cdg.channel_of_vertex cdg) vertices in
        let fwd = Cost_table_oracle.forward net cycle in
        let bwd = Cost_table_oracle.backward net cycle in
        (* Algorithm 1 step 7: f_cost <= b_cost chooses forward. *)
        let table =
          if bwd.Cost_table.best_cost < fwd.Cost_table.best_cost then bwd else fwd
        in
        let change = Break_cycle.apply net table in
        loop (iter + 1) (change :: changes)
  in
  loop 0 []
