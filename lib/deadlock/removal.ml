open Noc_model

type report = {
  iterations : int;
  vcs_added : int;
  changes : Break_cycle.change list;
  deadlock_free : bool;
}

type heuristic = Smallest_cycle_first | Any_cycle_first

let find_cycle ~hint heuristic cdg =
  match heuristic with
  | Smallest_cycle_first -> Cdg.smallest_cycle ~hint cdg
  | Any_cycle_first ->
      Option.map
        (List.map (Cdg.channel_of_vertex cdg))
        (Noc_graph.Cycles.find_any (Cdg.graph cdg))

(* Algorithm 1 step 7: both tables come from one shared pass, and the
   cheapest of [directions] wins.  Strict [<] keeps the first listed
   direction on a tie, and [directions] lists Forward first by default,
   so "f_cost <= b_cost chooses forward". *)
let pick_table net directions cycle =
  match directions with
  | [] -> invalid_arg "Removal.run: empty direction list"
  | first :: rest ->
      let fwd, bwd = Cost_table.both net cycle in
      let table = function
        | Cost_table.Forward -> fwd
        | Cost_table.Backward -> bwd
      in
      List.fold_left
        (fun best d ->
          let t = table d in
          if t.Cost_table.best_cost < best.Cost_table.best_cost then t else best)
        (table first) rest

(* Channels worth probing first in the next cycle search: everything
   the break just touched.  Any new cycle was either already present
   (shares no touched channel — found by the main scan regardless) or
   was created/kept by the rerouted flows, in which case it passes
   through one of these. *)
let hint_channels (change : Break_cycle.change) =
  let src, dst = change.broken in
  src :: dst :: change.added_channels

module Trace = Noc_obs.Trace

let cycles_broken = Noc_obs.Metrics.counter "noc_removal_cycles_broken_total"

let direction_label = function
  | Cost_table.Forward -> "forward"
  | Cost_table.Backward -> "backward"

let run ?(max_iterations = 10_000) ?(heuristic = Smallest_cycle_first)
    ?(directions = [ Cost_table.Forward; Cost_table.Backward ])
    ?(resource = Break_cycle.Virtual_channel) net =
  Trace.with_span "removal.run" @@ fun run_sp ->
  let before = Topology.total_vcs (Network.topology net) in
  let finish_run report =
    Trace.add_attr run_sp "iterations" (Trace.Int report.iterations);
    Trace.add_attr run_sp "vcs_added" (Trace.Int report.vcs_added);
    Trace.add_attr run_sp "deadlock_free" (Trace.Bool report.deadlock_free);
    report
  in
  (* Built once, then kept equal to a fresh build by patching in each
     break's reroutes ([Cdg.apply_change]). *)
  let cdg = Cdg.build net in
  (* One span per removal iteration, carrying the decision the paper's
     Algorithm 1 makes there: cycle length, candidate edges priced,
     chosen direction, its cost, and the VCs the break added.  The
     recursion happens outside the span so iterations are siblings
     under [removal.run], not a nest [max_iterations] deep. *)
  let iteration iter cycle =
    Trace.with_span "removal.iteration"
      ~attrs:
        [
          ("iter", Trace.Int (iter + 1));
          ("cycle_len", Trace.Int (List.length cycle));
        ]
    @@ fun it_sp ->
    let table =
      Trace.with_span "removal.cost_tables" (fun _ ->
          pick_table net directions cycle)
    in
    let change =
      Trace.with_span "removal.break" (fun _ ->
          Break_cycle.apply ~resource net table)
    in
    Noc_obs.Metrics.incr cycles_broken;
    Trace.add_attr it_sp "candidate_edges"
      (Trace.Int (Array.length table.Cost_table.max_costs));
    Trace.add_attr it_sp "direction"
      (Trace.Str (direction_label change.Break_cycle.direction));
    Trace.add_attr it_sp "cost" (Trace.Int table.Cost_table.best_cost);
    Trace.add_attr it_sp "vcs_added"
      (Trace.Int (List.length change.Break_cycle.added_channels));
    Logs.debug (fun m ->
        m "removal: iteration %d, cycle length %d, %a" (iter + 1)
          (List.length cycle) Break_cycle.pp_change change);
    let hint =
      Trace.with_span "removal.cdg_update" (fun _ ->
          Cdg.apply_change cdg (Break_cycle.cdg_change change);
          hint_channels change)
    in
    (change, hint)
  in
  let rec loop iter changes hint =
    match
      Trace.with_span "removal.find_cycle" (fun _ ->
          find_cycle ~hint heuristic cdg)
    with
    | None ->
        finish_run
          {
            iterations = iter;
            vcs_added = Topology.total_vcs (Network.topology net) - before;
            changes = List.rev changes;
            deadlock_free = true;
          }
    | Some cycle ->
        if iter >= max_iterations then
          finish_run
            {
              iterations = iter;
              vcs_added = Topology.total_vcs (Network.topology net) - before;
              changes = List.rev changes;
              deadlock_free = false;
            }
        else begin
          let change, hint = iteration iter cycle in
          loop (iter + 1) (change :: changes) hint
        end
  in
  loop 0 [] []

let is_deadlock_free net = Cdg.is_deadlock_free (Cdg.build net)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>deadlock removal: %d cycle(s) broken, %d VC(s) added, %s"
    r.iterations r.vcs_added
    (if r.deadlock_free then "deadlock-free" else "ITERATION CAP HIT");
  List.iter (fun c -> Format.fprintf ppf "@,  %a" Break_cycle.pp_change c) r.changes;
  Format.fprintf ppf "@]"
