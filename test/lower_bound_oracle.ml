(* Reference VC lower bound: the formulation
   [Noc_analysis.Deadlock_freedom.vc_lower_bound] must agree with, bound
   for bound and packed cycle for packed cycle.  The waits-for relation
   is rebuilt over every channel of the topology; every round starts a
   breadth-first search from every live channel, and every search
   allocates two arrays as long as the channel count.  Quadratic in the
   channels a design declares, but each step is the definition: the
   shortest cycle through each live channel, the first shortest one
   kept, its channels retired. *)

open Noc_model
module DF = Noc_analysis.Deadlock_freedom

type arena = {
  channels : Channel.t array;
  succs : int list array;
  preds : int list array;
}

let build_arena net =
  let channels = Array.of_list (Topology.channels (Network.topology net)) in
  let n = Array.length channels in
  let index = Channel.Table.create (2 * max 1 n) in
  Array.iteri (fun i c -> Channel.Table.replace index c i) channels;
  let succs = Array.make n [] and preds = Array.make n [] in
  let seen = Hashtbl.create 256 in
  List.iter
    (fun (_flow, route) ->
      List.iter
        (fun (a, b) ->
          match
            (Channel.Table.find_opt index a, Channel.Table.find_opt index b)
          with
          | Some u, Some v when not (Hashtbl.mem seen (u, v)) ->
              Hashtbl.replace seen (u, v) ();
              succs.(u) <- v :: succs.(u);
              preds.(v) <- u :: preds.(v)
          | _ -> ())
        (Route.consecutive_pairs route))
    (Network.routes net);
  { channels; succs; preds }

let shortest_cycle_through arena alive start =
  let n = Array.length arena.channels in
  let dist = Array.make n (-1) and parent = Array.make n (-1) in
  dist.(start) <- 0;
  let queue = Queue.create () in
  Queue.add start queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun u ->
        if alive.(u) && dist.(u) < 0 then begin
          dist.(u) <- dist.(v) + 1;
          parent.(u) <- v;
          Queue.add u queue
        end)
      arena.succs.(v)
  done;
  let closer =
    List.fold_left
      (fun best p ->
        if (not alive.(p)) || dist.(p) < 0 then best
        else
          match best with
          | Some b when dist.(b) <= dist.(p) -> best
          | _ -> Some p)
      None arena.preds.(start)
  in
  match closer with
  | None -> None
  | Some p ->
      let rec unwind v acc =
        if v = start then start :: acc else unwind parent.(v) (v :: acc)
      in
      Some (unwind p [])

let vc_lower_bound net =
  let arena = build_arena net in
  let n = Array.length arena.channels in
  let alive = Array.make n true in
  let cycles = ref [] in
  let continue_ = ref true in
  while !continue_ do
    let best = ref None in
    for v = 0 to n - 1 do
      if alive.(v) then
        match shortest_cycle_through arena alive v with
        | None -> ()
        | Some cycle -> (
            match !best with
            | Some b when List.length b <= List.length cycle -> ()
            | _ -> best := Some cycle)
    done;
    match !best with
    | None -> continue_ := false
    | Some cycle ->
        List.iter (fun v -> alive.(v) <- false) cycle;
        cycles := cycle :: !cycles
  done;
  let disjoint_cycles =
    List.rev_map (List.map (fun v -> arena.channels.(v))) !cycles
  in
  { DF.lower_bound = List.length disjoint_cycles; disjoint_cycles }
