(* Reference smallest-cycle scan: the formulation that
   [Noc_graph.Cycles.shortest] must agree with, cycle for cycle (the
   same cycle, not just the same length).  A full BFS from every
   successor of every vertex in a non-trivial SCC, no per-vertex
   bounds, no SCC-confined search, no self-loop prescan.  Slow, but
   each step is the definition: the shortest returning path through
   each candidate, the first shortest cycle in ascending vertex order
   kept. *)

open Noc_graph

let cycle_length = List.length

let shortest g =
  let through v =
    if Digraph.mem_edge g v v then Some [ v ]
    else begin
      let best = ref None in
      let consider s =
        match Traversal.shortest_path g s v with
        | None -> ()
        | Some path ->
            let len = List.length path in
            let better =
              match !best with None -> true | Some b -> len < List.length b
            in
            if better then best := Some path
      in
      List.iter consider (List.sort compare (Digraph.succ g v));
      match !best with
      | None -> None
      | Some path -> Some (v :: List.filter (fun w -> w <> v) path)
    end
  in
  let candidates = List.sort compare (List.concat (Scc.non_trivial g)) in
  let pick best v =
    match through v with
    | None -> best
    | Some c -> (
        match best with
        | None -> Some c
        | Some b -> if cycle_length c < cycle_length b then Some c else best)
  in
  List.fold_left pick None candidates
