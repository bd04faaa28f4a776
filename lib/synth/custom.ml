open Noc_model

type mapper = Greedy_affinity | Min_cut

type options = {
  max_out_degree : int;
  max_in_degree : int;
  load_aware_routing : bool;
  force_bidirectional : bool;
  mapper : mapper;
}

let default_options =
  {
    max_out_degree = 4;
    max_in_degree = 4;
    load_aware_routing = true;
    force_bidirectional = false;
    mapper = Greedy_affinity;
  }

(* Inter-switch demand matrix induced by the mapping. *)
let demands traffic mapping n_switches =
  let d = Array.make_matrix n_switches n_switches 0. in
  List.iter
    (fun (f : Traffic.flow) ->
      let s = Ids.Switch.to_int mapping.(Ids.Core.to_int f.Traffic.src) in
      let t = Ids.Switch.to_int mapping.(Ids.Core.to_int f.Traffic.dst) in
      if s <> t then d.(s).(t) <- d.(s).(t) +. f.Traffic.bandwidth)
    (Traffic.flows traffic);
  d

let synthesize ?(options = default_options) traffic ~n_switches =
  let mapping =
    match options.mapper with
    | Greedy_affinity -> Mapping.cluster traffic ~n_switches
    | Min_cut -> Fm_partition.cluster traffic ~n_switches
  in
  let topo = Topology.create ~n_switches in
  let demand = demands traffic mapping n_switches in
  let out_deg = Array.make n_switches 0 and in_deg = Array.make n_switches 0 in
  (* The switch graph grows with the topology, and [reach.(a)] caches
     the switches reachable from [a] until the next link is added. *)
  let graph = Noc_graph.Digraph.create ~initial_capacity:n_switches () in
  Noc_graph.Digraph.ensure_vertex graph (n_switches - 1);
  let reach = Array.make n_switches None in
  let add_link a b =
    ignore
      (Topology.add_link topo ~src:(Ids.Switch.of_int a) ~dst:(Ids.Switch.of_int b));
    Noc_graph.Digraph.add_edge graph a b;
    Array.fill reach 0 n_switches None;
    out_deg.(a) <- out_deg.(a) + 1;
    in_deg.(b) <- in_deg.(b) + 1
  in
  let reachable a b =
    match reach.(a) with
    | Some r -> r.(b)
    | None ->
        let r = Noc_graph.Traversal.reachable graph a in
        reach.(a) <- Some r;
        r.(b)
  in
  (* Pass 1: direct links for the heaviest demands while the degree
     budget lasts.  Sorting is (demand desc, then pair asc) so the
     result is deterministic. *)
  let pairs = ref [] in
  for a = 0 to n_switches - 1 do
    for b = 0 to n_switches - 1 do
      if a <> b && demand.(a).(b) > 0. then pairs := (demand.(a).(b), a, b) :: !pairs
    done
  done;
  let sorted =
    List.sort
      (fun (w1, a1, b1) (w2, a2, b2) ->
        match compare w2 w1 with 0 -> compare (a1, b1) (a2, b2) | c -> c)
      !pairs
  in
  List.iter
    (fun (_, a, b) ->
      if out_deg.(a) < options.max_out_degree && in_deg.(b) < options.max_in_degree
      then add_link a b)
    sorted;
  (* Pass 2: routability.  Every demanded pair must have a directed
     path; when it does not, route through the least-loaded relay with
     spare degree, or add a direct link as last resort (technology
     constraints bend before unroutable designs do, as in the paper's
     discussion of [18]/[21]). *)
  List.iter (fun (_, a, b) -> if not (reachable a b) then add_link a b) sorted;
  if options.force_bidirectional then begin
    (* Open the reverse direction wherever it is missing, ignoring the
       degree budget: this is the "make connections bidirectional"
       escape hatch the paper describes as not always available. *)
    let missing =
      List.filter_map
        (fun (l : Topology.link) ->
          match
            Topology.find_links topo ~src:l.Topology.dst ~dst:l.Topology.src
          with
          | [] -> Some (Ids.Switch.to_int l.Topology.dst, Ids.Switch.to_int l.Topology.src)
          | _ :: _ -> None)
        (Topology.links topo)
    in
    List.iter (fun (a, b) -> add_link a b) (List.sort_uniq compare missing)
  end;
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c ->
        mapping.(Ids.Core.to_int c))
  in
  let routed =
    if options.load_aware_routing then Routing.route_all_load_aware net
    else Routing.route_all net
  in
  match routed with
  | Ok () -> Ok net
  | Error e -> Error e

let synthesize_exn ?options traffic ~n_switches =
  match synthesize ?options traffic ~n_switches with
  | Ok net -> net
  | Error e -> failwith ("Custom.synthesize: " ^ e)
