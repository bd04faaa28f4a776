module Digraph = Noc_graph.Digraph
module Paths = Noc_graph.Paths

(* What one routing pass builds once and every flow of the pass reads:
   the switch graph, and per source switch the links to each successor
   (parallel links in id order). *)
type pass = {
  graph : Digraph.t;
  parallel : (int * Topology.link list) list array;
}

let prepare topo =
  let parallel = Array.make (Topology.n_switches topo) [] in
  List.iter
    (fun (l : Topology.link) ->
      let u = Ids.Switch.to_int l.Topology.src
      and v = Ids.Switch.to_int l.Topology.dst in
      let links = Option.value ~default:[] (List.assoc_opt v parallel.(u)) in
      parallel.(u) <- (v, l :: links) :: List.remove_assoc v parallel.(u))
    (List.rev (Topology.links topo));
  { graph = Topology.switch_graph topo; parallel }

(* The link a hop from [u] to [v] takes: smallest weight, then
   smallest link id.  The weight is read at each call, so a load-aware
   pass sees the loads of the flows routed before. *)
let best_link pass ~weight u v =
  let rec links_to = function
    | (v', links) :: rest -> if v' = v then links else links_to rest
    | [] -> []
  in
  match links_to pass.parallel.(u) with
  | [ l ] -> l
  | l :: rest ->
      snd
        (List.fold_left
           (fun ((w', _) as best) l ->
             let w = weight l in
             if w' <= w then best else (w, l))
           (weight l, l) rest)
  | [] -> invalid_arg "Routing: no link between adjacent switches"

let route pass ~weight ~src ~dst =
  if Ids.Switch.equal src dst then Ok []
  else
    let edge_weight u v = weight (best_link pass ~weight u v) in
    match
      Paths.shortest_path pass.graph ~weight:edge_weight (Ids.Switch.to_int src)
        (Ids.Switch.to_int dst)
    with
    | None ->
        Error
          (Format.asprintf "no path from %a to %a" Ids.Switch.pp src Ids.Switch.pp
             dst)
    | Some vertices ->
        let rec channels = function
          | u :: (v :: _ as rest) ->
              let l = best_link pass ~weight u v in
              Channel.make l.Topology.id 0 :: channels rest
          | [ _ ] | [] -> []
        in
        Ok (channels vertices)

let hop (_ : Topology.link) = 1.

(* The routing core: one pass over [flows] in the given order, each
   routed and installed before the next is weighed; [routed] sees every
   installed route. *)
let route_flows net ~weight ~routed flows =
  let pass = prepare (Network.topology net) in
  let rec go = function
    | [] -> Ok ()
    | (f : Traffic.flow) :: rest -> (
        let src = Network.switch_of_core net f.Traffic.src
        and dst = Network.switch_of_core net f.Traffic.dst in
        match route pass ~weight ~src ~dst with
        | Ok r ->
            Network.set_route net f.Traffic.id r;
            routed f r;
            go rest
        | Error e ->
            Error (Format.asprintf "flow %a: %s" Ids.Flow.pp f.Traffic.id e))
  in
  go flows

let route_flow ?(weight = hop) net flow =
  let src, dst = Network.endpoints net flow in
  route (prepare (Network.topology net)) ~weight ~src ~dst

let route_all ?(weight = hop) net =
  route_flows net ~weight
    ~routed:(fun _ _ -> ())
    (Traffic.flows (Network.traffic net))

let route_all_load_aware net =
  let traffic = Network.traffic net in
  let total = max 1e-9 (Traffic.total_bandwidth traffic) in
  let by_bw =
    List.sort
      (fun (a : Traffic.flow) b ->
        match compare b.Traffic.bandwidth a.Traffic.bandwidth with
        | 0 -> Ids.Flow.compare a.Traffic.id b.Traffic.id
        | c -> c)
      (Traffic.flows traffic)
  in
  let load = Array.make (Topology.n_links (Network.topology net)) 0. in
  let weight (l : Topology.link) =
    1. +. (load.(Ids.Link.to_int l.Topology.id) /. total)
  in
  let routed (f : Traffic.flow) r =
    List.iter
      (fun c ->
        let k = Ids.Link.to_int (Channel.link c) in
        load.(k) <- load.(k) +. f.Traffic.bandwidth)
      r
  in
  route_flows net ~weight ~routed by_bw
