(* Reference routing: the straightforward per-flow formulation that
   [Noc_model.Routing] must agree with.  Every flow rebuilds the
   best-link table and the switch graph and runs a full Dijkstra, and
   load-aware link loads live in a hash table.  Slow, but each step is
   the definition: among parallel links the smallest weight wins, then
   the smallest link id. *)

open Noc_model
module Paths = Noc_graph.Paths

let best_links topo ~weight =
  let best = Hashtbl.create 64 in
  let consider (l : Topology.link) =
    let key = (Ids.Switch.to_int l.Topology.src, Ids.Switch.to_int l.Topology.dst) in
    let w = weight l in
    match Hashtbl.find_opt best key with
    | Some (w', l') when w' < w || (w' = w && Ids.Link.compare l'.Topology.id l.Topology.id < 0) ->
        ()
    | Some _ | None -> Hashtbl.replace best key (w, l)
  in
  List.iter consider (Topology.links topo);
  best

let route_between topo ~weight ~src ~dst =
  if Ids.Switch.equal src dst then Ok []
  else begin
    let best = best_links topo ~weight in
    let g = Topology.switch_graph topo in
    let edge_weight u v =
      match Hashtbl.find_opt best (u, v) with
      | Some (w, _) -> w
      | None -> infinity
    in
    let dist, parent = Paths.dijkstra g ~weight:edge_weight (Ids.Switch.to_int src) in
    let d = Ids.Switch.to_int dst in
    if dist.(d) = infinity then
      Error
        (Format.asprintf "no path from %a to %a" Ids.Switch.pp src Ids.Switch.pp dst)
    else begin
      let rec channels v acc =
        if v = Ids.Switch.to_int src then acc
        else
          let u = parent.(v) in
          let _, l = Hashtbl.find best (u, v) in
          channels u (Channel.make l.Topology.id 0 :: acc)
      in
      Ok (channels d [])
    end
  end

let route_flow ?(weight = fun (_ : Topology.link) -> 1.) net flow =
  let src, dst = Network.endpoints net flow in
  route_between (Network.topology net) ~weight ~src ~dst

let route_all ?weight net =
  let rec go = function
    | [] -> Ok ()
    | (f : Traffic.flow) :: rest -> (
        match route_flow ?weight net f.Traffic.id with
        | Ok r ->
            Network.set_route net f.Traffic.id r;
            go rest
        | Error e ->
            Error (Format.asprintf "flow %a: %s" Ids.Flow.pp f.Traffic.id e))
  in
  go (Traffic.flows (Network.traffic net))

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
  let load = Hashtbl.create 64 in
  let link_load (l : Topology.link) =
    Option.value ~default:0. (Hashtbl.find_opt load (Ids.Link.to_int l.Topology.id))
  in
  let rec go = function
    | [] -> Ok ()
    | (f : Traffic.flow) :: rest -> (
        let weight l = 1. +. (link_load l /. total) in
        match route_flow ~weight net f.Traffic.id with
        | Ok r ->
            Network.set_route net f.Traffic.id r;
            List.iter
              (fun c ->
                let k = Ids.Link.to_int (Channel.link c) in
                Hashtbl.replace load k
                  (Option.value ~default:0. (Hashtbl.find_opt load k)
                  +. f.Traffic.bandwidth))
              r;
            go rest
        | Error e ->
            Error (Format.asprintf "flow %a: %s" Ids.Flow.pp f.Traffic.id e))
  in
  go by_bw
