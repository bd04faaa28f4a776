type link_usage = {
  link : Ids.Link.t;
  load_mbps : float;
  utilization : float;
  flows : Ids.Flow.t list;
}

type t = {
  capacity_mbps : float;
  usages : link_usage list;
  feasible : bool;
  worst : link_usage option;
}

let analyze ~capacity_mbps net =
  if capacity_mbps <= 0. then invalid_arg "Bandwidth.analyze: capacity <= 0";
  let topo = Network.topology net in
  let loads = Network.loads net in
  let usage (l : Topology.link) =
    let load_mbps = Network.load_on_link loads l.Topology.id in
    {
      link = l.Topology.id;
      load_mbps;
      utilization = load_mbps /. capacity_mbps;
      flows = Network.flows_on_link loads l.Topology.id;
    }
  in
  let usages = List.map usage (Topology.links topo) in
  let worst =
    List.fold_left
      (fun best u ->
        match best with
        | Some b when b.utilization >= u.utilization -> best
        | Some _ | None -> if u.load_mbps > 0. then Some u else best)
      None usages
  in
  {
    capacity_mbps;
    usages;
    feasible = List.for_all (fun u -> u.utilization <= 1.0) usages;
    worst;
  }

let oversubscribed t =
  List.filter (fun u -> u.utilization > 1.0) t.usages
  |> List.sort (fun a b -> compare b.utilization a.utilization)

let pp ppf t =
  Format.fprintf ppf "bandwidth at %.0f MB/s per link: %s" t.capacity_mbps
    (if t.feasible then "feasible" else "OVERSUBSCRIBED");
  (match t.worst with
  | Some w ->
      Format.fprintf ppf " (worst: %a at %.0f%%, %d flows)" Ids.Link.pp w.link
        (100. *. w.utilization)
        (List.length w.flows)
  | None -> ());
  List.iter
    (fun u ->
      Format.fprintf ppf "@.  %a: %.0f MB/s (%.0f%%)" Ids.Link.pp u.link
        u.load_mbps
        (100. *. u.utilization))
    (oversubscribed t)
