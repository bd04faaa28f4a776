type t = {
  n_switches : int;
  n_links : int;
  total_vcs : int;
  n_routed_flows : int;
  avg_hops : float;
  max_hops : int;
  avg_link_load : float;
  max_link_load : float;
  load_imbalance : float;
  switch_connectivity : float;
}

let of_network net =
  let topo = Network.topology net in
  let routes = List.filter (fun (_, r) -> r <> []) (Network.routes net) in
  let n_routed_flows = List.length routes in
  let hop_total = List.fold_left (fun acc (_, r) -> acc + Route.length r) 0 routes in
  let max_hops = List.fold_left (fun acc (_, r) -> max acc (Route.length r)) 0 routes in
  let table = Network.loads net in
  let loads =
    List.filter_map
      (fun (l : Topology.link) ->
        let load = Network.load_on_link table l.Topology.id in
        if load > 0. then Some load else None)
      (Topology.links topo)
  in
  let load_total = List.fold_left ( +. ) 0. loads in
  let max_link_load = List.fold_left max 0. loads in
  let avg_link_load =
    if loads = [] then 0. else load_total /. float_of_int (List.length loads)
  in
  let n = Topology.n_switches topo in
  let connectivity =
    if n < 2 then 1.
    else begin
      let g = Topology.switch_graph topo in
      let reachable_pairs = ref 0 in
      for s = 0 to n - 1 do
        let r = Noc_graph.Traversal.reachable g s in
        Array.iteri (fun d ok -> if ok && d <> s then incr reachable_pairs) r
      done;
      float_of_int !reachable_pairs /. float_of_int (n * (n - 1))
    end
  in
  {
    n_switches = n;
    n_links = Topology.n_links topo;
    total_vcs = Topology.total_vcs topo;
    n_routed_flows;
    avg_hops =
      (if n_routed_flows = 0 then 0.
       else float_of_int hop_total /. float_of_int n_routed_flows);
    max_hops;
    avg_link_load;
    max_link_load;
    load_imbalance =
      (if avg_link_load = 0. then 0. else max_link_load /. avg_link_load);
    switch_connectivity = connectivity;
  }

let pp ppf m =
  Format.fprintf ppf
    "@[<v>%d switches, %d links, %d VCs, %d routed flows@,\
     hops: avg %.2f, max %d@,\
     link load: avg %.1f MB/s, max %.1f MB/s, imbalance %.2f@,\
     switch connectivity: %.0f%%@]"
    m.n_switches m.n_links m.total_vcs m.n_routed_flows m.avg_hops m.max_hops
    m.avg_link_load m.max_link_load m.load_imbalance
    (100. *. m.switch_connectivity)
