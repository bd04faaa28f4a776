let topology ?(name = "topology") net =
  let topo = Network.topology net in
  (* Render through a plain digraph over switch ids, adding one edge
     per link via the edge-attribute hook keyed on (src, dst).  DOT
     collapses parallel edges only if we let it, so links are emitted
     directly instead. *)
  let loads = Network.loads net in
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "digraph \"%s\" {\n" name);
  for s = 0 to Topology.n_switches topo - 1 do
    Buffer.add_string b (Printf.sprintf "  s%d [label=\"sw%d\", shape=box];\n" s s)
  done;
  List.iter
    (fun (l : Topology.link) ->
      let vcs = Topology.vc_count topo l.Topology.id in
      let load = Network.load_on_link loads l.Topology.id in
      Buffer.add_string b
        (Printf.sprintf "  s%d -> s%d [label=\"L%d (%d VC, %.0f MB/s)\"%s];\n"
           (Ids.Switch.to_int l.Topology.src)
           (Ids.Switch.to_int l.Topology.dst)
           (Ids.Link.to_int l.Topology.id)
           vcs load
           (if vcs > 1 then ", color=\"red\"" else "")))
    (Topology.links topo);
  Buffer.add_string b "}\n";
  Buffer.contents b

let topology_heatmap ?(name = "utilization") ~utilization net =
  let topo = Network.topology net in
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "digraph \"%s\" {\n" name);
  for s = 0 to Topology.n_switches topo - 1 do
    Buffer.add_string b (Printf.sprintf "  s%d [label=\"sw%d\", shape=box];\n" s s)
  done;
  let colour u =
    (* Grey -> orange -> red as the link heats up. *)
    if u <= 0.01 then "gray70"
    else if u < 0.3 then "darkgreen"
    else if u < 0.6 then "orange"
    else "red"
  in
  List.iter
    (fun (l : Topology.link) ->
      let u = max 0. (min 1. (utilization l.Topology.id)) in
      Buffer.add_string b
        (Printf.sprintf
           "  s%d -> s%d [label=\"L%d %.0f%%\", color=\"%s\", penwidth=\"%.1f\"];\n"
           (Ids.Switch.to_int l.Topology.src)
           (Ids.Switch.to_int l.Topology.dst)
           (Ids.Link.to_int l.Topology.id)
           (100. *. u) (colour u)
           (1. +. (4. *. u))))
    (Topology.links topo);
  Buffer.add_string b "}\n";
  Buffer.contents b

let cdg ?(name = "cdg") net =
  let cdg = Cdg.build net in
  let cycle_set =
    match Cdg.smallest_cycle cdg with
    | Some cycle -> Channel.Set.of_list cycle
    | None -> Channel.Set.empty
  in
  let label v = Format.asprintf "%a" Channel.pp (Cdg.channel_of_vertex cdg v) in
  let vertex_attrs v =
    if Channel.Set.mem (Cdg.channel_of_vertex cdg v) cycle_set then
      [ ("color", "red"); ("fontcolor", "red") ]
    else []
  in
  let edge_attrs u v =
    let cu = Cdg.channel_of_vertex cdg u and cv = Cdg.channel_of_vertex cdg v in
    if Channel.Set.mem cu cycle_set && Channel.Set.mem cv cycle_set then
      [ ("color", "red") ]
    else []
  in
  Noc_graph.Dot.render ~name ~vertex_label:label ~vertex_attrs ~edge_attrs
    (Cdg.graph cdg)
