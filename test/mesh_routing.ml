(* Mesh routing functions for the Duato tests: dimension-ordered (XY)
   routing on VC 0, and Duato's construction, which routes fully
   adaptively and minimally on VC 1 with an XY escape lane on VC 0 and
   passes [Noc_deadlock.Duato.check] with [escape = (vc = 0)].

   Both assume the [Noc_synth.Regular.mesh] id convention (switch
   [(x, y)] has id [y * columns + x]) and that every mesh link carries
   the VCs offered.  A missing mesh link raises [Invalid_argument] at
   query time. *)

open Noc_model

let link_between topo a b =
  match Topology.find_links topo ~src:a ~dst:b with
  | l :: _ -> l.Topology.id
  | [] ->
      invalid_arg
        (Format.asprintf "Mesh_routing: no link %a -> %a" Ids.Switch.pp a
           Ids.Switch.pp b)

let coord ~columns i = (i mod columns, i / columns)

(* Id of the XY next hop towards dst, if any. *)
let xy_next ~columns at dst =
  let x, y = coord ~columns at and dx, dy = coord ~columns dst in
  if x < dx then Some (at + 1)
  else if x > dx then Some (at - 1)
  else if y < dy then Some (at + columns)
  else if y > dy then Some (at - columns)
  else None

let xy_static ~columns ~rows net =
  ignore rows;
  let topo = Network.topology net in
  Routing_function.make topo (fun ~at ~dst ->
      match xy_next ~columns (Ids.Switch.to_int at) (Ids.Switch.to_int dst) with
      | Some nb ->
          [ Channel.make (link_between topo at (Ids.Switch.of_int nb)) 0 ]
      | None -> [])

let adaptive_with_xy_escape ~columns ~rows net =
  ignore rows;
  let topo = Network.topology net in
  Routing_function.make topo (fun ~at ~dst ->
      let a = Ids.Switch.to_int at and d = Ids.Switch.to_int dst in
      let x, y = coord ~columns a and dx, dy = coord ~columns d in
      let minimal_neighbours =
        List.filter_map
          (fun (l : Topology.link) ->
            let cand = Ids.Switch.to_int l.Topology.dst in
            let cx, cy = coord ~columns cand in
            if abs (dx - cx) + abs (dy - cy) < abs (dx - x) + abs (dy - y) then
              Some cand
            else None)
          (Topology.out_links topo at)
      in
      let adaptive =
        List.map
          (fun nb -> Channel.make (link_between topo at (Ids.Switch.of_int nb)) 1)
          (List.sort_uniq compare minimal_neighbours)
      in
      let escape =
        match xy_next ~columns a d with
        | Some nb -> [ Channel.make (link_between topo at (Ids.Switch.of_int nb)) 0 ]
        | None -> []
      in
      escape @ adaptive)
