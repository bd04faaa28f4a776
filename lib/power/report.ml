open Noc_model

type t = {
  switch_dynamic_mw : float;
  switch_leakage_mw : float;
  link_dynamic_mw : float;
  total_power_mw : float;
  switch_area_mm2 : float;
  link_area_mm2 : float;
  total_area_mm2 : float;
  total_vcs : int;
  switches : Switch_model.breakdown list;
  links : Link_model.breakdown list;
}

let of_network ?(params = Params.default_65nm) net =
  let topo = Network.topology net in
  let floorplan = Noc_synth.Floorplan.make topo in
  let loads = Network.loads net in
  let switches =
    List.init (Topology.n_switches topo) (fun i ->
        Switch_model.analyze params net loads (Ids.Switch.of_int i))
  in
  let links =
    List.map
      (fun (l : Topology.link) ->
        Link_model.analyze params floorplan loads l.Topology.id)
      (Topology.links topo)
  in
  let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs in
  let switch_dynamic_mw = sum (fun b -> b.Switch_model.dynamic_mw) switches in
  let switch_leakage_mw = sum (fun b -> b.Switch_model.leakage_mw) switches in
  let link_dynamic_mw = sum (fun b -> b.Link_model.dynamic_mw) links in
  let switch_area_mm2 = sum (fun b -> b.Switch_model.area_um2) switches /. 1.0e6 in
  let link_area_mm2 = sum (fun b -> b.Link_model.area_um2) links /. 1.0e6 in
  {
    switch_dynamic_mw;
    switch_leakage_mw;
    link_dynamic_mw;
    total_power_mw = switch_dynamic_mw +. switch_leakage_mw +. link_dynamic_mw;
    switch_area_mm2;
    link_area_mm2;
    total_area_mm2 = switch_area_mm2 +. link_area_mm2;
    total_vcs = Topology.total_vcs topo;
    switches;
    links;
  }

let pp_summary ppf r =
  Format.fprintf ppf
    "power %.3f mW (switch dyn %.3f + leak %.3f + links %.3f), area %.4f mm^2, %d VCs"
    r.total_power_mw r.switch_dynamic_mw r.switch_leakage_mw r.link_dynamic_mw
    r.total_area_mm2 r.total_vcs

let pp ppf r =
  Format.fprintf ppf "@[<v>%a" pp_summary r;
  List.iter
    (fun b -> Format.fprintf ppf "@,  %a" Switch_model.pp_breakdown b)
    r.switches;
  List.iter (fun b -> Format.fprintf ppf "@,  %a" Link_model.pp_breakdown b) r.links;
  Format.fprintf ppf "@]"
