open Noc_model
open Noc_power

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let float_c = Alcotest.float 1e-9
let sw = Fixtures.sw

let params = Params.default_65nm

(* ------------------------------------------------------------------ *)
(* Params                                                              *)
(* ------------------------------------------------------------------ *)

let test_link_capacity () =
  (* 1 GHz x 32 bits = 4000 MB/s. *)
  check float_c "capacity" 4000. (Params.link_capacity_mbps params)

let test_params_positive () =
  check bool_c "all coefficients positive" true
    (params.Params.e_buffer_pj_per_bit > 0.
    && params.Params.e_clock_fj_per_bit_cycle > 0.
    && params.Params.a_buffer_um2_per_bit > 0.
    && params.Params.p_leak_buffer_nw_per_bit > 0.)

let test_technology_scaling () =
  let p90 = Params.scaled_90nm and p45 = Params.scaled_45nm in
  check bool_c "dynamic shrinks with the node" true
    (p45.Params.e_buffer_pj_per_bit < params.Params.e_buffer_pj_per_bit
    && params.Params.e_buffer_pj_per_bit < p90.Params.e_buffer_pj_per_bit);
  check bool_c "area shrinks with the node" true
    (p45.Params.a_buffer_um2_per_bit < params.Params.a_buffer_um2_per_bit
    && params.Params.a_buffer_um2_per_bit < p90.Params.a_buffer_um2_per_bit);
  check bool_c "leakage density grows with the node" true
    (p45.Params.p_leak_buffer_nw_per_bit > params.Params.p_leak_buffer_nw_per_bit
    && params.Params.p_leak_buffer_nw_per_bit > p90.Params.p_leak_buffer_nw_per_bit);
  (* End to end: the same design is smaller at 45 nm than at 90 nm. *)
  let net = (Fixtures.paper_ring ()).Fixtures.net in
  let a45 = (Report.of_network ~params:p45 net).Report.total_area_mm2 in
  let a90 = (Report.of_network ~params:p90 net).Report.total_area_mm2 in
  check bool_c "area ordering holds end to end" true (a45 < a90)

(* ------------------------------------------------------------------ *)
(* Switch model                                                        *)
(* ------------------------------------------------------------------ *)

let ring_net () = (Fixtures.paper_ring ()).Fixtures.net

let test_switch_ports () =
  let net = ring_net () in
  let b = Switch_model.analyze params net (Network.loads net) (sw 0) in
  (* Each ring switch: 1 in link + local, 1 out link + local. *)
  check int_c "in ports" 2 b.Switch_model.in_ports;
  check int_c "out ports" 2 b.Switch_model.out_ports;
  check int_c "vc buffers: link + local" 2 b.Switch_model.vc_buffers

let test_switch_power_positive () =
  let net = ring_net () in
  let b = Switch_model.analyze params net (Network.loads net) (sw 0) in
  check bool_c "dynamic > 0 (loaded)" true (b.Switch_model.dynamic_mw > 0.);
  check bool_c "leakage > 0" true (b.Switch_model.leakage_mw > 0.);
  check bool_c "area > 0" true (b.Switch_model.area_um2 > 0.);
  check bool_c "total = sum" true
    (Switch_model.total_mw b
    = b.Switch_model.dynamic_mw +. b.Switch_model.leakage_mw)

let test_vc_increases_static_not_dynamic () =
  let net = ring_net () in
  let before = Switch_model.analyze params net (Network.loads net) (sw 1) in
  (* Add a VC on the link into switch 1 (link L0). *)
  ignore (Topology.add_vc (Network.topology net) (Fixtures.lk 0));
  let after = Switch_model.analyze params net (Network.loads net) (sw 1) in
  check int_c "one more buffer" (before.Switch_model.vc_buffers + 1)
    after.Switch_model.vc_buffers;
  check bool_c "leakage grows" true
    (after.Switch_model.leakage_mw > before.Switch_model.leakage_mw);
  check bool_c "area grows" true
    (after.Switch_model.area_um2 > before.Switch_model.area_um2);
  check float_c "dynamic unchanged (same traffic)" before.Switch_model.dynamic_mw
    after.Switch_model.dynamic_mw

let test_dynamic_scales_with_load () =
  (* Same topology, one network loaded twice as heavily. *)
  let light = (Fixtures.paper_ring ()).Fixtures.net in
  let heavy = (Fixtures.paper_ring ()).Fixtures.net in
  let double (f : Traffic.flow) =
    ignore
      (Traffic.add_flow (Network.traffic heavy) ~src:f.Traffic.src
         ~dst:f.Traffic.dst ~bandwidth:f.Traffic.bandwidth)
  in
  ignore double;
  (* Simpler: scale by replacing routes with double-bandwidth flows is
     invasive; instead compare a loaded switch against an idle one. *)
  let loaded = Switch_model.analyze params light (Network.loads light) (sw 1) in
  let idle_net = (Fixtures.paper_ring ()).Fixtures.net in
  List.iter
    (fun (f, _) -> Network.set_route idle_net f [])
    (Network.routes idle_net);
  let idle = Switch_model.analyze params idle_net (Network.loads idle_net) (sw 1) in
  check bool_c "loaded switch burns more dynamic" true
    (loaded.Switch_model.dynamic_mw > idle.Switch_model.dynamic_mw);
  check float_c "idle dynamic is zero" 0. idle.Switch_model.dynamic_mw

(* ------------------------------------------------------------------ *)
(* Link model                                                          *)
(* ------------------------------------------------------------------ *)

let test_link_power_scales_with_length () =
  let topo = Topology.create ~n_switches:9 in
  (* Switch grid 3x3: 0=(0,0), 8=(2,2). *)
  let short = Topology.add_link topo ~src:(sw 0) ~dst:(sw 1) in
  let long = Topology.add_link topo ~src:(sw 0) ~dst:(sw 8) in
  let traffic = Traffic.create ~n_cores:2 in
  let f1 = Traffic.add_flow traffic ~src:(Fixtures.core 0) ~dst:(Fixtures.core 1) ~bandwidth:100. in
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c ->
        if Ids.Core.to_int c = 0 then sw 0 else sw 1)
  in
  Network.set_route net f1 [ Channel.make short 0 ];
  let fp = Noc_synth.Floorplan.make topo in
  let b_short = Link_model.analyze params fp (Network.loads net) short in
  let b_long = Link_model.analyze params fp (Network.loads net) long in
  check bool_c "longer wire, more area" true
    (b_long.Link_model.area_um2 > b_short.Link_model.area_um2);
  check bool_c "loaded short link burns power" true
    (b_short.Link_model.dynamic_mw > 0.);
  check float_c "idle long link burns nothing" 0. b_long.Link_model.dynamic_mw

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let test_report_totals_consistent () =
  let net = ring_net () in
  let r = Report.of_network net in
  let sum_switch =
    List.fold_left
      (fun acc b -> acc +. Switch_model.total_mw b)
      0. r.Report.switches
  in
  let sum_link =
    List.fold_left (fun acc b -> acc +. b.Link_model.dynamic_mw) 0. r.Report.links
  in
  check (Alcotest.float 1e-6) "total = switches + links"
    (sum_switch +. sum_link) r.Report.total_power_mw;
  check int_c "vc count matches topology" (Topology.total_vcs (Network.topology net))
    r.Report.total_vcs;
  check bool_c "area positive" true (r.Report.total_area_mm2 > 0.)

let test_report_monotone_in_vcs () =
  (* The key property behind Figure 10: more VCs, more power and area,
     all else equal. *)
  let base = ring_net () in
  let more = Network.copy base in
  let topo = Network.topology more in
  List.iter
    (fun (l : Topology.link) -> ignore (Topology.add_vc topo l.Topology.id))
    (Topology.links topo);
  let r_base = Report.of_network base in
  let r_more = Report.of_network more in
  check bool_c "power grows with VCs" true
    (r_more.Report.total_power_mw > r_base.Report.total_power_mw);
  check bool_c "area grows with VCs" true
    (r_more.Report.total_area_mm2 > r_base.Report.total_area_mm2)

let test_report_ordering_costs_more_than_removal () =
  (* End-to-end: the Figure 10 relationship on a real benchmark. *)
  let spec =
    match Noc_benchmarks.Registry.find "D36_8" with
    | Some s -> s
    | None -> Alcotest.fail "missing benchmark"
  in
  let traffic = spec.Noc_benchmarks.Spec.build () in
  let base = Noc_synth.Custom.synthesize_exn traffic ~n_switches:14 in
  let removal = Network.copy base in
  ignore (Noc_deadlock.Removal.run removal);
  let ordering = Network.copy base in
  ignore
    (Noc_deadlock.Resource_ordering.apply
       ~strategy:Noc_deadlock.Resource_ordering.Hop_index ordering);
  let p_removal = (Report.of_network removal).Report.total_power_mw in
  let p_ordering = (Report.of_network ordering).Report.total_power_mw in
  let p_base = (Report.of_network base).Report.total_power_mw in
  check bool_c "ordering > removal" true (p_ordering > p_removal);
  check bool_c "removal >= baseline" true (p_removal >= p_base);
  (* The paper's < 5 % overhead claim. *)
  check bool_c "removal overhead below 5%" true
    ((p_removal -. p_base) /. p_base < 0.05)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_power_monotone_in_single_vc =
  (* Adding one VC anywhere never decreases power or area. *)
  let gen = QCheck.Gen.int_range 0 3 in
  QCheck.Test.make ~name:"adding any single VC never decreases power/area"
    ~count:20
    (QCheck.make ~print:string_of_int gen)
    (fun link_idx ->
      let base = ring_net () in
      let more = Network.copy base in
      ignore (Topology.add_vc (Network.topology more) (Fixtures.lk link_idx));
      let r_base = Report.of_network base in
      let r_more = Report.of_network more in
      r_more.Report.total_power_mw >= r_base.Report.total_power_mw
      && r_more.Report.total_area_mm2 >= r_base.Report.total_area_mm2)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_power_monotone_in_single_vc ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "noc_power"
    [
      ( "params",
        [
          tc "link capacity" test_link_capacity;
          tc "positive" test_params_positive;
          tc "technology scaling" test_technology_scaling;
        ] );
      ( "switch",
        [
          tc "port counting" test_switch_ports;
          tc "power positive" test_switch_power_positive;
          tc "VC raises static, not dynamic" test_vc_increases_static_not_dynamic;
          tc "dynamic scales with load" test_dynamic_scales_with_load;
        ] );
      ("link", [ tc "length and load scaling" test_link_power_scales_with_length ]);
      ( "report",
        [
          tc "totals consistent" test_report_totals_consistent;
          tc "monotone in VCs" test_report_monotone_in_vcs;
          tc "figure-10 relationship" test_report_ordering_costs_more_than_removal;
        ] );
      ("properties", qcheck_cases);
    ]
