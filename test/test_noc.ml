open Noc_model
open Noc_oracle

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let str_c = Alcotest.string
let sw = Fixtures.sw
let core = Fixtures.core
let ch = Fixtures.ch

let fmt_to_string pp v = Format.asprintf "%a" pp v

(* ------------------------------------------------------------------ *)
(* Ids and channels                                                    *)
(* ------------------------------------------------------------------ *)

let test_id_roundtrip () =
  check int_c "switch roundtrip" 7 (Ids.Switch.to_int (Ids.Switch.of_int 7));
  check int_c "flow roundtrip" 3 (Ids.Flow.to_int (Ids.Flow.of_int 3));
  check bool_c "equal" true (Ids.Core.equal (core 2) (core 2));
  check bool_c "not equal" false (Ids.Link.equal (Fixtures.lk 1) (Fixtures.lk 2))

let test_id_negative_rejected () =
  Alcotest.check_raises "negative id"
    (Invalid_argument "sw id must be non-negative") (fun () ->
      ignore (Ids.Switch.of_int (-1)))

let test_id_pp () =
  check str_c "switch" "sw3" (fmt_to_string Ids.Switch.pp (sw 3));
  check str_c "flow" "F0" (fmt_to_string Ids.Flow.pp (Ids.Flow.of_int 0))

let test_channel_make () =
  let c = Channel.make (Fixtures.lk 2) 1 in
  check int_c "link" 2 (Ids.Link.to_int (Channel.link c));
  check int_c "vc" 1 (Channel.vc c);
  Alcotest.check_raises "negative vc"
    (Invalid_argument "Channel.make: negative VC index") (fun () ->
      ignore (Channel.make (Fixtures.lk 0) (-1)))

let test_channel_compare_order () =
  let a = ch 0 and b = ch ~vc:1 0 and c = ch 1 in
  check bool_c "same link, vc orders" true (Channel.compare a b < 0);
  check bool_c "link dominates" true (Channel.compare b c < 0);
  check bool_c "equal" true (Channel.equal a (ch 0))

let test_channel_pp_primed () =
  check str_c "vc0 plain" "L3" (fmt_to_string Channel.pp (ch 3));
  check str_c "vc1 primed" "L3'" (fmt_to_string Channel.pp (ch ~vc:1 3));
  check str_c "vc2 numbered" "L3'2" (fmt_to_string Channel.pp (ch ~vc:2 3))

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)
(* ------------------------------------------------------------------ *)

let test_topology_create_invalid () =
  Alcotest.check_raises "zero switches"
    (Invalid_argument "Topology.create: need at least one switch") (fun () ->
      ignore (Topology.create ~n_switches:0))

let test_topology_links () =
  let t = Topology.create ~n_switches:3 in
  let l0 = Topology.add_link t ~src:(sw 0) ~dst:(sw 1) in
  let l1 = Topology.add_link t ~src:(sw 1) ~dst:(sw 2) in
  check int_c "two links" 2 (Topology.n_links t);
  check int_c "dense ids" 1 (Ids.Link.to_int l1);
  let info = Topology.link t l0 in
  check int_c "src" 0 (Ids.Switch.to_int info.Topology.src);
  check int_c "dst" 1 (Ids.Switch.to_int info.Topology.dst)

let test_topology_self_loop_rejected () =
  let t = Topology.create ~n_switches:2 in
  Alcotest.check_raises "self loop" (Invalid_argument "Topology.add_link: self-loop")
    (fun () -> ignore (Topology.add_link t ~src:(sw 1) ~dst:(sw 1)))

let test_topology_unknown_switch () =
  let t = Topology.create ~n_switches:2 in
  Alcotest.check_raises "range"
    (Invalid_argument "Topology.add_link: switch 5 out of range") (fun () ->
      ignore (Topology.add_link t ~src:(sw 5) ~dst:(sw 0)))

let test_topology_vcs () =
  let t = Topology.create ~n_switches:2 in
  let l = Topology.add_link t ~src:(sw 0) ~dst:(sw 1) in
  check int_c "one vc initially" 1 (Topology.vc_count t l);
  check int_c "new index" 1 (Topology.add_vc t l);
  check int_c "new index 2" 2 (Topology.add_vc t l);
  check int_c "count" 3 (Topology.vc_count t l);
  check int_c "total" 3 (Topology.total_vcs t);
  check int_c "extra" 2 (Topology.extra_vcs t)

let test_topology_channels_list () =
  let t = Topology.create ~n_switches:2 in
  let l0 = Topology.add_link t ~src:(sw 0) ~dst:(sw 1) in
  let _l1 = Topology.add_link t ~src:(sw 1) ~dst:(sw 0) in
  ignore (Topology.add_vc t l0);
  let cs = Topology.channels t in
  check int_c "3 channels" 3 (List.length cs);
  check str_c "ordering" "L0,L0',L1"
    (String.concat "," (List.map (fmt_to_string Channel.pp) cs))

let test_topology_adjacency () =
  let t = Topology.create ~n_switches:3 in
  let _ = Topology.add_link t ~src:(sw 0) ~dst:(sw 1) in
  let _ = Topology.add_link t ~src:(sw 0) ~dst:(sw 2) in
  let _ = Topology.add_link t ~src:(sw 1) ~dst:(sw 0) in
  check int_c "out of 0" 2 (List.length (Topology.out_links t (sw 0)));
  check int_c "in of 0" 1 (List.length (Topology.in_links t (sw 0)));
  check int_c "degree 0" 3 (Topology.degree t (sw 0));
  check int_c "parallel none" 0
    (List.length (Topology.find_links t ~src:(sw 1) ~dst:(sw 2)))

let test_topology_parallel_links () =
  let t = Topology.create ~n_switches:2 in
  let _ = Topology.add_link t ~src:(sw 0) ~dst:(sw 1) in
  let _ = Topology.add_link t ~src:(sw 0) ~dst:(sw 1) in
  check int_c "parallel allowed" 2
    (List.length (Topology.find_links t ~src:(sw 0) ~dst:(sw 1)))

let test_topology_connectivity () =
  let t = Topology.create ~n_switches:3 in
  let _ = Topology.add_link t ~src:(sw 0) ~dst:(sw 1) in
  check bool_c "disconnected" false (Topology.is_connected t);
  let _ = Topology.add_link t ~src:(sw 2) ~dst:(sw 0) in
  check bool_c "weakly connected" true (Topology.is_connected t)

let test_topology_switch_graph () =
  let t = Topology.create ~n_switches:3 in
  let _ = Topology.add_link t ~src:(sw 0) ~dst:(sw 1) in
  let _ = Topology.add_link t ~src:(sw 0) ~dst:(sw 1) in
  let g = Topology.switch_graph t in
  check int_c "3 vertices" 3 (Noc_graph.Digraph.n_vertices g);
  check int_c "parallel collapsed" 1 (Noc_graph.Digraph.n_edges g)

let test_topology_copy_independent () =
  let t = Topology.create ~n_switches:2 in
  let l = Topology.add_link t ~src:(sw 0) ~dst:(sw 1) in
  let t' = Topology.copy t in
  ignore (Topology.add_vc t' l);
  check int_c "original untouched" 1 (Topology.vc_count t l);
  check int_c "copy grew" 2 (Topology.vc_count t' l)

(* ------------------------------------------------------------------ *)
(* Traffic                                                             *)
(* ------------------------------------------------------------------ *)

let test_traffic_flows () =
  let t = Traffic.create ~n_cores:3 in
  let f0 = Traffic.add_flow t ~src:(core 0) ~dst:(core 1) ~bandwidth:10. in
  let _ = Traffic.add_flow t ~src:(core 0) ~dst:(core 2) ~bandwidth:20. in
  check int_c "two flows" 2 (Traffic.n_flows t);
  check (Alcotest.float 1e-9) "total bw" 30. (Traffic.total_bandwidth t);
  let f = Traffic.flow t f0 in
  check int_c "dst" 1 (Ids.Core.to_int f.Traffic.dst);
  check int_c "from core0" 2 (List.length (Traffic.flows_from t (core 0)));
  check int_c "to core2" 1 (List.length (Traffic.flows_to t (core 2)))

let test_traffic_rejections () =
  let t = Traffic.create ~n_cores:2 in
  Alcotest.check_raises "self flow" (Invalid_argument "Traffic.add_flow: self-flow")
    (fun () -> ignore (Traffic.add_flow t ~src:(core 0) ~dst:(core 0) ~bandwidth:1.));
  Alcotest.check_raises "zero bw"
    (Invalid_argument "Traffic.add_flow: non-positive bandwidth") (fun () ->
      ignore (Traffic.add_flow t ~src:(core 0) ~dst:(core 1) ~bandwidth:0.))

let test_traffic_demand () =
  let t = Traffic.create ~n_cores:2 in
  let _ = Traffic.add_flow t ~src:(core 0) ~dst:(core 1) ~bandwidth:5. in
  let _ = Traffic.add_flow t ~src:(core 0) ~dst:(core 1) ~bandwidth:7. in
  check (Alcotest.float 1e-9) "summed" 12. (Traffic.demand_between t (core 0) (core 1));
  check (Alcotest.float 1e-9) "reverse empty" 0.
    (Traffic.demand_between t (core 1) (core 0))

(* ------------------------------------------------------------------ *)
(* Routes                                                              *)
(* ------------------------------------------------------------------ *)

let ring_topo () =
  let t = Topology.create ~n_switches:4 in
  for i = 0 to 3 do
    ignore (Topology.add_link t ~src:(sw i) ~dst:(sw ((i + 1) mod 4)))
  done;
  t

let test_route_check_ok () =
  let t = ring_topo () in
  check bool_c "valid 2-hop" true
    (Route.check t ~src:(sw 0) ~dst:(sw 2) [ ch 0; ch 1 ] = Ok ())

let test_route_check_empty () =
  let t = ring_topo () in
  check bool_c "same switch empty ok" true
    (Route.check t ~src:(sw 1) ~dst:(sw 1) [] = Ok ());
  check bool_c "distinct empty bad" true
    (Result.is_error (Route.check t ~src:(sw 0) ~dst:(sw 1) []))

let test_route_check_discontinuous () =
  let t = ring_topo () in
  check bool_c "gap detected" true
    (Result.is_error (Route.check t ~src:(sw 0) ~dst:(sw 3) [ ch 0; ch 2 ]))

let test_route_check_wrong_endpoints () =
  let t = ring_topo () in
  check bool_c "wrong start" true
    (Result.is_error (Route.check t ~src:(sw 1) ~dst:(sw 2) [ ch 0; ch 1 ]));
  check bool_c "wrong end" true
    (Result.is_error (Route.check t ~src:(sw 0) ~dst:(sw 3) [ ch 0; ch 1 ]))

let test_route_check_bad_vc () =
  let t = ring_topo () in
  check bool_c "vc out of range" true
    (Result.is_error (Route.check t ~src:(sw 0) ~dst:(sw 1) [ ch ~vc:1 0 ]))

let test_route_check_repeat () =
  let t = ring_topo () in
  (* 0->1->2->3->0->1 repeats channel L0. *)
  check bool_c "repeat rejected" true
    (Result.is_error
       (Route.check t ~src:(sw 0) ~dst:(sw 1) [ ch 0; ch 1; ch 2; ch 3; ch 0 ]))

let test_route_pairs () =
  let r = [ ch 0; ch 1; ch 2 ] in
  check int_c "pairs" 2 (List.length (Route.consecutive_pairs r));
  check int_c "no pairs" 0 (List.length (Route.consecutive_pairs [ ch 0 ]));
  check bool_c "uses channel" true (Route.uses_channel r (ch 1));
  check bool_c "vc distinguishes" false (Route.uses_channel r (ch ~vc:1 1))

(* ------------------------------------------------------------------ *)
(* Network                                                             *)
(* ------------------------------------------------------------------ *)

let test_network_mapping_checked () =
  let topo = Topology.create ~n_switches:2 in
  let traffic = Traffic.create ~n_cores:1 in
  Alcotest.check_raises "mapping range"
    (Invalid_argument "Network.make: core 0 mapped to unknown switch 9") (fun () ->
      ignore (Network.make ~topology:topo ~traffic ~mapping:(fun _ -> sw 9)))

let test_network_routes_roundtrip () =
  let ring = Fixtures.paper_ring () in
  let f1 = ring.Fixtures.flows.(0) in
  check int_c "route length" 3 (Route.length (Network.route ring.Fixtures.net f1));
  check int_c "all routes" 4 (List.length (Network.routes ring.Fixtures.net))

let test_network_endpoints () =
  let ring = Fixtures.paper_ring () in
  let src, dst = Network.endpoints ring.Fixtures.net ring.Fixtures.flows.(1) in
  check int_c "src switch" 2 (Ids.Switch.to_int src);
  check int_c "dst switch" 0 (Ids.Switch.to_int dst)

let test_network_loads () =
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  (* L0 (the paper's L1) carries F1, F3 and F4, 100 MB/s each. *)
  check (Alcotest.float 1e-9) "channel load" 300. (Network.channel_load net (ch 0));
  let loads = Network.loads net in
  check (Alcotest.float 1e-9) "link load" 300.
    (Network.load_on_link loads (Fixtures.lk 0));
  check (Alcotest.float 1e-9) "other vc empty" 0.
    (Network.channel_load net (ch ~vc:1 0));
  let flow_ids l =
    List.map Ids.Flow.to_int (Network.flows_on_link loads (Fixtures.lk l))
  in
  check Alcotest.(list int) "flows on L0, id order" [ 0; 2; 3 ] (flow_ids 0);
  check Alcotest.(list int) "flows on L3" [ 1; 2 ] (flow_ids 3);
  (* F0 and F3 start at switch 0, F1 at 2, F2 at 3. *)
  check (Alcotest.float 1e-9) "injected at 0" 200. (Network.injected_at loads (sw 0));
  check (Alcotest.float 1e-9) "injected at 1" 0. (Network.injected_at loads (sw 1));
  check (Alcotest.float 1e-9) "injected at 3" 100. (Network.injected_at loads (sw 3))

let test_network_load_counts_flow_once_per_link () =
  (* F0 crosses L0 on two VCs: the link carries it once, as a scan of
     the flows asking "does the route touch L0?" would count it. *)
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  ignore (Topology.add_vc (Network.topology net) (Fixtures.lk 0));
  Network.set_route net ring.Fixtures.flows.(0) [ ch 0; ch ~vc:1 0; ch 1; ch 2 ];
  let loads = Network.loads net in
  check (Alcotest.float 1e-9) "counted once" 300.
    (Network.load_on_link loads (Fixtures.lk 0));
  check Alcotest.(list int) "listed once" [ 0; 2; 3 ]
    (List.map Ids.Flow.to_int (Network.flows_on_link loads (Fixtures.lk 0)))

let test_network_copy_isolated () =
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  let net' = Network.copy net in
  Network.set_route net' ring.Fixtures.flows.(0) [];
  ignore (Topology.add_vc (Network.topology net') (Fixtures.lk 0));
  check int_c "route preserved" 3
    (Route.length (Network.route net ring.Fixtures.flows.(0)));
  check int_c "vcs preserved" 1 (Topology.vc_count (Network.topology net) (Fixtures.lk 0))

(* ------------------------------------------------------------------ *)
(* CDG                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cdg_paper_example () =
  let ring = Fixtures.paper_ring () in
  let cdg = Cdg.build ring.Fixtures.net in
  check int_c "4 channels" 4 (Cdg.n_channels cdg);
  check int_c "4 dependencies" 4 (Noc_graph.Digraph.n_edges (Cdg.graph cdg));
  check bool_c "cyclic" false (Cdg.is_deadlock_free cdg);
  match Cdg.smallest_cycle cdg with
  | None -> Alcotest.fail "expected the ring cycle"
  | Some cycle -> check int_c "cycle length 4" 4 (List.length cycle)

let test_cdg_dependency_flows () =
  let ring = Fixtures.paper_ring () in
  let cdg = Cdg.build ring.Fixtures.net in
  let flows = Cdg.flows_on_dependency cdg ~src:(ch 0) ~dst:(ch 1) in
  (* L1 -> L2 is created by F1 and F4 (paper numbering). *)
  check int_c "two flows" 2 (List.length flows);
  check bool_c "F1 there" true
    (List.exists (Ids.Flow.equal ring.Fixtures.flows.(0)) flows);
  check bool_c "F4 there" true
    (List.exists (Ids.Flow.equal ring.Fixtures.flows.(3)) flows);
  check int_c "absent edge empty" 0
    (List.length (Cdg.flows_on_dependency cdg ~src:(ch 1) ~dst:(ch 0)))

let test_cdg_acyclic_mesh () =
  let net = Fixtures.xy_mesh_2x2 () in
  Fixtures.check_valid "xy mesh" net;
  let cdg = Cdg.build net in
  check bool_c "XY routing deadlock-free" true (Cdg.is_deadlock_free cdg);
  check bool_c "no cycle found" true (Cdg.smallest_cycle cdg = None)

let test_cdg_includes_unused_channels () =
  let ring = Fixtures.paper_ring () in
  ignore (Topology.add_vc (Network.topology ring.Fixtures.net) (Fixtures.lk 0));
  let cdg = Cdg.build ring.Fixtures.net in
  check int_c "5 channels now" 5 (Cdg.n_channels cdg);
  check int_c "still 4 deps" 4 (Noc_graph.Digraph.n_edges (Cdg.graph cdg))

let test_cdg_cycles_enumeration () =
  let ring = Fixtures.paper_ring () in
  let cdg = Cdg.build ring.Fixtures.net in
  check int_c "exactly one elementary cycle" 1 (List.length (Cdg.cycles cdg))

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)
(* ------------------------------------------------------------------ *)

let test_routing_min_hop () =
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  (match Routing.route_flow net ring.Fixtures.flows.(0) with
  | Ok r -> check int_c "3 hops around the ring" 3 (Route.length r)
  | Error e -> Alcotest.fail e);
  match Routing.route_all net with
  | Ok () -> Fixtures.check_valid "rerouted ring" net
  | Error e -> Alcotest.fail e

let test_routing_unreachable () =
  let topo = Topology.create ~n_switches:2 in
  let traffic = Traffic.create ~n_cores:2 in
  let f = Traffic.add_flow traffic ~src:(core 0) ~dst:(core 1) ~bandwidth:1. in
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c -> sw (Ids.Core.to_int c))
  in
  check bool_c "no path reported" true (Result.is_error (Routing.route_flow net f));
  check bool_c "route_all propagates" true (Result.is_error (Routing.route_all net))

let test_routing_same_switch () =
  let topo = Topology.create ~n_switches:1 in
  let traffic = Traffic.create ~n_cores:2 in
  let f = Traffic.add_flow traffic ~src:(core 0) ~dst:(core 1) ~bandwidth:1. in
  let net = Network.make ~topology:topo ~traffic ~mapping:(fun _ -> sw 0) in
  match Routing.route_flow net f with
  | Ok r -> check int_c "empty route" 0 (Route.length r)
  | Error e -> Alcotest.fail e

let test_routing_load_aware_spreads () =
  (* Two parallel 2-hop paths between 0 and 3; two heavy flows should
     not pile on one path. *)
  let topo = Topology.create ~n_switches:4 in
  let _ = Topology.add_link topo ~src:(sw 0) ~dst:(sw 1) in
  let _ = Topology.add_link topo ~src:(sw 1) ~dst:(sw 3) in
  let _ = Topology.add_link topo ~src:(sw 0) ~dst:(sw 2) in
  let _ = Topology.add_link topo ~src:(sw 2) ~dst:(sw 3) in
  let traffic = Traffic.create ~n_cores:2 in
  let fa = Traffic.add_flow traffic ~src:(core 0) ~dst:(core 1) ~bandwidth:100. in
  let fb = Traffic.add_flow traffic ~src:(core 0) ~dst:(core 1) ~bandwidth:90. in
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c ->
        if Ids.Core.to_int c = 0 then sw 0 else sw 3)
  in
  (match Routing.route_all_load_aware net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Fixtures.check_valid "load aware" net;
  let ra = Route.links (Network.route net fa) in
  let rb = Route.links (Network.route net fb) in
  check bool_c "disjoint paths" true
    (List.for_all (fun l -> not (List.exists (Ids.Link.equal l) rb)) ra)

(* ------------------------------------------------------------------ *)
(* Validate                                                            *)
(* ------------------------------------------------------------------ *)

let test_validate_ok () =
  let ring = Fixtures.paper_ring () in
  check bool_c "paper ring valid" true (Validate.is_valid ring.Fixtures.net)

let test_validate_missing_route () =
  let ring = Fixtures.paper_ring () in
  Network.set_route ring.Fixtures.net ring.Fixtures.flows.(2) [];
  let issues = Validate.check ring.Fixtures.net in
  check int_c "one issue" 1 (List.length issues)

(* A hop on a link the topology does not declare is a route issue of
   its flow, reported beside the other flows' issues, not a raise. *)
let test_validate_undeclared_link () =
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  Network.set_route net ring.Fixtures.flows.(0) [ ch 7 ];
  Network.set_route net ring.Fixtures.flows.(2) [];
  match Validate.check net with
  | [ unknown; missing ] ->
      check str_c "undeclared link"
        "NOC-ROUTE-002 F0: channel L7 is on a link the topology does not \
         declare"
        (fmt_to_string Validate.pp_issue unknown);
      check str_c "other flows still checked" "NOC-ROUTE-001"
        missing.Validate.code.Diag_code.code
  | issues -> Alcotest.failf "expected two issues, got %d" (List.length issues)

let test_validate_routes_equivalent () =
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  let net' = Network.copy net in
  check bool_c "identical" true (Validate.routes_equivalent ~before:net ~after:net');
  (* Moving a flow to another VC of the same links keeps equivalence. *)
  ignore (Topology.add_vc (Network.topology net') (Fixtures.lk 0));
  Network.set_route net' ring.Fixtures.flows.(3) [ ch ~vc:1 0; ch 1 ];
  check bool_c "vc change ok" true (Validate.routes_equivalent ~before:net ~after:net');
  (* Changing physical links breaks it. *)
  Network.set_route net' ring.Fixtures.flows.(3) [ ch 0 ];
  check bool_c "physical change detected" false
    (Validate.routes_equivalent ~before:net ~after:net')

(* ------------------------------------------------------------------ *)
(* Routing functions                                                   *)
(* ------------------------------------------------------------------ *)

let test_rf_of_static_routes () =
  let ring = Fixtures.paper_ring () in
  let rf = Routing_function.of_static_routes ring.Fixtures.net in
  (* F1 (core0 -> core3) uses L0 at sw0. *)
  let opts = Routing_function.options rf ~at:(sw 0) ~dst:(sw 3) in
  check int_c "one option" 1 (List.length opts);
  check bool_c "it is L0" true (Channel.equal (List.hd opts) (ch 0));
  (* No flow from sw1 to sw0 exists, so no options there. *)
  check int_c "no options elsewhere" 0
    (List.length (Routing_function.options rf ~at:(sw 1) ~dst:(sw 0)));
  check int_c "empty at destination" 0
    (List.length (Routing_function.options rf ~at:(sw 3) ~dst:(sw 3)))

let test_rf_minimal_adaptive_diamond () =
  (* Two equal-length paths 0->3: the adaptive function offers both
     first hops. *)
  let topo = Topology.create ~n_switches:4 in
  let _ = Topology.add_link topo ~src:(sw 0) ~dst:(sw 1) in
  let _ = Topology.add_link topo ~src:(sw 1) ~dst:(sw 3) in
  let _ = Topology.add_link topo ~src:(sw 0) ~dst:(sw 2) in
  let _ = Topology.add_link topo ~src:(sw 2) ~dst:(sw 3) in
  let traffic = Traffic.create ~n_cores:2 in
  let _ = Traffic.add_flow traffic ~src:(core 0) ~dst:(core 1) ~bandwidth:1. in
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c ->
        if Ids.Core.to_int c = 0 then sw 0 else sw 3)
  in
  let rf = Routing_function.minimal_adaptive net in
  check int_c "both first hops" 2
    (List.length (Routing_function.options rf ~at:(sw 0) ~dst:(sw 3)));
  check int_c "one hop from 1" 1
    (List.length (Routing_function.options rf ~at:(sw 1) ~dst:(sw 3)))

let test_rf_minimal_adaptive_vcs () =
  let ring = Fixtures.paper_ring () in
  ignore (Topology.add_vc (Network.topology ring.Fixtures.net) (Fixtures.lk 0));
  let rf = Routing_function.minimal_adaptive ring.Fixtures.net in
  check int_c "both VCs offered" 2
    (List.length (Routing_function.options rf ~at:(sw 0) ~dst:(sw 1)));
  let rf0 = Routing_function.minimal_adaptive ~all_vcs:false ring.Fixtures.net in
  check int_c "vc0 only" 1
    (List.length (Routing_function.options rf0 ~at:(sw 0) ~dst:(sw 1)))

let test_rf_make_validates () =
  let ring = Fixtures.paper_ring () in
  let topo = Network.topology ring.Fixtures.net in
  (* L1 leaves sw1, not sw0: querying must blow up. *)
  let bogus = Routing_function.make topo (fun ~at:_ ~dst:_ -> [ ch 1 ]) in
  check bool_c "invalid channel rejected" true
    (try
       ignore (Routing_function.options bogus ~at:(sw 0) ~dst:(sw 2));
       false
     with Invalid_argument _ -> true)

let test_rf_restrict_and_connectivity () =
  let ring = Fixtures.paper_ring () in
  let rf = Routing_function.of_static_routes ring.Fixtures.net in
  check bool_c "full function connected" true
    (Routing_function.is_connected rf ring.Fixtures.net = Ok ());
  let empty = Routing_function.restrict rf ~keep:(fun _ -> false) in
  check bool_c "empty restriction stranded" true
    (Result.is_error (Routing_function.is_connected empty ring.Fixtures.net))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_ring () =
  let ring = Fixtures.paper_ring () in
  let m = Metrics.of_network ring.Fixtures.net in
  check int_c "switches" 4 m.Metrics.n_switches;
  check int_c "links" 4 m.Metrics.n_links;
  check int_c "routed flows" 4 m.Metrics.n_routed_flows;
  (* Routes: 3 + 2 + 2 + 2 hops = 9/4. *)
  check (Alcotest.float 1e-9) "avg hops" 2.25 m.Metrics.avg_hops;
  check int_c "max hops" 3 m.Metrics.max_hops;
  check (Alcotest.float 1e-9) "connectivity" 1.0 m.Metrics.switch_connectivity;
  check bool_c "imbalance >= 1" true (m.Metrics.load_imbalance >= 1.)

let test_metrics_unrouted () =
  let ring = Fixtures.paper_ring () in
  List.iter
    (fun (f, _) -> Network.set_route ring.Fixtures.net f [])
    (Network.routes ring.Fixtures.net);
  let m = Metrics.of_network ring.Fixtures.net in
  check int_c "no routed flows" 0 m.Metrics.n_routed_flows;
  check (Alcotest.float 1e-9) "avg hops zero" 0. m.Metrics.avg_hops;
  check (Alcotest.float 1e-9) "imbalance zero" 0. m.Metrics.load_imbalance

(* ------------------------------------------------------------------ *)
(* Bandwidth feasibility                                               *)
(* ------------------------------------------------------------------ *)

let test_bandwidth_feasible () =
  let ring = Fixtures.paper_ring () in
  (* Heaviest link (L0) carries 300 MB/s. *)
  let b = Bandwidth.analyze ~capacity_mbps:400. ring.Fixtures.net in
  check bool_c "feasible at 400" true b.Bandwidth.feasible;
  (match b.Bandwidth.worst with
  | Some w ->
      check int_c "worst is L0" 0 (Ids.Link.to_int w.Bandwidth.link);
      check (Alcotest.float 1e-9) "75% utilization" 0.75 w.Bandwidth.utilization;
      check int_c "three flows on it" 3 (List.length w.Bandwidth.flows)
  | None -> Alcotest.fail "expected a loaded link");
  check int_c "nothing oversubscribed" 0 (List.length (Bandwidth.oversubscribed b))

let test_bandwidth_oversubscribed () =
  let ring = Fixtures.paper_ring () in
  let b = Bandwidth.analyze ~capacity_mbps:250. ring.Fixtures.net in
  check bool_c "infeasible at 250" false b.Bandwidth.feasible;
  match Bandwidth.oversubscribed b with
  | w :: _ -> check bool_c "over 100%" true (w.Bandwidth.utilization > 1.0)
  | [] -> Alcotest.fail "expected an oversubscribed link"

let test_bandwidth_validation () =
  let ring = Fixtures.paper_ring () in
  Alcotest.check_raises "capacity" (Invalid_argument "Bandwidth.analyze: capacity <= 0")
    (fun () -> ignore (Bandwidth.analyze ~capacity_mbps:0. ring.Fixtures.net))

(* ------------------------------------------------------------------ *)
(* Io                                                                  *)
(* ------------------------------------------------------------------ *)

let same_design a b =
  Topology.n_switches (Network.topology a) = Topology.n_switches (Network.topology b)
  && Topology.n_links (Network.topology a) = Topology.n_links (Network.topology b)
  && Topology.total_vcs (Network.topology a) = Topology.total_vcs (Network.topology b)
  && Traffic.n_flows (Network.traffic a) = Traffic.n_flows (Network.traffic b)
  && List.for_all2
       (fun (fa, ra) (fb, rb) ->
         Ids.Flow.equal fa fb
         && List.length ra = List.length rb
         && List.for_all2 Channel.equal ra rb)
       (Network.routes a) (Network.routes b)

let test_io_roundtrip_ring () =
  let ring = Fixtures.paper_ring () in
  let text = Io.save ring.Fixtures.net in
  match Io.load text with
  | Ok net -> check bool_c "roundtrip preserves design" true (same_design ring.Fixtures.net net)
  | Error e -> Alcotest.fail e

let test_io_roundtrip_with_vcs () =
  (* After removal the design has VC > 1 channels and rewritten routes;
     the format must carry them. *)
  let ring = Fixtures.paper_ring () in
  ignore (Noc_deadlock.Removal.run ring.Fixtures.net);
  let text = Io.save ring.Fixtures.net in
  match Io.load text with
  | Ok net ->
      check bool_c "vcs preserved" true (same_design ring.Fixtures.net net);
      check bool_c "still deadlock-free" true
        (Cdg.is_deadlock_free (Cdg.build net))
  | Error e -> Alcotest.fail e

let test_io_comments_and_blanks () =
  let ring = Fixtures.paper_ring () in
  let text = "# a comment\n\n" ^ Io.save ring.Fixtures.net ^ "\n# trailing\n" in
  check bool_c "tolerated" true (Result.is_ok (Io.load text))

let test_io_error_messages () =
  let cases =
    [
      ("nonsense 1\n", "unknown directive");
      ("noc-design 2\n", "unsupported format version");
      ("switches x\n", "bad switch count");
      ("noc-design 1\nswitches 2\n", "missing 'cores'");
      ("noc-design 1\ncores 2\n", "missing 'switches'");
      ("noc-design 1\nswitches 2\ncores 1\ncore 0 0\nroute 5 0:0\n",
       "route for unknown flow");
    ]
  in
  List.iter
    (fun (text, fragment) ->
      match Io.load text with
      | Ok _ -> Alcotest.failf "expected failure for %S" text
      | Error e ->
          let contains =
            let n = String.length fragment and h = String.length e in
            let rec scan i =
              i + n <= h && (String.sub e i n = fragment || scan (i + 1))
            in
            scan 0
          in
          check bool_c (Printf.sprintf "%S mentions %S (got %S)" text fragment e)
            true contains)
    cases

let test_io_rejects_undeclared_link () =
  let text =
    "noc-design 1\nswitches 2\ncores 2\nlink 0 0 1 1\ncore 0 0\ncore 1 1\n\
     flow 0 0 1 100\nroute 0 7:0\n"
  in
  match Io.load text with
  | Ok _ -> Alcotest.fail "a route on an undeclared link loaded"
  | Error e ->
      check str_c "message"
        "invalid design: NOC-ROUTE-002 F0: channel L7 is on a link the \
         topology does not declare"
        e

let test_io_rejects_invalid_route () =
  (* A structurally broken route must be caught by validation. *)
  let text =
    "noc-design 1\nswitches 2\ncores 2\nlink 0 0 1 1\ncore 0 0\ncore 1 1\n\
     flow 0 0 1 10\nroute 0 0:5\n"
  in
  check bool_c "bad vc rejected" true (Result.is_error (Io.load text))

(* [nan] and [inf] parse as floats but are no bandwidth: admitted, a
   design carrying one produced a NaN power the JSON codec cannot
   carry. *)
let test_io_rejects_non_finite_bandwidth () =
  List.iter
    (fun bw ->
      let text =
        "noc-design 1\nswitches 2\ncores 2\nlink 0 0 1 1\ncore 0 0\n\
         core 1 1\nflow 0 0 1 " ^ bw ^ "\nroute 0 0:0\n"
      in
      match Io.load text with
      | Ok _ -> Alcotest.failf "bandwidth %s accepted" bw
      | Error e ->
          check Alcotest.string bw "Traffic.add_flow: non-finite bandwidth" e)
    [ "nan"; "inf"; "+inf" ];
  check bool_c "finite bandwidth still loads" true
    (Result.is_ok
       (Io.load
          "noc-design 1\nswitches 2\ncores 2\nlink 0 0 1 1\ncore 0 0\n\
           core 1 1\nflow 0 0 1 10\nroute 0 0:0\n"))

(* A declared core count is checked against the core lines before
   anything sized by it is allocated, so a short text declaring 5x10^7
   cores is rejected without allocating a word per core. *)
let test_io_huge_core_count_is_cheap () =
  let text = "noc-design 1\nswitches 2\ncores 50000000\ncore 0 0\n" in
  let words () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = words () in
  let loaded = Io.load text in
  let allocated = words () -. before in
  (match loaded with
  | Ok _ -> Alcotest.fail "a design with one mapped core of 5x10^7 loaded"
  | Error e -> check str_c "message" "core 1 has no mapping" e);
  check bool_c
    (Printf.sprintf "fewer than 10^6 words allocated (%.0f)" allocated)
    true (allocated < 1e6)

let test_io_file_roundtrip () =
  let ring = Fixtures.paper_ring () in
  let path = Filename.temp_file "noc_io_test" ".noc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save_file path ring.Fixtures.net;
      match Io.load_file path with
      | Ok net -> check bool_c "file roundtrip" true (same_design ring.Fixtures.net net)
      | Error e -> Alcotest.fail e)

let test_io_missing_file () =
  check bool_c "missing file is an error" true
    (Result.is_error (Io.load_file "/nonexistent/path.noc"))

(* ------------------------------------------------------------------ *)
(* Dot export                                                          *)
(* ------------------------------------------------------------------ *)

let string_contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let test_dot_topology () =
  let ring = Fixtures.paper_ring () in
  let s = Dot_export.topology ring.Fixtures.net in
  check bool_c "has switches" true (string_contains ~needle:"sw0" s);
  check bool_c "has links" true (string_contains ~needle:"L0 (1 VC" s);
  check bool_c "no highlight yet" false (string_contains ~needle:"red" s)

let test_dot_topology_highlights_vcs () =
  let ring = Fixtures.paper_ring () in
  ignore (Noc_deadlock.Removal.run ring.Fixtures.net);
  let s = Dot_export.topology ring.Fixtures.net in
  check bool_c "added VC highlighted" true (string_contains ~needle:"red" s);
  check bool_c "2 VC label" true (string_contains ~needle:"(2 VC" s)

let test_dot_heatmap () =
  let ring = Fixtures.paper_ring () in
  let utilization l = if Ids.Link.to_int l = 0 then 0.9 else 0.0 in
  let s = Dot_export.topology_heatmap ~utilization ring.Fixtures.net in
  check bool_c "hot link red" true (string_contains ~needle:"red" s);
  check bool_c "idle links grey" true (string_contains ~needle:"gray70" s);
  check bool_c "percentage label" true (string_contains ~needle:"L0 90%" s)

let test_dot_cdg_highlights_cycle () =
  let ring = Fixtures.paper_ring () in
  let s = Dot_export.cdg ring.Fixtures.net in
  check bool_c "cycle coloured" true (string_contains ~needle:"color=\"red\"" s);
  ignore (Noc_deadlock.Removal.run ring.Fixtures.net);
  let s' = Dot_export.cdg ring.Fixtures.net in
  check bool_c "no colour when acyclic" false (string_contains ~needle:"color=\"red\"" s');
  check bool_c "primed channel appears" true (string_contains ~needle:"L0'" s')

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Random ring-with-chords networks with min-hop routes: the CDG built
   from any valid route set must only contain dependencies between
   head-to-tail links. *)
let random_net_gen =
  QCheck.Gen.(
    let* n_switches = int_range 3 8 in
    let* n_extra = int_bound 5 in
    let* extra =
      list_size (return n_extra)
        (pair (int_bound (n_switches - 1)) (int_bound (n_switches - 1)))
    in
    let* n_flows = int_range 1 12 in
    let* pairs =
      list_size (return n_flows)
        (pair (int_bound (n_switches - 1)) (int_bound (n_switches - 1)))
    in
    return (n_switches, extra, pairs))

let build_random_net (n_switches, extra, pairs) =
  let topo = Topology.create ~n_switches in
  for i = 0 to n_switches - 1 do
    ignore (Topology.add_link topo ~src:(sw i) ~dst:(sw ((i + 1) mod n_switches)))
  done;
  List.iter
    (fun (a, b) -> if a <> b then ignore (Topology.add_link topo ~src:(sw a) ~dst:(sw b)))
    extra;
  let traffic = Traffic.create ~n_cores:n_switches in
  List.iter
    (fun (a, b) ->
      if a <> b then
        ignore (Traffic.add_flow traffic ~src:(core a) ~dst:(core b) ~bandwidth:10.))
    pairs;
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c -> sw (Ids.Core.to_int c))
  in
  match Routing.route_all net with
  | Ok () -> net
  | Error e -> failwith e

let arbitrary_net =
  QCheck.make
    ~print:(fun (n, extra, pairs) ->
      Printf.sprintf "switches=%d extra=%d flows=%d" n (List.length extra)
        (List.length pairs))
    random_net_gen

let prop_routing_valid =
  QCheck.Test.make ~name:"min-hop routing yields valid networks" ~count:100
    arbitrary_net (fun input ->
      let net = build_random_net input in
      Validate.is_valid net)

let prop_cdg_edges_head_to_tail =
  QCheck.Test.make ~name:"CDG edges connect head-to-tail links" ~count:100
    arbitrary_net (fun input ->
      let net = build_random_net input in
      let topo = Network.topology net in
      let cdg = Cdg.build net in
      Noc_graph.Digraph.fold_edges
        (fun acc u v ->
          let cu = Cdg.channel_of_vertex cdg u and cv = Cdg.channel_of_vertex cdg v in
          let lu = Topology.link topo (Channel.link cu) in
          let lv = Topology.link topo (Channel.link cv) in
          acc && Ids.Switch.equal lu.Topology.dst lv.Topology.src)
        true (Cdg.graph cdg))

let prop_cdg_deps_bounded_by_route_pairs =
  QCheck.Test.make ~name:"CDG edge count bounded by route pair count" ~count:100
    arbitrary_net (fun input ->
      let net = build_random_net input in
      let cdg = Cdg.build net in
      let pair_count =
        List.fold_left
          (fun acc (_, r) -> acc + List.length (Route.consecutive_pairs r))
          0 (Network.routes net)
      in
      Noc_graph.Digraph.n_edges (Cdg.graph cdg) <= pair_count)

let prop_io_roundtrip =
  QCheck.Test.make ~name:"Io.save/load round-trips any valid network" ~count:80
    arbitrary_net (fun input ->
      let net = build_random_net input in
      match Io.load (Io.save net) with
      | Ok net' -> same_design net net'
      | Error _ -> false)

(* Fuzz the design-file parser: single-character mutations of a valid
   file must always yield Ok or Error, never an exception. *)
let prop_io_parser_total =
  let base = Io.save (Fixtures.paper_ring ()).Fixtures.net in
  QCheck.Test.make ~name:"Io.load never raises on mutated input" ~count:300
    QCheck.(pair (int_bound (String.length base - 1)) printable_char)
    (fun (pos, c) ->
      let mutated = Bytes.of_string base in
      Bytes.set mutated pos c;
      match Io.load (Bytes.to_string mutated) with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "exception %s at pos %d" (Printexc.to_string e)
            pos)

(* The parser against the reference in [Io_oracle], on every registry
   design saved inline and on seeded mutations of them.  Both must
   answer alike: the same [Io.save] text for a design, the same message
   for an error. *)
let registry_texts = lazy (Array.of_list (Fixtures.registry_design_texts ()))

let hostile_tokens =
  [| "-1"; "30"; "x"; "1:0"; "0:-1"; "::"; "3:"; "1:2:3"; "1e3"; "nan";
     "0x10"; "+3"; "1_0"; "99999999999999999999" |]

(* One mutation of one line: drop or duplicate it, replace one field
   (or one side of a link:vc hop) with a hostile token, turn spaces
   into tabs or runs of spaces, pad it with leading spaces and a
   trailing carriage return, truncate it, or repeat a route's hops
   until the line is longer than eight fields. *)
let mutate_io_line st lines =
  let n = Array.length lines in
  let at = Random.State.int st n in
  let line = lines.(at) in
  let pick a = a.(Random.State.int st (Array.length a)) in
  let replacement =
    match Random.State.int st 7 with
    | 0 -> []
    | 1 -> [ line; line ]
    | 2 ->
        let fields = Array.of_list (String.split_on_char ' ' line) in
        let k = Random.State.int st (Array.length fields) in
        let token = pick hostile_tokens in
        fields.(k) <-
          (match String.split_on_char ':' fields.(k) with
          | [ l; v ] when Random.State.bool st ->
              if Random.State.bool st then token ^ ":" ^ v else l ^ ":" ^ token
          | _ -> token);
        [ String.concat " " (Array.to_list fields) ]
    | 3 ->
        [
          String.concat ""
            (List.map
               (fun c ->
                 if c <> ' ' then String.make 1 c
                 else pick [| "\t"; "  "; " \t"; " " |])
               (List.init (String.length line) (String.get line)));
        ]
    | 4 -> [ String.make (1 + Random.State.int st 3) ' ' ^ line ^ "\r" ]
    | 5 -> [ String.sub line 0 (Random.State.int st (String.length line + 1)) ]
    | _ -> (
        match String.split_on_char ' ' line with
        | "route" :: id :: (_ :: _ as hops) ->
            let rec grow acc = if List.length acc > 8 then acc else grow (acc @ hops) in
            [ String.concat " " ("route" :: id :: grow hops) ]
        | _ -> [ line ])
  in
  Array.of_list
    (List.concat
       (List.mapi (fun i l -> if i = at then replacement else [ l ]) (Array.to_list lines)))

let mutate_io_text st text =
  let rec go k lines =
    if k = 0 || Array.length lines = 0 then lines else go (k - 1) (mutate_io_line st lines)
  in
  let lines = go (1 + Random.State.int st 3) (Array.of_list (String.split_on_char '\n' text)) in
  String.concat "\n" (Array.to_list lines)

let same_load text =
  match (Io.load text, Io_oracle.load text) with
  | Ok a, Ok b -> String.equal (Io.save a) (Io.save b)
  | Error a, Error b -> String.equal a b
  | Ok _, Error _ | Error _, Ok _ -> false

let test_io_matches_oracle_on_registry () =
  Array.iter
    (fun text ->
      if not (same_load text) then Alcotest.failf "loads differ on:\n%s" text)
    (Lazy.force registry_texts)

let prop_io_matches_oracle =
  let mutant (design, seed) =
    let texts = Lazy.force registry_texts in
    mutate_io_text (Random.State.make [| seed |]) texts.(design mod Array.length texts)
  in
  QCheck.Test.make ~name:"Io.load agrees with the reference parser" ~count:4000
    (QCheck.make
       ~print:(fun input -> Printf.sprintf "%S" (mutant input))
       QCheck.Gen.(pair (int_bound 10_000) (int_bound 1_000_000)))
    (fun input -> same_load (mutant input))

(* Routing against the per-flow reference in [Routing_oracle] on
   topologies synthesis never builds: parallel links (so the "smallest
   weight, then smallest link id" tie-break decides), bandwidth ties
   (so the load-aware order ties on flow id), several cores per switch,
   and switch pairs with no path. *)
let oracle_net_gen =
  QCheck.Gen.(
    let* n_switches = int_range 1 8 in
    let* links =
      list_size (int_bound 24)
        (pair (int_bound (n_switches - 1)) (int_bound (n_switches - 1)))
    in
    let* n_cores = int_range 2 10 in
    let* mapping = list_repeat n_cores (int_bound (n_switches - 1)) in
    let* flows =
      list_size (int_range 1 16)
        (triple (int_bound (n_cores - 1)) (int_bound (n_cores - 1))
           (oneofl [ 10.; 10.; 20.; 30. ]))
    in
    let* salt = int_bound 2 in
    return (n_switches, links, mapping, flows, salt))

let build_oracle_net (n_switches, links, mapping, flows, _) =
  let topo = Topology.create ~n_switches in
  List.iter
    (fun (a, b) -> if a <> b then ignore (Topology.add_link topo ~src:(sw a) ~dst:(sw b)))
    links;
  let traffic = Traffic.create ~n_cores:(List.length mapping) in
  List.iter
    (fun (a, b, bandwidth) ->
      if a <> b then
        ignore (Traffic.add_flow traffic ~src:(core a) ~dst:(core b) ~bandwidth))
    flows;
  let mapping = Array.of_list mapping in
  Network.make ~topology:topo ~traffic ~mapping:(fun c ->
      sw mapping.(Ids.Core.to_int c))

let prop_routing_matches_oracle =
  QCheck.Test.make ~name:"routing matches the per-flow reference" ~count:500
    (QCheck.make
       ~print:(fun (n, links, mapping, flows, salt) ->
         let pairs l = String.concat " " (List.map (fun (a, b) -> Printf.sprintf "%d>%d" a b) l) in
         Printf.sprintf "switches=%d links=[%s] mapping=[%s] flows=[%s] salt=%d" n
           (pairs links)
           (String.concat " " (List.map string_of_int mapping))
           (String.concat " "
              (List.map (fun (a, b, w) -> Printf.sprintf "%d>%d@%g" a b w) flows))
           salt)
       oracle_net_gen)
    (fun ((_, _, _, _, salt) as input) ->
      let net = build_oracle_net input in
      (* Weights that differ between parallel links, with ties. *)
      let weight (l : Topology.link) =
        float_of_int (1 + (((Ids.Link.to_int l.Topology.id * 5) + salt) mod 3))
      in
      let same_pass route_all oracle =
        let a = Network.copy net and b = Network.copy net in
        route_all a = oracle b && Network.routes a = Network.routes b
      in
      List.for_all
        (fun (f : Traffic.flow) ->
          Routing.route_flow net f.Traffic.id = Routing_oracle.route_flow net f.Traffic.id
          && Routing.route_flow ~weight net f.Traffic.id
             = Routing_oracle.route_flow ~weight net f.Traffic.id)
        (Traffic.flows (Network.traffic net))
      && same_pass (fun n -> Routing.route_all n) (fun n -> Routing_oracle.route_all n)
      && same_pass (Routing.route_all ~weight) (Routing_oracle.route_all ~weight)
      && same_pass Routing.route_all_load_aware Routing_oracle.route_all_load_aware)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_routing_valid; prop_cdg_edges_head_to_tail;
      prop_cdg_deps_bounded_by_route_pairs; prop_io_roundtrip;
      prop_io_parser_total; prop_io_matches_oracle;
      prop_routing_matches_oracle;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "noc_model"
    [
      ( "ids_channels",
        [
          tc "id roundtrip" test_id_roundtrip;
          tc "negative rejected" test_id_negative_rejected;
          tc "printing" test_id_pp;
          tc "channel make" test_channel_make;
          tc "channel ordering" test_channel_compare_order;
          tc "primed printing" test_channel_pp_primed;
        ] );
      ( "topology",
        [
          tc "create invalid" test_topology_create_invalid;
          tc "links" test_topology_links;
          tc "self loop rejected" test_topology_self_loop_rejected;
          tc "unknown switch rejected" test_topology_unknown_switch;
          tc "vc management" test_topology_vcs;
          tc "channel list" test_topology_channels_list;
          tc "adjacency" test_topology_adjacency;
          tc "parallel links" test_topology_parallel_links;
          tc "connectivity" test_topology_connectivity;
          tc "switch graph" test_topology_switch_graph;
          tc "copy independent" test_topology_copy_independent;
        ] );
      ( "traffic",
        [
          tc "flows" test_traffic_flows;
          tc "rejections" test_traffic_rejections;
          tc "demand between" test_traffic_demand;
        ] );
      ( "route",
        [
          tc "valid route" test_route_check_ok;
          tc "empty routes" test_route_check_empty;
          tc "discontinuity" test_route_check_discontinuous;
          tc "wrong endpoints" test_route_check_wrong_endpoints;
          tc "bad vc" test_route_check_bad_vc;
          tc "repeated channel" test_route_check_repeat;
          tc "pairs and membership" test_route_pairs;
        ] );
      ( "network",
        [
          tc "mapping checked" test_network_mapping_checked;
          tc "routes roundtrip" test_network_routes_roundtrip;
          tc "endpoints" test_network_endpoints;
          tc "loads" test_network_loads;
          tc "load counts a flow once per link" test_network_load_counts_flow_once_per_link;
          tc "copy isolated" test_network_copy_isolated;
        ] );
      ( "cdg",
        [
          tc "paper example" test_cdg_paper_example;
          tc "dependency flows" test_cdg_dependency_flows;
          tc "xy mesh acyclic" test_cdg_acyclic_mesh;
          tc "unused channels included" test_cdg_includes_unused_channels;
          tc "cycle enumeration" test_cdg_cycles_enumeration;
        ] );
      ( "routing",
        [
          tc "min hop" test_routing_min_hop;
          tc "unreachable" test_routing_unreachable;
          tc "same switch" test_routing_same_switch;
          tc "load aware spreads" test_routing_load_aware_spreads;
        ] );
      ( "validate",
        [
          tc "ok" test_validate_ok;
          tc "missing route" test_validate_missing_route;
          tc "undeclared link" test_validate_undeclared_link;
          tc "routes equivalent" test_validate_routes_equivalent;
        ] );
      ( "routing_function",
        [
          tc "of static routes" test_rf_of_static_routes;
          tc "minimal adaptive diamond" test_rf_minimal_adaptive_diamond;
          tc "vc handling" test_rf_minimal_adaptive_vcs;
          tc "validation" test_rf_make_validates;
          tc "restrict and connectivity" test_rf_restrict_and_connectivity;
        ] );
      ( "metrics",
        [
          tc "ring" test_metrics_ring;
          tc "unrouted" test_metrics_unrouted;
        ] );
      ( "bandwidth",
        [
          tc "feasible" test_bandwidth_feasible;
          tc "oversubscribed" test_bandwidth_oversubscribed;
          tc "validation" test_bandwidth_validation;
        ] );
      ( "io",
        [
          tc "roundtrip ring" test_io_roundtrip_ring;
          tc "roundtrip with VCs" test_io_roundtrip_with_vcs;
          tc "comments and blanks" test_io_comments_and_blanks;
          tc "error messages" test_io_error_messages;
          tc "invalid route rejected" test_io_rejects_invalid_route;
          tc "route on an undeclared link rejected"
            test_io_rejects_undeclared_link;
          tc "non-finite bandwidth rejected"
            test_io_rejects_non_finite_bandwidth;
          tc "huge core count is cheap" test_io_huge_core_count_is_cheap;
          tc "file roundtrip" test_io_file_roundtrip;
          tc "missing file" test_io_missing_file;
          tc "registry designs load as the reference does"
            test_io_matches_oracle_on_registry;
        ] );
      ( "dot_export",
        [
          tc "topology" test_dot_topology;
          tc "topology highlights VCs" test_dot_topology_highlights_vcs;
          tc "utilization heatmap" test_dot_heatmap;
          tc "cdg highlights cycle" test_dot_cdg_highlights_cycle;
        ] );
      ("properties", qcheck_cases);
    ]
