open Noc_model
open Noc_deadlock
open Noc_oracle

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let ch = Fixtures.ch
let sw = Fixtures.sw
let core = Fixtures.core

let paper_cycle = [ ch 0; ch 1; ch 2; ch 3 ]

(* ------------------------------------------------------------------ *)
(* Cost tables (Algorithm 2 / Table 1)                                 *)
(* ------------------------------------------------------------------ *)

let test_table1_forward () =
  let ring = Fixtures.paper_ring () in
  let t = Cost_table.forward ring.Fixtures.net paper_cycle in
  (* Table 1 of the paper, rows F1..F4, columns D1..D4. *)
  let expected =
    [| [| 1; 2; 0; 0 |]; [| 0; 0; 1; 0 |]; [| 0; 0; 0; 1 |]; [| 1; 0; 0; 0 |] |]
  in
  check int_c "4 rows" 4 (Array.length t.Cost_table.costs);
  Array.iteri
    (fun row expected_row ->
      Array.iteri
        (fun col v ->
          check int_c
            (Printf.sprintf "cost F%d D%d" (row + 1) (col + 1))
            v
            t.Cost_table.costs.(row).(col))
        expected_row)
    expected;
  check Alcotest.(array int) "MAX row" [| 1; 2; 1; 1 |] t.Cost_table.max_costs;
  check int_c "f_cost" 1 t.Cost_table.best_cost;
  check int_c "f_pos = D1" 0 t.Cost_table.best_pos

let test_table1_backward () =
  let ring = Fixtures.paper_ring () in
  let t = Cost_table.backward ring.Fixtures.net paper_cycle in
  (* Walking routes in reverse: F1 prices D1 at 2 (duplicate L2, L3
     after the edge head? no: L2 then rest of its path inside the
     cycle, i.e. L2 and L3), D2 at 1 (just L3).  F2 prices D3 at 1,
     F3 prices D4 at 1, F4 prices D1 at 1. *)
  let expected =
    [| [| 2; 1; 0; 0 |]; [| 0; 0; 1; 0 |]; [| 0; 0; 0; 1 |]; [| 1; 0; 0; 0 |] |]
  in
  Array.iteri
    (fun row expected_row ->
      Array.iteri
        (fun col v ->
          check int_c
            (Printf.sprintf "bwd cost F%d D%d" (row + 1) (col + 1))
            v
            t.Cost_table.costs.(row).(col))
        expected_row)
    expected;
  check Alcotest.(array int) "bwd MAX" [| 2; 1; 1; 1 |] t.Cost_table.max_costs;
  check int_c "b_cost" 1 t.Cost_table.best_cost;
  check int_c "b_pos = D2" 1 t.Cost_table.best_pos

let test_cost_table_empty_cycle_rejected () =
  let ring = Fixtures.paper_ring () in
  Alcotest.check_raises "empty cycle" (Invalid_argument "Cost_table: empty cycle")
    (fun () -> ignore (Cost_table.forward ring.Fixtures.net []))

let test_cost_table_dependency_labels () =
  let ring = Fixtures.paper_ring () in
  let t = Cost_table.forward ring.Fixtures.net paper_cycle in
  let d1 = Cost_table.dependency t 0 in
  check bool_c "D1 = (L1, L2)" true
    (Channel.equal (fst d1) (ch 0) && Channel.equal (snd d1) (ch 1));
  let d4 = Cost_table.dependency t 3 in
  check bool_c "D4 wraps to (L4, L1)" true
    (Channel.equal (fst d4) (ch 3) && Channel.equal (snd d4) (ch 0))

let test_channels_to_duplicate_forward () =
  let ring = Fixtures.paper_ring () in
  let t = Cost_table.forward ring.Fixtures.net paper_cycle in
  (* Breaking D2 = (L2, L3) forward for F1 duplicates L1 and L2. *)
  let dups = Cost_table.channels_to_duplicate t ring.Fixtures.flows.(0) 1 in
  check int_c "two channels" 2 (List.length dups);
  check bool_c "L1 first" true (Channel.equal (List.nth dups 0) (ch 0));
  check bool_c "L2 second" true (Channel.equal (List.nth dups 1) (ch 1));
  (* F2 does not create D2. *)
  check int_c "F2 untouched" 0
    (List.length (Cost_table.channels_to_duplicate t ring.Fixtures.flows.(1) 1))

let test_channels_to_duplicate_backward () =
  let ring = Fixtures.paper_ring () in
  let t = Cost_table.backward ring.Fixtures.net paper_cycle in
  (* Breaking D1 = (L1, L2) backward for F1 duplicates L2 and L3. *)
  let dups = Cost_table.channels_to_duplicate t ring.Fixtures.flows.(0) 0 in
  check int_c "two channels" 2 (List.length dups);
  check bool_c "L2 first" true (Channel.equal (List.nth dups 0) (ch 1));
  check bool_c "L3 second" true (Channel.equal (List.nth dups 1) (ch 2))

let test_cost_table_flow_selection () =
  (* A flow crossing the cycle through a single channel must not get a
     row. *)
  let ring = Fixtures.paper_ring () in
  let t = Cost_table.forward ring.Fixtures.net paper_cycle in
  check int_c "only flows with >1 cycle channel" 4 (Array.length t.Cost_table.flows)

(* ------------------------------------------------------------------ *)
(* Break cycle                                                         *)
(* ------------------------------------------------------------------ *)

let test_break_forward_d1 () =
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  let before = Network.copy net in
  let t = Cost_table.forward net paper_cycle in
  let change = Break_cycle.apply net t in
  check int_c "one VC added" 1 (List.length change.Break_cycle.added_channels);
  check int_c "two flows rerouted" 2 (List.length change.Break_cycle.rerouted_flows);
  check bool_c "physical routes preserved" true
    (Validate.routes_equivalent ~before ~after:net);
  Fixtures.check_valid "after break" net;
  check bool_c "now deadlock-free" true (Removal.is_deadlock_free net)

let test_break_updates_topology () =
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  let t = Cost_table.forward net paper_cycle in
  ignore (Break_cycle.apply net t);
  check int_c "L1 now has 2 VCs" 2
    (Topology.vc_count (Network.topology net) (Fixtures.lk 0));
  check int_c "extra VCs counted" 1 (Topology.extra_vcs (Network.topology net))

let test_break_backward_d2 () =
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  let t = Cost_table.backward net paper_cycle in
  let change = Break_cycle.apply net t in
  (* Backward best is D2 at cost 1: duplicate L3 for F1 only. *)
  check int_c "one VC" 1 (List.length change.Break_cycle.added_channels);
  check int_c "one flow" 1 (List.length change.Break_cycle.rerouted_flows);
  Fixtures.check_valid "after backward break" net;
  check bool_c "deadlock-free" true (Removal.is_deadlock_free net)

let test_break_shares_duplicates () =
  (* Breaking D2 forward reroutes F1 (needs L1,L2) and nobody else; use
     D1 instead where F1 and F4 share the single L1 duplicate. *)
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  let t = Cost_table.forward net paper_cycle in
  let change = Break_cycle.apply_at net t 0 in
  check int_c "shared single duplicate" 1 (List.length change.Break_cycle.added_channels);
  check int_c "both creators rerouted" 2 (List.length change.Break_cycle.rerouted_flows);
  (* Both F1 and F4 must now start on the same new channel L1'. *)
  let r1 = Network.route net ring.Fixtures.flows.(0) in
  let r4 = Network.route net ring.Fixtures.flows.(3) in
  check bool_c "same duplicate head" true
    (Channel.equal (List.hd r1) (List.hd r4));
  check int_c "duplicate vc" 1 (Channel.vc (List.hd r1))

let test_break_bad_column () =
  let ring = Fixtures.paper_ring () in
  let t = Cost_table.forward ring.Fixtures.net paper_cycle in
  Alcotest.check_raises "range" (Invalid_argument "Break_cycle.apply_at: bad column")
    (fun () -> ignore (Break_cycle.apply_at ring.Fixtures.net t 7))

let test_break_figure7_chain () =
  (* Breaking D2 = (L2, L3) must duplicate BOTH L1 and L2 for F1;
     duplicating only L2 would re-close the cycle through L1 -> L2'
     (Figure 7 of the paper).  We verify the safe behaviour. *)
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  let t = Cost_table.forward net paper_cycle in
  let change = Break_cycle.apply_at net t 1 in
  check int_c "two duplicates" 2 (List.length change.Break_cycle.added_channels);
  check bool_c "deadlock-free" true (Removal.is_deadlock_free net);
  let r1 = Network.route net ring.Fixtures.flows.(0) in
  check bool_c "F1 = L1' L2' L3" true
    (List.for_all2 Channel.equal r1 [ ch ~vc:1 0; ch ~vc:1 1; ch 2 ])

(* ------------------------------------------------------------------ *)
(* Removal driver (Algorithm 1)                                        *)
(* ------------------------------------------------------------------ *)

let test_removal_paper_example () =
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  let before = Network.copy net in
  let report = Removal.run net in
  check bool_c "deadlock-free" true report.Removal.deadlock_free;
  check int_c "one iteration" 1 report.Removal.iterations;
  check int_c "one VC added (paper adds L1')" 1 report.Removal.vcs_added;
  check bool_c "physical routes preserved" true
    (Validate.routes_equivalent ~before ~after:net);
  Fixtures.check_valid "after removal" net;
  check bool_c "verified" true (Removal.is_deadlock_free net)

let test_removal_idempotent () =
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  ignore (Removal.run net);
  let report = Removal.run net in
  check int_c "nothing to do" 0 report.Removal.iterations;
  check int_c "no VCs" 0 report.Removal.vcs_added

let test_removal_acyclic_input () =
  let net = Fixtures.xy_mesh_2x2 () in
  let report = Removal.run net in
  check int_c "zero iterations" 0 report.Removal.iterations;
  check int_c "zero VCs" 0 report.Removal.vcs_added;
  check bool_c "free" true report.Removal.deadlock_free

let test_removal_forward_only () =
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  let report = Removal.run ~directions:[ Cost_table.Forward ] net in
  check bool_c "forward-only still works" true report.Removal.deadlock_free;
  check bool_c "verified" true (Removal.is_deadlock_free net)

let test_removal_backward_only () =
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  let report = Removal.run ~directions:[ Cost_table.Backward ] net in
  check bool_c "backward-only still works" true report.Removal.deadlock_free;
  check bool_c "verified" true (Removal.is_deadlock_free net)

let test_removal_any_cycle_heuristic () =
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  let report = Removal.run ~heuristic:Removal.Any_cycle_first net in
  check bool_c "any-cycle heuristic works" true report.Removal.deadlock_free

(* Two overlapping cycles: a figure-eight on 6 links.  Ring A uses
   L0 L1 L2, ring B uses L3 L4 L5; they share switch 0 via flows that
   couple the two rings. *)
let double_ring () =
  let topo = Topology.create ~n_switches:3 in
  (* Triangle 0->1->2->0, doubled. *)
  let mk a b = ignore (Topology.add_link topo ~src:(sw a) ~dst:(sw b)) in
  mk 0 1;
  mk 1 2;
  mk 2 0;
  mk 0 2;
  mk 2 1;
  mk 1 0;
  let traffic = Traffic.create ~n_cores:3 in
  let add a b = ignore (Traffic.add_flow traffic ~src:(core a) ~dst:(core b) ~bandwidth:10.) in
  (* Flows that wrap both triangles far enough to close both cycles. *)
  add 0 2;
  add 1 0;
  add 2 1;
  add 0 1;
  add 2 0;
  add 1 2;
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c -> sw (Ids.Core.to_int c))
  in
  (* Clockwise flows take 2 hops (closing cycle A), counter-clockwise
     flows take 2 hops the other way (closing cycle B). *)
  let l a b =
    match Topology.find_links topo ~src:(sw a) ~dst:(sw b) with
    | lk :: _ -> Channel.make lk.Topology.id 0
    | [] -> failwith "missing"
  in
  let flows = Array.of_list (Traffic.flows traffic) in
  Network.set_route net flows.(0).Traffic.id [ l 0 1; l 1 2 ];
  Network.set_route net flows.(1).Traffic.id [ l 1 2; l 2 0 ];
  Network.set_route net flows.(2).Traffic.id [ l 2 0; l 0 1 ];
  Network.set_route net flows.(3).Traffic.id [ l 0 2; l 2 1 ];
  Network.set_route net flows.(4).Traffic.id [ l 2 1; l 1 0 ];
  Network.set_route net flows.(5).Traffic.id [ l 1 0; l 0 2 ];
  net

let test_removal_double_ring () =
  let net = double_ring () in
  let before = Network.copy net in
  check bool_c "initially cyclic" false (Removal.is_deadlock_free net);
  let report = Removal.run net in
  check bool_c "free" true report.Removal.deadlock_free;
  check bool_c "two cycles need two breaks" true (report.Removal.iterations >= 2);
  check bool_c "routes preserved" true
    (Validate.routes_equivalent ~before ~after:net);
  Fixtures.check_valid "double ring" net

let test_removal_iteration_cap () =
  let net = double_ring () in
  let report = Removal.run ~max_iterations:1 net in
  check bool_c "cap reported" false report.Removal.deadlock_free;
  check int_c "stopped at cap" 1 report.Removal.iterations;
  Fixtures.check_valid "still valid at cap" net

(* ------------------------------------------------------------------ *)
(* Resource ordering baseline                                          *)
(* ------------------------------------------------------------------ *)

let test_resource_ordering_ring_greedy () =
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  let before = Network.copy net in
  let r = Resource_ordering.apply net in
  check bool_c "acyclic afterwards" true (Removal.is_deadlock_free net);
  check bool_c "routes preserved" true
    (Validate.routes_equivalent ~before ~after:net);
  Fixtures.check_valid "after ordering" net;
  check bool_c "some VCs added" true (r.Resource_ordering.vcs_added >= 1)

let test_resource_ordering_hop_index () =
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  let r = Resource_ordering.apply ~strategy:Resource_ordering.Hop_index net in
  check bool_c "acyclic" true (Removal.is_deadlock_free net);
  (* Longest route has 3 hops -> 3 classes. *)
  check int_c "classes = max route length" 3 r.Resource_ordering.classes_used;
  Fixtures.check_valid "after hop-index" net

let test_resource_ordering_monotone_routes () =
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  ignore (Resource_ordering.apply net);
  let n = Topology.n_links (Network.topology net) in
  let number c = (Channel.vc c * n) + Ids.Link.to_int (Channel.link c) in
  List.iter
    (fun (_, route) ->
      List.iter
        (fun (a, b) ->
          check bool_c "strictly increasing" true (number a < number b))
        (Route.consecutive_pairs route))
    (Network.routes net)

let test_resource_ordering_costlier_than_removal () =
  (* On the 4-link micro example greedy ordering happens to tie removal
     at one extra VC (both pay for the single wrap-around); the strict
     "ordering needs far more" claim is exercised at benchmark scale in
     the experiment tests.  Here we pin the tie and the hop-index
     variant's strictly higher price. *)
  let removal_net = (Fixtures.paper_ring ()).Fixtures.net in
  let greedy_net = (Fixtures.paper_ring ()).Fixtures.net in
  let hop_net = (Fixtures.paper_ring ()).Fixtures.net in
  let rr = Removal.run removal_net in
  let rg = Resource_ordering.apply greedy_net in
  let rh = Resource_ordering.apply ~strategy:Resource_ordering.Hop_index hop_net in
  check bool_c "removal never worse" true
    (rr.Removal.vcs_added <= rg.Resource_ordering.vcs_added);
  check bool_c "hop-index strictly worse" true
    (rr.Removal.vcs_added < rh.Resource_ordering.vcs_added)

(* ------------------------------------------------------------------ *)
(* Physical-link resource variant                                      *)
(* ------------------------------------------------------------------ *)

let test_physical_break_adds_link () =
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  let links_before = Topology.n_links (Network.topology net) in
  let t = Cost_table.forward net paper_cycle in
  let change = Break_cycle.apply ~resource:Break_cycle.Physical_link net t in
  check int_c "one new physical link" (links_before + 1)
    (Topology.n_links (Network.topology net));
  check bool_c "duplicate rides VC 0" true
    (List.for_all (fun c -> Channel.vc c = 0) change.Break_cycle.added_channels);
  check bool_c "now deadlock-free" true (Removal.is_deadlock_free net);
  Fixtures.check_valid "physical break" net

let test_physical_removal_preserves_switch_paths () =
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  let before = Network.copy net in
  let report = Removal.run ~resource:Break_cycle.Physical_link net in
  check bool_c "free" true report.Removal.deadlock_free;
  check int_c "one resource added" 1 report.Removal.vcs_added;
  check bool_c "switch paths preserved" true
    (Validate.switch_paths_equivalent ~before ~after:net);
  (* The duplicate is a new link between the same switches, so no link
     carries more than one VC. *)
  List.iter
    (fun (l : Topology.link) ->
      check int_c "single VC everywhere" 1
        (Topology.vc_count (Network.topology net) l.Topology.id))
    (Topology.links (Network.topology net))

let test_physical_removal_on_benchmark () =
  let spec =
    match Noc_benchmarks.Registry.find "D36_8" with
    | Some s -> s
    | None -> Alcotest.fail "missing benchmark"
  in
  let traffic = spec.Noc_benchmarks.Spec.build () in
  let net = Noc_synth.Custom.synthesize_exn traffic ~n_switches:14 in
  let before = Network.copy net in
  let report = Removal.run ~resource:Break_cycle.Physical_link net in
  check bool_c "free" true report.Removal.deadlock_free;
  check bool_c "switch paths preserved" true
    (Validate.switch_paths_equivalent ~before ~after:net);
  Fixtures.check_valid "physical variant benchmark" net

let test_switch_paths_equivalent_detects_change () =
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  let net' = Network.copy net in
  check bool_c "identical" true
    (Validate.switch_paths_equivalent ~before:net ~after:net');
  (* Rerouting F4 (0 -> 2 via L1 L2) the long way around changes the
     switch sequence. *)
  Network.set_route net' ring.Fixtures.flows.(3) [];
  check bool_c "detected" false
    (Validate.switch_paths_equivalent ~before:net ~after:net')

(* ------------------------------------------------------------------ *)
(* Up*/down* routing baseline                                          *)
(* ------------------------------------------------------------------ *)

let test_updown_fails_on_unidirectional_ring () =
  (* The paper's argument against turn prohibition: it needs
     bidirectional links, which custom topologies don't guarantee. *)
  let ring = Fixtures.paper_ring () in
  (match Updown.apply ring.Fixtures.net with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unidirectional ring cannot be up*/down* routed");
  (* And the failure left the design untouched. *)
  check int_c "routes intact" 3
    (Route.length (Network.route ring.Fixtures.net ring.Fixtures.flows.(0)))

let bidirectional_ring () =
  let topo = Topology.create ~n_switches:4 in
  for i = 0 to 3 do
    ignore (Topology.add_link topo ~src:(sw i) ~dst:(sw ((i + 1) mod 4)));
    ignore (Topology.add_link topo ~src:(sw ((i + 1) mod 4)) ~dst:(sw i))
  done;
  let traffic = Traffic.create ~n_cores:4 in
  for s = 0 to 3 do
    for d = 0 to 3 do
      if s <> d then
        ignore (Traffic.add_flow traffic ~src:(core s) ~dst:(core d) ~bandwidth:10.)
    done
  done;
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c -> sw (Ids.Core.to_int c))
  in
  (match Noc_model.Routing.route_all net with Ok () -> () | Error e -> failwith e);
  net

let test_updown_succeeds_on_bidirectional () =
  let net = bidirectional_ring () in
  match Updown.apply net with
  | Error e -> Alcotest.fail e
  | Ok _ ->
      check bool_c "valid" true (Validate.is_valid net);
      check bool_c "acyclic by construction" true (Removal.is_deadlock_free net);
      check int_c "no VCs ever added" 0 (Topology.extra_vcs (Network.topology net))

let test_updown_no_vcs_added () =
  let net = bidirectional_ring () in
  let before = Topology.total_vcs (Network.topology net) in
  (match Updown.apply net with Ok _ -> () | Error e -> Alcotest.fail e);
  check int_c "vc count unchanged" before (Topology.total_vcs (Network.topology net))

let test_updown_hop_accounting () =
  let net = bidirectional_ring () in
  match Updown.apply net with
  | Error e -> Alcotest.fail e
  | Ok r ->
      check bool_c "hop totals recorded" true
        (r.Updown.total_hops_before > 0 && r.Updown.total_hops_after > 0);
      check bool_c "up*/down* never shortens below minimum" true
        (r.Updown.total_hops_after >= r.Updown.total_hops_before)

let test_updown_route_exists () =
  let ring = Fixtures.paper_ring () in
  check bool_c "F1 blocked on the ring" false
    (Updown.route_exists ring.Fixtures.net ring.Fixtures.flows.(0));
  let net = bidirectional_ring () in
  List.iter
    (fun (f : Traffic.flow) ->
      check bool_c "all flows routable bidirectionally" true
        (Updown.route_exists net f.Traffic.id))
    (Traffic.flows (Network.traffic net))

let test_updown_on_mesh_traffic () =
  (* All-to-all on a bidirectional mesh: must be feasible, valid, and
     deadlock-free without a single VC. *)
  let topo = Noc_synth.Regular.mesh ~columns:3 ~rows:3 in
  let traffic = Traffic.create ~n_cores:9 in
  for s = 0 to 8 do
    for d = 0 to 8 do
      if s <> d then
        ignore (Traffic.add_flow traffic ~src:(core s) ~dst:(core d) ~bandwidth:5.)
    done
  done;
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c -> sw (Ids.Core.to_int c))
  in
  match Updown.apply net with
  | Error e -> Alcotest.fail e
  | Ok _ ->
      check bool_c "valid" true (Validate.is_valid net);
      check bool_c "deadlock-free" true (Removal.is_deadlock_free net)

(* ------------------------------------------------------------------ *)
(* Reroute-first                                                       *)
(* ------------------------------------------------------------------ *)

let test_reroute_no_alternatives_on_ring () =
  (* The unidirectional ring offers exactly one path per pair; the
     pre-pass must fail gracefully and leave everything untouched. *)
  let ring = Fixtures.paper_ring () in
  let before = Network.copy ring.Fixtures.net in
  let r = Reroute.run ring.Fixtures.net in
  check bool_c "cycles remain" false r.Reroute.fully_acyclic;
  check int_c "nothing rerouted" 0 (List.length r.Reroute.changes);
  check bool_c "routes untouched" true
    (Validate.routes_equivalent ~before ~after:ring.Fixtures.net)

let test_reroute_breaks_cycle_with_alternative () =
  (* Ring plus a chord that lets F1 bypass L1: the cycle is breakable
     with zero VCs. *)
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  let topo = Network.topology net in
  (* Chord sw0 -> sw2 gives F1 (0->3) and F4 (0->2) an alternative. *)
  let _ = Topology.add_link topo ~src:(sw 0) ~dst:(sw 2) in
  let r = Reroute.run net in
  check bool_c "fully acyclic by rerouting" true r.Reroute.fully_acyclic;
  check bool_c "at least one change" true (r.Reroute.changes <> []);
  check int_c "no VCs needed afterwards" 0 (Removal.run net).Removal.vcs_added;
  Fixtures.check_valid "rerouted design" net

let test_reroute_plus_removal_cheaper_on_benchmark () =
  let spec =
    match Noc_benchmarks.Registry.find "D36_8" with
    | Some s -> s
    | None -> Alcotest.fail "missing benchmark"
  in
  let traffic = spec.Noc_benchmarks.Spec.build () in
  let base = Noc_synth.Custom.synthesize_exn traffic ~n_switches:20 in
  let plain = Network.copy base in
  let plain_cost = (Removal.run plain).Removal.vcs_added in
  let combo = Network.copy base in
  let rr = Reroute.run combo in
  let combo_cost = (Removal.run combo).Removal.vcs_added in
  check bool_c "rerouting helped at least once" true (rr.Reroute.cycles_broken > 0);
  check bool_c "combo never worse" true (combo_cost <= plain_cost);
  check bool_c "combo still valid" true (Validate.is_valid combo);
  check bool_c "combo deadlock-free" true (Removal.is_deadlock_free combo)

let test_reroute_respects_detour_budget () =
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  let topo = Network.topology net in
  let _ = Topology.add_link topo ~src:(sw 0) ~dst:(sw 2) in
  let r = Reroute.run ~max_detour:0 net in
  (* With zero allowed detour, only same-length alternatives count. *)
  List.iter
    (fun c ->
      check bool_c "no longer than before" true
        (Route.length c.Reroute.new_route <= Route.length c.Reroute.old_route))
    r.Reroute.changes

let test_report_printers () =
  (* pp smoke tests across the library's report types. *)
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  let removal = Removal.run net in
  let renders pp v = String.length (Format.asprintf "%a" pp v) > 0 in
  check bool_c "removal report" true (renders Removal.pp_report removal);
  check bool_c "certificate" true (renders Verify.pp_certificate (Verify.certify net));
  let ring2 = Fixtures.paper_ring () in
  let ordering = Resource_ordering.apply ring2.Fixtures.net in
  check bool_c "ordering report" true (renders Resource_ordering.pp_report ordering);
  let table = Cost_table.forward (Fixtures.paper_ring ()).Fixtures.net paper_cycle in
  check bool_c "cost table" true (renders Cost_table.pp table);
  let reroute = Reroute.run net in
  check bool_c "reroute report" true (renders Reroute.pp_report reroute);
  let optimal = Optimal.search net in
  check bool_c "optimal report" true (renders Optimal.pp_result optimal)

(* ------------------------------------------------------------------ *)
(* Exact optimum (branch-and-bound)                                    *)
(* ------------------------------------------------------------------ *)

let test_optimal_ring () =
  let ring = Fixtures.paper_ring () in
  let r = Optimal.search ring.Fixtures.net in
  check int_c "minimum is one VC" 1 r.Optimal.vcs_added;
  check bool_c "proven" true r.Optimal.proven_optimal;
  check bool_c "solution free" true (Removal.is_deadlock_free r.Optimal.solution);
  check bool_c "solution valid" true (Validate.is_valid r.Optimal.solution);
  (* Input untouched. *)
  check bool_c "input still cyclic" false (Removal.is_deadlock_free ring.Fixtures.net)

let test_optimal_acyclic_input () =
  let net = Fixtures.xy_mesh_2x2 () in
  let r = Optimal.search net in
  check int_c "zero cost" 0 r.Optimal.vcs_added;
  check bool_c "proven" true r.Optimal.proven_optimal

let test_optimal_budget_fallback () =
  let ring = Fixtures.paper_ring () in
  let r = Optimal.search ~node_budget:1 ring.Fixtures.net in
  check bool_c "not proven under a starved budget" false r.Optimal.proven_optimal;
  check bool_c "still returns a free design" true
    (Removal.is_deadlock_free r.Optimal.solution)

let test_optimal_never_worse_than_heuristic () =
  let net = double_ring () in
  let h = Removal.run (Network.copy net) in
  let o = Optimal.search net in
  check bool_c "optimal <= heuristic" true
    (o.Optimal.vcs_added <= h.Removal.vcs_added);
  check bool_c "proven on this small design" true o.Optimal.proven_optimal

(* ------------------------------------------------------------------ *)
(* Duato's condition                                                   *)
(* ------------------------------------------------------------------ *)

let test_duato_static_ring_cyclic () =
  (* With every channel as escape, Duato's check degenerates to plain
     CDG acyclicity: the ring must fail with a 4-cycle. *)
  let ring = Fixtures.paper_ring () in
  let rf = Noc_model.Routing_function.of_static_routes ring.Fixtures.net in
  let v = Duato.check ring.Fixtures.net rf ~escape:Duato.escape_everything in
  check bool_c "not free" false v.Duato.deadlock_free;
  check bool_c "no connectivity issue" true (v.Duato.connectivity_failure = None);
  match v.Duato.extended_cdg_cycle with
  | Some cycle -> check int_c "the 4-cycle" 4 (List.length cycle)
  | None -> Alcotest.fail "expected a cycle"

let test_duato_static_ring_after_removal () =
  let ring = Fixtures.paper_ring () in
  ignore (Removal.run ring.Fixtures.net);
  let rf = Noc_model.Routing_function.of_static_routes ring.Fixtures.net in
  let v = Duato.check ring.Fixtures.net rf ~escape:Duato.escape_everything in
  check bool_c "free after removal" true v.Duato.deadlock_free;
  (* Agreement with the direct certificate. *)
  check bool_c "agrees with Verify" true
    (Verify.certify ring.Fixtures.net).Verify.acyclic

let test_duato_xy_mesh_free () =
  let net = Fixtures.xy_mesh_2x2 () in
  let rf = Noc_model.Routing_function.of_static_routes net in
  let v = Duato.check net rf ~escape:Duato.escape_everything in
  check bool_c "XY mesh free" true v.Duato.deadlock_free

let test_duato_empty_escape_disconnected () =
  let ring = Fixtures.paper_ring () in
  let rf = Noc_model.Routing_function.of_static_routes ring.Fixtures.net in
  let v = Duato.check ring.Fixtures.net rf ~escape:(fun _ -> false) in
  check bool_c "not free" false v.Duato.deadlock_free;
  check bool_c "connectivity blamed" true (v.Duato.connectivity_failure <> None);
  check int_c "no escape channels" 0 v.Duato.n_escape_channels

let test_duato_adaptive_needs_escape () =
  (* Fully adaptive minimal routing on the (cyclic) ring cannot be
     proven free with the trivial escape set. *)
  let ring = Fixtures.paper_ring () in
  let rf = Noc_model.Routing_function.minimal_adaptive ring.Fixtures.net in
  let v = Duato.check ring.Fixtures.net rf ~escape:Duato.escape_everything in
  check bool_c "not free" false v.Duato.deadlock_free

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)
(* ------------------------------------------------------------------ *)

let test_certificate_cyclic () =
  let ring = Fixtures.paper_ring () in
  let cert = Verify.certify ring.Fixtures.net in
  check bool_c "cyclic" false cert.Verify.acyclic;
  check bool_c "no numbering" true (cert.Verify.numbering = None);
  (match cert.Verify.sample_cycle with
  | Some c -> check int_c "4-cycle" 4 (List.length c)
  | None -> Alcotest.fail "expected a sample cycle");
  check int_c "no structural issues" 0
    (List.length (Validate.check ring.Fixtures.net))

let test_certificate_after_removal () =
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  ignore (Removal.run net);
  let cert = Verify.certify net in
  check bool_c "acyclic" true cert.Verify.acyclic;
  match cert.Verify.numbering with
  | None -> Alcotest.fail "expected numbering witness"
  | Some numbering ->
      check bool_c "witness validates" true (Verify.check_numbering net numbering)

let test_check_numbering_rejects_bogus () =
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  ignore (Removal.run net);
  (* Constant numbering cannot be strictly increasing. *)
  let bogus =
    List.map (fun c -> (c, 0)) (Topology.channels (Network.topology net))
  in
  check bool_c "rejected" false (Verify.check_numbering net bogus);
  check bool_c "missing channels rejected" false (Verify.check_numbering net [])

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Random networks on ring+chord topologies with min-hop routes. *)
let random_net_gen =
  QCheck.Gen.(
    let* n_switches = int_range 3 9 in
    let* chords =
      list_size (int_bound 6)
        (pair (int_bound (n_switches - 1)) (int_bound (n_switches - 1)))
    in
    let* pairs =
      list_size (int_range 1 14)
        (pair (int_bound (n_switches - 1)) (int_bound (n_switches - 1)))
    in
    return (n_switches, chords, pairs))

let build_net (n_switches, chords, pairs) =
  let topo = Topology.create ~n_switches in
  for i = 0 to n_switches - 1 do
    ignore (Topology.add_link topo ~src:(sw i) ~dst:(sw ((i + 1) mod n_switches)))
  done;
  List.iter
    (fun (a, b) -> if a <> b then ignore (Topology.add_link topo ~src:(sw a) ~dst:(sw b)))
    chords;
  let traffic = Traffic.create ~n_cores:n_switches in
  List.iter
    (fun (a, b) ->
      if a <> b then
        ignore (Traffic.add_flow traffic ~src:(core a) ~dst:(core b) ~bandwidth:10.))
    pairs;
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c -> sw (Ids.Core.to_int c))
  in
  (match Routing.route_all net with Ok () -> () | Error e -> failwith e);
  net

let arbitrary_net =
  QCheck.make
    ~print:(fun (n, chords, pairs) ->
      Printf.sprintf "switches=%d chords=%s flows=%s" n
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) chords))
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d>%d" a b) pairs)))
    random_net_gen

let prop_removal_terminates_free =
  QCheck.Test.make ~name:"removal always reaches deadlock freedom" ~count:150
    arbitrary_net (fun input ->
      let net = build_net input in
      let report = Removal.run net in
      report.Removal.deadlock_free && Removal.is_deadlock_free net)

let prop_removal_preserves_routes =
  QCheck.Test.make ~name:"removal preserves physical routes and validity" ~count:150
    arbitrary_net (fun input ->
      let net = build_net input in
      let before = Network.copy net in
      ignore (Removal.run net);
      Validate.routes_equivalent ~before ~after:net && Validate.is_valid net)

let prop_removal_cheaper_than_ordering =
  QCheck.Test.make ~name:"removal never needs more VCs than greedy ordering"
    ~count:100 arbitrary_net (fun input ->
      let net_removal = build_net input in
      let net_ordering = build_net input in
      let rr = Removal.run net_removal in
      let ro = Resource_ordering.apply net_ordering in
      rr.Removal.vcs_added <= ro.Resource_ordering.vcs_added)

let prop_ordering_acyclic_by_construction =
  QCheck.Test.make ~name:"resource ordering always yields acyclic CDG" ~count:100
    arbitrary_net (fun input ->
      let net = build_net input in
      ignore (Resource_ordering.apply net);
      Removal.is_deadlock_free net)

let prop_hop_index_acyclic =
  QCheck.Test.make ~name:"hop-index ordering always yields acyclic CDG" ~count:100
    arbitrary_net (fun input ->
      let net = build_net input in
      ignore (Resource_ordering.apply ~strategy:Resource_ordering.Hop_index net);
      Removal.is_deadlock_free net && Validate.is_valid net)

let prop_certificate_witness_checks =
  QCheck.Test.make ~name:"certificate numbering validates after removal" ~count:100
    arbitrary_net (fun input ->
      let net = build_net input in
      ignore (Removal.run net);
      match (Verify.certify net).Verify.numbering with
      | None -> false
      | Some numbering -> Verify.check_numbering net numbering)

let prop_break_removes_the_edge =
  (* The defining postcondition of Break_cycle.apply: the broken
     dependency edge is gone from the rebuilt CDG. *)
  QCheck.Test.make ~name:"breaking a cycle removes the targeted dependency"
    ~count:100 arbitrary_net (fun input ->
      let net = build_net input in
      let cdg = Cdg.build net in
      match Cdg.smallest_cycle cdg with
      | None -> true
      | Some cycle ->
          let table = Cost_table.forward net cycle in
          let change = Break_cycle.apply net table in
          let src, dst = change.Break_cycle.broken in
          let cdg' = Cdg.build net in
          Cdg.flows_on_dependency cdg' ~src ~dst = []
          && Validate.is_valid net)

let prop_optimal_bounds_heuristic =
  QCheck.Test.make ~name:"exact optimum never exceeds the heuristic" ~count:40
    arbitrary_net (fun input ->
      let net = build_net input in
      let h = Removal.run (Network.copy net) in
      let o = Optimal.search ~node_budget:3_000 net in
      o.Optimal.vcs_added <= h.Removal.vcs_added
      && Removal.is_deadlock_free o.Optimal.solution)

(* Walks a removal trajectory the way [Removal.run] does — smallest
   cycle of the maintained CDG, the cheaper table with forward winning
   ties, the break, then [Cdg.apply_change] — and checks after every
   break that the maintained CDG equals a fresh build.  [Ok n] after
   [n] checked breaks, or [Error i] at the first break that diverged. *)
let maintained_cdg_trajectory net =
  let cdg = Cdg.build net in
  let rec go breaks =
    match Cdg.smallest_cycle cdg with
    | None -> Ok breaks
    | Some cycle ->
        let fwd, bwd = Cost_table.both net cycle in
        let table =
          if bwd.Cost_table.best_cost < fwd.Cost_table.best_cost then bwd else fwd
        in
        let change = Break_cycle.apply net table in
        Cdg.apply_change cdg (Break_cycle.cdg_change change);
        if Cdg.equal cdg (Cdg.build net) then go (breaks + 1)
        else Error (breaks + 1)
  in
  go 0

let prop_maintained_cdg_exact =
  QCheck.Test.make ~name:"maintained CDG equals a fresh build after every break"
    ~count:60 arbitrary_net (fun input ->
      match maintained_cdg_trajectory (build_net input) with
      | Ok _ -> true
      | Error i -> QCheck.Test.fail_reportf "diverged at break %d" i)

let prop_incremental_cdg_exact =
  (* The tentpole invariant: maintaining the CDG in place across
     removal iterations yields the same trajectory, break for break, as
     the reference driver that rebuilds it from scratch each round. *)
  QCheck.Test.make ~name:"incremental removal is exactly the rebuild removal"
    ~count:60 arbitrary_net (fun input ->
      let inc_net = build_net input in
      let reb_net = build_net input in
      let inc = Removal.run inc_net in
      let reb = Reference_removal.run reb_net in
      inc = reb && Cdg.equal (Cdg.build inc_net) (Cdg.build reb_net))

let prop_cost_tables_match_reference =
  (* The shared-pass cost tables must reproduce the seed's per-cell
     rescan implementation field for field. *)
  QCheck.Test.make ~name:"optimized cost tables equal the reference tables"
    ~count:100 arbitrary_net (fun input ->
      let net = build_net input in
      match Cdg.smallest_cycle (Cdg.build net) with
      | None -> true
      | Some cycle ->
          let fwd, bwd = Cost_table.both net cycle in
          fwd = Cost_table_oracle.forward net cycle
          && bwd = Cost_table_oracle.backward net cycle)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_removal_terminates_free;
      prop_removal_preserves_routes;
      prop_removal_cheaper_than_ordering;
      prop_ordering_acyclic_by_construction;
      prop_hop_index_acyclic;
      prop_certificate_witness_checks;
      prop_break_removes_the_edge;
      prop_optimal_bounds_heuristic;
      prop_maintained_cdg_exact;
      prop_incremental_cdg_exact;
      prop_cost_tables_match_reference;
    ]

(* ------------------------------------------------------------------ *)
(* Incremental CDG maintenance on fixed-seed synthetic topologies      *)
(* ------------------------------------------------------------------ *)

let synthetic_nets () =
  let open Noc_benchmarks.Synthetic in
  List.map
    (fun (name, traffic, n_switches) ->
      (name, Noc_synth.Custom.synthesize_exn traffic ~n_switches))
    [
      ("uniform/s7", uniform ~n_cores:16 ~flows_per_core:3 ~seed:7, 8);
      ("uniform/s23", uniform ~n_cores:20 ~flows_per_core:4 ~seed:23, 10);
      ("transpose", transpose ~n_cores:16 ~bandwidth:100., 7);
      ( "hotspot",
        hotspot ~n_cores:12 ~n_hotspots:2 ~background:20. ~hotspot_bw:120.,
        6 );
      ("neighbour_ring", neighbour_ring ~n_cores:10 ~bandwidth:80., 5);
    ]

let test_incremental_validates_on_synthetic () =
  List.iter
    (fun (name, net) ->
      let fixed = Network.copy net in
      (match maintained_cdg_trajectory fixed with
      | Ok _ -> ()
      | Error i -> Alcotest.failf "%s: maintained CDG diverged at break %d" name i);
      check bool_c
        (Printf.sprintf "%s: fresh CDG of the result is acyclic" name)
        true
        (Removal.is_deadlock_free fixed))
    (synthetic_nets ())

let test_incremental_equals_rebuild_on_synthetic () =
  List.iter
    (fun (name, net) ->
      let inc_net = Network.copy net in
      let reb_net = Network.copy net in
      let inc = Removal.run inc_net in
      let reb = Reference_removal.run reb_net in
      check int_c
        (Printf.sprintf "%s: iterations" name)
        reb.Removal.iterations inc.Removal.iterations;
      check int_c
        (Printf.sprintf "%s: vcs added" name)
        reb.Removal.vcs_added inc.Removal.vcs_added;
      check bool_c
        (Printf.sprintf "%s: same report, every break included" name)
        true (inc = reb);
      check bool_c
        (Printf.sprintf "%s: final CDGs equal" name)
        true
        (Cdg.equal (Cdg.build inc_net) (Cdg.build reb_net)))
    (synthetic_nets ())

let test_cost_tables_reference_on_synthetic () =
  List.iter
    (fun (name, net) ->
      match Cdg.smallest_cycle (Cdg.build net) with
      | None -> ()
      | Some cycle ->
          let fwd, bwd = Cost_table.both net cycle in
          check bool_c
            (Printf.sprintf "%s: forward table" name)
            true
            (fwd = Cost_table_oracle.forward net cycle);
          check bool_c
            (Printf.sprintf "%s: backward table" name)
            true
            (bwd = Cost_table_oracle.backward net cycle))
    (synthetic_nets ())

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "noc_deadlock"
    [
      ( "cost_table",
        [
          tc "Table 1 forward (paper)" test_table1_forward;
          tc "Table 1 backward" test_table1_backward;
          tc "empty cycle rejected" test_cost_table_empty_cycle_rejected;
          tc "dependency labels" test_cost_table_dependency_labels;
          tc "channels to duplicate (forward)" test_channels_to_duplicate_forward;
          tc "channels to duplicate (backward)" test_channels_to_duplicate_backward;
          tc "flow selection" test_cost_table_flow_selection;
        ] );
      ( "break_cycle",
        [
          tc "forward break at D1" test_break_forward_d1;
          tc "topology updated" test_break_updates_topology;
          tc "backward break at D2" test_break_backward_d2;
          tc "duplicates shared between flows" test_break_shares_duplicates;
          tc "bad column rejected" test_break_bad_column;
          tc "figure-7 chain duplication" test_break_figure7_chain;
        ] );
      ( "removal",
        [
          tc "paper example (fig 1-4)" test_removal_paper_example;
          tc "idempotent" test_removal_idempotent;
          tc "acyclic input untouched" test_removal_acyclic_input;
          tc "forward only" test_removal_forward_only;
          tc "backward only" test_removal_backward_only;
          tc "any-cycle heuristic" test_removal_any_cycle_heuristic;
          tc "double ring" test_removal_double_ring;
          tc "iteration cap" test_removal_iteration_cap;
        ] );
      ( "resource_ordering",
        [
          tc "greedy on ring" test_resource_ordering_ring_greedy;
          tc "hop index on ring" test_resource_ordering_hop_index;
          tc "numbers increase along routes" test_resource_ordering_monotone_routes;
          tc "costlier than removal" test_resource_ordering_costlier_than_removal;
        ] );
      ( "physical_link_variant",
        [
          tc "break adds a parallel link" test_physical_break_adds_link;
          tc "removal preserves switch paths" test_physical_removal_preserves_switch_paths;
          tc "benchmark scale" test_physical_removal_on_benchmark;
          tc "switch-path equivalence detects change" test_switch_paths_equivalent_detects_change;
        ] );
      ( "updown",
        [
          tc "fails on unidirectional ring" test_updown_fails_on_unidirectional_ring;
          tc "succeeds on bidirectional ring" test_updown_succeeds_on_bidirectional;
          tc "never adds VCs" test_updown_no_vcs_added;
          tc "hop accounting" test_updown_hop_accounting;
          tc "route_exists" test_updown_route_exists;
          tc "mesh all-to-all" test_updown_on_mesh_traffic;
        ] );
      ("printers", [ tc "all report types render" test_report_printers ]);
      ( "optimal",
        [
          tc "ring minimum" test_optimal_ring;
          tc "acyclic input" test_optimal_acyclic_input;
          tc "budget fallback" test_optimal_budget_fallback;
          tc "never worse than heuristic" test_optimal_never_worse_than_heuristic;
        ] );
      ( "reroute",
        [
          tc "no alternative on ring" test_reroute_no_alternatives_on_ring;
          tc "chord enables zero-VC fix" test_reroute_breaks_cycle_with_alternative;
          tc "cheaper on benchmark" test_reroute_plus_removal_cheaper_on_benchmark;
          tc "detour budget" test_reroute_respects_detour_budget;
        ] );
      ( "duato",
        [
          tc "static ring cyclic" test_duato_static_ring_cyclic;
          tc "static ring after removal" test_duato_static_ring_after_removal;
          tc "xy mesh free" test_duato_xy_mesh_free;
          tc "empty escape disconnected" test_duato_empty_escape_disconnected;
          tc "adaptive needs escape" test_duato_adaptive_needs_escape;
        ] );
      ( "verify",
        [
          tc "certificate on cyclic design" test_certificate_cyclic;
          tc "certificate after removal" test_certificate_after_removal;
          tc "bogus numbering rejected" test_check_numbering_rejects_bogus;
        ] );
      ( "incremental",
        [
          tc "validates on synthetic topologies"
            test_incremental_validates_on_synthetic;
          tc "equals rebuild on synthetic topologies"
            test_incremental_equals_rebuild_on_synthetic;
          tc "cost tables match reference on synthetic topologies"
            test_cost_tables_reference_on_synthetic;
        ] );
      ("properties", qcheck_cases);
    ]
