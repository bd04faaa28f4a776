open Noc_model
open Noc_synth
open Noc_oracle

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let sw = Fixtures.sw
let core = Fixtures.core

(* ------------------------------------------------------------------ *)
(* Regular generators                                                  *)
(* ------------------------------------------------------------------ *)

let test_ring_shape () =
  let t = Regular.ring ~n_switches:5 in
  check int_c "switches" 5 (Topology.n_switches t);
  check int_c "links" 10 (Topology.n_links t);
  check bool_c "connected" true (Topology.is_connected t);
  check int_c "degree" 4 (Topology.degree t (sw 0))

let test_ring_too_small () =
  Alcotest.check_raises "1 switch"
    (Invalid_argument "Regular.ring: need at least 2 switches") (fun () ->
      ignore (Regular.ring ~n_switches:1))

let test_mesh_shape () =
  let t = Regular.mesh ~columns:3 ~rows:2 in
  check int_c "switches" 6 (Topology.n_switches t);
  (* 3x2 mesh: horizontal 2 per row x 2 rows, vertical 3; all doubled. *)
  check int_c "links" 14 (Topology.n_links t);
  check bool_c "connected" true (Topology.is_connected t);
  (* Corner has degree 2 (bidirectional = 4 endpoints). *)
  check int_c "corner degree" 4 (Topology.degree t (sw 0));
  check int_c "coords" 2 (fst (Regular.mesh_coords ~columns:3 (sw 5)))

let test_torus_wraps () =
  let mesh = Regular.mesh ~columns:3 ~rows:3 in
  let torus = Regular.torus ~columns:3 ~rows:3 in
  (* Torus adds 3 wraps per dimension, bidirectional. *)
  check int_c "extra wrap links" (Topology.n_links mesh + 12) (Topology.n_links torus)

let test_torus_no_duplicate_on_2 () =
  (* Dimension of size 2: wrap would duplicate the mesh link. *)
  let mesh = Regular.mesh ~columns:2 ~rows:3 in
  let torus = Regular.torus ~columns:2 ~rows:3 in
  check int_c "only row wraps added" (Topology.n_links mesh + 4)
    (Topology.n_links torus)

let test_fully_connected () =
  let t = Regular.fully_connected ~n_switches:4 in
  check int_c "n*(n-1) links" 12 (Topology.n_links t)

(* ------------------------------------------------------------------ *)
(* Mapping                                                             *)
(* ------------------------------------------------------------------ *)

let pipeline_traffic n =
  let t = Traffic.create ~n_cores:n in
  for i = 0 to n - 2 do
    ignore (Traffic.add_flow t ~src:(core i) ~dst:(core (i + 1)) ~bandwidth:100.)
  done;
  t

let test_mapping_range_checks () =
  let t = pipeline_traffic 4 in
  Alcotest.check_raises "zero" (Invalid_argument "Mapping.cluster: n_switches <= 0")
    (fun () -> ignore (Mapping.cluster t ~n_switches:0));
  Alcotest.check_raises "too many"
    (Invalid_argument "Mapping.cluster: more switches than cores") (fun () ->
      ignore (Mapping.cluster t ~n_switches:5))

let test_mapping_identity_when_equal () =
  let t = pipeline_traffic 4 in
  let m = Mapping.cluster t ~n_switches:4 in
  (* With as many switches as cores every core gets its own. *)
  let distinct = List.sort_uniq compare (Array.to_list (Array.map Ids.Switch.to_int m)) in
  check int_c "all distinct" 4 (List.length distinct)

let test_mapping_uses_all_switches () =
  let t = pipeline_traffic 12 in
  let m = Mapping.cluster t ~n_switches:5 in
  let used = List.sort_uniq compare (Array.to_list (Array.map Ids.Switch.to_int m)) in
  check int_c "5 switches used" 5 (List.length used)

let test_mapping_groups_heavy_pairs () =
  (* Two chatty pairs and two loners, 2 switches: each pair must share
     a switch. *)
  let t = Traffic.create ~n_cores:4 in
  ignore (Traffic.add_flow t ~src:(core 0) ~dst:(core 1) ~bandwidth:1000.);
  ignore (Traffic.add_flow t ~src:(core 2) ~dst:(core 3) ~bandwidth:1000.);
  ignore (Traffic.add_flow t ~src:(core 0) ~dst:(core 2) ~bandwidth:1.);
  let m = Mapping.cluster t ~n_switches:2 in
  check bool_c "pair 0-1 together" true (Ids.Switch.equal m.(0) m.(1));
  check bool_c "pair 2-3 together" true (Ids.Switch.equal m.(2) m.(3));
  check bool_c "pairs apart" false (Ids.Switch.equal m.(0) m.(2))

let test_mapping_balance_cap () =
  (* A hub talking to everyone must not swallow all cores into one
     cluster: sizes are capped at 2*ceil(n/k). *)
  let t = Traffic.create ~n_cores:12 in
  for i = 1 to 11 do
    ignore (Traffic.add_flow t ~src:(core 0) ~dst:(core i) ~bandwidth:500.)
  done;
  let m = Mapping.cluster t ~n_switches:4 in
  let sizes = Array.make 4 0 in
  Array.iter (fun s -> sizes.(Ids.Switch.to_int s) <- sizes.(Ids.Switch.to_int s) + 1) m;
  Array.iter (fun sz -> check bool_c "cap respected" true (sz <= 6)) sizes

let test_mapping_deterministic () =
  let t1 = pipeline_traffic 10 and t2 = pipeline_traffic 10 in
  let m1 = Mapping.cluster t1 ~n_switches:3 in
  let m2 = Mapping.cluster t2 ~n_switches:3 in
  check bool_c "same result" true (m1 = m2)

let test_intra_cluster_bandwidth () =
  let t = Traffic.create ~n_cores:4 in
  ignore (Traffic.add_flow t ~src:(core 0) ~dst:(core 1) ~bandwidth:100.);
  ignore (Traffic.add_flow t ~src:(core 2) ~dst:(core 3) ~bandwidth:60.);
  let mapping = [| sw 0; sw 0; sw 0; sw 1 |] in
  check (Alcotest.float 1e-9) "only 0-1 internal" 100.
    (Mapping.intra_cluster_bandwidth t mapping)

(* ------------------------------------------------------------------ *)
(* Custom synthesis                                                    *)
(* ------------------------------------------------------------------ *)

let media_spec () =
  match Noc_benchmarks.Registry.find "D26_media" with
  | Some s -> s
  | None -> Alcotest.fail "missing benchmark"

let test_synthesize_valid_design () =
  let spec = media_spec () in
  let traffic = spec.Noc_benchmarks.Spec.build () in
  let net = Custom.synthesize_exn traffic ~n_switches:8 in
  Fixtures.check_valid "D26_media@8" net;
  check int_c "8 switches" 8 (Topology.n_switches (Network.topology net))

let test_synthesize_every_flow_routed () =
  let spec = media_spec () in
  let traffic = spec.Noc_benchmarks.Spec.build () in
  let net = Custom.synthesize_exn traffic ~n_switches:14 in
  List.iter
    (fun (f : Traffic.flow) ->
      let src, dst = Network.endpoints net f.Traffic.id in
      if not (Ids.Switch.equal src dst) then
        check bool_c "route exists" true (Network.route net f.Traffic.id <> []))
    (Traffic.flows traffic)

let test_synthesize_respects_degree_budget_mostly () =
  (* The budget may be exceeded only by fallback links; on D26_media
     the demand graph is sparse enough that it never is. *)
  let spec = media_spec () in
  let traffic = spec.Noc_benchmarks.Spec.build () in
  let options =
    { Custom.default_options with Custom.max_out_degree = 3; max_in_degree = 3 }
  in
  let net = Custom.synthesize_exn ~options traffic ~n_switches:10 in
  Fixtures.check_valid "degree-limited" net

let test_synthesize_deterministic () =
  let spec = media_spec () in
  let t1 = spec.Noc_benchmarks.Spec.build () in
  let t2 = spec.Noc_benchmarks.Spec.build () in
  let n1 = Custom.synthesize_exn t1 ~n_switches:11 in
  let n2 = Custom.synthesize_exn t2 ~n_switches:11 in
  check int_c "same link count" (Topology.n_links (Network.topology n1))
    (Topology.n_links (Network.topology n2));
  check bool_c "same routes" true
    (Validate.routes_equivalent ~before:n1 ~after:n2)

let test_synthesize_switch_count_sweep () =
  let spec = media_spec () in
  List.iter
    (fun n ->
      let traffic = spec.Noc_benchmarks.Spec.build () in
      let net = Custom.synthesize_exn traffic ~n_switches:n in
      Fixtures.check_valid (Printf.sprintf "D26_media@%d" n) net)
    [ 5; 14; 26 ]

(* Golden pins over the whole cold-mix design space (every registry
   benchmark x switches 2-26 x max_degree 3-5, as the service's
   registry jobs synthesize it) and over the non-default options at
   the default degree.  Any change to synthesis, routing or the power
   model that moves a single byte of a saved design, or a single bit of
   its power or area, changes a digest. *)
let golden_switches = List.init 25 (fun i -> i + 2)

let golden_design options (spec : Noc_benchmarks.Spec.t) n_switches =
  match
    Custom.synthesize ~options (spec.Noc_benchmarks.Spec.build ()) ~n_switches
  with
  | Ok net -> net
  | Error e ->
      Alcotest.failf "%s@%d: %s" spec.Noc_benchmarks.Spec.name n_switches e

let test_golden_cold_mix_designs () =
  let designs = Buffer.create (1 lsl 20) and power = Buffer.create 4096 in
  List.iter
    (fun spec ->
      List.iter
        (fun n_switches ->
          List.iter
            (fun d ->
              let options =
                { Custom.default_options with
                  Custom.max_out_degree = d; max_in_degree = d }
              in
              let net = golden_design options spec n_switches in
              Buffer.add_string designs (Io.save net);
              let r = Noc_power.Report.of_network net in
              Buffer.add_string power
                (Printf.sprintf "%h %h\n" r.Noc_power.Report.total_power_mw
                   r.Noc_power.Report.total_area_mm2))
            [ 3; 4; 5 ])
        golden_switches)
    Noc_benchmarks.Registry.all;
  let md5 b = Digest.to_hex (Digest.string (Buffer.contents b)) in
  check Alcotest.string "designs" "3abc8bde149b9ad0e4dd9fde06d8adfc" (md5 designs);
  check Alcotest.string "power" "27c025cfcfb27a42af0bfbc626764299" (md5 power)

let test_golden_option_variants () =
  let variants =
    Custom.
      [
        { default_options with mapper = Min_cut };
        { default_options with force_bidirectional = true };
        { default_options with load_aware_routing = false };
      ]
  in
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun spec ->
      List.iter
        (fun n_switches ->
          List.iter
            (fun options ->
              Buffer.add_string b (Io.save (golden_design options spec n_switches)))
            variants)
        golden_switches)
    Noc_benchmarks.Registry.all;
  check Alcotest.string "variants" "da56107f48057f75ddf1bf00010a8f34"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ------------------------------------------------------------------ *)
(* FM partitioning                                                     *)
(* ------------------------------------------------------------------ *)

let two_cliques_traffic () =
  (* Cores 0-3 and 4-7 chat densely within their group, sparsely
     across: the ideal bipartition is obvious. *)
  let t = Traffic.create ~n_cores:8 in
  let add a b bw = ignore (Traffic.add_flow t ~src:(core a) ~dst:(core b) ~bandwidth:bw) in
  List.iter (fun (a, b) -> add a b 100.) [ (0, 1); (1, 2); (2, 3); (3, 0) ];
  List.iter (fun (a, b) -> add a b 100.) [ (4, 5); (5, 6); (6, 7); (7, 4) ];
  add 0 4 1.;
  t

let test_fm_bipartition_finds_cliques () =
  let t = two_cliques_traffic () in
  let left, right =
    Fm_partition.bipartition t ~cores:[ 0; 1; 2; 3; 4; 5; 6; 7 ] ~max_part:4
  in
  check int_c "balanced" 4 (List.length left);
  check int_c "balanced'" 4 (List.length right);
  (* The cut must be the single weak flow. *)
  check (Alcotest.float 1e-9) "minimal cut" 1. (Fm_partition.cut_bandwidth t left right)

let test_fm_bipartition_validation () =
  let t = two_cliques_traffic () in
  Alcotest.check_raises "too few"
    (Invalid_argument "Fm_partition.bipartition: need at least 2 cores") (fun () ->
      ignore (Fm_partition.bipartition t ~cores:[ 0 ] ~max_part:1));
  Alcotest.check_raises "impossible cap"
    (Invalid_argument "Fm_partition.bipartition: cap makes a legal split impossible")
    (fun () -> ignore (Fm_partition.bipartition t ~cores:[ 0; 1; 2; 3 ] ~max_part:1))

let test_fm_cluster_contract () =
  let t = two_cliques_traffic () in
  let m = Fm_partition.cluster t ~n_switches:4 in
  check int_c "every core mapped" 8 (Array.length m);
  let used =
    List.sort_uniq compare (Array.to_list (Array.map Ids.Switch.to_int m))
  in
  check int_c "all switches used" 4 (List.length used);
  check bool_c "ids in range" true (List.for_all (fun s -> s >= 0 && s < 4) used)

let test_fm_cluster_beats_or_ties_greedy_cut () =
  (* On the clique example, FM's intra-cluster capture should at least
     match the greedy mapper's. *)
  let t = two_cliques_traffic () in
  let fm = Fm_partition.cluster t ~n_switches:2 in
  let greedy = Mapping.cluster t ~n_switches:2 in
  let captured m = Mapping.intra_cluster_bandwidth t m in
  check bool_c "fm captures the cliques" true (captured fm >= captured greedy -. 1e-9);
  check (Alcotest.float 1e-9) "fm optimal here" 800. (captured fm)

let test_fm_cluster_deterministic () =
  let spec =
    match Noc_benchmarks.Registry.find "D26_media" with
    | Some s -> s
    | None -> Alcotest.fail "missing benchmark"
  in
  let a = Fm_partition.cluster (spec.Noc_benchmarks.Spec.build ()) ~n_switches:7 in
  let b = Fm_partition.cluster (spec.Noc_benchmarks.Spec.build ()) ~n_switches:7 in
  check bool_c "identical" true (a = b)

let test_fm_synthesis_end_to_end () =
  let spec =
    match Noc_benchmarks.Registry.find "D36_8" with
    | Some s -> s
    | None -> Alcotest.fail "missing benchmark"
  in
  let options = { Custom.default_options with Custom.mapper = Custom.Min_cut } in
  let net =
    Custom.synthesize_exn ~options (spec.Noc_benchmarks.Spec.build ()) ~n_switches:12
  in
  Fixtures.check_valid "min-cut synthesized" net;
  check bool_c "removal works on it" true
    (Noc_deadlock.Removal.run net).Noc_deadlock.Removal.deadlock_free

(* ------------------------------------------------------------------ *)
(* Mesh routing functions                                              *)
(* ------------------------------------------------------------------ *)

let mesh_net columns rows ~vcs =
  let n = columns * rows in
  let topo = Regular.mesh ~columns ~rows in
  if vcs > 1 then
    List.iter
      (fun (l : Topology.link) ->
        for _ = 2 to vcs do
          ignore (Topology.add_vc topo l.Topology.id)
        done)
      (Topology.links topo);
  let traffic = Traffic.create ~n_cores:n in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      if s <> d then
        ignore (Traffic.add_flow traffic ~src:(core s) ~dst:(core d) ~bandwidth:5.)
    done
  done;
  Network.make ~topology:topo ~traffic ~mapping:(fun c -> sw (Ids.Core.to_int c))

let test_xy_static_properties () =
  let net = mesh_net 3 3 ~vcs:1 in
  let rf = Mesh_routing.xy_static ~columns:3 ~rows:3 net in
  (* sw0 -> sw8 (corner to corner): first hop is +x, on VC 0. *)
  (match Routing_function.options rf ~at:(sw 0) ~dst:(sw 8) with
  | [ c ] ->
      let topo = Network.topology net in
      let info = Topology.link topo (Noc_model.Channel.link c) in
      check int_c "x first" 1 (Ids.Switch.to_int info.Topology.dst);
      check int_c "vc 0" 0 (Noc_model.Channel.vc c)
  | l -> Alcotest.failf "expected a single option, got %d" (List.length l));
  check bool_c "connected" true (Routing_function.is_connected rf net = Ok ());
  (* XY is deadlock-free: Duato with every channel as escape. *)
  let v = Noc_deadlock.Duato.check net rf ~escape:Noc_deadlock.Duato.escape_everything in
  check bool_c "XY Duato-free" true v.Noc_deadlock.Duato.deadlock_free

let test_adaptive_escape_structure () =
  let net = mesh_net 3 3 ~vcs:2 in
  let rf = Mesh_routing.adaptive_with_xy_escape ~columns:3 ~rows:3 net in
  (* Corner to opposite corner: 2 minimal directions + 1 escape. *)
  let opts = Routing_function.options rf ~at:(sw 0) ~dst:(sw 8) in
  check int_c "three options" 3 (List.length opts);
  let escapes = List.filter (fun c -> Noc_model.Channel.vc c = 0) opts in
  check int_c "exactly one escape" 1 (List.length escapes);
  (* Duato's condition holds with VC 0 as the escape set. *)
  let v = Noc_deadlock.Duato.check net rf ~escape:(fun c -> Noc_model.Channel.vc c = 0) in
  check bool_c "Duato-free" true v.Noc_deadlock.Duato.deadlock_free

(* ------------------------------------------------------------------ *)
(* Floorplan                                                           *)
(* ------------------------------------------------------------------ *)

let test_floorplan_grid () =
  let t = Regular.mesh ~columns:3 ~rows:3 in
  let fp = Floorplan.make t in
  check (Alcotest.pair int_c int_c) "switch 4 center" (1, 1)
    (Floorplan.position fp (sw 4));
  check (Alcotest.pair int_c int_c) "switch 8 corner" (2, 2)
    (Floorplan.position fp (sw 8))

let test_floorplan_lengths () =
  let t = Topology.create ~n_switches:4 in
  let l_short = Topology.add_link t ~src:(sw 0) ~dst:(sw 1) in
  let l_long = Topology.add_link t ~src:(sw 0) ~dst:(sw 3) in
  let fp = Floorplan.make t in
  (* Grid is 2x2: 0=(0,0), 1=(1,0), 3=(1,1). *)
  check (Alcotest.float 1e-9) "adjacent 1mm" 1.0 (Floorplan.link_length_mm fp l_short);
  check (Alcotest.float 1e-9) "diagonal 2mm" 2.0 (Floorplan.link_length_mm fp l_long);
  check (Alcotest.float 1e-9) "total" 3.0 (Floorplan.total_wire_mm fp)

let test_floorplan_tile_scaling () =
  let t = Topology.create ~n_switches:4 in
  let l = Topology.add_link t ~src:(sw 0) ~dst:(sw 1) in
  let fp = Floorplan.make ~tile_mm:2.5 t in
  check (Alcotest.float 1e-9) "scaled" 2.5 (Floorplan.link_length_mm fp l);
  let w, h = Floorplan.bounding_box_mm fp in
  check (Alcotest.float 1e-9) "bbox w" 5.0 w;
  check (Alcotest.float 1e-9) "bbox h" 5.0 h

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let traffic_gen =
  QCheck.Gen.(
    let* n_cores = int_range 4 20 in
    let* n_flows = int_range 3 40 in
    let* pairs =
      list_size (return n_flows)
        (triple (int_bound (n_cores - 1)) (int_bound (n_cores - 1)) (int_range 1 20))
    in
    return (n_cores, pairs))

let build_traffic (n_cores, pairs) =
  let t = Traffic.create ~n_cores in
  List.iter
    (fun (a, b, w) ->
      if a <> b then
        ignore
          (Traffic.add_flow t ~src:(core a) ~dst:(core b)
             ~bandwidth:(10. *. float_of_int w)))
    pairs;
  t

let arbitrary_traffic =
  QCheck.make
    ~print:(fun (n, pairs) ->
      Printf.sprintf "cores=%d flows=%d" n (List.length pairs))
    traffic_gen

let prop_synthesis_always_valid =
  QCheck.Test.make ~name:"synthesis yields valid routable networks" ~count:80
    arbitrary_traffic (fun input ->
      let traffic = build_traffic input in
      let n_cores = Traffic.n_cores traffic in
      let n_switches = max 2 (n_cores / 2) in
      if Traffic.n_flows traffic = 0 then true
      else
        match Custom.synthesize traffic ~n_switches with
        | Ok net -> Validate.is_valid net
        | Error _ -> false)

let prop_mapping_within_range =
  QCheck.Test.make ~name:"mapping targets valid switches and uses them all"
    ~count:80 arbitrary_traffic (fun input ->
      let traffic = build_traffic input in
      let n_cores = Traffic.n_cores traffic in
      let n_switches = max 1 (n_cores / 3) in
      let m = Mapping.cluster traffic ~n_switches in
      let used = List.sort_uniq compare (Array.to_list (Array.map Ids.Switch.to_int m)) in
      List.for_all (fun s -> s >= 0 && s < n_switches) used
      && List.length used = n_switches)

let prop_removal_works_on_synthesized =
  QCheck.Test.make ~name:"removal succeeds on every synthesized design" ~count:60
    arbitrary_traffic (fun input ->
      let traffic = build_traffic input in
      if Traffic.n_flows traffic = 0 then true
      else begin
        let n_switches = max 2 (Traffic.n_cores traffic / 2) in
        let net = Custom.synthesize_exn traffic ~n_switches in
        let report = Noc_deadlock.Removal.run net in
        report.Noc_deadlock.Removal.deadlock_free && Validate.is_valid net
      end)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_synthesis_always_valid; prop_mapping_within_range;
      prop_removal_works_on_synthesized ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "noc_synth"
    [
      ( "regular",
        [
          tc "ring shape" test_ring_shape;
          tc "ring too small" test_ring_too_small;
          tc "mesh shape" test_mesh_shape;
          tc "torus wraps" test_torus_wraps;
          tc "torus dimension-2 rule" test_torus_no_duplicate_on_2;
          tc "fully connected" test_fully_connected;
        ] );
      ( "mapping",
        [
          tc "range checks" test_mapping_range_checks;
          tc "identity when switches = cores" test_mapping_identity_when_equal;
          tc "uses all switches" test_mapping_uses_all_switches;
          tc "groups heavy pairs" test_mapping_groups_heavy_pairs;
          tc "balance cap" test_mapping_balance_cap;
          tc "deterministic" test_mapping_deterministic;
          tc "intra-cluster bandwidth" test_intra_cluster_bandwidth;
        ] );
      ( "custom",
        [
          tc "valid design" test_synthesize_valid_design;
          tc "every flow routed" test_synthesize_every_flow_routed;
          tc "degree budget" test_synthesize_respects_degree_budget_mostly;
          tc "deterministic" test_synthesize_deterministic;
          tc "switch count sweep" test_synthesize_switch_count_sweep;
          tc "golden cold-mix designs and power" test_golden_cold_mix_designs;
          tc "golden option variants" test_golden_option_variants;
        ] );
      ( "fm_partition",
        [
          tc "finds cliques" test_fm_bipartition_finds_cliques;
          tc "validation" test_fm_bipartition_validation;
          tc "cluster contract" test_fm_cluster_contract;
          tc "captures at least as much as greedy" test_fm_cluster_beats_or_ties_greedy_cut;
          tc "deterministic" test_fm_cluster_deterministic;
          tc "end-to-end synthesis" test_fm_synthesis_end_to_end;
        ] );
      ( "mesh_routing",
        [
          tc "xy static" test_xy_static_properties;
          tc "adaptive with escape" test_adaptive_escape_structure;
        ] );
      ( "floorplan",
        [
          tc "grid positions" test_floorplan_grid;
          tc "manhattan lengths" test_floorplan_lengths;
          tc "tile scaling" test_floorplan_tile_scaling;
        ] );
      ("properties", qcheck_cases);
    ]
