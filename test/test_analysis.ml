(* The static-analysis framework: every diagnostic code has at least
   one test that triggers it, the engine orders and counts findings as
   documented, the renderers emit well-formed documents, and the
   qcheck properties tie the linter to the certificate machinery
   (acyclic => numbering accepted; any single-step route mutation is
   caught). *)

open Noc_model
open Noc_analysis

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string
let sw = Fixtures.sw
let core = Fixtures.core
let lk = Fixtures.lk
let ch = Fixtures.ch

let run_pass (pass : Pass.t) net =
  pass.Pass.run (Pass.Design (Facts.of_network net))
let codes ds = List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code.Diag_code.code) ds
let has_code c ds = List.mem c (codes ds)

let check_code name expected ds =
  check bool_c (name ^ ": fires " ^ expected) true (has_code expected ds)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* The code table                                                      *)
(* ------------------------------------------------------------------ *)

let test_code_table () =
  let codes = List.map (fun (c : Diag_code.t) -> c.Diag_code.code) Diag_code.all in
  check int_c "30 published codes" 30 (List.length codes);
  check int_c "codes are unique" (List.length codes)
    (List.length (List.sort_uniq String.compare codes));
  List.iter
    (fun c ->
      (match Diag_code.find c.Diag_code.code with
      | Some c' -> check bool_c (c.Diag_code.code ^ " find round-trip") true (c == c')
      | None -> Alcotest.failf "%s not found" c.Diag_code.code);
      check bool_c
        (c.Diag_code.code ^ " severity string round-trip")
        true
        (Diag_code.severity_of_string
           (Diag_code.severity_to_string c.Diag_code.severity)
        = Some c.Diag_code.severity))
    Diag_code.all;
  check bool_c "unknown code" true (Diag_code.find "NOC-NOPE-001" = None);
  check bool_c "Error >= Warning" true
    (Diag_code.severity_at_least ~floor:Diag_code.Warning Diag_code.Error);
  check bool_c "Info < Warning" false
    (Diag_code.severity_at_least ~floor:Diag_code.Warning Diag_code.Info)

(* Satellite 1: Validate issues carry the shared codes directly. *)
let test_validate_carries_codes () =
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  Network.set_route net ring.Fixtures.flows.(0) [];
  match Validate.check net with
  | [ i ] ->
      check string_c "code" "NOC-ROUTE-001" i.Validate.code.Diag_code.code;
      check string_c "message" "flow has no route" i.Validate.message
  | issues -> Alcotest.failf "expected one issue, got %d" (List.length issues)

(* ------------------------------------------------------------------ *)
(* Design passes, one trigger per code                                 *)
(* ------------------------------------------------------------------ *)

let test_route_codes () =
  (* NOC-ROUTE-001: a flow with no route at all. *)
  let ring = Fixtures.paper_ring () in
  Network.set_route ring.Fixtures.net ring.Fixtures.flows.(0) [];
  let ds = run_pass Passes.routes ring.Fixtures.net in
  check_code "missing" "NOC-ROUTE-001" ds;
  (match ds with
  | [ d ] ->
      check string_c "at the flow" "flow/0"
        (Diagnostic.location_path d.Diagnostic.location);
      check bool_c "suggests a fix" true (d.Diagnostic.fix <> None);
      check string_c "error severity" "error"
        (Diag_code.severity_to_string (Diagnostic.severity d))
  | _ -> Alcotest.fail "expected exactly one finding");
  (* NOC-ROUTE-002: a route that does not follow the topology. *)
  let ring = Fixtures.paper_ring () in
  Network.set_route ring.Fixtures.net ring.Fixtures.flows.(0) [ ch 0; ch 2 ];
  check_code "discontinuity" "NOC-ROUTE-002"
    (run_pass Passes.routes ring.Fixtures.net);
  (* NOC-ROUTE-003: a VC the link does not have. *)
  let ring = Fixtures.paper_ring () in
  Network.set_route ring.Fixtures.net ring.Fixtures.flows.(0)
    [ ch ~vc:7 0; ch 1; ch 2 ];
  check_code "bad vc" "NOC-ROUTE-003" (run_pass Passes.routes ring.Fixtures.net);
  (* NOC-ROUTE-004: a route that revisits a channel. *)
  let ring = Fixtures.paper_ring () in
  Network.set_route ring.Fixtures.net ring.Fixtures.flows.(0)
    [ ch 0; ch 1; ch 2; ch 3; ch 0; ch 1; ch 2 ];
  check_code "revisit" "NOC-ROUTE-004" (run_pass Passes.routes ring.Fixtures.net)

let two_component_net () =
  let topo = Topology.create ~n_switches:4 in
  let pairs = [ (0, 1); (1, 0); (2, 3); (3, 2) ] in
  List.iter
    (fun (a, b) -> ignore (Topology.add_link topo ~src:(sw a) ~dst:(sw b)))
    pairs;
  let traffic = Traffic.create ~n_cores:4 in
  let f1 = Traffic.add_flow traffic ~src:(core 0) ~dst:(core 1) ~bandwidth:10. in
  let f2 = Traffic.add_flow traffic ~src:(core 2) ~dst:(core 3) ~bandwidth:10. in
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c -> sw (Ids.Core.to_int c))
  in
  let first ~src ~dst =
    match Topology.find_links topo ~src ~dst with
    | l :: _ -> Channel.make l.Topology.id 0
    | [] -> assert false
  in
  Network.set_route net f1 [ first ~src:(sw 0) ~dst:(sw 1) ];
  Network.set_route net f2 [ first ~src:(sw 2) ~dst:(sw 3) ];
  net

let test_topo_codes () =
  (* NOC-TOPO-001: two components, every switch still attached. *)
  let net = two_component_net () in
  Fixtures.check_valid "two components" net;
  let ds = run_pass Passes.connectivity net in
  check_code "disconnected" "NOC-TOPO-001" ds;
  check bool_c "no isolated switch" false (has_code "NOC-TOPO-002" ds);
  (* NOC-TOPO-002: a switch with no links at all. *)
  let topo = Topology.create ~n_switches:3 in
  ignore (Topology.add_link topo ~src:(sw 0) ~dst:(sw 1));
  let traffic = Traffic.create ~n_cores:2 in
  let f = Traffic.add_flow traffic ~src:(core 0) ~dst:(core 1) ~bandwidth:10. in
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c -> sw (Ids.Core.to_int c))
  in
  Network.set_route net f [ ch 0 ];
  let ds = run_pass Passes.connectivity net in
  check_code "isolated" "NOC-TOPO-002" ds;
  let isolated =
    List.find
      (fun (d : Diagnostic.t) ->
        d.Diagnostic.code.Diag_code.code = "NOC-TOPO-002")
      ds
  in
  check string_c "at the switch" "switch/2"
    (Diagnostic.location_path isolated.Diagnostic.location)

(* A context's floor skips the findings below it and keeps the rest:
   at an Error floor neither the ring's knot (warning) nor its VC bound
   (info) nor an isolated switch's warning is built, and the
   disconnection error still is. *)
let test_facts_floor () =
  let at floor (pass : Pass.t) net =
    List.sort compare (codes (pass.Pass.run (Pass.Design (Facts.of_network ~floor net))))
  in
  let codes_c = Alcotest.(list string) in
  let ring = (Fixtures.paper_ring ()).Fixtures.net in
  check codes_c "ring, every finding" [ "NOC-DLF-003"; "NOC-DLF-004" ]
    (at Diag_code.Info Passes.deadlock_freedom ring);
  check codes_c "ring, warnings up" [ "NOC-DLF-003" ]
    (at Diag_code.Warning Passes.deadlock_freedom ring);
  check codes_c "ring, errors only" [] (at Diag_code.Error Passes.deadlock_freedom ring);
  let topo = Topology.create ~n_switches:3 in
  ignore (Topology.add_link topo ~src:(sw 0) ~dst:(sw 1));
  let traffic = Traffic.create ~n_cores:2 in
  let f = Traffic.add_flow traffic ~src:(core 0) ~dst:(core 1) ~bandwidth:10. in
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c -> sw (Ids.Core.to_int c))
  in
  Network.set_route net f [ ch 0 ];
  check codes_c "isolated switch, every finding" [ "NOC-TOPO-001"; "NOC-TOPO-002" ]
    (at Diag_code.Info Passes.connectivity net);
  check codes_c "isolated switch, errors only" [ "NOC-TOPO-001" ]
    (at Diag_code.Error Passes.connectivity net)

let test_dead_hardware_codes () =
  (* NOC-CHAN-001: a link no route crosses. *)
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  let dead = Topology.add_link (Network.topology net) ~src:(sw 0) ~dst:(sw 2) in
  let ds = run_pass Passes.dead_channels net in
  check_code "dead link" "NOC-CHAN-001" ds;
  (match ds with
  | [ d ] ->
      check string_c "at the link"
        (Printf.sprintf "link/%d" (Ids.Link.to_int dead))
        (Diagnostic.location_path d.Diagnostic.location)
  | _ -> Alcotest.fail "expected exactly one dead link");
  (* A fully dead link is not also a dead-VC finding. *)
  check int_c "dead link is not a dead VC" 0
    (List.length (run_pass Passes.dead_vcs net));
  (* NOC-VC-001: an extra VC on a live link that no route uses. *)
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  ignore (Topology.add_vc (Network.topology net) (lk 0));
  let ds = run_pass Passes.dead_vcs net in
  check_code "dead vc" "NOC-VC-001" ds;
  (match ds with
  | [ d ] ->
      check string_c "at the channel" "channel/0.1"
        (Diagnostic.location_path d.Diagnostic.location)
  | _ -> Alcotest.fail "expected exactly one dead VC")

let test_cycle_witness () =
  (* NOC-CYCLE-001: the paper ring's one CDG cycle, as a warning. *)
  let ring = Fixtures.paper_ring () in
  match run_pass Passes.cdg_cycle ring.Fixtures.net with
  | [ d ] ->
      check string_c "code" "NOC-CYCLE-001" d.Diagnostic.code.Diag_code.code;
      check string_c "warning severity" "warning"
        (Diag_code.severity_to_string (Diagnostic.severity d));
      check bool_c "names the four channels" true
        (contains ~needle:"4 channels" d.Diagnostic.message)
  | ds -> Alcotest.failf "expected one cycle witness, got %d" (List.length ds)

let test_cycle_clean_on_mesh () =
  let net = Fixtures.xy_mesh_2x2 () in
  check int_c "xy mesh has no CDG cycle" 0
    (List.length (run_pass Passes.cdg_cycle net));
  check int_c "xy mesh certificate rechecks" 0
    (List.length (run_pass Passes.certificate net))

let test_certificate_recheck () =
  (* NOC-CERT-001 via the exposed recheck: a corrupted numbering on an
     acyclic design. *)
  let net = Fixtures.xy_mesh_2x2 () in
  (match (Noc_deadlock.Verify.certify net).Noc_deadlock.Verify.numbering with
  | None -> Alcotest.fail "xy mesh should certify acyclic"
  | Some numbering ->
      check int_c "true numbering rechecks clean" 0
        (List.length (Passes.recheck_numbering net numbering)));
  match Passes.recheck_numbering net [] with
  | [ d ] ->
      check string_c "code" "NOC-CERT-001" d.Diagnostic.code.Diag_code.code;
      check string_c "error severity" "error"
        (Diag_code.severity_to_string (Diagnostic.severity d))
  | ds -> Alcotest.failf "expected one recheck finding, got %d" (List.length ds)

let test_escape_codes () =
  (* NOC-ESC-002: on the all-VC0 ring the escape set is the whole
     (cyclic) CDG. *)
  let ring = Fixtures.paper_ring () in
  let ds = run_pass Passes.escape ring.Fixtures.net in
  check_code "cyclic escape" "NOC-ESC-002" ds;
  check bool_c "ring escape set is connected" false (has_code "NOC-ESC-001" ds);
  (* NOC-ESC-001: move one flow's first hop onto VC1 — the VC0
     restriction of the static routing function can no longer deliver
     it. *)
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  ignore (Topology.add_vc (Network.topology net) (lk 0));
  Network.set_route net ring.Fixtures.flows.(0) [ ch ~vc:1 0; ch 1; ch 2 ];
  Fixtures.check_valid "vc1 detour" net;
  check_code "disconnected escape" "NOC-ESC-001" (run_pass Passes.escape net)

let test_bandwidth_codes () =
  (* Ring loads: L0 carries F1+F3+F4 = 300 MB/s, the rest 200 MB/s. *)
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  (* NOC-BW-001 at 250 MB/s: only L0 is oversubscribed. *)
  (match run_pass (Passes.bandwidth ~capacity_mbps:250.) net with
  | [ d ] ->
      check string_c "code" "NOC-BW-001" d.Diagnostic.code.Diag_code.code;
      check string_c "at link 0" "link/0"
        (Diagnostic.location_path d.Diagnostic.location);
      check string_c "warning severity" "warning"
        (Diag_code.severity_to_string (Diagnostic.severity d))
  | ds -> Alcotest.failf "expected one oversubscription, got %d" (List.length ds));
  (* NOC-BW-002 at 320 MB/s: L0 sits at 94%, nothing is over. *)
  (match run_pass (Passes.bandwidth ~capacity_mbps:320.) net with
  | [ d ] ->
      check string_c "code" "NOC-BW-002" d.Diagnostic.code.Diag_code.code;
      check string_c "info severity" "info"
        (Diag_code.severity_to_string (Diagnostic.severity d))
  | ds -> Alcotest.failf "expected one near-saturation, got %d" (List.length ds));
  (* Plenty of headroom: clean. *)
  check int_c "clean at 4000" 0
    (List.length (run_pass (Passes.bandwidth ~capacity_mbps:4000.) net))

let test_route_gating () =
  (* Passes that interpret routes stand down while the routes pass has
     findings — broken routes are its finding, not theirs. *)
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  Network.set_route net ring.Fixtures.flows.(0) [ ch ~vc:7 0 ];
  List.iter
    (fun (pass : Pass.t) ->
      check int_c (pass.Pass.name ^ " stands down") 0
        (List.length (run_pass pass net)))
    [
      Passes.cdg_cycle;
      Passes.certificate;
      Passes.deadlock_freedom;
      Passes.escape;
      Passes.bandwidth ~capacity_mbps:250.;
    ]

(* ------------------------------------------------------------------ *)
(* The independent deadlock-freedom prover (NOC-DLF codes)             *)
(* ------------------------------------------------------------------ *)

module DF = Deadlock_freedom

let test_dlf_verdicts () =
  (* The paper ring: all four channels form one waiting knot. *)
  let ring = Fixtures.paper_ring () in
  let v = DF.analyze ring.Fixtures.net in
  check bool_c "ring can deadlock" false v.DF.deadlock_free;
  (match v.DF.knot with
  | Some knot -> check int_c "knot of 4 channels" 4 (List.length knot)
  | None -> Alcotest.fail "expected a knot");
  (match v.DF.knot_cycle with
  | Some cycle -> check int_c "cycle of 4 channels" 4 (List.length cycle)
  | None -> Alcotest.fail "expected a knot cycle");
  check bool_c "no escape ordering" true (v.DF.escape_order = None);
  (* The xy mesh: deadlock-free with a full, replayable ordering. *)
  let mesh = Fixtures.xy_mesh_2x2 () in
  let v = DF.analyze mesh in
  check bool_c "mesh is deadlock-free" true v.DF.deadlock_free;
  match v.DF.escape_order with
  | Some order ->
      check int_c "ordering covers every channel" v.DF.n_channels
        (List.length order);
      check bool_c "ordering replays" true (DF.check_escape_order mesh order);
      (* The replay really checks something: reversing the order (or
         dropping a channel) must fail whenever some route chains two
         channels. *)
      check bool_c "reversed ordering rejected" false
        (DF.check_escape_order mesh (List.rev order));
      check bool_c "truncated ordering rejected" false
        (DF.check_escape_order mesh (List.tl order))
  | None -> Alcotest.fail "expected an escape ordering"

let test_dlf_pass_codes () =
  (* NOC-DLF-003 (knot witness) and NOC-DLF-004 (VC lower bound) on the
     ring; silence on the mesh. *)
  let ring = Fixtures.paper_ring () in
  let ds = run_pass Passes.deadlock_freedom ring.Fixtures.net in
  check_code "knot" "NOC-DLF-003" ds;
  check_code "vc bound" "NOC-DLF-004" ds;
  check bool_c "the two provers agree on the ring" false
    (has_code "NOC-DLF-001" ds || has_code "NOC-DLF-002" ds);
  check int_c "mesh is clean" 0
    (List.length (run_pass Passes.deadlock_freedom (Fixtures.xy_mesh_2x2 ())));
  (* NOC-DLF-001/002 via the exposed cross-check — inside the pass they
     only fire when one of the two provers is actually buggy. *)
  let v_free = DF.analyze (Fixtures.xy_mesh_2x2 ()) in
  let v_knot = DF.analyze ring.Fixtures.net in
  (match Passes.cross_check_findings ~certified_acyclic:true v_knot with
  | [ d ] ->
      check string_c "prover rejects certified" "NOC-DLF-001"
        d.Diagnostic.code.Diag_code.code;
      check string_c "error severity" "error"
        (Diag_code.severity_to_string (Diagnostic.severity d))
  | ds -> Alcotest.failf "expected one finding, got %d" (List.length ds));
  (match Passes.cross_check_findings ~certified_acyclic:false v_free with
  | [ d ] ->
      check string_c "prover accepts rejected" "NOC-DLF-002"
        d.Diagnostic.code.Diag_code.code
  | ds -> Alcotest.failf "expected one finding, got %d" (List.length ds));
  check int_c "agreement is silent (free)" 0
    (List.length (Passes.cross_check_findings ~certified_acyclic:true v_free));
  check int_c "agreement is silent (knot)" 0
    (List.length
       (Passes.cross_check_findings ~certified_acyclic:false v_knot));
  (* NOC-DLF-005 via the exposed replay. *)
  let mesh = Fixtures.xy_mesh_2x2 () in
  (match Passes.escape_order_findings mesh [] with
  | [ d ] ->
      check string_c "replay rejects the empty ordering" "NOC-DLF-005"
        d.Diagnostic.code.Diag_code.code
  | ds -> Alcotest.failf "expected one finding, got %d" (List.length ds));
  match (DF.analyze mesh).DF.escape_order with
  | Some order ->
      check int_c "true ordering accepted" 0
        (List.length (Passes.escape_order_findings mesh order))
  | None -> Alcotest.fail "expected an escape ordering"

let test_dlf_vc_bound () =
  let ring = Fixtures.paper_ring () in
  let b = DF.vc_lower_bound ring.Fixtures.net in
  check int_c "ring bound is 1" 1 b.DF.lower_bound;
  (match b.DF.disjoint_cycles with
  | [ cycle ] -> check int_c "one 4-cycle" 4 (List.length cycle)
  | cs -> Alcotest.failf "expected one packed cycle, got %d" (List.length cs));
  (* The bound is sound against what removal actually pays, and drops
     to 0 once the design is deadlock-free. *)
  let report = Noc_deadlock.Removal.run ring.Fixtures.net in
  check bool_c "bound <= vcs added" true
    (b.DF.lower_bound <= report.Noc_deadlock.Removal.vcs_added);
  check int_c "free design has bound 0" 0
    (DF.vc_lower_bound ring.Fixtures.net).DF.lower_bound

(* The CLI's --all-benchmarks shape: every registry benchmark at
   min(14, cores) with the default synthesis options. *)
let synthesize_benchmark name =
  let spec = Option.get (Noc_benchmarks.Registry.find name) in
  let traffic = spec.Noc_benchmarks.Spec.build () in
  let n_switches = min 14 (Traffic.n_cores traffic) in
  match Noc_synth.Custom.synthesize traffic ~n_switches with
  | Ok net -> net
  | Error e -> Alcotest.failf "synthesize %s: %s" name e

let provers_agree net =
  Bool.equal
    (Noc_deadlock.Verify.certify net).Noc_deadlock.Verify.acyclic
    (DF.analyze net).DF.deadlock_free

let test_dlf_registry_agreement () =
  (* The acceptance criterion: on every registry benchmark — as-is and
     removal-prepared — the independent prover and Verify.certify
     agree, and the static lower bound never exceeds what removal
     paid. *)
  List.iter
    (fun name ->
      let net = synthesize_benchmark name in
      check bool_c (name ^ " as-is agreement") true (provers_agree net);
      let bound = DF.vc_lower_bound net in
      let report = Noc_deadlock.Removal.run net in
      check bool_c (name ^ " bound <= vcs added") true
        (bound.DF.lower_bound <= report.Noc_deadlock.Removal.vcs_added);
      check bool_c (name ^ " removal-prepared agreement") true
        (provers_agree net);
      check bool_c (name ^ " removal-prepared is proven free") true
        (DF.analyze net).DF.deadlock_free)
    Noc_benchmarks.Registry.names

(* The VC lower bound against the reference formulation in
   [Lower_bound_oracle]: equal bounds and equal packed cycles, in
   order. *)
let bounds_match net =
  let b = DF.vc_lower_bound net
  and o = Lower_bound_oracle.vc_lower_bound net in
  b.DF.lower_bound = o.DF.lower_bound
  && List.equal (List.equal Channel.equal) b.DF.disjoint_cycles
       o.DF.disjoint_cycles

let test_dlf_bound_matches_oracle_on_registry () =
  (* Every registry design point, as the cold-mix registry jobs
     synthesize it (switches 2-26 x max_degree 3-5). *)
  let positive = ref 0 in
  List.iter
    (fun (spec : Noc_benchmarks.Spec.t) ->
      List.iter
        (fun n_switches ->
          List.iter
            (fun d ->
              let options =
                {
                  Noc_synth.Custom.default_options with
                  Noc_synth.Custom.max_out_degree = d;
                  max_in_degree = d;
                }
              in
              let net =
                Noc_synth.Custom.synthesize_exn ~options
                  (spec.Noc_benchmarks.Spec.build ())
                  ~n_switches
              in
              if (DF.vc_lower_bound net).DF.lower_bound > 0 then incr positive;
              check bool_c
                (Printf.sprintf "%s@%d/%d" spec.Noc_benchmarks.Spec.name
                   n_switches d)
                true (bounds_match net))
            [ 3; 4; 5 ])
        (List.init 25 (fun i -> i + 2)))
    Noc_benchmarks.Registry.all;
  check int_c "designs with a positive bound" 135 !positive

let test_dlf_sim_triangle () =
  (* The third leg of the cross-check triangle: the dynamic simulator.
     On the paper ring the prover predicts a deadlock and the simulator
     exhibits one; after removal the prover proves freedom and the
     simulator completes the same workload. *)
  let ring = Fixtures.paper_ring () in
  let net = ring.Fixtures.net in
  let burst net =
    Noc_sim.Traffic_gen.burst net ~packet_length:8 ~packets_per_flow:2
  in
  check bool_c "prover rejects the baseline" false
    (DF.analyze net).DF.deadlock_free;
  (match Noc_sim.Engine.run net (burst net) with
  | Noc_sim.Engine.Deadlocked _ -> ()
  | _ -> Alcotest.fail "ring should deadlock under burst");
  ignore (Noc_deadlock.Removal.run net);
  check bool_c "prover accepts the prepared design" true
    (DF.analyze net).DF.deadlock_free;
  match Noc_sim.Engine.run net (burst net) with
  | Noc_sim.Engine.Deadlocked _ ->
      Alcotest.fail "a proven-free design deadlocked in simulation"
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* The engine and renderers                                            *)
(* ------------------------------------------------------------------ *)

let test_engine_on_ring () =
  let ring = Fixtures.paper_ring () in
  let report =
    Engine.analyze
      ~passes:(Registry.design_passes ())
      ~label:"paper-ring"
      (Pass.Design (Facts.of_network ring.Fixtures.net))
  in
  check int_c "all nine passes ran" 9 (List.length report.Engine.passes_run);
  check bool_c "pass names match the registry" true
    (report.Engine.passes_run = Registry.names);
  (* The pre-removal ring lints clean at error level: its deadlock
     potential is the three warnings (cycle witness, waiting knot,
     cyclic escape set) plus the VC lower-bound info. *)
  check bool_c "cycle witness" true
    (has_code "NOC-CYCLE-001" report.Engine.diagnostics);
  check bool_c "waiting knot" true
    (has_code "NOC-DLF-003" report.Engine.diagnostics);
  check bool_c "cyclic escape" true
    (has_code "NOC-ESC-002" report.Engine.diagnostics);
  check bool_c "vc lower bound" true
    (has_code "NOC-DLF-004" report.Engine.diagnostics);
  let errors, warnings, infos = Engine.totals [ report ] in
  check int_c "no errors" 0 errors;
  check int_c "three warnings" 3 warnings;
  check int_c "one info" 1 infos;
  check bool_c "worst is warning" true
    (Engine.worst report = Some Diag_code.Warning);
  check int_c "fail-on=error counts none" 0
    (Engine.count_at_least ~floor:Diag_code.Error [ report ]);
  check int_c "fail-on=warning counts the warnings" 3
    (Engine.count_at_least ~floor:Diag_code.Warning [ report ]);
  (* Diagnostics come out sorted, most severe first. *)
  check bool_c "sorted by severity" true
    (List.sort Diagnostic.compare report.Engine.diagnostics
    = report.Engine.diagnostics)

let test_engine_clean_on_mesh () =
  let report =
    Engine.analyze
      ~passes:(Registry.design_passes ())
      ~label:"xy-mesh"
      (Pass.Design (Facts.of_network (Fixtures.xy_mesh_2x2 ())))
  in
  check int_c "xy mesh lints clean" 0 (List.length report.Engine.diagnostics);
  check bool_c "worst is none" true (Engine.worst report = None)

let ring_report () =
  let ring = Fixtures.paper_ring () in
  Engine.analyze
    ~passes:(Registry.design_passes ())
    ~label:"paper-ring"
    (Pass.Design (Facts.of_network ring.Fixtures.net))

let test_render_json () =
  let open Noc_json in
  let doc = Render.json ~version:"test" [ ring_report () ] in
  check string_c "schema" "noc-lint/1" (Json.to_str (Json.field "schema" doc));
  let summary = Json.field "summary" doc in
  check int_c "summary errors" 0 (Json.to_int (Json.field "errors" summary));
  check int_c "summary warnings" 3 (Json.to_int (Json.field "warnings" summary));
  let reports = Json.to_list (Json.field "reports" doc) in
  check int_c "one report" 1 (List.length reports);
  let report = List.hd reports in
  check string_c "target" "paper-ring" (Json.to_str (Json.field "target" report));
  let diags = Json.to_list (Json.field "diagnostics" report) in
  check int_c "four findings" 4 (List.length diags);
  List.iter
    (fun d ->
      let code = Json.to_str (Json.field "code" d) in
      check bool_c (code ^ " is published") true (Diag_code.find code <> None))
    diags;
  (* The document round-trips through the serializer. *)
  check bool_c "serialization round-trips" true
    (Json.of_string (Json.to_string doc) = Ok doc)

let test_render_sarif () =
  let open Noc_json in
  let doc = Render.sarif ~version:"test" [ ring_report () ] in
  check string_c "sarif version" "2.1.0" (Json.to_str (Json.field "version" doc));
  let runs = Json.to_list (Json.field "runs" doc) in
  check int_c "single run" 1 (List.length runs);
  let run = List.hd runs in
  let driver = Json.field "driver" (Json.field "tool" run) in
  check string_c "driver name" Render.tool_name
    (Json.to_str (Json.field "name" driver));
  let rules = Json.to_list (Json.field "rules" driver) in
  check int_c "rules cover the whole code table" (List.length Diag_code.all)
    (List.length rules);
  let results = Json.to_list (Json.field "results" run) in
  check int_c "one result per finding" 4 (List.length results);
  List.iter
    (fun r ->
      let rule = Json.to_str (Json.field "ruleId" r) in
      match Diag_code.find rule with
      | None -> Alcotest.failf "%s rule is not published" rule
      | Some code ->
          (* SARIF levels map Error -> error, Warning -> warning,
             Info -> note. *)
          let expected =
            match code.Diag_code.severity with
            | Diag_code.Error -> "error"
            | Diag_code.Warning -> "warning"
            | Diag_code.Info -> "note"
          in
          check string_c (rule ^ " level") expected
            (Json.to_str (Json.field "level" r)))
    results

let test_render_text () =
  let report = ring_report () in
  let text = Format.asprintf "%a" Render.text [ report ] in
  List.iter
    (fun needle ->
      check bool_c ("text mentions " ^ needle) true (contains ~needle text))
    [ "paper-ring"; "NOC-CYCLE-001"; "NOC-DLF-003"; "NOC-ESC-002"; "3 warnings" ]

(* ------------------------------------------------------------------ *)
(* The job-file pass: the NOC-JOB codes                                *)
(* ------------------------------------------------------------------ *)

module Job = Noc_service.Job
module Lint = Noc_service.Lint

let run_jobs_pass ?(path = "jobs.json") text =
  Lint.jobs_pass.Pass.run (Pass.Job_file { path; text })

let benchmark_job ?(name = "D26_media") ?(n_switches = 8) () =
  {
    Job.design = Job.Benchmark { name; n_switches; max_degree = 4 };
    method_ = Job.removal_defaults;
  }

let file_of_jobs jobs = Noc_json.Json.to_string (Job.list_to_json jobs)

let test_job_file_unparsable () =
  (match run_jobs_pass "not json" with
  | [ d ] ->
      check string_c "code" "NOC-JOB-001" d.Diagnostic.code.Diag_code.code;
      check string_c "at the file" "jobs.json"
        (Diagnostic.location_path d.Diagnostic.location)
  | ds -> Alcotest.failf "expected one finding, got %d" (List.length ds));
  (* Wrong schema tag is a file-level error too. *)
  match run_jobs_pass {|{"schema": "noc-jobs/999", "jobs": []}|} with
  | [ d ] -> check string_c "code" "NOC-JOB-001" d.Diagnostic.code.Diag_code.code
  | ds -> Alcotest.failf "expected one finding, got %d" (List.length ds)

let test_job_malformed () =
  let text =
    {|{"schema": "noc-jobs/1",
       "jobs": [{"design": {"benchmark": "D26_media"}, "method": "removal"}]}|}
  in
  match run_jobs_pass text with
  | [ d ] ->
      check string_c "code" "NOC-JOB-002" d.Diagnostic.code.Diag_code.code;
      check string_c "at the entry" "jobs.json#0"
        (Diagnostic.location_path d.Diagnostic.location)
  | ds -> Alcotest.failf "expected one finding, got %d" (List.length ds)

let test_job_duplicate () =
  let job = benchmark_job () in
  match run_jobs_pass (file_of_jobs [ job; job ]) with
  | [ d ] ->
      check string_c "code" "NOC-JOB-003" d.Diagnostic.code.Diag_code.code;
      check string_c "at the second entry" "jobs.json#1"
        (Diagnostic.location_path d.Diagnostic.location);
      check string_c "warning severity" "warning"
        (Diag_code.severity_to_string (Diagnostic.severity d))
  | ds -> Alcotest.failf "expected one finding, got %d" (List.length ds)

let test_job_bad_design () =
  (* Unknown benchmark, switch count out of range, degenerate degree:
     all NOC-JOB-004 errors. *)
  let cases =
    [
      benchmark_job ~name:"nope" ();
      benchmark_job ~n_switches:99 ();
      {
        Job.design =
          Job.Benchmark { name = "D26_media"; n_switches = 8; max_degree = 0 };
        method_ = Job.removal_defaults;
      };
    ]
  in
  List.iteri
    (fun i job ->
      match Lint.job_diagnostics ~location:Diagnostic.Design job with
      | [ d ] ->
          check string_c
            (Printf.sprintf "case %d code" i)
            "NOC-JOB-004" d.Diagnostic.code.Diag_code.code
      | ds ->
          Alcotest.failf "case %d: expected one finding, got %d" i
            (List.length ds))
    cases;
  (* An inline design that fails error-level lint is NOC-JOB-002. *)
  let topo = Topology.create ~n_switches:2 in
  ignore (Topology.add_link topo ~src:(sw 0) ~dst:(sw 1));
  let traffic = Traffic.create ~n_cores:2 in
  ignore (Traffic.add_flow traffic ~src:(core 0) ~dst:(core 1) ~bandwidth:10.);
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c -> sw (Ids.Core.to_int c))
  in
  (* The flow is left unrouted: NOC-ROUTE-001 at error level. *)
  let job = { Job.design = Job.Inline (Io.save net); method_ = Job.removal_defaults } in
  match Lint.job_diagnostics ~location:Diagnostic.Design job with
  | [ d ] ->
      check string_c "inline code" "NOC-JOB-002" d.Diagnostic.code.Diag_code.code;
      check bool_c "names the design finding" true
        (contains ~needle:"NOC-ROUTE-001" d.Diagnostic.message)
  | ds -> Alcotest.failf "expected one finding, got %d" (List.length ds)

let test_job_hash_unstable () =
  (* NOC-JOB-005 via the exposed recheck: feed it a tampered encoding
     (a different job's) and an unparsable one. *)
  let job = benchmark_job () in
  check int_c "own encoding is stable" 0
    (List.length
       (Lint.hash_stability ~location:Diagnostic.Design
          ~encoded:(Job.to_json job) job));
  (match
     Lint.hash_stability ~location:Diagnostic.Design
       ~encoded:(Job.to_json (benchmark_job ~n_switches:9 ()))
       job
   with
  | [ d ] ->
      check string_c "tampered code" "NOC-JOB-005"
        d.Diagnostic.code.Diag_code.code
  | ds -> Alcotest.failf "expected one finding, got %d" (List.length ds));
  match Lint.hash_stability ~location:Diagnostic.Design ~encoded:Noc_json.Json.Null job with
  | [ d ] ->
      check string_c "unparsable code" "NOC-JOB-005"
        d.Diagnostic.code.Diag_code.code
  | ds -> Alcotest.failf "expected one finding, got %d" (List.length ds)

let test_vet_job () =
  (match Lint.vet_job (benchmark_job ()) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "good job rejected: %s" msg);
  (* Duplicate detection is whole-file; a lone good job with warnings
     still passes the gate. *)
  (match Lint.vet_job (benchmark_job ~name:"nope" ()) with
  | Ok () -> Alcotest.fail "unknown benchmark accepted"
  | Error msg ->
      check bool_c "names the code" true (contains ~needle:"NOC-JOB-004" msg);
      check bool_c "reads as a lint rejection" true
        (String.length msg >= 16 && String.sub msg 0 16 = "rejected by lint"));
  (* A valid inline design passes the gate end to end. *)
  let job =
    {
      Job.design = Job.Inline (Io.save (Fixtures.xy_mesh_2x2 ()));
      method_ = Job.removal_defaults;
    }
  in
  match Lint.vet_job job with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "inline mesh rejected: %s" msg

let test_registry_jobs_clean () =
  (* Every registry benchmark, as a job, survives the gate — the same
     invariant the CI lint gate enforces design-side. *)
  List.iter
    (fun name ->
      match Lint.vet_job (benchmark_job ~name ~n_switches:14 ()) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s rejected: %s" name msg)
    Noc_benchmarks.Registry.names

(* A design may declare far more VCs than its routes use.  With
   100,000 VCs on one link, the bound once searched from every channel
   and vetting ran for minutes; the daemon reads no other client while
   it vets. *)
let test_vet_many_declared_vcs () =
  let spec = Option.get (Noc_benchmarks.Registry.find "D36_8") in
  let net =
    Noc_synth.Custom.synthesize_exn (spec.Noc_benchmarks.Spec.build ())
      ~n_switches:8
  in
  check bool_c "cyclic, so the bound is computed" false
    (DF.analyze net).DF.deadlock_free;
  let text =
    String.concat "\n"
      (List.map
         (fun line ->
           match String.split_on_char ' ' line with
           | [ "link"; "0"; src; dst; _ ] ->
               String.concat " " [ "link"; "0"; src; dst; "100000" ]
           | _ -> line)
         (String.split_on_char '\n' (Io.save net)))
  in
  let t0 = Unix.gettimeofday () in
  let verdict =
    Lint.vet_job { Job.design = Job.Inline text; method_ = Job.removal_defaults }
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match verdict with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "rejected: %s" msg);
  check bool_c (Printf.sprintf "vets within 10 s (took %.2f s)" elapsed) true
    (elapsed < 10.)

(* ------------------------------------------------------------------ *)
(* Properties (satellite 2)                                            *)
(* ------------------------------------------------------------------ *)

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
    (fun (a, b) ->
      if a <> b then ignore (Topology.add_link topo ~src:(sw a) ~dst:(sw b)))
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

let prop_certify_acyclic_implies_numbering_accepted =
  (* After removal the design certifies acyclic, the independent
     recheck accepts the numbering, and the structural lint passes all
     come back clean. *)
  QCheck.Test.make ~name:"acyclic certificate implies accepted numbering"
    ~count:100 arbitrary_net (fun input ->
      let net = build_net input in
      ignore (Noc_deadlock.Removal.run net);
      match (Noc_deadlock.Verify.certify net).Noc_deadlock.Verify.numbering with
      | None -> false
      | Some numbering ->
          Noc_deadlock.Verify.check_numbering net numbering
          && Passes.recheck_numbering net numbering = []
          && run_pass Passes.cdg_cycle net = []
          && run_pass Passes.certificate net = [])

let prop_single_step_mutation_caught =
  (* Mutating any single route step to an out-of-range VC — and,
     separately, dropping any flow's whole route — fires the routes
     pass. *)
  QCheck.Test.make ~name:"any single route-step mutation fires a lint pass"
    ~count:50 arbitrary_net (fun input ->
      let reference = build_net input in
      let topo = Network.topology reference in
      List.for_all
        (fun (f, route) ->
          route = []
          || (let dropped = build_net input in
              Network.set_route dropped f [];
              has_code "NOC-ROUTE-001" (run_pass Passes.routes dropped))
             && List.for_all
                  (fun k ->
                    let mutated = build_net input in
                    let bumped =
                      List.mapi
                        (fun i c ->
                          if i = k then
                            Channel.make (Channel.link c)
                              (Topology.vc_count topo (Channel.link c))
                          else c)
                        route
                    in
                    Network.set_route mutated f bumped;
                    run_pass Passes.routes mutated <> [])
                  (List.init (List.length route) Fun.id))
        (Network.routes reference))

let prop_corrupt_numbering_rechecked =
  (* Whenever some route chains two channels, the empty numbering (no
     channel assigned) must fail the recheck. *)
  QCheck.Test.make ~name:"corrupted numbering fires the certificate recheck"
    ~count:100 arbitrary_net (fun input ->
      let net = build_net input in
      ignore (Noc_deadlock.Removal.run net);
      let chained =
        List.exists (fun (_, r) -> List.length r >= 2) (Network.routes net)
      in
      (not chained)
      ||
      match Passes.recheck_numbering net [] with
      | [ d ] -> d.Diagnostic.code.Diag_code.code = "NOC-CERT-001"
      | _ -> false)

let prop_clean_designs_vet =
  (* The gate never rejects a job whose design lints clean at error
     level: random nets always do (their findings are warnings). *)
  QCheck.Test.make ~name:"lint gate accepts structurally valid inline designs"
    ~count:50 arbitrary_net (fun input ->
      let net = build_net input in
      let job =
        { Job.design = Job.Inline (Io.save net); method_ = Job.removal_defaults }
      in
      Lint.vet_job job = Ok ())

let prop_prover_agrees_with_certify =
  (* The differential heart of the PR: on arbitrary routed networks the
     independent escape-elimination prover and the CDG certifier reach
     the same verdict, the winning side's witness replays, and the
     deadlock-freedom pass never escalates to an error. *)
  QCheck.Test.make ~name:"independent prover agrees with Verify.certify"
    ~count:100 arbitrary_net (fun input ->
      let net = build_net input in
      let v = DF.analyze net in
      provers_agree net
      && (match v.DF.escape_order with
         | Some order -> DF.check_escape_order net order
         | None -> v.DF.knot <> None && v.DF.knot_cycle <> None)
      && List.for_all
           (fun d -> Diagnostic.severity d <> Diag_code.Error)
           (run_pass Passes.deadlock_freedom net))

let prop_removal_meets_lower_bound =
  (* Removal never beats the static lower bound, and its output is
     accepted by the independent prover with a clean pass report. *)
  QCheck.Test.make ~name:"removal cost respects the static VC lower bound"
    ~count:50 arbitrary_net (fun input ->
      let net = build_net input in
      let bound = DF.vc_lower_bound net in
      let report = Noc_deadlock.Removal.run net in
      bound.DF.lower_bound <= report.Noc_deadlock.Removal.vcs_added
      && (DF.analyze net).DF.deadlock_free
      && run_pass Passes.deadlock_freedom net = [])

let prop_lower_bound_matches_oracle =
  (* On the random nets as routed, and again once every link declares
     one more VC that no route uses. *)
  QCheck.Test.make ~name:"VC lower bound matches the reference formulation"
    ~count:200 arbitrary_net (fun input ->
      let net = build_net input in
      let as_routed = bounds_match net in
      let topo = Network.topology net in
      List.iter
        (fun (l : Topology.link) -> ignore (Topology.add_vc topo l.Topology.id))
        (Topology.links topo);
      as_routed && bounds_match net)

(* Synthetic regular topologies (ring / mesh / torus) with random flow
   sets, plus a validity-preserving route mutation: lift one route's
   first hop onto a freshly added VC. *)
let regular_net_gen =
  QCheck.Gen.(
    let* kind = int_bound 2 in
    let* columns = int_range 2 4 in
    let* rows = int_range 2 4 in
    let* pairs = list_size (int_range 1 12) (pair (int_bound 50) (int_bound 50)) in
    return (kind, columns, rows, pairs))

let build_regular (kind, columns, rows, pairs) =
  let topo =
    match kind with
    | 0 -> Noc_synth.Regular.ring ~n_switches:(columns * rows)
    | 1 -> Noc_synth.Regular.mesh ~columns ~rows
    | _ -> Noc_synth.Regular.torus ~columns ~rows
  in
  let n = Topology.n_switches topo in
  let traffic = Traffic.create ~n_cores:n in
  List.iter
    (fun (a, b) ->
      let s = a mod n and d = b mod n in
      if s <> d then
        ignore (Traffic.add_flow traffic ~src:(core s) ~dst:(core d) ~bandwidth:10.))
    pairs;
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c -> sw (Ids.Core.to_int c))
  in
  (match Routing.route_all net with Ok () -> () | Error e -> failwith e);
  net

let arbitrary_regular_net =
  QCheck.make
    ~print:(fun (kind, columns, rows, pairs) ->
      Printf.sprintf "%s %dx%d flows=%s"
        (match kind with 0 -> "ring" | 1 -> "mesh" | _ -> "torus")
        columns rows
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d>%d" a b) pairs)))
    regular_net_gen

let prop_prover_agrees_on_regular_topologies =
  QCheck.Test.make
    ~name:"independent prover agrees on ring/mesh/torus under route mutation"
    ~count:100 arbitrary_regular_net (fun input ->
      let net = build_regular input in
      let as_is = provers_agree net in
      let mutated =
        let net = build_regular input in
        (match
           List.find_opt (fun (_, r) -> r <> []) (Network.routes net)
         with
        | Some (f, (c0 :: rest)) ->
            let topo = Network.topology net in
            let link = Channel.link c0 in
            ignore (Topology.add_vc topo link);
            Network.set_route net f
              (Channel.make link (Topology.vc_count topo link - 1) :: rest)
        | _ -> ());
        provers_agree net
      in
      let prepared =
        let net = build_regular input in
        ignore (Noc_deadlock.Removal.run net);
        provers_agree net && (DF.analyze net).DF.deadlock_free
      in
      as_is && mutated && prepared)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_certify_acyclic_implies_numbering_accepted;
      prop_single_step_mutation_caught;
      prop_corrupt_numbering_rechecked;
      prop_clean_designs_vet;
      prop_prover_agrees_with_certify;
      prop_removal_meets_lower_bound;
      prop_lower_bound_matches_oracle;
      prop_prover_agrees_on_regular_topologies;
    ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "analysis"
    [
      ( "codes",
        [
          tc "table is unique and published" `Quick test_code_table;
          tc "validate carries codes" `Quick test_validate_carries_codes;
        ] );
      ( "passes",
        [
          tc "route codes" `Quick test_route_codes;
          tc "topology codes" `Quick test_topo_codes;
          tc "dead hardware codes" `Quick test_dead_hardware_codes;
          tc "cycle witness" `Quick test_cycle_witness;
          tc "clean on xy mesh" `Quick test_cycle_clean_on_mesh;
          tc "certificate recheck" `Quick test_certificate_recheck;
          tc "escape codes" `Quick test_escape_codes;
          tc "bandwidth codes" `Quick test_bandwidth_codes;
          tc "route gating" `Quick test_route_gating;
        ] );
      ( "deadlock-freedom",
        [
          tc "verdicts and witnesses" `Quick test_dlf_verdicts;
          tc "pass codes" `Quick test_dlf_pass_codes;
          tc "vc lower bound" `Quick test_dlf_vc_bound;
          tc "registry agreement" `Quick test_dlf_registry_agreement;
          tc "registry bounds match the reference" `Quick
            test_dlf_bound_matches_oracle_on_registry;
          tc "prover/simulator triangle" `Quick test_dlf_sim_triangle;
        ] );
      ( "engine",
        [
          tc "ring report" `Quick test_engine_on_ring;
          tc "mesh is clean" `Quick test_engine_clean_on_mesh;
          tc "json document" `Quick test_render_json;
          tc "sarif document" `Quick test_render_sarif;
          tc "text rendering" `Quick test_render_text;
          tc "context floor skips only what it drops" `Quick test_facts_floor;
        ] );
      ( "jobs",
        [
          tc "unparsable file" `Quick test_job_file_unparsable;
          tc "malformed entry" `Quick test_job_malformed;
          tc "duplicate entry" `Quick test_job_duplicate;
          tc "bad designs" `Quick test_job_bad_design;
          tc "hash stability recheck" `Quick test_job_hash_unstable;
          tc "batch gate" `Quick test_vet_job;
          tc "registry jobs vet clean" `Quick test_registry_jobs_clean;
          tc "many declared VCs vet in time" `Quick test_vet_many_declared_vcs;
        ] );
      ("properties", qcheck_cases);
    ]
