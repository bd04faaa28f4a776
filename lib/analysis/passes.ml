(* The nine design-level passes.  Each is deliberately small: it maps
   one existing analysis (Validate, Cdg/Verify, Duato, Bandwidth) into
   structured diagnostics with stable codes, so the linter never owns
   algorithmic logic of its own — it owns the reporting contract.  The
   analyses several passes share are read from the design's Facts. *)

open Noc_model

let design_only run = function
  | Pass.Design facts -> run facts
  | Pass.Job_file _ | Pass.Trace_file _ -> []

(* Passes that interpret routes (CDG construction, escape coverage,
   bandwidth accounting) are only meaningful — and only safe — on
   designs whose routes are structurally well-formed; broken routes are
   the routes pass's finding, not theirs. *)
let when_routes_valid f facts = if Facts.issues facts = [] then f facts else []

(* 1. routes ------------------------------------------------------- *)

let fix_of_code (code : Diag_code.t) =
  if code == Diag_code.route_missing then
    Some "route the flow (Noc_model.Routing.route_all) or drop it"
  else None

let routes =
  {
    Pass.name = "routes";
    prefix = "NOC-ROUTE";
    scope = Pass.Design_scope;
    severity_floor = Diag_code.Error;
    doc = "every flow's route exists and follows the physical topology";
    run =
      design_only (fun facts ->
          List.map
            (fun (i : Validate.issue) ->
              let location =
                match i.Validate.flow with
                | Some f -> Diagnostic.Flow f
                | None -> Diagnostic.Design
              in
              Diagnostic.v ?fix:(fix_of_code i.Validate.code) i.Validate.code
                location i.Validate.message)
            (Facts.issues facts));
  }

(* 2. connectivity ------------------------------------------------- *)

let connectivity =
  {
    Pass.name = "connectivity";
    prefix = "NOC-TOPO";
    scope = Pass.Design_scope;
    severity_floor = Diag_code.Error;
    doc = "the topology is connected and no switch is isolated";
    run =
      design_only (fun facts ->
          let topo = Network.topology (Facts.network facts) in
          let isolated =
            if not (Facts.keeps facts Diag_code.topo_isolated_switch.severity)
            then []
            else
              List.filter_map
                (fun s ->
                  let s = Ids.Switch.of_int s in
                  if Topology.degree topo s = 0 then
                    Some
                      (Diagnostic.v Diag_code.topo_isolated_switch
                         (Diagnostic.Switch s) "switch has no attached links"
                         ~fix:"connect the switch or drop it from the design")
                  else None)
                (List.init (Topology.n_switches topo) Fun.id)
          in
          let disconnected =
            if Topology.is_connected topo then []
            else
              [
                Diagnostic.v Diag_code.topo_disconnected Diagnostic.Design
                  "topology is not (weakly) connected";
              ]
          in
          disconnected @ isolated);
  }

(* 3. dead channels ------------------------------------------------ *)

let used_channels net =
  let used = Channel.Table.create 64 in
  List.iter
    (fun (_, route) -> List.iter (fun c -> Channel.Table.replace used c ()) route)
    (Network.routes net);
  used

let dead_channels =
  {
    Pass.name = "dead-channels";
    prefix = "NOC-CHAN";
    scope = Pass.Design_scope;
    severity_floor = Diag_code.Warning;
    doc = "every physical link carries at least one routed flow";
    run =
      design_only (fun facts ->
          let net = Facts.network facts in
          let topo = Network.topology net in
          let used = used_channels net in
          List.filter_map
            (fun (l : Topology.link) ->
              let vcs = Topology.vc_count topo l.Topology.id in
              let any_used =
                List.exists
                  (fun v ->
                    Channel.Table.mem used (Channel.make l.Topology.id v))
                  (List.init vcs Fun.id)
              in
              if any_used then None
              else
                Some
                  (Diagnostic.v Diag_code.chan_dead_link
                     (Diagnostic.Link l.Topology.id)
                     (Format.asprintf
                        "link %a (%a -> %a) carries no routed flow"
                        Ids.Link.pp l.Topology.id Ids.Switch.pp l.Topology.src
                        Ids.Switch.pp l.Topology.dst)
                     ~fix:"remove the link or route traffic over it"))
            (Topology.links topo));
  }

(* 4. dead VCs ----------------------------------------------------- *)

let dead_vcs =
  {
    Pass.name = "dead-vcs";
    prefix = "NOC-VC";
    scope = Pass.Design_scope;
    severity_floor = Diag_code.Warning;
    doc = "every allocated VC of a live link is used by some route";
    run =
      design_only (fun facts ->
          let net = Facts.network facts in
          let topo = Network.topology net in
          let used = used_channels net in
          List.concat_map
            (fun (l : Topology.link) ->
              let vcs = Topology.vc_count topo l.Topology.id in
              let channel v = Channel.make l.Topology.id v in
              let live =
                List.exists
                  (fun v -> Channel.Table.mem used (channel v))
                  (List.init vcs Fun.id)
              in
              if not live then
                (* A fully dead link is NOC-CHAN-001's finding. *)
                []
              else
                List.filter_map
                  (fun v ->
                    if Channel.Table.mem used (channel v) then None
                    else
                      Some
                        (Diagnostic.v Diag_code.vc_dead
                           (Diagnostic.Channel (channel v))
                           (Format.asprintf
                              "VC %d of link %a is allocated but unused" v
                              Ids.Link.pp l.Topology.id)
                           ~fix:
                             "rebalance flows over the link's VCs or drop \
                              the VC"))
                  (List.init vcs Fun.id))
            (Topology.links topo));
  }

(* 5. CDG cycle witness -------------------------------------------- *)

let pp_cycle ppf cycle =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf " -> ")
    Channel.pp ppf cycle

let cdg_cycle =
  {
    Pass.name = "cdg-cycle";
    prefix = "NOC-CYCLE";
    scope = Pass.Design_scope;
    severity_floor = Diag_code.Warning;
    doc = "the channel dependency graph is acyclic (deadlock freedom)";
    run =
      design_only
        (when_routes_valid (fun facts ->
             let cert = Facts.certificate facts in
             match cert.Noc_deadlock.Verify.sample_cycle with
             | None -> []
             | Some cycle ->
                 [
                   Diagnostic.v Diag_code.cycle_witness
                     (Diagnostic.Channel (List.hd cycle))
                     (Format.asprintf
                        "CDG cycle of %d channels: %a (design can deadlock)"
                        (List.length cycle) pp_cycle cycle)
                     ~fix:"run `noc_tool remove` to break the cycles";
                 ]));
  }

(* 6. certificate-numbering recheck -------------------------------- *)

let recheck_numbering net numbering =
  if Noc_deadlock.Verify.check_numbering net numbering then []
  else
    [
      Diagnostic.v Diag_code.cert_numbering_rejected Diagnostic.Design
        "the deadlock-freedom certificate's channel numbering fails the \
         independent linear-time recheck"
        ~fix:"rebuild the certificate (Noc_deadlock.Verify.certify)";
    ]

let certificate =
  {
    Pass.name = "certificate";
    prefix = "NOC-CERT";
    scope = Pass.Design_scope;
    severity_floor = Diag_code.Error;
    doc =
      "an acyclic verdict's numbering witness passes the independent recheck";
    run =
      design_only
        (when_routes_valid (fun facts ->
             match (Facts.certificate facts).Noc_deadlock.Verify.numbering with
             | None -> []
             | Some numbering ->
                 recheck_numbering (Facts.network facts) numbering));
  }

(* 7. independent deadlock-freedom prover -------------------------- *)

(* Cross-examination of the two provers.  [certified_acyclic] is
   Verify.certify's verdict; the argument order makes the helper usable
   from tests with a fabricated verdict (the pass itself can only see
   the codes fire when one of the implementations is actually buggy,
   which is the point). *)
(* SLO surface: every NOC-DLF-001/002 finding is a prover/certify
   disagreement, counted so the dlf_agreement objective (disagreements
   at most 0) burns the moment either implementation drifts.  Looked up
   at the finding (lint runs this pass on pool workers; the registry
   lookup is idempotent and mutex-guarded), so the counter appears
   only once a disagreement does. *)
let cross_check_findings ~certified_acyclic (v : Deadlock_freedom.verdict) =
  let disagree () =
    Noc_obs.Metrics.incr (Noc_obs.Metrics.counter "noc_dlf_disagreements_total")
  in
  if certified_acyclic && not v.Deadlock_freedom.deadlock_free then begin
    disagree ();
    let where =
      match v.Deadlock_freedom.knot with
      | Some (c :: _) -> Diagnostic.Channel c
      | _ -> Diagnostic.Design
    in
    [
      Diagnostic.v Diag_code.dlf_prover_rejects_certified where
        (Format.asprintf
           "Verify.certify accepts the design but the independent condition \
            finds a waiting knot of %d channels"
           (match v.Deadlock_freedom.knot with
           | Some k -> List.length k
           | None -> 0))
        ~fix:"one of the two provers is wrong: file a bug with the design";
    ]
  end
  else if (not certified_acyclic) && v.Deadlock_freedom.deadlock_free then begin
    disagree ();
    [
      Diagnostic.v Diag_code.dlf_prover_accepts_rejected Diagnostic.Design
        "Verify.certify rejects the design but the independent condition \
         proves deadlock freedom"
        ~fix:"one of the two provers is wrong: file a bug with the design";
    ]
  end
  else []

(* Replay of the prover's own witness, again as an exposed helper so a
   corrupted ordering can be exercised from tests. *)
let escape_order_findings net order =
  if Deadlock_freedom.check_escape_order net order then []
  else
    [
      Diagnostic.v Diag_code.dlf_escape_order_rejected Diagnostic.Design
        "the escape ordering witness fails the independent linear replay"
        ~fix:"rerun the prover (Deadlock_freedom.analyze)";
    ]

let deadlock_freedom =
  {
    Pass.name = "deadlock-freedom";
    prefix = "NOC-DLF";
    scope = Pass.Design_scope;
    severity_floor = Diag_code.Error;
    doc =
      "the independent escape-elimination prover agrees with Verify.certify";
    run =
      design_only
        (when_routes_valid (fun facts ->
             let net = Facts.network facts in
             let v = Facts.verdict facts in
             let cert = Facts.certificate facts in
             let cross =
               cross_check_findings
                 ~certified_acyclic:cert.Noc_deadlock.Verify.acyclic v
             in
             let witness =
               match v.Deadlock_freedom.escape_order with
               | Some order -> escape_order_findings net order
               | None -> (
                   let knot_finding =
                     match (v.Deadlock_freedom.knot, v.Deadlock_freedom.knot_cycle)
                     with
                     | Some (c :: _ as knot), Some cycle
                       when Facts.keeps facts Diag_code.dlf_knot.severity ->
                         [
                           Diagnostic.v Diag_code.dlf_knot
                             (Diagnostic.Channel c)
                             (Format.asprintf
                                "waiting knot of %d channels (every member \
                                 waits only on other members); sample cycle: \
                                 %a"
                                (List.length knot) pp_cycle cycle)
                             ~fix:"run `noc_tool remove` to break the cycles";
                         ]
                     | _ -> []
                   in
                   let bound_finding =
                     if not (Facts.keeps facts Diag_code.dlf_vc_lower_bound.severity)
                     then []
                     else
                       match
                         (Deadlock_freedom.vc_lower_bound net)
                           .Deadlock_freedom.lower_bound
                       with
                       | 0 -> []
                       | n ->
                           [
                             Diagnostic.v Diag_code.dlf_vc_lower_bound
                               Diagnostic.Design
                               (Printf.sprintf
                                  "any duplication-based removal must add at \
                                   least %d VC%s (%d vertex-disjoint wait \
                                   cycles)"
                                  n
                                  (if n = 1 then "" else "s")
                                  n);
                           ]
                   in
                   knot_finding @ bound_finding)
             in
             cross @ witness));
  }

(* 8. escape-channel coverage (Duato baseline) --------------------- *)

let escape =
  {
    Pass.name = "escape";
    prefix = "NOC-ESC";
    scope = Pass.Design_scope;
    severity_floor = Diag_code.Warning;
    doc =
      "the VC0 escape set satisfies Duato's condition for the static routes";
    run =
      design_only
        (when_routes_valid (fun facts ->
             let net = Facts.network facts in
             let rf = Routing_function.of_static_routes net in
             let verdict =
               Noc_deadlock.Duato.check net rf ~escape:(fun c ->
                   Channel.vc c = 0)
             in
             let disconnected =
               match verdict.Noc_deadlock.Duato.connectivity_failure with
               | None -> []
               | Some why ->
                   [
                     Diagnostic.v Diag_code.escape_disconnected
                       Diagnostic.Design
                       (Printf.sprintf
                          "VC0 escape set is not connected for the static \
                           routing function: %s"
                          why)
                       ~fix:
                         "keep at least one VC0 path per flow when \
                          rebalancing VCs";
                   ]
             in
             let cyclic =
               match verdict.Noc_deadlock.Duato.extended_cdg_cycle with
               | None -> []
               | Some cycle ->
                   [
                     Diagnostic.v Diag_code.escape_cyclic
                       (Diagnostic.Channel (List.hd cycle))
                       (Format.asprintf
                          "extended CDG of the VC0 escape set is cyclic: %a"
                          pp_cycle cycle)
                       ~fix:"run `noc_tool remove` to break the cycles";
                   ]
             in
             disconnected @ cyclic));
  }

(* 9. bandwidth ---------------------------------------------------- *)

let default_capacity_mbps = 4000.

let bandwidth ~capacity_mbps =
  {
    Pass.name = "bandwidth";
    prefix = "NOC-BW";
    scope = Pass.Design_scope;
    severity_floor = Diag_code.Warning;
    doc =
      Printf.sprintf
        "no link is oversubscribed at %g MB/s capacity (90%%+ is noted)"
        capacity_mbps;
    run =
      design_only
        (when_routes_valid (fun facts ->
             let report =
               Bandwidth.analyze ~capacity_mbps (Facts.network facts)
             in
             List.filter_map
               (fun (u : Bandwidth.link_usage) ->
                 if u.Bandwidth.utilization > 1.0 then
                   Some
                     (Diagnostic.v Diag_code.bw_oversubscribed
                        (Diagnostic.Link u.Bandwidth.link)
                        (Format.asprintf
                           "link %a carries %.1f MB/s, %.0f%% of its %g MB/s \
                            capacity"
                           Ids.Link.pp u.Bandwidth.link u.Bandwidth.load_mbps
                           (100. *. u.Bandwidth.utilization)
                           capacity_mbps)
                        ~fix:
                          "reroute flows off the link or raise the link \
                           capacity")
                 else if u.Bandwidth.utilization >= 0.9 then
                   Some
                     (Diagnostic.v Diag_code.bw_near_saturation
                        (Diagnostic.Link u.Bandwidth.link)
                        (Format.asprintf
                           "link %a is at %.0f%% of its %g MB/s capacity"
                           Ids.Link.pp u.Bandwidth.link
                           (100. *. u.Bandwidth.utilization)
                           capacity_mbps))
                 else None)
               report.Bandwidth.usages));
  }
