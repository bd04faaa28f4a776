open Noc_model

type variant = {
  vcs_added : int;
  total_vcs : int;
  power_mw : float;
  area_mm2 : float;
}

type point = {
  benchmark : string;
  n_switches : int;
  n_flows : int;
  initially_deadlock_free : bool;
  baseline : variant;
  removal : variant;
  ordering : variant;
  ordering_hop : variant;
  removal_iterations : int;
}

let variant_of net ~vcs_added =
  let report = Noc_power.Report.of_network net in
  {
    vcs_added;
    total_vcs = Topology.total_vcs (Network.topology net);
    power_mw = report.Noc_power.Report.total_power_mw;
    area_mm2 = report.Noc_power.Report.total_area_mm2;
  }

let evaluate (spec : Noc_benchmarks.Spec.t) ~n_switches =
  let traffic = spec.Noc_benchmarks.Spec.build () in
  let base = Noc_synth.Custom.synthesize_exn traffic ~n_switches in
  let initially_deadlock_free = Noc_deadlock.Removal.is_deadlock_free base in
  let removal_net = Network.copy base in
  let removal_report = Noc_deadlock.Removal.run removal_net in
  if not removal_report.Noc_deadlock.Removal.deadlock_free then
    failwith
      (Printf.sprintf "Sweep.evaluate: removal hit iteration cap on %s@%d"
         spec.Noc_benchmarks.Spec.name n_switches);
  let ordering_net = Network.copy base in
  let ordering_report = Noc_deadlock.Resource_ordering.apply ordering_net in
  let hop_net = Network.copy base in
  let hop_report =
    Noc_deadlock.Resource_ordering.apply
      ~strategy:Noc_deadlock.Resource_ordering.Hop_index hop_net
  in
  {
    benchmark = spec.Noc_benchmarks.Spec.name;
    n_switches;
    n_flows = Traffic.n_flows traffic;
    initially_deadlock_free;
    baseline = variant_of base ~vcs_added:0;
    removal =
      variant_of removal_net
        ~vcs_added:removal_report.Noc_deadlock.Removal.vcs_added;
    ordering =
      variant_of ordering_net
        ~vcs_added:ordering_report.Noc_deadlock.Resource_ordering.vcs_added;
    ordering_hop =
      variant_of hop_net
        ~vcs_added:hop_report.Noc_deadlock.Resource_ordering.vcs_added;
    removal_iterations = removal_report.Noc_deadlock.Removal.iterations;
  }

let pp_point ppf p =
  Format.fprintf ppf
    "%s @ %d switches: removal +%d VC (%d cycles broken)%s, ordering +%d VC, \
     hop-index +%d VC; power %.2f / %.2f / %.2f mW"
    p.benchmark p.n_switches p.removal.vcs_added p.removal_iterations
    (if p.initially_deadlock_free then " [already acyclic]" else "")
    p.ordering.vcs_added p.ordering_hop.vcs_added p.removal.power_mw
    p.ordering.power_mw p.baseline.power_mw
