(* The production tool flow, end to end on one design: synthesize ->
   save to disk -> reload -> health report -> reroute-first ->
   deadlock removal -> verify -> final report -> simulation.
   Everything a team would script around `noc_tool` done through the
   library API.

   Run with: dune exec examples/toolflow.exe *)

open Noc_model

let step n title = Format.printf "@.[%d] %s@." n title

let () =
  let spec =
    match Noc_benchmarks.Registry.find "D36_8" with
    | Some s -> s
    | None -> failwith "benchmark missing"
  in
  step 1 "synthesize D36_8 at 14 switches";
  let traffic = spec.Noc_benchmarks.Spec.build () in
  let net = Noc_synth.Custom.synthesize_exn traffic ~n_switches:14 in
  Format.printf "  %d links, %d flows routed@."
    (Topology.n_links (Network.topology net))
    (Traffic.n_flows traffic);

  step 2 "save and reload through the design-file format";
  let path = Filename.temp_file "toolflow" ".noc" in
  Io.save_file path net;
  let net =
    match Io.load_file path with
    | Ok net -> net
    | Error e -> failwith ("reload failed: " ^ e)
  in
  Sys.remove path;
  Format.printf "  round-trip OK@.";

  step 3 "design health report";
  Format.printf "  %a@." Metrics.pp (Metrics.of_network net);
  let bw = Bandwidth.analyze ~capacity_mbps:4000. net in
  Format.printf "  %a@." Bandwidth.pp bw;

  step 4 "deadlock status";
  (match Cdg.smallest_cycle (Cdg.build net) with
  | Some cycle ->
      Format.printf "  CYCLIC: smallest cycle has %d channels@."
        (List.length cycle)
  | None -> Format.printf "  already deadlock-free@.");

  step 5 "reroute-first (free fixes), then minimal VC removal";
  let rr = Noc_deadlock.Reroute.run net in
  Format.printf "  %a@." Noc_deadlock.Reroute.pp_report rr;
  let report = Noc_deadlock.Removal.run net in
  Format.printf "  %a@." Noc_deadlock.Removal.pp_report report;

  step 6 "verification certificate";
  let cert = Noc_deadlock.Verify.certify net in
  Format.printf "  acyclic=%b, %d channels, %d dependencies@."
    cert.Noc_deadlock.Verify.acyclic cert.Noc_deadlock.Verify.n_channels
    cert.Noc_deadlock.Verify.n_dependencies;
  (match cert.Noc_deadlock.Verify.numbering with
  | Some numbering ->
      Format.printf "  numbering witness re-checks: %b@."
        (Noc_deadlock.Verify.check_numbering net numbering)
  | None -> ());

  step 7 "price the final design";
  Format.printf "  %a@." Noc_power.Report.pp_summary
    (Noc_power.Report.of_network net);

  step 8 "stress the result in the wormhole simulator";
  let packets =
    Noc_benchmarks.Workloads.bandwidth_proportional net ~packet_length:4
      ~duration:2000 ~capacity_mbps:4000. ~seed:1
  in
  match Noc_sim.Engine.run net packets with
  | Noc_sim.Engine.Completed s ->
      Format.printf "  %d packets delivered in %d cycles, avg latency %.1f@."
        s.Noc_sim.Stats.delivered s.Noc_sim.Stats.cycles
        (Noc_sim.Stats.avg_latency s)
  | outcome -> Format.printf "  %a@." Noc_sim.Engine.pp_outcome outcome
