(* Experiment harness: regenerates every table and figure of the
   paper's evaluation (Section 5), times the core algorithm with
   bechamel, and writes the machine-readable BENCH_*.json reports.

   Usage: main.exe [SECTION...] (default: all), where SECTION is one of
   table1 fig8 fig9 fig10 summary ablation sweeps technode sensitivity
   simcheck perf removal service sim, or all. *)

open Noc_experiments

let section title = Format.printf "@.==== %s ====@.@." title

let run_table1 () =
  section "Table 1 + Figures 1-7: the paper's worked example";
  Format.printf "%t@." Ring_example.narrate

let run_fig8 () =
  section "Figure 8: extra VCs vs switch count, D26_media";
  Figures.pp_vc_rows ~title:"Figure 8 (D26_media)" Format.std_formatter
    (Figures.fig8 ());
  Format.printf "@."

let run_fig9 () =
  section "Figure 9: extra VCs vs switch count, D36_8";
  Figures.pp_vc_rows ~title:"Figure 9 (D36_8)" Format.std_formatter
    (Figures.fig9 ());
  Format.printf "@."

let run_fig10 () =
  section "Figure 10: normalised power across benchmarks (14 switches)";
  Figures.pp_power_rows Format.std_formatter (Figures.fig10 ());
  Format.printf "@."

let run_summary () =
  section "Aggregate claims (Section 5)";
  Figures.pp_summary Format.std_formatter (Figures.summary ());
  Format.printf "@."

let run_ablation () =
  section "Ablation: design choices of the removal algorithm";
  Figures.pp_ablation Format.std_formatter (Figures.ablation ());
  Format.printf "@."

let run_sweeps () =
  section "All-benchmark VC sweeps (beyond the paper's two)";
  List.iter
    (fun spec ->
      let n_cores = spec.Noc_benchmarks.Spec.n_cores in
      let counts =
        List.filter (fun n -> n <= n_cores) [ 5; 8; 11; 14; 17; 20; 23; 26 ]
      in
      let rows =
        List.map
          (fun n ->
            let p = Noc_experiments.Sweep.evaluate spec ~n_switches:n in
            {
              Noc_experiments.Figures.n_switches = n;
              removal_vcs = p.Noc_experiments.Sweep.removal.Noc_experiments.Sweep.vcs_added;
              ordering_vcs =
                p.Noc_experiments.Sweep.ordering_hop.Noc_experiments.Sweep.vcs_added;
            })
          counts
      in
      Figures.pp_vc_rows
        ~title:(Printf.sprintf "VC sweep (%s)" spec.Noc_benchmarks.Spec.name)
        Format.std_formatter rows;
      Format.printf "@.@.")
    Noc_benchmarks.Registry.all

let run_technode () =
  section "Figure-10 relationship across technology nodes (D36_8@14)";
  let spec =
    match Noc_benchmarks.Registry.find "D36_8" with
    | Some s -> s
    | None -> assert false
  in
  let traffic = spec.Noc_benchmarks.Spec.build () in
  let base = Noc_synth.Custom.synthesize_exn traffic ~n_switches:14 in
  let removal_net = Noc_model.Network.copy base in
  ignore (Noc_deadlock.Removal.run removal_net);
  let ordering_net = Noc_model.Network.copy base in
  ignore
    (Noc_deadlock.Resource_ordering.apply
       ~strategy:Noc_deadlock.Resource_ordering.Hop_index ordering_net);
  let table =
    Series.create
      ~header:[ "node"; "removal mW"; "ordering mW"; "ratio"; "area saving" ]
  in
  List.iter
    (fun (label, params) ->
      let p net =
        (Noc_power.Report.of_network ~params net).Noc_power.Report.total_power_mw
      in
      let a net =
        (Noc_power.Report.of_network ~params net).Noc_power.Report.total_area_mm2
      in
      Series.add_row table
        [
          label;
          Printf.sprintf "%.1f" (p removal_net);
          Printf.sprintf "%.1f" (p ordering_net);
          Printf.sprintf "%.2f" (p ordering_net /. p removal_net);
          Printf.sprintf "%.1f%%"
            (100. *. (1. -. (a removal_net /. a ordering_net)));
        ])
    [
      ("90nm", Noc_power.Params.scaled_90nm);
      ("65nm", Noc_power.Params.default_65nm);
      ("45nm", Noc_power.Params.scaled_45nm);
    ];
  Format.printf "%a@.@." Series.pp table

let run_sensitivity () =
  section "Sensitivity: Figure-9 conclusion under different synthesis choices";
  let spec =
    match Noc_benchmarks.Registry.find "D36_8" with
    | Some s -> s
    | None -> assert false
  in
  let table =
    Series.create
      ~header:[ "synthesis variant"; "removal VCs"; "ordering VCs"; "ratio" ]
  in
  let variant label options =
    let traffic = spec.Noc_benchmarks.Spec.build () in
    let base = Noc_synth.Custom.synthesize_exn ~options traffic ~n_switches:14 in
    let removal_net = Noc_model.Network.copy base in
    let r = Noc_deadlock.Removal.run removal_net in
    let ordering_net = Noc_model.Network.copy base in
    let o =
      Noc_deadlock.Resource_ordering.apply
        ~strategy:Noc_deadlock.Resource_ordering.Hop_index ordering_net
    in
    let rv = r.Noc_deadlock.Removal.vcs_added in
    let ov = o.Noc_deadlock.Resource_ordering.vcs_added in
    Series.add_row table
      [
        label; string_of_int rv; string_of_int ov;
        (if rv = 0 then "inf"
         else Printf.sprintf "%.1fx" (float_of_int ov /. float_of_int rv));
      ]
  in
  let open Noc_synth.Custom in
  variant "default (greedy mapper, degree 4)" default_options;
  variant "min-cut mapper" { default_options with mapper = Min_cut };
  variant "degree budget 3"
    { default_options with max_out_degree = 3; max_in_degree = 3 };
  variant "degree budget 6"
    { default_options with max_out_degree = 6; max_in_degree = 6 };
  variant "hop-count routing (not load-aware)"
    { default_options with load_aware_routing = false };
  variant "bidirectionalized"
    { default_options with force_bidirectional = true };
  Format.printf "%a@.@." Series.pp table

let run_simcheck () =
  section "Simulation cross-check: deadlock before, completion after";
  let before, after = Sim_check.ring_demo () in
  Format.printf "%a@.@.%a@.@." Sim_check.pp_result before Sim_check.pp_result after;
  let before, after = Sim_check.benchmark_demo () in
  Format.printf "%a@.@.%a@.@." Sim_check.pp_result before Sim_check.pp_result after

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per regenerated artefact, plus the   *)
(* end-to-end removal timing behind the paper's "runs in minutes"      *)
(* claim (ours runs in microseconds-to-milliseconds).                  *)
(* ------------------------------------------------------------------ *)

let perf_tests () =
  let open Bechamel in
  let ring = Ring_example.build () in
  let cycle = Ring_example.cycle ring in
  let spec name =
    match Noc_benchmarks.Registry.find name with
    | Some s -> s
    | None -> assert false
  in
  let d36_8 = (spec "D36_8").Noc_benchmarks.Spec.build () in
  let d26 = (spec "D26_media").Noc_benchmarks.Spec.build () in
  let big = Noc_synth.Custom.synthesize_exn d36_8 ~n_switches:20 in
  let test_table1 =
    Test.make ~name:"table1: fwd+bwd cost tables (ring)"
      (Staged.stage (fun () ->
           ignore (Noc_deadlock.Cost_table.forward ring.Ring_example.net cycle);
           ignore (Noc_deadlock.Cost_table.backward ring.Ring_example.net cycle)))
  in
  let test_cdg =
    Test.make ~name:"cdg: build (D36_8@20)"
      (Staged.stage (fun () -> ignore (Noc_model.Cdg.build big)))
  in
  let test_cycle_search =
    let cdg = Noc_model.Cdg.build big in
    Test.make ~name:"cdg: smallest-cycle search (D36_8@20)"
      (Staged.stage (fun () -> ignore (Noc_model.Cdg.smallest_cycle cdg)))
  in
  let test_removal =
    Test.make ~name:"fig9 core: removal (D36_8@20, copy+run)"
      (Staged.stage (fun () ->
           let net = Noc_model.Network.copy big in
           ignore (Noc_deadlock.Removal.run net)))
  in
  let test_synthesis =
    Test.make ~name:"fig8 core: synthesis (D26_media@14)"
      (Staged.stage (fun () ->
           ignore (Noc_synth.Custom.synthesize_exn d26 ~n_switches:14)))
  in
  let test_power =
    Test.make ~name:"fig10 core: power model (D36_8@20)"
      (Staged.stage (fun () -> ignore (Noc_power.Report.of_network big)))
  in
  let test_ordering =
    Test.make ~name:"baseline: hop-index resource ordering (D36_8@20)"
      (Staged.stage (fun () ->
           let net = Noc_model.Network.copy big in
           ignore
             (Noc_deadlock.Resource_ordering.apply
                ~strategy:Noc_deadlock.Resource_ordering.Hop_index net)))
  in
  let test_sim =
    let t = Ring_example.build () in
    ignore (Noc_deadlock.Removal.run t.Ring_example.net);
    let packets =
      Noc_sim.Traffic_gen.burst t.Ring_example.net ~packet_length:8
        ~packets_per_flow:2
    in
    Test.make ~name:"simcheck: wormhole sim (ring, post-removal)"
      (Staged.stage (fun () ->
           ignore (Noc_sim.Engine.run t.Ring_example.net packets)))
  in
  [
    test_table1; test_cdg; test_cycle_search; test_removal; test_synthesis;
    test_power; test_ordering; test_sim;
  ]

let run_perf () =
  section "Bechamel micro-benchmarks";
  let open Bechamel in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 500) ()
  in
  let grouped = Test.make_grouped ~name:"noc" (perf_tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    Analyze.merge ols instances
      (List.map (fun instance -> Analyze.all ols instance raw) instances)
  in
  let clock = Hashtbl.find results (Measure.label Toolkit.Instance.monotonic_clock) in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | Some [] | None -> nan
        in
        (name, estimate) :: acc)
      clock []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (name, ns) ->
      if ns < 1_000. then Format.printf "%-55s %10.0f ns/run@." name ns
      else if ns < 1_000_000. then Format.printf "%-55s %10.1f us/run@." name (ns /. 1e3)
      else Format.printf "%-55s %10.2f ms/run@." name (ns /. 1e6))
    rows;
  (* The scalability claim, measured end to end on the densest design. *)
  let d36_8 =
    (Option.get (Noc_benchmarks.Registry.find "D36_8")).Noc_benchmarks.Spec.build ()
  in
  let t0 = Unix.gettimeofday () in
  let net = Noc_synth.Custom.synthesize_exn d36_8 ~n_switches:35 in
  let report = Noc_deadlock.Removal.run net in
  let t1 = Unix.gettimeofday () in
  Format.printf
    "@.end-to-end largest design (D36_8@@35): synthesis + removal of %d cycle(s) \
     in %.1f ms (paper: \"within minutes\")@."
    report.Noc_deadlock.Removal.iterations
    (1000. *. (t1 -. t0))

(* ------------------------------------------------------------------ *)
(* Machine-readable removal benchmark (BENCH_removal.json): the        *)
(* deterministic outputs and the incremental-vs-rebuild wall times     *)
(* per (benchmark, switch count), consumed by check_regression.exe     *)
(* against the committed baseline in CI.                               *)
(* ------------------------------------------------------------------ *)

let time_min_ms reps base f =
  (* Min over repetitions on pre-copied networks: the min is the run
     least disturbed by the collector and the scheduler, which is what
     a regression diff wants. *)
  let nets = Array.init reps (fun _ -> Noc_model.Network.copy base) in
  let best = ref infinity in
  let result = ref None in
  for i = 0 to reps - 1 do
    let t0 = Unix.gettimeofday () in
    let r = f nets.(i) in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (1000. *. !best, Option.get !result)

(* Per-phase attribution: one extra run of the incremental arm under
   the span tracer, on its own copy, after the timing arms — so the
   measured numbers above are from untraced runs and the phase shares
   come from the very same algorithm trajectory (it is deterministic). *)
let phase_attribution base =
  let collector = Noc_obs.Trace.create () in
  Noc_obs.Trace.install collector;
  let net = Noc_model.Network.copy base in
  ignore
    (Fun.protect ~finally:Noc_obs.Trace.uninstall (fun () ->
         Noc_deadlock.Removal.run net));
  Noc_obs.Export.phase_totals_ms collector

let removal_entries () =
  let points =
    [
      ("D36_8", [ 10; 14; 18; 22; 26; 30; 35 ]);
      ("D26_media", [ 8; 14; 20; 26 ]);
    ]
  in
  List.concat_map
    (fun (name, switch_counts) ->
      let spec =
        match Noc_benchmarks.Registry.find name with
        | Some s -> s
        | None -> assert false
      in
      let traffic = spec.Noc_benchmarks.Spec.build () in
      List.map
        (fun n_switches ->
          let base = Noc_synth.Custom.synthesize_exn traffic ~n_switches in
          let incremental_ms, inc =
            time_min_ms 5 base Noc_deadlock.Removal.run
          in
          let rebuild_ms, reb =
            time_min_ms 5 base Noc_oracle.Reference_removal.run
          in
          (* Both arms run the same algorithm; a mismatch here means
             the incremental CDG maintenance broke. *)
          assert (
            inc.Noc_deadlock.Removal.iterations
            = reb.Noc_deadlock.Removal.iterations);
          assert (
            inc.Noc_deadlock.Removal.vcs_added
            = reb.Noc_deadlock.Removal.vcs_added);
          {
            Bench_report.benchmark = name;
            n_switches;
            iterations = inc.Noc_deadlock.Removal.iterations;
            vcs_added = inc.Noc_deadlock.Removal.vcs_added;
            incremental_ms;
            rebuild_ms;
            phases = phase_attribution base;
          })
        switch_counts)
    points

let run_removal_json () =
  section "Removal benchmark: incremental vs rebuild-per-iteration";
  let entries = removal_entries () in
  Format.printf "%a@." Bench_report.pp entries;
  Format.printf "@.aggregate D36_8 speedup: %.2fx@."
    (Bench_report.aggregate_speedup
       (List.filter (fun e -> e.Bench_report.benchmark = "D36_8") entries));
  let out =
    Option.value ~default:"BENCH_removal.json"
      (Sys.getenv_opt "BENCH_REMOVAL_OUT")
  in
  Out_channel.with_open_text out (fun oc ->
      Out_channel.output_string oc (Bench_report.to_json entries));
  Format.printf "wrote %s@." out

(* ------------------------------------------------------------------ *)
(* Machine-readable batch-service benchmark (BENCH_service.json): the  *)
(* deterministic result hash of every job over the full benchmark      *)
(* registry, batch wall times at 1/2/4 domains, and the warm-replay    *)
(* (fully cached) cost, consumed by check_regression.exe in CI.        *)
(* ------------------------------------------------------------------ *)

let service_jobs () =
  (* One removal, one ordering and one sweep job per registry
     benchmark, at a switch count clipped to the core count — enough
     work per job for the parallel arms to mean something, and full
     registry coverage for the hash baseline. *)
  List.concat_map
    (fun spec ->
      let name = spec.Noc_benchmarks.Spec.name in
      let n_switches = min 14 spec.Noc_benchmarks.Spec.n_cores in
      let design =
        Noc_service.Job.Benchmark
          {
            name;
            n_switches;
            max_degree = Noc_service.Job.default_max_degree;
          }
      in
      [
        { Noc_service.Job.design; method_ = Noc_service.Job.removal_defaults };
        {
          Noc_service.Job.design;
          method_ =
            Noc_service.Job.Resource_ordering
              { strategy = Noc_deadlock.Resource_ordering.Hop_index };
        };
        { Noc_service.Job.design; method_ = Noc_service.Job.Sweep };
      ])
    Noc_benchmarks.Registry.all

let run_batch ~domains ~cache jobs =
  let config =
    {
      Noc_service.Batch.default_config with
      Noc_service.Batch.domains;
      cache;
    }
  in
  Noc_service.Batch.run config jobs

let service_report () =
  let open Noc_service in
  let jobs = service_jobs () in
  let hashes results =
    List.map
      (fun (r : Batch.job_result) -> Outcome.result_hash r.Batch.outcome)
      results
  in
  (* Reference run: sequential, no cache.  Its result hashes are the
     deterministic baseline every other arm must reproduce. *)
  let reference, _ = run_batch ~domains:1 ~cache:None jobs in
  List.iter
    (fun (r : Batch.job_result) ->
      if not (Outcome.is_done r.Batch.outcome) then
        failwith
          (Printf.sprintf "service bench: job %s did not complete: %s"
             (Job.label r.Batch.job)
             (Format.asprintf "%a" Outcome.pp r.Batch.outcome)))
    reference;
  let reference_hashes = hashes reference in
  let timing domains =
    (* Fresh cache per arm: within one batch the duplicate-free job
       list makes every lookup a miss, so this times real solver work.
       Min over repetitions, like the removal bench. *)
    let best = ref infinity in
    for _ = 1 to 3 do
      let results, summary =
        run_batch ~domains ~cache:(Some (Result_cache.create ~capacity:256)) jobs
      in
      if hashes results <> reference_hashes then
        failwith
          (Printf.sprintf
             "service bench: %d-domain batch diverged from the sequential \
              reference"
             domains);
      if summary.Batch.wall_ms < !best then best := summary.Batch.wall_ms
    done;
    {
      Service_report.domains;
      wall_ms = !best;
      jobs_per_s =
        (if !best > 0. then 1000. *. float_of_int (List.length jobs) /. !best
         else 0.);
    }
  in
  let host_cores = Domain.recommended_domain_count () in
  let arms = List.filter (fun d -> d = 1 || d <= host_cores) [ 1; 2; 4 ] in
  let timings = List.map timing arms in
  (* Warm replay: populate a cache, reset its counters, run again. *)
  let cache = Result_cache.create ~capacity:256 in
  let _ = run_batch ~domains:1 ~cache:(Some cache) jobs in
  Result_cache.reset_counters cache;
  let replay_results, replay_summary =
    run_batch ~domains:1 ~cache:(Some cache) jobs
  in
  if hashes replay_results <> reference_hashes then
    failwith "service bench: warm replay diverged from the sequential reference";
  let replay_stats = Result_cache.stats cache in
  {
    Service_report.host_cores;
    jobs =
      List.map
        (fun (r : Batch.job_result) ->
          {
            Service_report.label = Job.label r.Batch.job;
            job_hash = Job.hash r.Batch.job;
            result_hash = Outcome.result_hash r.Batch.outcome;
          })
        reference;
    timings;
    replay_wall_ms = replay_summary.Batch.wall_ms;
    replay_hit_rate = Result_cache.hit_rate replay_stats;
  }

let run_service_json () =
  section "Batch service: throughput, determinism, warm replay";
  let report = service_report () in
  Format.printf "%a@." Noc_service.Service_report.pp report;
  let out =
    Option.value ~default:"BENCH_service.json"
      (Sys.getenv_opt "BENCH_SERVICE_OUT")
  in
  Out_channel.with_open_text out (fun oc ->
      Out_channel.output_string oc (Noc_service.Service_report.to_json report));
  Format.printf "@.wrote %s@." out

(* ------------------------------------------------------------------ *)
(* Machine-readable simulation benchmark (BENCH_sim.json): a small     *)
(* campaign over the paper's two benchmarks x four workloads x three   *)
(* preparations, with the deadlock-freedom invariants enforced before  *)
(* the report is even written, consumed by check_regression.exe in CI. *)
(* ------------------------------------------------------------------ *)

let sim_campaign () =
  let open Noc_campaign in
  let points =
    [
      { Campaign.benchmark = "D26_media"; n_switches = 14 };
      { Campaign.benchmark = "D36_8"; n_switches = 14 };
    ]
  in
  let workloads =
    Noc_benchmarks.Workloads.
      [ default_burst; default_uniform; default_hotspot; default_transpose ]
  in
  let jobs = Campaign.grid ~points ~workloads () in
  Campaign.run Campaign.default_config jobs

let run_sim_json () =
  section "Simulation campaign: deadlock invariants, latency, throughput";
  let open Noc_campaign in
  let cells = sim_campaign () in
  let verdict = Campaign.verify cells in
  Format.printf "%a@.@." Campaign.pp_verdict verdict;
  if not (Campaign.verdict_ok verdict) then
    failwith "sim bench: campaign invariants violated";
  let report = Sim_report.of_cells cells in
  Format.printf "%a@." Sim_report.pp report;
  let out =
    Option.value ~default:"BENCH_sim.json" (Sys.getenv_opt "BENCH_SIM_OUT")
  in
  Out_channel.with_open_text out (fun oc ->
      Out_channel.output_string oc (Sim_report.to_json report));
  Format.printf "@.wrote %s@." out

let all_sections =
  [
    ("table1", run_table1);
    ("fig8", run_fig8);
    ("fig9", run_fig9);
    ("fig10", run_fig10);
    ("summary", run_summary);
    ("ablation", run_ablation);
    ("sweeps", run_sweeps);
    ("technode", run_technode);
    ("sensitivity", run_sensitivity);
    ("simcheck", run_simcheck);
    ("perf", run_perf);
    ("removal", run_removal_json);
    ("service", run_service_json);
    ("sim", run_sim_json);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let selected = if args = [] || args = [ "all" ] then List.map fst all_sections else args in
  List.iter
    (fun name ->
      match List.assoc_opt name all_sections with
      | Some f -> f ()
      | None ->
          Format.eprintf "unknown section %S; available: %s all@." name
            (String.concat " " (List.map fst all_sections));
          exit 2)
    selected
