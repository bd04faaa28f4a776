(* Pure job execution: Job.t -> metrics.  Everything here is a
   deterministic function of the job alone — the design is synthesized
   or parsed fresh, the solver mutates only that private copy, and no
   module-global state is touched — so the same job returns the same
   metrics on any domain, in any order, on any machine.  That property
   is what the batch differential test pins down. *)

open Noc_model

let ( let* ) = Result.bind

let build_network = function
  | Job.Inline text -> Io.load text
  | Job.Benchmark { name; n_switches; max_degree } -> (
      match Noc_benchmarks.Registry.find name with
      | None ->
          Error
            (Printf.sprintf "unknown benchmark %S (try: %s)" name
               (String.concat ", " Noc_benchmarks.Registry.names))
      | Some spec ->
          let traffic = spec.Noc_benchmarks.Spec.build () in
          if n_switches < 1 then Error "switches must be >= 1"
          else if n_switches > Traffic.n_cores traffic then
            Error
              (Printf.sprintf "%s has %d cores; switch count must not exceed that"
                 name (Traffic.n_cores traffic))
          else
            let options =
              {
                Noc_synth.Custom.default_options with
                Noc_synth.Custom.max_out_degree = max_degree;
                max_in_degree = max_degree;
              }
            in
            Noc_synth.Custom.synthesize ~options traffic ~n_switches)

let power_metrics net =
  let report = Noc_power.Report.of_network net in
  [
    ("power_mw", report.Noc_power.Report.total_power_mw);
    ("area_mm2", report.Noc_power.Report.total_area_mm2);
  ]

let shape_metrics net =
  let topo = Network.topology net in
  [
    ("n_switches", float_of_int (Topology.n_switches topo));
    ("n_links", float_of_int (Topology.n_links topo));
    ("total_vcs", float_of_int (Topology.total_vcs topo));
  ]

let run_removal ~heuristic ~directions ~resource net =
  let report = Noc_deadlock.Removal.run ~heuristic ~directions ~resource net in
  if not report.Noc_deadlock.Removal.deadlock_free then
    Error "removal hit its iteration cap"
  else
    Ok
      ([
         ("iterations", float_of_int report.Noc_deadlock.Removal.iterations);
         ("vcs_added", float_of_int report.Noc_deadlock.Removal.vcs_added);
       ]
      @ shape_metrics net @ power_metrics net)

let run_ordering ~strategy net =
  let report = Noc_deadlock.Resource_ordering.apply ~strategy net in
  Ok
    ([
       ("vcs_added", float_of_int report.Noc_deadlock.Resource_ordering.vcs_added);
       ( "classes_used",
         float_of_int report.Noc_deadlock.Resource_ordering.classes_used );
     ]
    @ shape_metrics net @ power_metrics net)

let run_sweep (job : Job.t) =
  match job.Job.design with
  | Job.Inline _ -> Error "sweep jobs need a registry benchmark, not an inline design"
  | Job.Benchmark { name; n_switches; max_degree = _ } -> (
      match Noc_benchmarks.Registry.find name with
      | None -> Error (Printf.sprintf "unknown benchmark %S" name)
      | Some spec ->
          let p = Noc_experiments.Sweep.evaluate spec ~n_switches in
          let v prefix (variant : Noc_experiments.Sweep.variant) =
            [
              (prefix ^ "_vcs_added", float_of_int variant.Noc_experiments.Sweep.vcs_added);
              (prefix ^ "_power_mw", variant.Noc_experiments.Sweep.power_mw);
              (prefix ^ "_area_mm2", variant.Noc_experiments.Sweep.area_mm2);
            ]
          in
          Ok
            ([
               ("n_flows", float_of_int p.Noc_experiments.Sweep.n_flows);
               ( "initially_deadlock_free",
                 if p.Noc_experiments.Sweep.initially_deadlock_free then 1. else 0. );
               ( "removal_iterations",
                 float_of_int p.Noc_experiments.Sweep.removal_iterations );
             ]
            @ v "baseline" p.Noc_experiments.Sweep.baseline
            @ v "removal" p.Noc_experiments.Sweep.removal
            @ v "ordering" p.Noc_experiments.Sweep.ordering
            @ v "ordering_hop" p.Noc_experiments.Sweep.ordering_hop))

(* Latency percentile over a sorted array: nearest-rank, so the result
   is always an observed (integer-cycle) latency and platform-exact. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let i = int_of_float (ceil (q *. float_of_int n)) - 1 in
    float_of_int sorted.(max 0 (min (n - 1) i))

(* A simulation is a deterministic function of the job: the design is
   prepared (nothing / removal / ordering) on the private copy, the
   seeded workload is generated, and the engine's statistics give the
   per-packet latencies for the percentile metrics.  A deadlock is a
   measurement, not a failure: the outcome is [Done] with
   [deadlocked = 1] and the certificate summarized, so campaigns can
   treat deadlocks as data and cache them like any other result. *)
let run_simulate ~prepare ~workload ~buffer_depth ~max_cycles net =
  Noc_obs.Trace.with_span "sim.workload"
    ~attrs:
      [
        ("kind", Noc_obs.Trace.Str (Noc_benchmarks.Workloads.kind workload));
        ("prepare", Noc_obs.Trace.Str (Job.prepare_name prepare));
      ]
  @@ fun _span ->
  (* Removal's report already says its CDG is acyclic; the other
     preparations build the CDG to find out.  The simulator stays the
     independent check of removal's verdict. *)
  let* prep_metrics, cdg_cyclic =
    match prepare with
    | Job.As_is ->
        Ok ([ ("vcs_added", 0.) ], not (Noc_deadlock.Removal.is_deadlock_free net))
    | Job.Removal_first ->
        let report = Noc_deadlock.Removal.run net in
        if not report.Noc_deadlock.Removal.deadlock_free then
          Error "removal hit its iteration cap"
        else
          Ok
            ( [
                ( "vcs_added",
                  float_of_int report.Noc_deadlock.Removal.vcs_added );
              ],
              false )
    | Job.Ordering_first ->
        let report =
          Noc_deadlock.Resource_ordering.apply
            ~strategy:Noc_deadlock.Resource_ordering.Hop_index net
        in
        Ok
          ( [
              ( "vcs_added",
                float_of_int report.Noc_deadlock.Resource_ordering.vcs_added );
            ],
            not (Noc_deadlock.Removal.is_deadlock_free net) )
  in
  let packets = Noc_benchmarks.Workloads.generate net workload in
  let config =
    { Noc_sim.Engine.default_config with buffer_depth; max_cycles }
  in
  let outcome = Noc_sim.Engine.run ~config net packets in
  let stats =
    match outcome with
    | Noc_sim.Engine.Completed s | Noc_sim.Engine.Timed_out s -> s
    | Noc_sim.Engine.Deadlocked d -> d.Noc_sim.Engine.stats
  in
  let lat = Array.copy stats.Noc_sim.Stats.latencies in
  Array.sort compare lat;
  let n_lat = Array.length lat in
  let avg_latency =
    if n_lat = 0 then 0.
    else
      float_of_int (Array.fold_left ( + ) 0 lat) /. float_of_int n_lat
  in
  let flits_delivered = stats.Noc_sim.Stats.flits_delivered in
  let flits_offered =
    List.fold_left
      (fun acc (p : Noc_sim.Packet.t) -> acc + p.Noc_sim.Packet.length)
      0 packets
  in
  let completed, deadlocked, timed_out =
    match outcome with
    | Noc_sim.Engine.Completed _ -> (1., 0., 0.)
    | Noc_sim.Engine.Deadlocked _ -> (0., 1., 0.)
    | Noc_sim.Engine.Timed_out _ -> (0., 0., 1.)
  in
  let cycles = stats.Noc_sim.Stats.cycles in
  let certified, waits_for_len, blocked, in_net =
    match outcome with
    | Noc_sim.Engine.Deadlocked d ->
        ( (match d.Noc_sim.Engine.waits_for_cycle with
          | Some _ -> 1.
          | None -> 0.),
          (match d.Noc_sim.Engine.waits_for_cycle with
          | Some ids -> float_of_int (List.length ids)
          | None -> 0.),
          float_of_int (List.length d.Noc_sim.Engine.blocked_packets),
          float_of_int d.Noc_sim.Engine.in_network_flits )
    | Noc_sim.Engine.Completed _ | Noc_sim.Engine.Timed_out _ ->
        (0., 0., 0., 0.)
  in
  let throughput =
    if cycles = 0 then 0.
    else float_of_int flits_delivered /. float_of_int cycles
  in
  Ok
    ([
       ("completed", completed);
       ("deadlocked", deadlocked);
       ("timed_out", timed_out);
       ("cdg_cyclic", if cdg_cyclic then 1. else 0.);
       ("certified", certified);
       ("cycles", float_of_int cycles);
       ("packets", float_of_int (List.length packets));
       ("flits_offered", float_of_int flits_offered);
       ("delivered", float_of_int n_lat);
       ("flits_delivered", float_of_int flits_delivered);
       ("throughput", throughput);
       ("avg_latency", avg_latency);
       ("p50_latency", percentile lat 0.50);
       ("p95_latency", percentile lat 0.95);
       ("p99_latency", percentile lat 0.99);
       ("max_latency", percentile lat 1.0);
       ("blocked_packets", blocked);
       ("in_network_flits", in_net);
       ("waits_for_len", waits_for_len);
     ]
    @ prep_metrics @ shape_metrics net @ power_metrics net)

let metrics (job : Job.t) =
  match job.Job.method_ with
  | Job.Sweep -> run_sweep job
  | Job.Removal { heuristic; directions; resource } ->
      let* net = build_network job.Job.design in
      run_removal ~heuristic ~directions ~resource net
  | Job.Resource_ordering { strategy } ->
      let* net = build_network job.Job.design in
      run_ordering ~strategy net
  | Job.Simulate { prepare; workload; buffer_depth; max_cycles } ->
      let* net = build_network job.Job.design in
      run_simulate ~prepare ~workload ~buffer_depth ~max_cycles net

let execute job =
  let t0 = Unix.gettimeofday () in
  let result =
    try metrics job with
    | Failure msg -> Error msg
    | Invalid_argument msg -> Error msg
  in
  let wall_ms = 1000. *. (Unix.gettimeofday () -. t0) in
  match result with
  | Ok metrics -> Outcome.done_ ~wall_ms metrics
  | Error msg -> Outcome.failed ~wall_ms msg
