(* Traced in-process replay: the path one submitted job takes through
   client and daemon, rebuilt from the layers' public functions with a
   timer around each call.  The daemon itself is not instrumented; the
   replay mirrors [Runner.execute] metric for metric, and the result
   hash it computes must equal the daemon's for every job. *)

open Noc_service
open Noc_model

let layers =
  [
    "wire.decode"; "wire.encode"; "lint.vet"; "job.hash"; "store.find";
    "store.write"; "synth.synthesize"; "io.load"; "removal.run";
    "ordering.apply"; "sweep.evaluate"; "power.report"; "workloads.generate";
    "sim.engine"; "outcome.encode";
  ]

(* Per-layer call durations, in milliseconds, newest first. *)
let samples : (string, float list) Hashtbl.t = Hashtbl.create 16

let reset () =
  Hashtbl.reset samples;
  List.iter (fun l -> Hashtbl.replace samples l []) layers

let time layer f =
  let t0 = Noc_obs.Clock.now_ns () in
  let r = f () in
  let ms = Noc_obs.Clock.ms_between ~start_ns:t0 ~stop_ns:(Noc_obs.Clock.now_ns ()) in
  Hashtbl.replace samples layer (ms :: Hashtbl.find samples layer);
  r

(* ---- Runner.execute, layer by layer ------------------------------- *)

let ( let* ) = Result.bind

let build_network = function
  | Job.Inline text -> time "io.load" (fun () -> Io.load text)
  | Job.Benchmark { name; n_switches; max_degree } -> (
      match Noc_benchmarks.Registry.find name with
      | None ->
          Error
            (Printf.sprintf "unknown benchmark %S (try: %s)" name
               (String.concat ", " Noc_benchmarks.Registry.names))
      | Some spec ->
          time "synth.synthesize" (fun () ->
              let traffic = spec.Noc_benchmarks.Spec.build () in
              if n_switches < 1 then Error "switches must be >= 1"
              else if n_switches > Traffic.n_cores traffic then
                Error
                  (Printf.sprintf
                     "%s has %d cores; switch count must not exceed that" name
                     (Traffic.n_cores traffic))
              else
                let options =
                  {
                    Noc_synth.Custom.default_options with
                    Noc_synth.Custom.max_out_degree = max_degree;
                    max_in_degree = max_degree;
                  }
                in
                Noc_synth.Custom.synthesize ~options traffic ~n_switches))

let power_metrics net =
  let report = time "power.report" (fun () -> Noc_power.Report.of_network net) in
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

let removal ?heuristic ?directions ?resource net =
  time "removal.run" (fun () ->
      Noc_deadlock.Removal.run ?heuristic ?directions ?resource net)

let ordering strategy net =
  time "ordering.apply" (fun () -> Noc_deadlock.Resource_ordering.apply ~strategy net)

let run_removal ~heuristic ~directions ~resource net =
  let report = removal ~heuristic ~directions ~resource net in
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
  let report = ordering strategy net in
  Ok
    ([
       ("vcs_added", float_of_int report.Noc_deadlock.Resource_ordering.vcs_added);
       ("classes_used", float_of_int report.Noc_deadlock.Resource_ordering.classes_used);
     ]
    @ shape_metrics net @ power_metrics net)

let run_sweep = function
  | Job.Inline _ ->
      Error "sweep jobs need a registry benchmark, not an inline design"
  | Job.Benchmark { name; n_switches; max_degree = _ } -> (
      match Noc_benchmarks.Registry.find name with
      | None -> Error (Printf.sprintf "unknown benchmark %S" name)
      | Some spec ->
          let module S = Noc_experiments.Sweep in
          let p = time "sweep.evaluate" (fun () -> S.evaluate spec ~n_switches) in
          let v prefix (variant : S.variant) =
            [
              (prefix ^ "_vcs_added", float_of_int variant.S.vcs_added);
              (prefix ^ "_power_mw", variant.S.power_mw);
              (prefix ^ "_area_mm2", variant.S.area_mm2);
            ]
          in
          Ok
            ([
               ("n_flows", float_of_int p.S.n_flows);
               ("initially_deadlock_free", if p.S.initially_deadlock_free then 1. else 0.);
               ("removal_iterations", float_of_int p.S.removal_iterations);
             ]
            @ v "baseline" p.S.baseline @ v "removal" p.S.removal
            @ v "ordering" p.S.ordering @ v "ordering_hop" p.S.ordering_hop))

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let i = int_of_float (ceil (q *. float_of_int n)) - 1 in
    float_of_int sorted.(max 0 (min (n - 1) i))

let run_simulate ~prepare ~workload ~buffer_depth ~max_cycles net =
  let* prep_metrics =
    match prepare with
    | Job.As_is -> Ok [ ("vcs_added", 0.) ]
    | Job.Removal_first ->
        let report = removal net in
        if not report.Noc_deadlock.Removal.deadlock_free then
          Error "removal hit its iteration cap"
        else Ok [ ("vcs_added", float_of_int report.Noc_deadlock.Removal.vcs_added) ]
    | Job.Ordering_first ->
        let report = ordering Noc_deadlock.Resource_ordering.Hop_index net in
        Ok [ ("vcs_added", float_of_int report.Noc_deadlock.Resource_ordering.vcs_added) ]
  in
  let cdg_cyclic = not (Noc_deadlock.Removal.is_deadlock_free net) in
  let packets =
    time "workloads.generate" (fun () -> Noc_benchmarks.Workloads.generate net workload)
  in
  let by_id = Hashtbl.create (List.length packets) in
  List.iter
    (fun (p : Noc_sim.Packet.t) ->
      Hashtbl.replace by_id p.Noc_sim.Packet.id (p.Noc_sim.Packet.inject_at, p.Noc_sim.Packet.length))
    packets;
  let latencies = ref [] in
  let flits_delivered = ref 0 in
  let on_event = function
    | Noc_sim.Trace.Deliver { cycle; packet } -> (
        match Hashtbl.find_opt by_id packet with
        | Some (inject_at, length) ->
            latencies := (cycle - inject_at) :: !latencies;
            flits_delivered := !flits_delivered + length
        | None -> ())
    | _ -> ()
  in
  let config = { Noc_sim.Engine.default_config with buffer_depth; max_cycles } in
  let outcome = time "sim.engine" (fun () -> Noc_sim.Engine.run ~config ~on_event net packets) in
  let lat = Array.of_list !latencies in
  Array.sort compare lat;
  let n_lat = Array.length lat in
  let avg_latency =
    if n_lat = 0 then 0. else float_of_int (Array.fold_left ( + ) 0 lat) /. float_of_int n_lat
  in
  let flits_offered =
    List.fold_left (fun acc (p : Noc_sim.Packet.t) -> acc + p.Noc_sim.Packet.length) 0 packets
  in
  let completed, deadlocked, timed_out =
    match outcome with
    | Noc_sim.Engine.Completed _ -> (1., 0., 0.)
    | Noc_sim.Engine.Deadlocked _ -> (0., 1., 0.)
    | Noc_sim.Engine.Timed_out _ -> (0., 0., 1.)
  in
  let cycles =
    match outcome with
    | Noc_sim.Engine.Completed s | Noc_sim.Engine.Timed_out s -> s.Noc_sim.Stats.cycles
    | Noc_sim.Engine.Deadlocked d -> d.Noc_sim.Engine.cycle
  in
  let certified, waits_for_len, blocked, in_net =
    match outcome with
    | Noc_sim.Engine.Deadlocked d ->
        ( (match d.Noc_sim.Engine.waits_for_cycle with Some _ -> 1. | None -> 0.),
          (match d.Noc_sim.Engine.waits_for_cycle with
          | Some ids -> float_of_int (List.length ids)
          | None -> 0.),
          float_of_int (List.length d.Noc_sim.Engine.blocked_packets),
          float_of_int d.Noc_sim.Engine.in_network_flits )
    | Noc_sim.Engine.Completed _ | Noc_sim.Engine.Timed_out _ -> (0., 0., 0., 0.)
  in
  let throughput =
    if cycles = 0 then 0. else float_of_int !flits_delivered /. float_of_int cycles
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
       ("flits_delivered", float_of_int !flits_delivered);
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
  | Job.Sweep -> run_sweep job.Job.design
  | Job.Removal { heuristic; directions; resource } ->
      let* net = build_network job.Job.design in
      run_removal ~heuristic ~directions ~resource net
  | Job.Resource_ordering { strategy } ->
      let* net = build_network job.Job.design in
      run_ordering ~strategy net
  | Job.Simulate { prepare; workload; buffer_depth; max_cycles } ->
      let* net = build_network job.Job.design in
      run_simulate ~prepare ~workload ~buffer_depth ~max_cycles net

(* ---- One submitted job, end to end -------------------------------- *)

type job_trace = {
  result_hash : string;
  outcome : Outcome.t;
  cached : bool;  (** Served by [Store.find]: no solver layer ran. *)
  wall_ms : float;  (** The whole replayed path. *)
}

let decode frame of_json =
  let dec = Wire.decoder () in
  Wire.feed_string dec frame;
  match Wire.next dec with
  | Ok (Some json) -> of_json json
  | Ok None -> Error "incomplete frame"
  | Error e -> Error e

let job store id job =
  let t0 = Noc_obs.Clock.now_ns () in
  let request =
    time "wire.encode" (fun () -> Wire.encode_request (Wire.Submit { id; corr = None; job }))
  in
  let job =
    match time "wire.decode" (fun () -> decode request Wire.request_of_json) with
    | Ok (Wire.Submit { job; _ }) -> job
    | Ok _ | Error _ -> failwith "replay: submit frame does not round-trip"
  in
  (match time "lint.vet" (fun () -> Lint.vet_job job) with
  | Ok () -> ()
  | Error e -> failwith ("replay: " ^ e));
  let hash = time "job.hash" (fun () -> Job.hash job) in
  let outcome, cached =
    match time "store.find" (fun () -> Store.find store hash) with
    | Some outcome -> (outcome, true)
    | None ->
        let outcome =
          match try metrics job with Failure m | Invalid_argument m -> Error m with
          | Ok metrics -> Outcome.done_ metrics
          | Error msg -> Outcome.failed msg
        in
        if Outcome.is_done outcome then
          time "store.write" (fun () -> ignore (Store.store store hash outcome));
        (outcome, false)
  in
  let result_hash = time "outcome.encode" (fun () -> Outcome.result_hash outcome) in
  let reply =
    time "wire.encode" (fun () ->
        Wire.encode_response (Wire.Result { id; job_hash = hash; outcome; cached }))
  in
  (match time "wire.decode" (fun () -> decode reply Wire.response_of_json) with
  | Ok (Wire.Result _) -> ()
  | Ok _ | Error _ -> failwith "replay: result frame does not round-trip");
  let wall_ms = Noc_obs.Clock.ms_between ~start_ns:t0 ~stop_ns:(Noc_obs.Clock.now_ns ()) in
  { result_hash; outcome; cached; wall_ms }
