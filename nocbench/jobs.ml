(* The three workloads' job lists.  Everything here is a pure function
   of (workload, seed, seconds): the same arguments give the same jobs
   in the same order, so per-seed counts repeat bit-for-bit and the
   daemon sees nothing but the generated jobs. *)

open Noc_service

type workload = Cold_mix | Warm_replay | Sim_campaign

let workloads =
  [ ("cold-mix", Cold_mix); ("warm-replay", Warm_replay); ("sim-campaign", Sim_campaign) ]

let name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* What one run submits.  [prefill] goes through a daemon untimed
   before the timed phase (warm-replay's cold pass).  Each of [rounds]
   is a timed closed-loop submission sequence, driven by [connections]
   clients that each keep one job outstanding; every round after the
   first gets a fresh daemon on an empty store (cold-mix). *)
type plan = { prefill : Job.t array; rounds : Job.t array list; connections : int }

let rng ~seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let take n a = Array.sub a 0 (min n (Array.length a))

(* First occurrence of each job hash: a repeat would be a store hit
   where the workload wants a miss. *)
let distinct jobs =
  let seen = Hashtbl.create 4096 in
  List.filter
    (fun job ->
      let h = Job.hash job in
      (not (Hashtbl.mem seen h)) && (Hashtbl.add seen h (); true))
    jobs

let benchmark name n_switches max_degree =
  Job.Benchmark { name; n_switches; max_degree }

let switch_counts = List.init 25 (fun i -> i + 2)
let degrees = [ 3; 4; 5 ]

(* Registry design space: every benchmark x switch counts 2-26 x link
   budget 3-5. *)
let designs =
  List.concat_map
    (fun (spec : Noc_benchmarks.Spec.t) ->
      List.concat_map
        (fun n -> List.map (benchmark spec.Noc_benchmarks.Spec.name n) degrees)
        switch_counts)
    Noc_benchmarks.Registry.all

let removal heuristic =
  Job.Removal
    {
      heuristic;
      directions = [ Noc_deadlock.Cost_table.Forward; Noc_deadlock.Cost_table.Backward ];
      resource = Noc_deadlock.Break_cycle.Virtual_channel;
    }

(* Removal with both heuristics and resource ordering with both
   strategies: the methods that also accept an inline design. *)
let design_methods =
  [
    removal Noc_deadlock.Removal.Smallest_cycle_first;
    removal Noc_deadlock.Removal.Any_cycle_first;
    Job.Resource_ordering { strategy = Noc_deadlock.Resource_ordering.Hop_index };
    Job.Resource_ordering { strategy = Noc_deadlock.Resource_ordering.Greedy_ordered };
  ]

let jobs_of designs methods =
  List.concat_map
    (fun design -> List.map (fun method_ -> { Job.design; method_ }) methods)
    designs

let registry_jobs = Array.of_list (jobs_of designs (design_methods @ [ Job.Sweep ]))

(* Work per second of --seconds.  At the code this benchmark was
   written against, on a 2-core host, a timed phase then lasts about
   --seconds. *)
let cold_jobs_per_s = 225
let warm_replies_per_s = 500
let sim_jobs_per_s = 110

(* p99 needs at least ten samples beyond it. *)
let min_replies = 1000

let ceil_div a b = (a + b - 1) / b

(* cold-mix: the whole registry space (2,250 jobs) per round, each
   round in its own seeded order on its own empty store. *)
let cold_mix ~seed ~seconds =
  let n = Array.length registry_jobs in
  let rounds = max 1 (ceil_div (cold_jobs_per_s * seconds) n) in
  {
    prefill = [||];
    rounds =
      List.init rounds (fun r -> shuffle (rng ~seed ("cold-mix", r)) registry_jobs);
    connections = 2;
  }

(* warm-replay: a fixed working set of 300 registry jobs and 1,200
   inline ones (a synthesized design saved in the noc-design 1 format,
   with a design method); the seed only orders it.  A set drawn from
   the seed gave every seed its own mix of design sizes, which moved
   latency and throughput by more than the run-to-run noise.  Inline
   jobs are the majority so that the median lands on a lint-bound
   reply, not on a bare socket round trip. *)
let warm_registry = 300
let warm_inline = 1200

let inline_design = function
  | Job.Inline _ as d -> d
  | Job.Benchmark { name; n_switches; max_degree } ->
      let spec = Option.get (Noc_benchmarks.Registry.find name) in
      let options =
        {
          Noc_synth.Custom.default_options with
          Noc_synth.Custom.max_out_degree = max_degree;
          max_in_degree = max_degree;
        }
      in
      let net =
        Noc_synth.Custom.synthesize_exn ~options
          (spec.Noc_benchmarks.Spec.build ())
          ~n_switches
      in
      Job.Inline (Noc_model.Io.save net)

let warm_replay ~seed ~seconds =
  let fixed = rng ~seed:0 "warm-replay" in
  let registry = take warm_registry (shuffle fixed registry_jobs) in
  (* Every registry design inline, with every design method.  Two
     registry points can synthesize to the same text, hence
     [distinct]. *)
  let inline =
    take warm_inline
      (Array.of_list
         (distinct
            (Array.to_list
               (shuffle fixed
                  (Array.of_list (jobs_of (List.map inline_design designs) design_methods))))))
  in
  let list = shuffle (rng ~seed "warm-replay") (Array.append registry inline) in
  let len = Array.length list in
  let n = max min_replies (len * max 1 (ceil_div (warm_replies_per_s * seconds) len)) in
  { prefill = list; rounds = [ Array.init n (fun i -> list.(i mod len)) ]; connections = 1 }

(* sim-campaign: the campaign grid at [k] workload seeds drawn from
   [seed], deduplicated (the unseeded kinds repeat across seeds). *)
let sim_points =
  List.concat_map
    (fun benchmark ->
      List.map
        (fun n_switches -> { Noc_campaign.Campaign.benchmark; n_switches })
        [ 8; 14; 20 ])
    [ "D26_media"; "D36_6"; "D36_8" ]

let sim_workloads =
  List.filter_map Noc_benchmarks.Workloads.of_kind Noc_benchmarks.Workloads.kinds

let with_workload_seed s (job : Job.t) =
  match job.Job.method_ with
  | Job.Simulate ({ workload; _ } as sim) ->
      {
        job with
        Job.method_ =
          Job.Simulate { sim with workload = Noc_benchmarks.Workloads.with_seed workload s };
      }
  | _ -> job

let sim_campaign ~seed ~seconds =
  let st = rng ~seed "sim-campaign" in
  let grid =
    Noc_campaign.Campaign.grid ~rates:[ 0.05; 0.1; 0.2 ] ~points:sim_points
      ~workloads:sim_workloads ()
  in
  let k = max 1 (ceil_div (max min_replies (sim_jobs_per_s * seconds)) (List.length grid)) in
  let jobs =
    distinct
      (List.concat_map
         (fun _ -> List.map (with_workload_seed (Random.State.bits st)) grid)
         (List.init k Fun.id))
  in
  { prefill = [||]; rounds = [ shuffle st (Array.of_list jobs) ]; connections = 2 }

let plan w ~seed ~seconds =
  match w with
  | Cold_mix -> cold_mix ~seed ~seconds
  | Warm_replay -> warm_replay ~seed ~seconds
  | Sim_campaign -> sim_campaign ~seed ~seconds
