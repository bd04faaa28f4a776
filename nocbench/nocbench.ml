(* The repository's benchmark: time noc-wire/1 jobs from submit to
   result against a real [noc_tool serve] daemon, check every reply,
   and (with --trace 1) attribute the time to layers with an
   in-process replay of the same jobs.

     nocbench --workload cold-mix|warm-replay|sim-campaign
              --seed N --seconds S --trace 0|1

   Human-readable lines first; the last line of stdout is one JSON
   object {correct, attempted, failed, metrics}.  See NOTES.md. *)

open Noc_service
module Json = Noc_json.Json

let workdir = ".nocbench-work"

(* Set-ups per run; setup_s is their median. *)
let setups_per_run = 41

(* ---- Small helpers ---------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(* Nearest-rank percentile of unsorted samples. *)
let percentile q samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median = percentile 0.5
let sum = List.fold_left ( +. ) 0.
let metric outcome name = Option.value ~default:0. (Outcome.metric outcome name)

(* ---- Host facts -------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> Domain.recommended_domain_count ()
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      Option.value ~default:(Domain.recommended_domain_count ())
        (int_of_string_opt (String.trim line))

(* A checkout need not be a git repository, so the commit is best
   effort and the sources are also identified by digest. *)
let commit () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    match String.split_on_char ' ' head with
    | [ "ref:"; ref ] -> String.trim (read_file (Filename.concat ".git" ref))
    | _ -> head
  with Sys_error _ -> "unknown"

let source_md5 () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" then [ p ]
           else [])
  in
  Digest.to_hex
    (Digest.string
       (String.concat "" (List.map (fun p -> p ^ read_file p) (files "lib" @ files "bin"))))

(* ---- Driving the daemon ------------------------------------------ *)

type served = {
  jobs : Job.t array;
  run : Load.run;
  report : Wire.metrics_report;
  rss_mb : float;
}

(* Drive [jobs] through the serving daemon [d] (whose Hello [client]
   read), scrape its metrics, read its peak RSS, stop it. *)
let serve d client ~connections jobs =
  let run = Load.run ~socket:d.Daemon.socket ~first:client ~connections jobs in
  let report =
    match Client.metrics client with Ok r -> r | Error e -> failwith ("metrics: " ^ e)
  in
  let rss_mb = Daemon.peak_rss_mb d in
  Client.close client;
  Daemon.stop d;
  { jobs; run; report; rss_mb }

(* Successful results as (job, latency, outcome, cached). *)
let results served =
  List.concat
    (List.mapi
       (fun i r ->
         match r with
         | Some { Load.latency_ms; response = Ok (Wire.Result { outcome; cached; _ }) } ->
             [ (served.jobs.(i), latency_ms, outcome, cached) ]
         | _ -> [])
       (Array.to_list served.run.Load.replies))

(* ---- Checking replies -------------------------------------------- *)

(* [Runner.execute] over [jobs] on [domains] domains.  The first job
   runs alone so that lazily registered metrics (the simulator's
   counters) are forced before two domains could race on them. *)
let execute_all ~domains jobs =
  let n = Array.length jobs in
  let out = Array.make n None in
  let next = Atomic.make 1 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      out.(i) <- Some (Runner.execute jobs.(i));
      work ()
    end
  in
  if n > 0 then begin
    out.(0) <- Some (Runner.execute jobs.(0));
    let helpers = List.init (domains - 1) (fun _ -> Domain.spawn work) in
    work ();
    List.iter Domain.join helpers
  end;
  Array.map Option.get out

(* [expected] maps a job hash to the in-process (result hash, outcome).
   Every reply must be a Done [Result] for its own job whose result
   hash equals the in-process one, cached exactly when the phase
   expects it.  Returns one line per failure. *)
let check_replies ~phase ~expected ~cached_expected served =
  let failures = ref [] in
  let fail i msg = failures := Printf.sprintf "%s job %d: %s" phase i msg :: !failures in
  Array.iteri
    (fun i reply ->
      let job = served.jobs.(i) in
      match reply with
      | None -> fail i "never answered"
      | Some { Load.response = Error e; _ } -> fail i e
      | Some { Load.response = Ok (Wire.Result { id; job_hash; outcome; cached }); _ } ->
          if id <> i then fail i (Printf.sprintf "reply carries id %d" id)
          else if job_hash <> Job.hash job then fail i "job hash mismatch"
          else if not (Outcome.is_done outcome) then fail i "outcome is not done"
          else if Outcome.result_hash outcome <> fst (Hashtbl.find expected job_hash) then
            fail i "result hash differs from in-process Runner.execute"
          else if cached <> cached_expected then
            fail i (Printf.sprintf "cached = %b, expected %b" cached cached_expected)
      | Some { Load.response = Ok (Wire.Rejected { reason; _ }); _ } ->
          fail i ("rejected: " ^ reason)
      | Some { Load.response = Ok (Wire.Overloaded _); _ } -> fail i "overloaded"
      | Some { Load.response = Ok (Wire.Error_msg m); _ } -> fail i ("error: " ^ m)
      | Some { Load.response = Ok _; _ } -> fail i "unexpected reply kind")
    served.run.Load.replies;
  List.rev !failures

(* The campaign invariants: protected designs never deadlock and every
   deadlock is certified. *)
let campaign_violations served =
  let cells =
    List.map
      (fun (job, _, outcome, cached) -> { Noc_campaign.Campaign.job; outcome; cached })
      (results served)
  in
  (Noc_campaign.Campaign.verify cells).Noc_campaign.Campaign.violations

let scraped served =
  match Noc_obs.Expo.metrics_of_json served.report.Wire.mr_metrics with
  | Ok metrics -> metrics
  | Error e -> failwith ("metrics snapshot: " ^ e)

let find_metric served name =
  List.find_opt (fun m -> Noc_obs.Metrics.metric_name m = name) (scraped served)

(* The daemon's own tallies (store hits and misses, results timed by
   noc_serve_submit_to_result_ms) must equal the client's. *)
let cross_check served =
  let res = results served in
  let hits = List.length (List.filter (fun (_, _, _, cached) -> cached) res) in
  let misses = List.length res - hits in
  let timed_results =
    match find_metric served "noc_serve_submit_to_result_ms" with
    | Some (Noc_obs.Metrics.Histogram { count; _ }) -> count
    | _ -> -1
  in
  (match served.report.Wire.mr_stats.Wire.store with
  | Some s when s.Wire.hits = hits && s.Wire.misses = misses -> []
  | Some s ->
      [
        Printf.sprintf "daemon store hits/misses %d/%d, client saw %d/%d" s.Wire.hits
          s.Wire.misses hits misses;
      ]
  | None -> [ "daemon reports no store" ])
  @
  if timed_results = List.length res then []
  else
    [
      Printf.sprintf "daemon noc_serve_submit_to_result_ms count %d, client saw %d results"
        timed_results (List.length res);
    ]

let queue_wait q served =
  match find_metric served "noc_pool_queue_wait_ms" with
  | Some m -> Option.value ~default:0. (Noc_obs.Metrics.quantile ~q m)
  | None -> 0.

(* ---- Metrics ----------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* A failed or refused job counts as over any latency limit. *)
let end_to_end ~setup_times rounds =
  let latencies =
    List.concat_map
      (fun served ->
        Array.to_list
          (Array.map
             (function
               | Some { Load.latency_ms; response = Ok (Wire.Result { outcome; _ }) }
                 when Outcome.is_done outcome ->
                   latency_ms
               | _ -> infinity)
             served.run.Load.replies))
      rounds
  in
  let completed = List.length (List.filter Float.is_finite latencies) in
  let elapsed = sum (List.map (fun s -> s.run.Load.elapsed_s) rounds) in
  [
    m "job_p50_ms" "ms" (median latencies);
    m "job_p99_ms" "ms" (percentile 0.99 latencies);
    m "jobs_per_s" "1/s" (float_of_int completed /. elapsed);
    m "setup_s" "s" (median setup_times);
    m "daemon_rss_mb" "MB" (List.fold_left (fun acc s -> Float.max acc s.rss_mb) 0. rounds);
  ]

(* The traced replay of every round, each on a fresh in-process store
   (holding the cold pass on warm-replay).  Returns the replay/daemon
   result-hash mismatches and the per-layer metrics. *)
let per_layer ~dir ~expected ~prefill rounds =
  Replay.reset ();
  let traces =
    List.concat
      (List.mapi
         (fun r served ->
           let rs =
             Store.create ~root:(Filename.concat dir (Printf.sprintf "replay-store-%d" r))
               ~capacity:4096
           in
           Option.iter
             (fun p ->
               Array.iter
                 (fun job ->
                   let h = Job.hash job in
                   ignore (Store.store rs h (snd (Hashtbl.find expected h))))
                 p.jobs)
             prefill;
           List.mapi
             (fun i job ->
               let tr = Replay.job rs i job in
               let ok =
                 match served.run.Load.replies.(i) with
                 | Some { Load.response = Ok (Wire.Result { outcome; _ }); _ } ->
                     Outcome.result_hash outcome = tr.Replay.result_hash
                 | _ -> false
               in
               (r, i, ok, tr))
             (Array.to_list served.jobs))
         rounds)
  in
  let mismatches =
    List.filter_map
      (fun (r, i, ok, _) ->
        if ok then None
        else Some (Printf.sprintf "replay round %d job %d: result hash differs from the daemon's" r i))
      traces
  in
  let traces = List.map (fun (_, _, _, tr) -> tr) traces in
  let ratio a b = if b > 0. then a /. b else 0. in
  let layer_ms l = Hashtbl.find Replay.samples l in
  let layer_total = sum (List.concat_map layer_ms Replay.layers) in
  let layers =
    List.concat_map
      (fun l ->
        let s = layer_ms l in
        let total = sum s in
        [
          m (l ^ ".calls") "count" (float_of_int (List.length s));
          m (l ^ ".ms_total") "ms" total;
          m (l ^ ".ms_p50") "ms" (median s);
          m (l ^ ".share") "ratio" (ratio total layer_total);
        ])
      Replay.layers
  in
  let outcomes = List.map (fun tr -> tr.Replay.outcome) traces in
  let total name = sum (List.map (fun o -> metric o name) outcomes) in
  let vcs_added =
    sum
      (List.concat_map
         (fun (o : Outcome.t) ->
           List.filter_map
             (fun (k, v) -> if String.ends_with ~suffix:"vcs_added" k then Some v else None)
             o.Outcome.metrics)
         outcomes)
  in
  (* Flits the replay simulated itself (store hits simulate nothing). *)
  let simulated_flits =
    sum
      (List.map
         (fun tr -> if tr.Replay.cached then 0. else metric tr.Replay.outcome "flits_delivered")
         traces)
  in
  let uncached =
    List.concat_map results (Option.to_list prefill @ rounds)
    |> List.filter (fun (_, _, _, cached) -> not cached)
  in
  let overhead =
    List.map (fun (_, latency, (o : Outcome.t), _) -> latency -. o.Outcome.wall_ms) uncached
  in
  let tax =
    List.filter_map
      (fun (job, _, (o : Outcome.t), _) ->
        let solo = (snd (Hashtbl.find expected (Job.hash job))).Outcome.wall_ms in
        if solo > 0. then Some (o.Outcome.wall_ms /. solo) else None)
      uncached
  in
  let replay_wall = sum (List.map (fun tr -> tr.Replay.wall_ms) traces) in
  let hits, lookups =
    List.fold_left
      (fun (h, n) served ->
        match served.report.Wire.mr_stats.Wire.store with
        | Some s -> (h + s.Wire.hits, n + s.Wire.hits + s.Wire.misses)
        | None -> (h, n))
      (0, 0) rounds
  in
  ( mismatches,
    layers
    @ [
        m "store.hit_ratio" "ratio" (ratio (float_of_int hits) (float_of_int lookups));
        m "sim.ns_per_flit" "ns" (ratio (sum (layer_ms "sim.engine") *. 1e6) simulated_flits);
        m "pool.queue_wait_ms_p50" "ms" (median (List.map (queue_wait 0.5) rounds));
        m "pool.queue_wait_ms_p99" "ms" (median (List.map (queue_wait 0.99) rounds));
        m "serve.overhead_ms_p50" "ms" (median overhead);
        m "serve.overhead_ms_p99" "ms" (percentile 0.99 overhead);
        m "runner.parallel_tax" "ratio" (median tax);
        m "trace.unattributed_share" "ratio" (ratio (replay_wall -. layer_total) replay_wall);
        m "removal.iterations_total" "count" (total "iterations" +. total "removal_iterations");
        m "vcs_added_total" "count" vcs_added;
        m "sim.cycles_total" "count" (total "cycles");
        m "sim.flits_delivered_total" "count" (total "flits_delivered");
        m "sim.deadlocks_total" "count" (total "deadlocked");
        m "sim.certified_total" "count" (total "certified");
      ] )

(* ---- The run ----------------------------------------------------- *)

let metrics_json l =
  Json.Obj
    (List.map
       (fun x -> (x.name, Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit_) ]))
       l)

let run ~workload ~seed ~seconds ~trace =
  let t_start = Daemon.now_s () in
  let wname = Jobs.name workload in
  let dir = Filename.concat workdir wname in
  rm_rf dir;
  mkdir_p dir;
  let store = Filename.concat dir "store" in
  let cores = nproc () in
  let host =
    [
      ("nproc", Json.Num (float_of_int cores));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str (commit ()));
      ("source_md5", Json.Str (source_md5 ()));
      ("daemon_domains", Json.Num (float_of_int Daemon.domains));
    ]
  in
  List.iter (fun (k, v) -> Printf.printf "host %s %s\n" k (Json.to_string v)) host;
  let plan = Jobs.plan workload ~seed ~seconds in
  let connections = min plan.Jobs.connections cores in
  let submitted =
    Array.concat (plan.Jobs.prefill :: plan.Jobs.rounds)
  in
  Printf.printf "workload %s seed %d: %d prefill + %s timed jobs, %d closed-loop client(s)\n%!"
    wname seed (Array.length plan.Jobs.prefill)
    (String.concat " + "
       (List.map (fun r -> string_of_int (Array.length r)) plan.Jobs.rounds))
    connections;
  (* warm-replay's untimed cold pass fills the store. *)
  let prefill =
    if plan.Jobs.prefill = [||] then None
    else
      let d, client, _ = Daemon.spawn ~dir ~store in
      Some (serve d client ~connections:(min 2 cores) plan.Jobs.prefill)
  in
  let d, client, setup_times = Daemon.setups ~dir ~store setups_per_run in
  let rounds =
    List.mapi
      (fun r jobs ->
        if r = 0 then serve d client ~connections jobs
        else begin
          rm_rf store;
          let d, client, _ = Daemon.spawn ~dir ~store in
          serve d client ~connections jobs
        end)
      plan.Jobs.rounds
  in
  (* Expected outcomes, computed in-process.  The traced run executes
     them one at a time: their wall time is the solo reference for
     runner.parallel_tax. *)
  let distinct = Array.of_list (Jobs.distinct (Array.to_list submitted)) in
  let outcomes = execute_all ~domains:(if trace then 1 else min 2 cores) distinct in
  let expected = Hashtbl.create 4096 in
  Array.iter2
    (fun job outcome ->
      Hashtbl.replace expected (Job.hash job) (Outcome.result_hash outcome, outcome))
    distinct outcomes;
  let failures =
    List.concat
      [
        (match prefill with
        | Some p -> check_replies ~phase:"prefill" ~expected ~cached_expected:false p
        | None -> []);
        List.concat
          (List.mapi
             (fun r served ->
               check_replies ~phase:(Printf.sprintf "round %d" r) ~expected
                 ~cached_expected:(prefill <> None) served)
             rounds);
        (match workload with
        | Jobs.Sim_campaign ->
            List.map (fun v -> "campaign: " ^ v) (List.concat_map campaign_violations rounds)
        | Jobs.Cold_mix | Jobs.Warm_replay -> []);
      ]
  in
  let problems = List.concat_map cross_check rounds in
  let e2e = end_to_end ~setup_times rounds in
  let replay_failures, layers =
    if not trace then ([], [])
    else per_layer ~dir ~expected ~prefill rounds
  in
  let failures = failures @ replay_failures in
  let attempted = Array.length submitted in
  let failed = List.length failures in
  let correct = failed = 0 && problems = [] in
  List.iter (Printf.printf "FAIL %s\n") failures;
  List.iter (Printf.printf "CROSS-CHECK %s\n") problems;
  let fail_ratio = float_of_int failed /. float_of_int attempted in
  Printf.printf "attempted %d, failed %d\nfail_ratio %.6g ratio\n" attempted failed fail_ratio;
  List.iter (fun x -> Printf.printf "%s %.6g %s\n" x.name x.value x.unit_) (e2e @ layers);
  Printf.printf "run took %.1f s\n" (Daemon.now_s () -. t_start);
  let result =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Num (float_of_int attempted));
        ("failed", Json.Num (float_of_int failed));
        ("metrics", metrics_json (if trace then layers else e2e));
      ]
  in
  let results_dir = Filename.concat workdir "results" in
  mkdir_p results_dir;
  Out_channel.with_open_bin
    (Filename.concat results_dir
       (Printf.sprintf "%s-seed%d-trace%d.json" wname seed (Bool.to_int trace)))
    (fun oc ->
      output_string oc
        (Json.to_string_pretty
           (Json.Obj
              [
                ("schema", Json.Str "nocbench/1");
                ("workload", Json.Str wname);
                ("seed", Json.Num (float_of_int seed));
                ("seconds", Json.Num (float_of_int seconds));
                ("host", Json.Obj host);
                ("fail_ratio", Json.Num fail_ratio);
                ("failures", Json.Arr (List.map (fun s -> Json.Str s) (failures @ problems)));
                ("end_to_end", metrics_json e2e);
                ("per_layer", metrics_json layers);
                ("result", result);
              ])));
  print_endline (Json.to_string result)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " cold-mix | warm-replay | sim-campaign");
      ("--seed", Arg.Set_int seed, " job-list seed");
      ("--seconds", Arg.Set_int seconds, " measurement budget per run");
      ("--trace", Arg.Set_int trace, " 1: also run the traced in-process replay");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "nocbench --workload W --seed N --seconds S --trace 0|1";
  let workload =
    match List.assoc_opt !workload Jobs.workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  if not (Sys.file_exists Daemon.exe) then begin
    prerr_endline ("missing " ^ Daemon.exe ^ ": run from a built checkout");
    exit 2
  end;
  let abort _ =
    Daemon.stop_all ();
    exit 3
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle abort);
  Sys.set_signal Sys.sigint (Sys.Signal_handle abort);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match run ~workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) with
  | () -> ()
  | exception e ->
      Daemon.stop_all ();
      prerr_endline ("nocbench: " ^ Printexc.to_string e);
      exit 1
