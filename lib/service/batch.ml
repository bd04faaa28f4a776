(* The batch engine: submit a job list through the domain pool, consult
   the content-addressed cache first, emit telemetry along the way, and
   hand results back in submission order regardless of completion
   order.  The per-job work (Runner.execute) is deterministic and
   isolated, so the only ordering the engine must impose is on the
   result list and the [on_result] stream — both follow submission
   order by construction. *)

type config = {
  domains : int;
  cache : Result_cache.t option;
  telemetry : Noc_obs.Sink.t;
  timeout_ms : float option;
  fail_fast : bool;
  lint : bool;
}

let default_config =
  {
    domains = 1;
    cache = None;
    telemetry = Noc_obs.Sink.null;
    timeout_ms = None;
    fail_fast = false;
    lint = true;
  }

type job_result = {
  index : int;
  job : Job.t;
  outcome : Outcome.t;
  cache_hit : bool;
}

type summary = {
  total : int;
  succeeded : int;
  failed : int;
  timed_out : int;
  cancelled : int;
  cache_hits : int;
  wall_ms : float;
  domains : int;
}

let classify_timeout config ~cache_hit (outcome : Outcome.t) =
  (* OCaml computations cannot be interrupted, so the budget is
     enforced by classification: a run that came back over budget is
     reported as timed out and its metrics are withheld.  Cache hits
     are exempt — their stored wall time belongs to the original run. *)
  match config.timeout_ms with
  | Some limit
    when (not cache_hit)
         && outcome.Outcome.wall_ms > limit
         && outcome.Outcome.status = Outcome.Done ->
      Outcome.timed_out ~wall_ms:outcome.Outcome.wall_ms
  | _ -> outcome

let run ?(on_result = fun _ -> ()) (config : config) jobs =
  if config.domains < 1 then invalid_arg "Batch.run: domains < 1";
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  Noc_obs.Trace.with_span "batch.run"
    ~attrs:
      [
        ("jobs", Noc_obs.Trace.Int n);
        ("domains", Noc_obs.Trace.Int config.domains);
      ]
  @@ fun _run_sp ->
  let t0 = Unix.gettimeofday () in
  (* The lint gate: error-level static findings keep a job out of the
     pool entirely.  Vetting happens here, in the submitting domain, so
     a rejected job never occupies a worker. *)
  let vetoed =
    if config.lint then
      Array.map
        (fun job ->
          match Lint.vet_job job with Ok () -> None | Error msg -> Some msg)
        jobs
    else Array.make n None
  in
  config.telemetry.Noc_obs.Sink.emit
    (Telemetry.batch_started ~jobs:n ~domains:config.domains
       ~cache_capacity:
         (match config.cache with
         | None -> 0
         | Some cache -> Result_cache.capacity cache));
  let results = Array.make n None in
  let mutex = Mutex.create () in
  let all_done = Condition.create () in
  let remaining = ref n in
  let next_to_stream = ref 0 in
  let cancelled = Atomic.make false in
  let record index r =
    Mutex.lock mutex;
    results.(index) <- Some r;
    decr remaining;
    (* Stream the completed prefix, in submission order. *)
    while
      !next_to_stream < n
      &&
      match results.(!next_to_stream) with
      | Some r ->
          on_result r;
          incr next_to_stream;
          true
      | None -> false
    do
      ()
    done;
    if !remaining = 0 then Condition.signal all_done;
    Mutex.unlock mutex
  in
  let process index =
    let job = jobs.(index) in
    if Atomic.get cancelled then begin
      let r = { index; job; outcome = Outcome.cancelled; cache_hit = false } in
      config.telemetry.Noc_obs.Sink.emit
        (Telemetry.job_finished ~index ~job ~outcome:r.outcome ~cache_hit:false ());
      record index r
    end
    else begin
      Noc_obs.Trace.with_span "batch.job"
        ~attrs:
          [
            ("index", Noc_obs.Trace.Int index);
            ("job", Noc_obs.Trace.Str (Job.short_hash job));
          ]
      @@ fun job_sp ->
      config.telemetry.Noc_obs.Sink.emit (Telemetry.job_started ~index ~job ());
      let hash = Job.hash job in
      let outcome, cache_hit =
        match config.cache with
        | None -> (Runner.execute job, false)
        | Some cache -> (
            let lookup_t0 = Unix.gettimeofday () in
            match Result_cache.find cache hash with
            | Some cached ->
                (* Metrics are the original run's; the wall time is the
                   (near-zero) lookup time of this run. *)
                let wall_ms = 1000. *. (Unix.gettimeofday () -. lookup_t0) in
                ({ cached with Outcome.wall_ms }, true)
            | None ->
                let outcome = Runner.execute job in
                if Outcome.is_done outcome then begin
                  let evicted = Result_cache.store cache hash outcome in
                  if evicted then
                    let s = Result_cache.stats cache in
                    config.telemetry.Noc_obs.Sink.emit
                      (Telemetry.cache_evicted ~entries:s.Result_cache.entries
                         ~capacity:(Result_cache.capacity cache))
                end;
                (outcome, false))
      in
      let outcome = classify_timeout config ~cache_hit outcome in
      Noc_obs.Trace.add_attr job_sp "cache_hit" (Noc_obs.Trace.Bool cache_hit);
      (match outcome.Outcome.status with
      | Outcome.Failed _ | Outcome.Timed_out ->
          if config.fail_fast then Atomic.set cancelled true
      | Outcome.Done | Outcome.Cancelled -> ());
      config.telemetry.Noc_obs.Sink.emit
        (Telemetry.job_finished ~index ~job ~outcome ~cache_hit ());
      record index { index; job; outcome; cache_hit }
    end
  in
  (* A vetoed job is finished on the spot: failed outcome, telemetry,
     fail-fast semantics — but no worker ever sees it. *)
  let reject index msg =
    let job = jobs.(index) in
    let outcome = Outcome.failed ~wall_ms:0. msg in
    if config.fail_fast then Atomic.set cancelled true;
    config.telemetry.Noc_obs.Sink.emit
      (Telemetry.job_finished ~index ~job ~outcome ~cache_hit:false ());
    record index { index; job; outcome; cache_hit = false }
  in
  (if config.domains = 1 then
     (* Sequential arm: no domain is spawned at all — this is the
        reference trajectory the differential tests compare against. *)
     for index = 0 to n - 1 do
       config.telemetry.Noc_obs.Sink.emit
         (Telemetry.job_submitted ~index ~job:jobs.(index) ~queue_depth:0 ());
       match vetoed.(index) with
       | Some msg -> reject index msg
       | None -> process index
     done
   else
     Noc_pool.Pool.with_pool ~domains:config.domains (fun pool ->
         for index = 0 to n - 1 do
           let depth = Noc_pool.Pool.queue_depth pool in
           config.telemetry.Noc_obs.Sink.emit (Telemetry.queue_depth ~depth);
           config.telemetry.Noc_obs.Sink.emit
             (Telemetry.job_submitted ~index ~job:jobs.(index)
                ~queue_depth:depth ());
           match vetoed.(index) with
           | Some msg -> reject index msg
           | None -> Noc_pool.Pool.submit pool (fun () -> process index)
         done;
         Mutex.lock mutex;
         while !remaining > 0 do
           Condition.wait all_done mutex
         done;
         Mutex.unlock mutex));
  let results =
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false) results)
  in
  let wall_ms = 1000. *. (Unix.gettimeofday () -. t0) in
  let count f = List.length (List.filter f results) in
  let summary =
    {
      total = n;
      succeeded = count (fun r -> r.outcome.Outcome.status = Outcome.Done);
      failed =
        count (fun r ->
            match r.outcome.Outcome.status with
            | Outcome.Failed _ -> true
            | _ -> false);
      timed_out = count (fun r -> r.outcome.Outcome.status = Outcome.Timed_out);
      cancelled = count (fun r -> r.outcome.Outcome.status = Outcome.Cancelled);
      cache_hits = count (fun r -> r.cache_hit);
      wall_ms;
      domains = config.domains;
    }
  in
  let cache_stats =
    match config.cache with
    | Some cache -> Result_cache.stats cache
    | None ->
        {
          Result_cache.hits = summary.cache_hits;
          misses = summary.total - summary.cache_hits - summary.cancelled;
          evictions = 0;
          entries = 0;
        }
  in
  config.telemetry.Noc_obs.Sink.emit
    (Telemetry.batch_finished ~wall_ms ~succeeded:summary.succeeded
       ~failed:summary.failed ~cancelled:summary.cancelled ~cache_stats);
  config.telemetry.Noc_obs.Sink.close ();
  (results, summary)

let pp_summary ppf s =
  Format.fprintf ppf
    "%d job%s on %d domain%s in %.1f ms: %d ok, %d failed, %d timed out, %d \
     cancelled, %d cache hit%s"
    s.total
    (if s.total = 1 then "" else "s")
    s.domains
    (if s.domains = 1 then "" else "s")
    s.wall_ms s.succeeded s.failed s.timed_out s.cancelled s.cache_hits
    (if s.cache_hits = 1 then "" else "s")
