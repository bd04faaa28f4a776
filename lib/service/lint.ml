(* The service's contribution to the static-analysis framework: the
   noc-jobs/1 job-file pass, and the per-job vet the batch engine runs
   before anything reaches the domain pool.  Both use only static
   information — registry metadata, the canonical-encoding round-trip,
   and (for inline designs) a parse plus error-level design lint — so
   vetting a job is cheap compared to running it. *)

open Noc_model
module Diagnostic = Noc_analysis.Diagnostic
module Pass = Noc_analysis.Pass
module Engine = Noc_analysis.Engine

(* Admission keeps only error-level findings: a pass whose floor is
   below Error cannot change a verdict and is not run, and the passes
   that do run skip the work of their warnings and notes. *)
let inline_design_errors text =
  let analysed =
    Result.bind (Io.parse text) (fun net ->
        let facts = Noc_analysis.Facts.of_network ~floor:Diag_code.Error net in
        Result.map
          (fun _ -> facts)
          (Io.validated (fun _ -> Noc_analysis.Facts.issues facts) net))
  in
  match analysed with
  | Error e -> Error (Printf.sprintf "inline design does not parse: %s" e)
  | Ok facts ->
      let passes =
        List.filter
          (fun (p : Pass.t) -> Noc_analysis.Facts.keeps facts p.Pass.severity_floor)
          (Noc_analysis.Registry.design_passes ())
      in
      let report =
        Engine.analyze ~passes ~label:"inline" (Pass.Design facts)
      in
      let errors =
        List.filter
          (fun d -> Diagnostic.severity d = Diag_code.Error)
          report.Engine.diagnostics
      in
      if errors = [] then Ok ()
      else
        Error
          (Printf.sprintf "inline design fails error-level lint: %s"
             (String.concat "; "
                (List.map
                   (fun (d : Diagnostic.t) ->
                     Printf.sprintf "%s %s: %s" d.Diagnostic.code.Diag_code.code
                       (Diagnostic.location_path d.Diagnostic.location)
                       d.Diagnostic.message)
                   errors)))

(* Simulation jobs carry workload and engine parameters the runner
   would only reject at execution time; vetting them statically keeps
   bad sweeps out of the pool.  Saturated injection rates are a
   warning, not an error: the sim still runs, it is just
   injection-limited. *)
let simulate_diagnostics ~location (job : Job.t) =
  match job.Job.method_ with
  | Job.Removal _ | Job.Resource_ordering _ | Job.Sweep -> []
  | Job.Simulate { workload; buffer_depth; max_cycles; _ } ->
      let kind = Noc_benchmarks.Workloads.kind workload in
      let workload_errors =
        List.map
          (fun msg ->
            Diagnostic.v Diag_code.sim_bad_workload location
              (Printf.sprintf "%s workload: %s" kind msg))
          (Noc_benchmarks.Workloads.validate workload)
      in
      let engine_errors =
        (if buffer_depth < 1 then
           [
             Diagnostic.v Diag_code.sim_bad_engine location
               (Printf.sprintf "buffer_depth %d must be at least 1" buffer_depth);
           ]
         else [])
        @
        if max_cycles < 1 then
          [
            Diagnostic.v Diag_code.sim_bad_engine location
              (Printf.sprintf "max_cycles %d must be at least 1" max_cycles);
          ]
        else []
      in
      let saturation =
        match Noc_benchmarks.Workloads.saturation_warning workload with
        | Some msg ->
            [
              Diagnostic.v Diag_code.sim_saturated location
                (Printf.sprintf "%s workload: %s" kind msg)
                ~fix:"lower the injection rate or hotspot factor";
            ]
        | None -> []
      in
      workload_errors @ engine_errors @ saturation

(* One job's static findings (everything except cross-job duplicate
   detection, which needs the whole file).  [hash_stability] takes the
   encoding as an argument so a tampered one can be exercised directly
   — on a well-formed job [Job.to_json] round-trips by construction. *)
let rec job_diagnostics ~location (job : Job.t) =
  let design =
    match job.Job.design with
    | Job.Benchmark { name; n_switches; max_degree } -> (
        match Noc_benchmarks.Registry.find name with
        | None ->
            [
              Diagnostic.v Diag_code.job_bad_design location
                (Printf.sprintf "unknown benchmark %S (try: %s)" name
                   (String.concat ", " Noc_benchmarks.Registry.names));
            ]
        | Some spec ->
            let n_cores = spec.Noc_benchmarks.Spec.n_cores in
            if n_switches < 1 || n_switches > n_cores then
              [
                Diagnostic.v Diag_code.job_bad_design location
                  (Printf.sprintf
                     "switch count %d out of range for %s (1..%d cores)"
                     n_switches name n_cores)
                  ~fix:"pick a switch count between 1 and the core count";
              ]
            else if max_degree < 1 then
              [
                Diagnostic.v Diag_code.job_bad_design location
                  (Printf.sprintf "max_degree %d must be at least 1" max_degree);
              ]
            else [])
    | Job.Inline text -> (
        match inline_design_errors text with
        | Ok () -> []
        | Error msg -> [ Diagnostic.v Diag_code.job_malformed location msg ])
  in
  design
  @ simulate_diagnostics ~location job
  @ hash_stability ~location ~encoded:(Job.to_json job) job

(* The hash is a function of the job's value, so a decoded job equal
   to the original hashes the same and neither is hashed.  [Job.t]
   holds no closures; a NaN field makes [=] false and falls through to
   the hashes. *)
and hash_stability ~location ~encoded (job : Job.t) =
  match Job.of_json encoded with
  | Ok job' when job' = job || String.equal (Job.hash job) (Job.hash job') ->
      []
  | Ok _ ->
      [
        Diagnostic.v Diag_code.job_hash_unstable location
          "canonical encoding round-trip changes the job's content hash";
      ]
  | Error e ->
      [
        Diagnostic.v Diag_code.job_hash_unstable location
          (Printf.sprintf
             "canonical encoding does not re-parse: %s (hash identity is \
              unusable)"
             e);
      ]

let vet_job job =
  let errors =
    List.filter
      (fun d -> Diagnostic.severity d = Diag_code.Error)
      (job_diagnostics ~location:Diagnostic.Design job)
  in
  match errors with
  | [] -> Ok ()
  | ds ->
      Error
        (Printf.sprintf "rejected by lint: %s"
           (String.concat "; "
              (List.map
                 (fun (d : Diagnostic.t) ->
                   Printf.sprintf "%s %s" d.Diagnostic.code.Diag_code.code
                     d.Diagnostic.message)
                 ds)))

let file_error_diagnostic ~path msg =
  (* Job.list_of_json prefixes per-entry errors with "job <i>: "; use
     that to anchor the finding at the entry and classify it as a
     malformed job rather than an unusable file. *)
  match Scanf.sscanf_opt msg "job %d: %[\001-\255]" (fun i rest -> (i, rest)) with
  | Some (index, rest) ->
      Diagnostic.v Diag_code.job_malformed
        (Diagnostic.Job { path; index = Some index })
        rest
  | None ->
      Diagnostic.v Diag_code.job_file_unparsable
        (Diagnostic.Job { path; index = None })
        msg

let jobs_pass =
  {
    Pass.name = "jobs";
    prefix = "NOC-JOB";
    scope = Pass.Job_scope;
    severity_floor = Diag_code.Error;
    doc =
      "noc-jobs/1 files parse, reference real designs, hash stably, and \
       simulation jobs carry sane workload/engine parameters (NOC-SIM-*)";
    run =
      (function
      | Pass.Design _ | Pass.Trace_file _ -> []
      | Pass.Job_file { path; text } -> (
          match Job.list_of_json text with
          | Error msg -> [ file_error_diagnostic ~path msg ]
          | Ok jobs ->
              let seen = Hashtbl.create 16 in
              List.concat
                (List.mapi
                   (fun index job ->
                     let location =
                       Diagnostic.Job { path; index = Some index }
                     in
                     let own = job_diagnostics ~location job in
                     let hash = Job.hash job in
                     let dup =
                       match Hashtbl.find_opt seen hash with
                       | Some first ->
                           [
                             Diagnostic.v Diag_code.job_duplicate location
                               (Printf.sprintf
                                  "job %d repeats job %d (hash %s); the \
                                   second run will only exercise the cache"
                                  index first (String.sub hash 0 8))
                               ~fix:"drop the duplicate entry";
                           ]
                       | None ->
                           Hashtbl.add seen hash index;
                           []
                     in
                     own @ dup)
                   jobs)));
  }

let all_passes ?capacity_mbps () =
  Noc_analysis.Registry.design_passes ?capacity_mbps ()
  @ [ jobs_pass; Noc_analysis.Trace_check.pass ]
