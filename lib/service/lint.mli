(** The service layer's lint surface: the job-file pass ([NOC-JOB-*])
    and the per-job vet that {!Batch} applies before a job reaches the
    domain pool.

    All checks are static — registry metadata, canonical-encoding
    round-trips, and (for inline designs) a parse plus error-level
    design lint — so vetting is cheap relative to running a job. *)

val jobs_pass : Noc_analysis.Pass.t
(** The noc-jobs/1 pass: file parses with the right schema
    ([NOC-JOB-001]), every entry is well-formed ([NOC-JOB-002]),
    duplicate jobs are flagged ([NOC-JOB-003]), designs exist and are
    in range ([NOC-JOB-004]), and content hashes survive a canonical
    round-trip ([NOC-JOB-005]). *)

val vet_job : Job.t -> (unit, string) result
(** The batch gate: [Error] iff the job has any error-level static
    finding (unknown benchmark, impossible switch count, unparsable or
    error-level-lint-failing inline design, unstable hash).  The
    message lists every finding with its code. *)

val job_diagnostics :
  location:Noc_analysis.Diagnostic.location ->
  Job.t ->
  Noc_analysis.Diagnostic.t list
(** One job's static findings, anchored at [location] (duplicate
    detection is whole-file and lives only in {!jobs_pass}). *)

val hash_stability :
  location:Noc_analysis.Diagnostic.location ->
  encoded:Noc_json.Json.t ->
  Job.t ->
  Noc_analysis.Diagnostic.t list
(** The [NOC-JOB-005] recheck at the heart of {!job_diagnostics},
    exposed so a tampered encoding can be exercised directly (a
    well-formed job's own {!Job.to_json} round-trips by
    construction). *)

val all_passes : ?capacity_mbps:float -> unit -> Noc_analysis.Pass.t list
(** The complete pass list for [noc_tool lint]: the design registry,
    {!jobs_pass}, and the noc-trace/1 pass
    ({!Noc_analysis.Trace_check.pass}, [NOC-TRC-*]). *)
