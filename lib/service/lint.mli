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
(** The admission gate of [serve], [batch] and [campaign]: [Error] iff
    the job has any error-level static finding (unknown benchmark,
    impossible switch count, unparsable or error-level-lint-failing
    inline design, unstable hash).  The message lists every finding
    with its code.

    An inline design is parsed once ({!Noc_model.Io.parse}) and
    analysed through one {!Noc_analysis.Facts} context whose floor is
    [Error].  The context's [Validate.check] answers both the parse
    verdict ({!Noc_model.Io.validated}, the same message as
    {!Noc_model.Io.load}) and the [routes] pass.  Only the design passes
    whose [severity_floor] is [Error] run ([routes], [connectivity],
    [certificate], [deadlock-freedom]); the other five can emit nothing
    above a warning, so they cannot change the verdict.  Inside the four,
    no warning or note is computed: not [connectivity]'s isolated
    switches, nor [deadlock-freedom]'s waiting knot and VC lower bound.
    [noc_tool lint] still runs all nine and keeps every finding. *)

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
    construction).  A decoded job structurally equal to [job] is stable
    without hashing either; otherwise the two hashes are compared. *)

val all_passes : ?capacity_mbps:float -> unit -> Noc_analysis.Pass.t list
(** The complete pass list for [noc_tool lint]: the design registry,
    {!jobs_pass}, and the noc-trace/1 pass
    ({!Noc_analysis.Trace_check.pass}, [NOC-TRC-*]). *)
