(** The batch engine: runs a job list through a {!Noc_pool.Pool},
    consulting the content-addressed {!Result_cache} first and emitting
    {!Telemetry} along the way.

    Determinism contract: the returned list and the [on_result] stream
    are both in submission order, and each job's deterministic payload
    ({!Outcome.result_hash}) is the same for any [domains] setting —
    only wall times and telemetry interleavings vary. *)

type config = {
  domains : int;  (** [1] runs inline in the calling domain. *)
  cache : Result_cache.t option;
      (** Shared across the batch's workers; pass the same cache to a
          second [run] to measure warm replay. *)
  telemetry : Noc_obs.Sink.t;  (** Closed when the batch finishes. *)
  timeout_ms : float option;
      (** Per-job budget.  OCaml computations cannot be interrupted, so
          this classifies over-budget jobs as [Timed_out] (withholding
          their metrics) rather than aborting them mid-flight. *)
  fail_fast : bool;
      (** After a failure or timeout, mark not-yet-started jobs
          [Cancelled] instead of running them. *)
  lint : bool;
      (** Vet every job with {!Lint.vet_job} at submission time; a job
          with any error-level static finding is reported as [Failed]
          ("rejected by lint: ...") without ever reaching a worker
          domain. *)
}

val default_config : config
(** 1 domain, no cache, null telemetry, no timeout, no fail-fast,
    lint on. *)

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

val run :
  ?on_result:(job_result -> unit) ->
  config ->
  Job.t list ->
  job_result list * summary
(** [on_result] is invoked once per job, in submission order, as soon
    as every earlier job has also finished; it may be called from a
    worker domain but never concurrently with itself.
    @raise Invalid_argument when [config.domains < 1]. *)

val pp_summary : Format.formatter -> summary -> unit
