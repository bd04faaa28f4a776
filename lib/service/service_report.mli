(** Machine-readable batch-service reports (BENCH_service.json) and the
    baseline comparison behind the CI service gate.

    A report records, for one batch over the full benchmark registry:
    the deterministic result hash of every job, the batch wall time at
    each measured domain count, and the warm-replay (fully cached) wall
    time and hit rate.  [host_cores] records what the measuring host
    could actually exercise.

    The gate never compares absolute times across machines: result
    hashes are checked exactly, replay cost and parallel speedup are
    same-host ratios, and the speedup floors are skipped on hosts with
    fewer cores than the arm being judged. *)

type job_entry = { label : string; job_hash : string; result_hash : string }

type timing = { domains : int; wall_ms : float; jobs_per_s : float }

type t = {
  host_cores : int;
  jobs : job_entry list;
  timings : timing list;
  replay_wall_ms : float;
  replay_hit_rate : float;
}

val schema : string
(** ["bench-service/1"]. *)

val speedup : t -> domains:int -> float option
(** Wall time of the 1-domain arm over the [domains] arm; [None] when
    either arm is missing or degenerate. *)

val to_json : t -> string
(** Stable, diff-friendly JSON. *)

val of_json : string -> (t, string) result

val compare_to_baseline :
  ?speedup_floors:(int * float) list ->
  ?max_replay_fraction:float ->
  baseline:t ->
  t ->
  string list
(** [compare_to_baseline ~baseline current] is the list of gate
    violations (empty = pass):
    - a baseline job missing from [current], or its [result_hash]
      differing — the pipeline is deterministic, so any drift is a real
      behaviour change;
    - [current]'s warm-replay hit rate below 1.0;
    - warm replay costing more than [max_replay_fraction] (default
      [0.5]) of the cold 1-domain wall time;
    - for each [(domains, floor)] in [speedup_floors] (default
      [[(2, 1.6); (4, 2.5)]]), the measured speedup falling below
      [floor] — checked only when [current.host_cores >= domains]. *)

val pp : Format.formatter -> t -> unit
