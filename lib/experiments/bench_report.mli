(** Machine-readable removal-benchmark reports (BENCH_removal.json) and
    the baseline comparison behind the CI bench-regression gate.

    A report is one entry per (benchmark, switch count) point of the
    removal sweep: the deterministic outputs ([iterations],
    [vcs_added]) plus two wall times measured on the same host:
    {!Noc_deadlock.Removal.run} (the incremental arm) and the test
    oracle's reference driver, which rebuilds the CDG every iteration
    (the rebuild arm).

    The gate never compares absolute times across machines: it checks
    the deterministic outputs exactly and the incremental/rebuild
    speedup as a ratio. *)

type entry = {
  benchmark : string;
  n_switches : int;
  iterations : int;
  vcs_added : int;
  incremental_ms : float;
  rebuild_ms : float;
  phases : (string * float) list;
      (** Per-phase wall-time attribution (span name, total ms) from
          one traced run of the incremental arm — [cdg.build],
          [removal.find_cycle], [removal.cost_tables], ...  Empty when
          the producing harness did not trace; the CI gate never
          compares it (it is timing, hence machine-dependent). *)
}

val speedup : entry -> float
(** [rebuild_ms / incremental_ms]; [0.] on degenerate timings. *)

val aggregate_speedup : entry list -> float
(** Total rebuild time over total incremental time — dominated by the
    large sweep points, which are the ones timed reliably. *)

val to_json : entry list -> string
(** Stable, diff-friendly JSON (schema ["bench-removal/1"]). *)

val of_json : string -> (entry list, string) result
(** Inverse of {!to_json}; tolerates whitespace changes. *)

val compare_to_baseline :
  ?ratio_tolerance:float ->
  ?min_aggregate_speedup:float ->
  baseline:entry list ->
  entry list ->
  string list
(** [compare_to_baseline ~baseline current] is the list of gate
    violations (empty = pass):
    - an entry of the baseline missing from [current];
    - [iterations] or [vcs_added] differing from the baseline — the
      algorithm is deterministic, so any drift is a real behaviour
      change;
    - the per-entry speedup ratio dropping more than [ratio_tolerance]
      (default [0.25]) below the baseline ratio, on entries large
      enough to time stably (rebuild arm >= 2 ms in both reports —
      smaller entries show ±30 % ratio noise and are covered by the
      aggregate floor instead);
    - the aggregate D36_8 speedup falling below
      [min_aggregate_speedup] (default [4.], slack under the measured
      ~5.3x for noisy CI hosts). *)

val pp : Format.formatter -> entry list -> unit
(** Human-readable table of a report. *)
