(** The job model: one self-contained solver request, with a canonical
    serialization and a stable content hash.

    A job names a design source — a registry benchmark synthesized at a
    switch count, or an inline design in the textual noc-design format
    — and a method to apply to it.  Canonical encoding writes every
    default out explicitly in a fixed field order, so the MD5 {!hash}
    of that encoding is a platform- and process-independent identity:
    the key of the content-addressed result cache and the job id in
    telemetry and bench baselines. *)

type design =
  | Benchmark of { name : string; n_switches : int; max_degree : int }
      (** A registry benchmark, synthesized at [n_switches] with the
          given per-switch link budget. *)
  | Inline of string
      (** A complete design in the noc-design 1 textual format (see
          {!Noc_model.Io}); hashed as content, so the same text is the
          same job wherever it came from. *)

type prepare = As_is | Removal_first | Ordering_first
(** What to do to the design before simulating: nothing, the paper's
    deadlock-removal algorithm, or the Dally–Towles resource-ordering
    baseline (hop-index strategy). *)

type method_ =
  | Removal of {
      heuristic : Noc_deadlock.Removal.heuristic;
      directions : Noc_deadlock.Cost_table.direction list;
      resource : Noc_deadlock.Break_cycle.resource_kind;
    }
  | Resource_ordering of { strategy : Noc_deadlock.Resource_ordering.strategy }
  | Sweep
      (** The full method comparison of {!Noc_experiments.Sweep} on one
          design point. *)
  | Simulate of {
      prepare : prepare;
      workload : Noc_benchmarks.Workloads.spec;
      buffer_depth : int;
      max_cycles : int;
    }
      (** Run the wormhole simulator on the (optionally prepared)
          design under a seeded workload; the outcome carries latency
          percentiles, throughput and any deadlock certificate. *)

type t = { design : design; method_ : method_ }

val default_max_degree : int
(** [4], matching [noc_tool]'s default link budget. *)

val removal_defaults : method_
(** [Removal] with the paper's defaults: smallest cycle first, both
    directions, VC resource. *)

val default_buffer_depth : int
(** [4], matching {!Noc_sim.Engine.default_config}. *)

val default_max_cycles : int
(** [200_000], matching {!Noc_sim.Engine.default_config}. *)

val simulate :
  ?prepare:prepare ->
  ?buffer_depth:int ->
  ?max_cycles:int ->
  Noc_benchmarks.Workloads.spec ->
  method_
(** [Simulate] with engine defaults and [As_is] preparation. *)

val prepare_name : prepare -> string
(** ["as-is"], ["removal"] or ["ordering"] — the canonical JSON tag. *)

val prepare_of_name : string -> (prepare, string) result

val to_json : t -> Noc_json.Json.t
(** Canonical: fixed field order, defaults explicit. *)

val of_json : Noc_json.Json.t -> (t, string) result
(** Accepts omitted optional fields (defaulted); inverse of {!to_json}. *)

val canonical : t -> string
(** [Noc_json.Json.to_string (to_json t)] — the hashed text. *)

val hash : t -> string
(** MD5 of {!canonical}, lowercase hex (32 chars).  Equal jobs hash
    equal across platforms and processes. *)

val short_hash : t -> string
(** First 8 hex chars of {!hash}; for logs and telemetry. *)

val label : t -> string
(** Human-readable one-liner, e.g. ["removal D36_8@14"]. *)

val pp : Format.formatter -> t -> unit

val file_schema : string
(** ["noc-jobs/1"], the job-file schema tag. *)

val list_to_json : t list -> Noc_json.Json.t
(** A complete job file value (schema + jobs array). *)

val list_of_json : string -> (t list, string) result
(** Parse a job file; errors name the offending job index. *)
