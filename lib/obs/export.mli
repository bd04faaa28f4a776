(** Exporters over a {!Trace.collector}'s merged event buffers.

    Three formats, one source of truth:
    - {!chrome}: Chrome trace-event JSON (the ["traceEvents"] object
      form) — load it in Perfetto ({:https://ui.perfetto.dev}) or
      [chrome://tracing].  Spans become ["B"]/["E"] phase pairs, the
      domain id is the [tid], attributes become [args].
    - {!jsonl}: the [noc-trace/1] JSONL stream — a schema header line,
      one [span_begin]/[span_end] line per event (timestamps in
      nanoseconds relative to the collector epoch, monotone per
      domain), then one [metric] line per registered metric.  Written
      to a file by {!write_jsonl}; validated by the [NOC-TRC-*] lint
      pass.
    - {!pp_summary}: a human-readable per-span-name table with counts,
      total wall time, and shares of the traced interval. *)

val schema : string
(** ["noc-trace/1"]. *)

val chrome : ?metrics:Metrics.metric list -> Trace.collector -> Noc_json.Json.t
(** Metrics ride along as string values under ["otherData"]. *)

val jsonl :
  ?metrics:Metrics.metric list -> Trace.collector -> Noc_json.Json.t list
(** Lines in stream order: header, events merged across domains in
    timestamp order (per-domain order preserved), metrics. *)

val write_jsonl : string -> Noc_json.Json.t list -> unit
(** [write_jsonl path lines] writes one line per value to [path]
    atomically: the lines go to a temporary file in [path]'s directory,
    renamed onto [path] once all are written.  A run killed mid-write
    leaves [path] as it was (and possibly a [*.tmp] file to delete),
    never a truncated stream.
    @raise Sys_error when the temporary file cannot be written or
    renamed; the temporary file is removed. *)

val phase_totals_ms : Trace.collector -> (string * float) list
(** Total wall milliseconds per span name, name-sorted.  Nested spans
    each count their own full extent (hierarchical attribution, not a
    partition). *)

val pp_summary :
  ?metrics:Metrics.metric list -> Format.formatter -> Trace.collector -> unit
(** Name-sorted table: count, total ms, share of the traced wall
    interval.  Shares can sum past 100% — nested spans overlap their
    parents and domains run concurrently. *)
