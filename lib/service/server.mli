(** The [noc serve] daemon: accepts {!Wire} frames over a Unix-domain
    (and optionally loopback-TCP) socket, vets each submitted job
    through the {!Lint.vet_job} admission gate, serves warm hits from
    the persistent {!Store}, schedules misses on the domain pool with
    typed [Overloaded] backpressure from the bounded queue, and
    streams results back as they complete.

    One thread (the caller of {!run}) owns all descriptors and never
    blocks reading a socket; worker domains execute jobs and write
    their own result frames under per-connection mutexes.  Writes
    block: the loop sends its own replies (pongs, metrics reports,
    rejections, overload replies, store hits), so a client that stops
    reading can stall it (ROADMAP item 1).  {!stop} — safe from a
    signal handler — triggers a graceful drain: stop accepting, reject
    new submissions, finish in-flight jobs, shut the pool down, flush
    the store index, then return from {!run}.

    Under an installed {!Noc_obs.Trace} collector, {!run} is one
    [serve.run] span; each submission is one [serve.submit] span on the
    loop with [job], [corr] (when sent) and a [verdict] ([hit],
    [queued], [rejected], [overloaded] or [draining]); each queued job
    is one [serve.job] span on its worker with [job], [corr], [words]
    and [status]; the drain is one [serve.drain] span. *)

type config = {
  socket_path : string;  (** Unix-domain socket; created, unlinked on exit. *)
  tcp_port : int option;  (** Also listen on 127.0.0.1:[port]. *)
  metrics_addr : int option;
      (** Also serve one-shot HTTP [GET /metrics] scrapes (Prometheus
          text, {!Noc_obs.Expo.text}) on 127.0.0.1:[port]. *)
  domains : int;  (** Worker domains (≥ 1). *)
  queue_capacity : int;
      (** Bounded-queue depth; beyond it submissions get [Overloaded]. *)
  store : Store.t option;  (** Persistent result store (warm restarts). *)
  lint : bool;  (** Vet submissions before they reach the pool. *)
  slos : Noc_obs.Slo.t list;
      (** Objectives evaluated on every scrape and {!Wire.Metrics}
          reply; verdicts are exported as [noc_slo_ok] gauges. *)
}

val default_config : config
(** [noc-serve.sock], no TCP, 2 domains, queue 64, no store, lint on,
    no metrics listener, {!Noc_obs.Slo.defaults}. *)

type t

val create : config -> t
(** Spawns the worker domains; does not open sockets yet.
    @raise Invalid_argument on a non-positive domain count or queue
    capacity. *)

val run : t -> unit
(** Open the listeners and serve until {!stop}; performs the full
    drain before returning.  Ignores SIGPIPE process-wide. *)

val stop : t -> unit
(** Request a graceful drain.  Only sets an atomic flag and writes a
    self-pipe byte, so it is safe from a signal handler or another
    domain.  Idempotent. *)

val stopping : t -> bool

val typed_stats : t -> Wire.stats
(** The typed statistics record behind {!Wire.Metrics}. *)

val metrics_report : t -> Wire.response
(** The full {!Wire.Metrics_report} reply: typed stats, registry
    snapshot with [noc_slo_ok] verdict gauges appended, and SLO
    verdicts. *)
