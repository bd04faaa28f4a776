(** noc-wire/1 client: what [noc_tool submit] and [serve-stats] use to
    talk to a running daemon.  Blocking, single-connection, and
    [result]-valued throughout — a dead socket is an expected error,
    not an exception. *)

type t

val connect : socket:string -> (t, string) result
(** Connect to the daemon's Unix-domain socket and verify its
    {!Wire.Hello} greeting (protocol version match). *)

val close : t -> unit

val request : t -> Wire.request -> (unit, string) result
val next_response : t -> (Wire.response, string) result

val ping : t -> (unit, string) result

val stats : t -> (Wire.stats, string) result
(** Typed daemon statistics ({!Wire.stats}) — the [stats] record of a
    {!Wire.Metrics} exchange. *)

val metrics : t -> (Wire.metrics_report, string) result
(** The full typed report: stats record, [noc-metrics/1] snapshot,
    and SLO verdicts. *)

val submit_all :
  ?corr_prefix:string ->
  t ->
  Job.t list ->
  on_result:(int -> Job.t -> Wire.response -> unit) ->
  (Wire.response list, string) result
(** Submit every job (reply-matching id = list index) and collect one
    reply per job, invoking [on_result] in submission order regardless
    of completion order.  The returned list is in submission order.
    At most 32 submissions are outstanding at once: replies are read
    while frames are written, so a job file of any length neither
    deadlocks nor overloads an otherwise idle default daemon.
    When [corr_prefix] is given, job [i] carries the correlation id
    ["<corr_prefix>-<i>"] into the daemon's [serve.submit] and
    [serve.job] spans. *)
