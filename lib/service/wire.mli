(** The noc-wire/1 protocol: length-prefixed JSON frames carrying
    typed requests and responses between [noc_tool serve] and its
    clients ([submit], [serve-stats]).

    A frame is a 4-byte big-endian payload length followed by that
    many bytes of compact JSON.  {!decoder} is incremental — feed it
    whatever the socket produced, in any chunking, and pull complete
    messages out — so the codec survives frames split at arbitrary
    byte boundaries (qcheck-verified).  Message encoding round-trips:
    [request_of_json (request_to_json r) = Ok r], likewise for
    responses. *)

module Json = Noc_json.Json

val protocol : string
(** ["noc-wire/1"], announced by the server's {!Hello} greeting. *)

val max_frame_bytes : int
(** Frames larger than this are rejected as a protocol violation. *)

type request =
  | Submit of { id : int; corr : string option; job : Job.t }
      (** Run [job]; [id] is the per-connection reply-matching index,
          echoed on the reply.  [corr] is an optional {e correlation
          id}: an opaque client-chosen string the server threads into
          its job span and telemetry events, so one request is
          traceable across client log, wire, daemon telemetry, and
          trace stream.  Absent from pre-PR-8 clients. *)
  | Metrics
      (** Ask for the typed {!metrics_report}: stats record, metrics
          snapshot, SLO verdicts. *)
  | Ping

(** Typed server statistics (the {!Metrics} reply): what the one-shot
    [serve-stats] used to scrape out of a text blob. *)

type store_stats = {
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
  hit_rate : float;
}

type stats = {
  uptime_s : float;
  draining : bool;
  queue_depth : int;
  inflight : int;
  store : store_stats option;  (** [None] when no store is attached. *)
}

type metrics_report = {
  mr_stats : stats;
  mr_metrics : Json.t;
      (** [noc-metrics/1] registry snapshot ({!Noc_obs.Expo.json}),
          including the [noc_slo_ok] verdict gauges. *)
  mr_slo : Json.t;  (** SLO verdicts ({!Noc_obs.Slo.to_json}). *)
}

type response =
  | Hello of { protocol : string }
      (** Sent by the server on connect, before any request. *)
  | Result of { id : int; job_hash : string; outcome : Outcome.t; cached : bool }
      (** [cached] is true when the outcome came from the persistent
          store rather than a fresh solver run. *)
  | Rejected of { id : int; reason : string }
      (** The admission gate (lint vet) refused the job, or the server
          is draining. *)
  | Overloaded of { id : int; queue_depth : int }
      (** Backpressure: the bounded queue is full; resubmit later. *)
  | Metrics_report of metrics_report
  | Pong
  | Error_msg of string  (** Protocol-level failure (unparsable frame…). *)

(** {1 Framing} *)

val frame : string -> string
(** Wrap a payload in a length prefix.
    @raise Invalid_argument beyond {!max_frame_bytes}. *)

type decoder

val decoder : unit -> decoder

val feed : decoder -> string -> off:int -> len:int -> unit
val feed_string : decoder -> string -> unit

val next : decoder -> (Json.t option, string) result
(** [Ok None] while the buffered bytes hold no complete frame;
    [Error _] on an oversized or non-JSON frame (the connection should
    be dropped — the stream cannot be resynchronized). *)

(** {1 Messages} *)

val request_to_json : request -> Json.t
val request_of_json : Json.t -> (request, string) result
val response_to_json : response -> Json.t
val response_of_json : Json.t -> (response, string) result

val encode_request : request -> string
(** [frame (to_string (request_to_json r))]. *)

val encode_response : response -> string
