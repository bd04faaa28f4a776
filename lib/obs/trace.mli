(** Hierarchical span tracing with per-domain buffers.

    A {!collector} accumulates raw begin/end span events.  Each domain
    appends to its own buffer (registered with the collector on first
    use), so recording takes no lock on the hot path and the buffers
    are merged only at export time.

    Tracing is off by default: no collector is installed, {!with_span}
    costs one atomic load plus a closure call, and nothing is recorded
    — results and result hashes are untouched.  Installing a collector
    ({!install}) turns every instrumented site on, process-wide.

    Within one domain, spans must close in LIFO order ({!with_span}
    guarantees this, including on exceptions); that makes every
    domain's event stream well-parenthesized, which the exporters and
    the [NOC-TRC-*] lint pass rely on. *)

type value = Bool of bool | Int of int | Float of float | Str of string
(** Span attribute values. *)

type entry =
  | Begin of { name : string; ts_ns : int64 }
  | End of { name : string; ts_ns : int64; attrs : (string * value) list }
      (** Raw events, in recording order within a domain. *)

type collector

val create : unit -> collector
(** A fresh, empty collector.  Its epoch (for relative timestamps in
    exports) is the creation instant. *)

val install : collector -> unit
(** Make [c] the process-wide current collector: instrumented sites
    start recording into it. *)

val uninstall : unit -> unit
(** Disable tracing.  Spans already open keep their buffer and still
    record their end event; new spans become no-ops. *)

val enabled : unit -> bool
(** Whether a collector is currently installed. *)

type span
(** A handle to an open span.  The null span (when tracing is
    disabled) ignores every operation. *)

val null_span : span

val start : ?attrs:(string * value) list -> string -> span
(** Open a span on the calling domain.  No-op returning {!null_span}
    when tracing is disabled. *)

val add_attr : span -> string -> value -> unit
(** Attach an attribute to an open span (exported on its end event). *)

val finish : ?attrs:(string * value) list -> span -> unit
(** Close the span.  Idempotent; no-op on {!null_span}. *)

val with_span : ?attrs:(string * value) list -> string -> (span -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span, closing it even when
    [f] raises.  The fast path when disabled is one atomic load. *)

val epoch_ns : collector -> int64

val events : collector -> (int * entry list) list
(** Per-domain event streams, recording order, sorted by domain id.
    Safe to call after the recording domains have terminated. *)

type completed = {
  name : string;
  domain : int;
  depth : int;  (** Nesting depth at open time; roots are [0]. *)
  start_ns : int64;
  stop_ns : int64;
  attrs : (string * value) list;
}

val completed_spans : collector -> completed list
(** Begin/end pairs matched per domain (stack discipline), ordered by
    [(domain, start_ns)].  Spans still open are dropped. *)

val value_to_json : value -> Noc_json.Json.t
val attrs_to_json : (string * value) list -> Noc_json.Json.t
(** Attributes as a JSON object, recording order. *)
