(** Minimal JSON values — the lingua franca of the batch service: job
    files ([jobs.json]), trace lines ([noc-trace/1] JSONL) and bench
    reports all speak it.  Hand-written printer and parser (no JSON dependency in
    the toolchain); [of_string] inverts both {!to_string} and
    {!to_string_pretty}. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Compact canonical form: no insignificant whitespace, caller's field
    order, floats via [%.17g] (lossless round-trip), integral floats
    without a fractional part.  One value = one line, so it is directly
    usable as a JSONL record. *)

val to_string_pretty : t -> string
(** Two-space indented form for files meant to be read or committed. *)

val of_string : string -> (t, string) result

val member : string -> t -> t option
(** Object field lookup; [None] on absent field or non-object. *)

val field : string -> t -> t
(** @raise Parse_error on absent field or non-object. *)

val to_str : t -> string
(** @raise Parse_error unless [Str]. *)

val to_num : t -> float
(** @raise Parse_error unless [Num]. *)

val to_int : t -> int
(** @raise Parse_error unless an integral [Num]. *)

val to_list : t -> t list
(** @raise Parse_error unless [Arr]. *)
