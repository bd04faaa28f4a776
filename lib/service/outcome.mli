(** The result of running one {!Job}: a status plus a flat, ordered
    (metric, value) list.  Wall time is carried for result lines and
    summaries but excluded from {!result_hash}, so outcomes compare
    bit-identically across machines, domain counts and cache hits. *)

type status =
  | Done
  | Failed of string  (** The solver or design loading reported an error. *)
  | Timed_out  (** Exceeded the per-job time budget (classified after the
                   run; OCaml computations cannot be interrupted). *)
  | Cancelled  (** Skipped before starting — batch cancelled or deadline
                   already passed while queued. *)

val status_name : status -> string
(** ["done"], ["failed"], ["timed-out"] or ["cancelled"]: the [status]
    attribute of the [batch.job] and [serve.job] trace spans. *)

type t = { status : status; metrics : (string * float) list; wall_ms : float }

val done_ : ?wall_ms:float -> (string * float) list -> t
val failed : ?wall_ms:float -> string -> t
val timed_out : wall_ms:float -> t
val cancelled : t

val result_hash : t -> string
(** MD5 hex of the canonical encoding of status + metrics (wall time
    excluded).  The determinism witness: sequential and 4-domain runs
    of the same job must produce equal hashes. *)

val to_json : t -> Noc_json.Json.t
val of_json : Noc_json.Json.t -> (t, string) result

val metric : t -> string -> float option
val is_done : t -> bool
val pp : Format.formatter -> t -> unit
