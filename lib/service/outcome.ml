(* What running a job produced.  The deterministic payload is a flat
   (name, value) metric list in a fixed, runner-chosen order; wall time
   rides alongside but is excluded from the result hash, so outcomes
   are comparable across machines, domain counts and cache hits. *)

module Json = Noc_json.Json

type status = Done | Failed of string | Timed_out | Cancelled

type t = { status : status; metrics : (string * float) list; wall_ms : float }

let done_ ?(wall_ms = 0.) metrics = { status = Done; metrics; wall_ms }
let failed ?(wall_ms = 0.) msg = { status = Failed msg; metrics = []; wall_ms }
let timed_out ~wall_ms = { status = Timed_out; metrics = []; wall_ms }
let cancelled = { status = Cancelled; metrics = []; wall_ms = 0. }

let status_name = function
  | Done -> "done"
  | Failed _ -> "failed"
  | Timed_out -> "timed-out"
  | Cancelled -> "cancelled"

let status_to_json = function
  | Failed msg -> Json.Obj [ ("failed", Json.Str msg) ]
  | status -> Json.Str (status_name status)

let status_of_json = function
  | Json.Str "done" -> Ok Done
  | Json.Str "timed-out" -> Ok Timed_out
  | Json.Str "cancelled" -> Ok Cancelled
  | Json.Obj [ ("failed", Json.Str msg) ] -> Ok (Failed msg)
  | _ -> Error "outcome: bad status"

(* The hashed part: status + metrics, wall time deliberately left out. *)
let deterministic_json t =
  Json.Obj
    [
      ("status", status_to_json t.status);
      ( "metrics",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) t.metrics) );
    ]

let result_hash t = Digest.to_hex (Digest.string (Json.to_string (deterministic_json t)))

let to_json t =
  match deterministic_json t with
  | Json.Obj fields -> Json.Obj (fields @ [ ("wall_ms", Json.Num t.wall_ms) ])
  | _ -> assert false

let of_json v =
  match v with
  | Json.Obj _ -> (
      match Json.member "status" v with
      | None -> Error "outcome: missing status"
      | Some status_v ->
          Result.bind (status_of_json status_v) (fun status ->
              match Json.member "metrics" v with
              | Some (Json.Obj fields) -> (
                  try
                    let metrics =
                      List.map (fun (k, value) -> (k, Json.to_num value)) fields
                    in
                    let wall_ms =
                      match Json.member "wall_ms" v with
                      | Some (Json.Num f) -> f
                      | _ -> 0.
                    in
                    Ok { status; metrics; wall_ms }
                  with Json.Parse_error msg -> Error ("outcome: " ^ msg))
              | Some _ -> Error "outcome: \"metrics\" must be an object"
              | None -> Error "outcome: missing \"metrics\""))
  | _ -> Error "outcome: expected an object"

let metric t name = List.assoc_opt name t.metrics

let is_done t = t.status = Done

let pp ppf t =
  match t.status with
  | Done ->
      Format.fprintf ppf "done (%.1f ms)" t.wall_ms;
      List.iter (fun (k, v) -> Format.fprintf ppf " %s=%g" k v) t.metrics
  | Failed msg -> Format.fprintf ppf "FAILED: %s" msg
  | Timed_out -> Format.fprintf ppf "TIMED OUT after %.1f ms" t.wall_ms
  | Cancelled -> Format.fprintf ppf "cancelled"
