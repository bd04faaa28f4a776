(* The noc-wire/1 protocol: length-prefixed JSON frames over a byte
   stream (Unix-domain or TCP socket).  A frame is a 4-byte big-endian
   payload length followed by exactly that many bytes of compact JSON.
   Framing and message encoding are independent layers on purpose: the
   decoder accepts bytes in arbitrary chunks (a frame may arrive split
   at any boundary, or many frames in one read), and the message codec
   round-trips through the same canonical Json values as job files, so
   [of_json (to_json m) = Ok m] for every message — the qcheck
   property in test/test_service.ml splits encoded streams at random
   boundaries to pin both layers down. *)

module Json = Noc_json.Json

let protocol = "noc-wire/1"

(* Frames beyond this are a protocol violation, not a big job: the
   largest legitimate payload (a sweep outcome for the biggest
   benchmark) is a few KiB. *)
let max_frame_bytes = 16 * 1024 * 1024

type request =
  | Submit of { id : int; corr : string option; job : Job.t }
  | Metrics
  | Ping

(* The typed stats record behind the [Metrics] request — what
   [Client.stats] returns and [noc_tool top] renders. *)

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
  store : store_stats option;
}

type metrics_report = {
  mr_stats : stats;
  mr_metrics : Json.t;  (* noc-metrics/1 snapshot (Noc_obs.Expo.json) *)
  mr_slo : Json.t;  (* SLO verdicts (Noc_obs.Slo.to_json) *)
}

type response =
  | Hello of { protocol : string }
  | Result of { id : int; job_hash : string; outcome : Outcome.t; cached : bool }
  | Rejected of { id : int; reason : string }
  | Overloaded of { id : int; queue_depth : int }
  | Metrics_report of metrics_report
  | Pong
  | Error_msg of string

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let frame payload =
  let n = String.length payload in
  if n > max_frame_bytes then invalid_arg "Wire.frame: payload too large";
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

type decoder = { mutable buf : Bytes.t; mutable len : int }

let decoder () = { buf = Bytes.create 4096; len = 0 }

let feed d s ~off ~len =
  if len > 0 then begin
    let need = d.len + len in
    if need > Bytes.length d.buf then begin
      let grown = Bytes.create (max need (2 * Bytes.length d.buf)) in
      Bytes.blit d.buf 0 grown 0 d.len;
      d.buf <- grown
    end;
    Bytes.blit_string s off d.buf d.len len;
    d.len <- d.len + len
  end

let feed_string d s = feed d s ~off:0 ~len:(String.length s)

let next d =
  if d.len < 4 then Ok None
  else
    let n = Int32.to_int (Bytes.get_int32_be d.buf 0) in
    if n < 0 || n > max_frame_bytes then
      Error (Printf.sprintf "oversized frame (%d bytes)" n)
    else if d.len < 4 + n then Ok None
    else begin
      let payload = Bytes.sub_string d.buf 4 n in
      let rest = d.len - (4 + n) in
      Bytes.blit d.buf (4 + n) d.buf 0 rest;
      d.len <- rest;
      match Json.of_string payload with
      | Ok v -> Ok (Some v)
      | Error e -> Error (Printf.sprintf "frame payload is not JSON: %s" e)
    end

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

let request_to_json = function
  | Submit { id; corr; job } ->
      Json.Obj
        ([ ("type", Json.Str "submit"); ("id", Json.Num (float_of_int id)) ]
        @ (match corr with
          | None -> []
          | Some c -> [ ("corr", Json.Str c) ])
        @ [ ("job", Job.to_json job) ])
  | Metrics -> Json.Obj [ ("type", Json.Str "metrics") ]
  | Ping -> Json.Obj [ ("type", Json.Str "ping") ]

let ( let* ) = Result.bind

let int_field name v =
  match Json.member name v with
  | Some (Json.Num _ as n) -> Ok (Json.to_int n)
  | Some _ -> Error (Printf.sprintf "%S must be an integer" name)
  | None -> Error (Printf.sprintf "missing integer field %S" name)

let str_field name v =
  match Json.member name v with
  | Some (Json.Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "%S must be a string" name)
  | None -> Error (Printf.sprintf "missing string field %S" name)

let request_of_json v =
  let* type_ = str_field "type" v in
  match type_ with
  | "submit" ->
      let* id = int_field "id" v in
      let* corr =
        (* Optional: pre-PR-8 clients never send it. *)
        match Json.member "corr" v with
        | None -> Ok None
        | Some (Json.Str c) -> Ok (Some c)
        | Some _ -> Error "\"corr\" must be a string"
      in
      let* job =
        match Json.member "job" v with
        | Some job_v -> Job.of_json job_v
        | None -> Error "missing \"job\" field"
      in
      Ok (Submit { id; corr; job })
  | "metrics" -> Ok Metrics
  | "ping" -> Ok Ping
  | s -> Error (Printf.sprintf "unknown request type %S" s)

let response_to_json = function
  | Hello { protocol } ->
      Json.Obj [ ("type", Json.Str "hello"); ("protocol", Json.Str protocol) ]
  | Result { id; job_hash; outcome; cached } ->
      Json.Obj
        [
          ("type", Json.Str "result");
          ("id", Json.Num (float_of_int id));
          ("job", Json.Str job_hash);
          ("outcome", Outcome.to_json outcome);
          ("cached", Json.Bool cached);
        ]
  | Rejected { id; reason } ->
      Json.Obj
        [
          ("type", Json.Str "rejected");
          ("id", Json.Num (float_of_int id));
          ("reason", Json.Str reason);
        ]
  | Overloaded { id; queue_depth } ->
      Json.Obj
        [
          ("type", Json.Str "overloaded");
          ("id", Json.Num (float_of_int id));
          ("queue_depth", Json.Num (float_of_int queue_depth));
        ]
  | Metrics_report { mr_stats; mr_metrics; mr_slo } ->
      let stats_json =
        Json.Obj
          ([
             ("uptime_s", Json.Num mr_stats.uptime_s);
             ("draining", Json.Bool mr_stats.draining);
             ("queue_depth", Json.Num (float_of_int mr_stats.queue_depth));
             ("inflight", Json.Num (float_of_int mr_stats.inflight));
           ]
          @
          match mr_stats.store with
          | None -> []
          | Some s ->
              [
                ( "store",
                  Json.Obj
                    [
                      ("entries", Json.Num (float_of_int s.entries));
                      ("hits", Json.Num (float_of_int s.hits));
                      ("misses", Json.Num (float_of_int s.misses));
                      ("evictions", Json.Num (float_of_int s.evictions));
                      ("hit_rate", Json.Num s.hit_rate);
                    ] );
              ])
      in
      Json.Obj
        [
          ("type", Json.Str "metrics");
          ("stats", stats_json);
          ("metrics", mr_metrics);
          ("slo", mr_slo);
        ]
  | Pong -> Json.Obj [ ("type", Json.Str "pong") ]
  | Error_msg message ->
      Json.Obj [ ("type", Json.Str "error"); ("message", Json.Str message) ]

let response_of_json v =
  let* type_ = str_field "type" v in
  match type_ with
  | "hello" ->
      let* protocol = str_field "protocol" v in
      Ok (Hello { protocol })
  | "result" ->
      let* id = int_field "id" v in
      let* job_hash = str_field "job" v in
      let* outcome =
        match Json.member "outcome" v with
        | Some o -> Outcome.of_json o
        | None -> Error "missing \"outcome\" field"
      in
      let cached =
        match Json.member "cached" v with Some (Json.Bool b) -> b | _ -> false
      in
      Ok (Result { id; job_hash; outcome; cached })
  | "rejected" ->
      let* id = int_field "id" v in
      let* reason = str_field "reason" v in
      Ok (Rejected { id; reason })
  | "overloaded" ->
      let* id = int_field "id" v in
      let* queue_depth = int_field "queue_depth" v in
      Ok (Overloaded { id; queue_depth })
  | "metrics" ->
      let* stats_v =
        match Json.member "stats" v with
        | Some s -> Ok s
        | None -> Error "missing \"stats\" field"
      in
      let num_field name =
        match Json.member name stats_v with
        | Some (Json.Num n) -> Ok n
        | _ -> Error (Printf.sprintf "missing numeric stats field %S" name)
      in
      let* uptime_s = num_field "uptime_s" in
      let* queue_depth = Result.map int_of_float (num_field "queue_depth") in
      let* inflight = Result.map int_of_float (num_field "inflight") in
      let* draining =
        match Json.member "draining" stats_v with
        | Some (Json.Bool b) -> Ok b
        | _ -> Error "missing boolean stats field \"draining\""
      in
      let* store =
        match Json.member "store" stats_v with
        | None -> Ok None
        | Some store_v ->
            let sfield name =
              match Json.member name store_v with
              | Some (Json.Num n) -> Ok n
              | _ -> Error (Printf.sprintf "missing store field %S" name)
            in
            let* entries = Result.map int_of_float (sfield "entries") in
            let* hits = Result.map int_of_float (sfield "hits") in
            let* misses = Result.map int_of_float (sfield "misses") in
            let* evictions = Result.map int_of_float (sfield "evictions") in
            let* hit_rate = sfield "hit_rate" in
            Ok (Some { entries; hits; misses; evictions; hit_rate })
      in
      let passthrough name =
        Option.value ~default:Json.Null (Json.member name v)
      in
      Ok
        (Metrics_report
           {
             mr_stats = { uptime_s; draining; queue_depth; inflight; store };
             mr_metrics = passthrough "metrics";
             mr_slo = passthrough "slo";
           })
  | "pong" -> Ok Pong
  | "error" ->
      let* message = str_field "message" v in
      Ok (Error_msg message)
  | s -> Error (Printf.sprintf "unknown response type %S" s)

let encode_request r = frame (Json.to_string (request_to_json r))
let encode_response r = frame (Json.to_string (response_to_json r))
