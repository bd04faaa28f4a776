(* Client side of noc-wire/1: blocking connect / send / receive over
   the daemon's Unix-domain socket, plus the submit-many helper that
   noc_tool submit and the tests share.  Everything returns [result] —
   a dead socket is an expected condition at this layer, not an
   exception. *)

type t = { fd : Unix.file_descr; dec : Wire.decoder; buf : Bytes.t }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let next_response t =
  let rec loop () =
    match Wire.next t.dec with
    | Error e -> Error (Printf.sprintf "protocol error: %s" e)
    | Ok (Some json) ->
        Result.map_error
          (fun e -> Printf.sprintf "protocol error: %s" e)
          (Wire.response_of_json json)
    | Ok None -> (
        match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
        | exception Unix.Unix_error (e, _, _) ->
            Error (Printf.sprintf "read failed: %s" (Unix.error_message e))
        | 0 -> Error "connection closed by server"
        | n ->
            Wire.feed t.dec (Bytes.sub_string t.buf 0 n) ~off:0 ~len:n;
            loop ())
  in
  loop ()

let request t req =
  let data = Wire.encode_request req in
  try
    let len = String.length data in
    let off = ref 0 in
    while !off < len do
      off := !off + Unix.write_substring t.fd data !off (len - !off)
    done;
    Ok ()
  with Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "write failed: %s" (Unix.error_message e))

let ( let* ) = Result.bind

let connect ~socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s: %s" socket
           (Unix.error_message e))
  | () -> (
      let t = { fd; dec = Wire.decoder (); buf = Bytes.create 65536 } in
      match next_response t with
      | Ok (Wire.Hello { protocol }) when protocol = Wire.protocol -> Ok t
      | Ok (Wire.Hello { protocol }) ->
          close t;
          Error
            (Printf.sprintf "server speaks %s, this client speaks %s" protocol
               Wire.protocol)
      | Ok _ ->
          close t;
          Error "server did not open with a hello frame"
      | Error e ->
          close t;
          Error e)

let ping t =
  let* () = request t Wire.Ping in
  match next_response t with
  | Ok Wire.Pong -> Ok ()
  | Ok _ -> Error "unexpected reply to ping"
  | Error e -> Error e

let metrics t =
  let* () = request t Wire.Metrics in
  match next_response t with
  | Ok (Wire.Metrics_report report) -> Ok report
  | Ok (Wire.Error_msg m) -> Error m
  | Ok _ -> Error "unexpected reply to metrics"
  | Error e -> Error e

let stats t = Result.map (fun r -> r.Wire.mr_stats) (metrics t)

(* Submissions in flight at once: below the daemon's default queue
   capacity of 64, so one client alone is never answered Overloaded.
   The window also keeps the client reading: writing every frame before
   reading any deadlocks once the daemon blocks writing replies this
   client has not read yet. *)
let window = 32

(* Submit every job (id = list index) and collect exactly one reply per
   id, calling [on_result] in submission order (buffering replies that
   complete out of order — same streaming discipline as Batch.run).
   Whenever [window] submissions are outstanding, the next reply is
   read before the next frame is written. *)
let submit_all ?corr_prefix t jobs ~on_result =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let replies = Array.make n None in
  let corr i =
    Option.map (fun p -> Printf.sprintf "%s-%d" p i) corr_prefix
  in
  let next_to_stream = ref 0 in
  let stream () =
    while
      !next_to_stream < n
      &&
      match replies.(!next_to_stream) with
      | Some reply ->
          on_result !next_to_stream jobs.(!next_to_stream) reply;
          incr next_to_stream;
          true
      | None -> false
    do
      ()
    done
  in
  let receive () =
    let* response = next_response t in
    match response with
    | Wire.Result { id; _ } | Wire.Rejected { id; _ }
    | Wire.Overloaded { id; _ }
      when id >= 0 && id < n ->
        if replies.(id) <> None then
          Error (Printf.sprintf "duplicate reply for job %d" id)
        else begin
          replies.(id) <- Some response;
          stream ();
          Ok ()
        end
    | Wire.Error_msg m -> Error (Printf.sprintf "server error: %s" m)
    | _ -> Error "reply with an unknown or out-of-range job id"
  in
  let rec go sent received =
    if received = n then Ok ()
    else if sent < n && sent - received < window then
      let* () =
        request t (Wire.Submit { id = sent; corr = corr sent; job = jobs.(sent) })
      in
      go (sent + 1) received
    else
      let* () = receive () in
      go sent (received + 1)
  in
  let* () = go 0 0 in
  Ok (Array.to_list (Array.map Option.get replies))
