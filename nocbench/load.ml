(* Closed-loop load: [connections] clients, one per domain, each sends
   its next job only after the reply to the previous one arrived.  Jobs
   are taken from one shared sequence, so together the clients submit
   [jobs] exactly once, in order of issue. *)

open Noc_service

type reply = {
  latency_ms : float;  (** Submit frame written to reply frame read. *)
  response : (Wire.response, string) result;
}

type run = { replies : reply option array; elapsed_s : float }

let ms_since t0 = Noc_obs.Clock.ms_between ~start_ns:t0 ~stop_ns:(Noc_obs.Clock.now_ns ())

(* [first] is an already-connected client (the one that read the
   daemon's Hello during set-up); further connections are opened here,
   before the clock starts. *)
let run ~socket ~first ~connections jobs =
  let n = Array.length jobs in
  let replies = Array.make n None in
  let next = Atomic.make 0 in
  let others =
    List.init (connections - 1) (fun _ ->
        match Client.connect ~socket with Ok c -> c | Error e -> failwith e)
  in
  (* One job on [c]; false once the sequence is exhausted or the
     connection broke (its peers go on). *)
  let step c =
    let i = Atomic.fetch_and_add next 1 in
    i < n
    &&
    let t0 = Noc_obs.Clock.now_ns () in
    let response =
      match Client.request c (Wire.Submit { id = i; corr = None; job = jobs.(i) }) with
      | Error e -> Error e
      | Ok () -> Client.next_response c
    in
    replies.(i) <- Some { latency_ms = ms_since t0; response };
    Result.is_ok response
  in
  let loop c () = while step c do () done in
  let t0 = Noc_obs.Clock.now_ns () in
  (* The other clients start once the first reply is back: the daemon's
     worker domains force lazily registered metrics on their first job,
     and two domains forcing one lazy value at once raise in OCaml 5
     (which kills a pool worker).  Staggering keeps that race out of
     the measurement. *)
  if step first then begin
    let domains = List.map (fun c -> Domain.spawn (loop c)) others in
    loop first ();
    List.iter Domain.join domains
  end;
  let elapsed_s = ms_since t0 /. 1000. in
  List.iter Client.close others;
  { replies; elapsed_s }
