(* Invariant checkers over a recorded simulator event list
   ([Noc_sim.Trace.recorder]): the defining properties of wormhole
   flow control, checked event by event, so that a simulator bug that
   aggregate statistics would hide still shows. *)

open Noc_model
open Noc_sim.Trace

let fail fmt = Format.kasprintf (fun s -> Error s) fmt

(* No channel is ever acquired while another packet holds it — the
   wormhole property itself. *)
let check_exclusive_ownership events =
  let owner = Channel.Table.create 64 in
  let rec go = function
    | [] -> Ok ()
    | Acquire { cycle; packet; channel } :: rest -> (
        match Channel.Table.find_opt owner channel with
        | Some other ->
            fail "cycle %d: packet %d acquired %a still owned by packet %d" cycle
              packet Channel.pp channel other
        | None ->
            Channel.Table.replace owner channel packet;
            go rest)
    | Release { cycle; packet; channel } :: rest -> (
        match Channel.Table.find_opt owner channel with
        | Some p when p = packet ->
            Channel.Table.remove owner channel;
            go rest
        | Some p ->
            fail "cycle %d: packet %d released %a owned by packet %d" cycle packet
              Channel.pp channel p
        | None ->
            fail "cycle %d: packet %d released unowned %a" cycle packet Channel.pp
              channel)
    | (Inject _ | Hop _ | Deliver _) :: rest -> go rest
  in
  go events

(* On a completed run every [Acquire] has a matching [Release] and
   every [Inject] a matching [Deliver]. *)
let check_balanced events =
  let acquired = Hashtbl.create 64 in
  let injected = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match e with
      | Acquire { packet; channel; _ } ->
          Hashtbl.replace acquired (packet, channel) ()
      | Release { packet; channel; _ } -> Hashtbl.remove acquired (packet, channel)
      | Inject { packet; _ } -> Hashtbl.replace injected packet ()
      | Deliver { packet; _ } -> Hashtbl.remove injected packet
      | Hop _ -> ())
    events;
  if Hashtbl.length acquired > 0 then
    let (packet, channel), () = Hashtbl.to_seq acquired |> List.of_seq |> List.hd in
    fail "packet %d never released %a" packet Channel.pp channel
  else if Hashtbl.length injected > 0 then
    let packet = Hashtbl.to_seq_keys injected |> List.of_seq |> List.hd in
    fail "packet %d injected but never delivered" packet
  else Ok ()

(* Given each packet's route (by packet id), its acquisitions must
   happen in route order with no skips. *)
let check_route_order route_of events =
  (* Position of the next expected acquisition per packet. *)
  let next = Hashtbl.create 64 in
  let rec go = function
    | [] -> Ok ()
    | Acquire { cycle; packet; channel } :: rest -> (
        let route = route_of packet in
        let pos = Option.value ~default:0 (Hashtbl.find_opt next packet) in
        match List.nth_opt route pos with
        | Some expected when Channel.equal expected channel ->
            Hashtbl.replace next packet (pos + 1);
            go rest
        | Some expected ->
            fail "cycle %d: packet %d acquired %a, route expects %a at hop %d"
              cycle packet Channel.pp channel Channel.pp expected pos
        | None ->
            fail "cycle %d: packet %d acquired %a past the end of its route" cycle
              packet Channel.pp channel)
    | (Inject _ | Hop _ | Deliver _ | Release _) :: rest -> go rest
  in
  go events
