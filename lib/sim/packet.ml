open Noc_model

type t = {
  id : int;
  flow : Ids.Flow.t;
  route : Channel.t array;
  length : int;
  inject_at : int;
}

type flit = { packet : t; index : int }

let make ~id ~flow ~route ~length ~inject_at =
  if length < 1 then invalid_arg "Packet.make: length < 1";
  if Array.length route = 0 then invalid_arg "Packet.make: empty route";
  if inject_at < 0 then invalid_arg "Packet.make: negative injection cycle";
  { id; flow; route; length; inject_at }

let flits t = List.init t.length (fun index -> { packet = t; index })
let is_head f = f.index = 0
let is_tail f = f.index = f.packet.length - 1

let pp ppf t =
  Format.fprintf ppf "pkt%d(%a, %d flits, %d hops, t>=%d)" t.id Ids.Flow.pp t.flow
    t.length (Array.length t.route) t.inject_at
