open Noc_model

let routed_flows net =
  List.filter_map
    (fun (f : Traffic.flow) ->
      match Network.route net f.Traffic.id with
      | [] -> None
      | route -> Some (f.Traffic.id, Array.of_list route))
    (Traffic.flows (Network.traffic net))

let burst net ~packet_length ~packets_per_flow =
  let next_id = ref 0 in
  List.concat_map
    (fun (flow, route) ->
      List.init packets_per_flow (fun _ ->
          let id = !next_id in
          incr next_id;
          Packet.make ~id ~flow ~route ~length:packet_length ~inject_at:0))
    (routed_flows net)

let total_flits packets =
  List.fold_left (fun acc (p : Packet.t) -> acc + p.Packet.length) 0 packets
