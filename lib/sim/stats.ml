open Noc_model

type flow_stats = {
  flow : Ids.Flow.t;
  delivered : int;
  total_latency : int;
  max_latency : int;
}

type t = {
  cycles : int;
  delivered : int;
  flits_moved : int;
  flits_delivered : int;
  latencies : int array;
  per_flow : flow_stats list;
  channel_moves : (Channel.t * int) list;
}

let utilization t c =
  if t.cycles <= 0 then 0.
  else
    match List.find_opt (fun (c', _) -> Channel.equal c c') t.channel_moves with
    | Some (_, n) -> float_of_int n /. float_of_int t.cycles
    | None -> 0.

let busiest_channel t =
  List.fold_left
    (fun best ((_, n) as cand) ->
      match best with
      | Some (_, m) when m >= n -> best
      | Some _ | None -> Some cand)
    None t.channel_moves

let avg_latency t =
  if t.delivered = 0 then 0.
  else
    let total =
      List.fold_left (fun acc f -> acc + f.total_latency) 0 t.per_flow
    in
    float_of_int total /. float_of_int t.delivered

let max_latency t = List.fold_left (fun acc f -> max acc f.max_latency) 0 t.per_flow

let flow t id = List.find_opt (fun f -> Ids.Flow.equal f.flow id) t.per_flow

let pp ppf t =
  Format.fprintf ppf
    "@[<v>simulation: %d cycles, %d packets delivered, %d flit moves, avg \
     latency %.1f, max %d"
    t.cycles t.delivered t.flits_moved (avg_latency t) (max_latency t);
  List.iter
    (fun f ->
      Format.fprintf ppf "@,  %a: %d delivered, max latency %d" Ids.Flow.pp f.flow
        f.delivered f.max_latency)
    t.per_flow;
  Format.fprintf ppf "@]"
