open Noc_model

let bandwidth_proportional net ~packet_length ~duration ~capacity_mbps ~seed =
  if duration < 1 then invalid_arg "Workloads.bandwidth_proportional: duration < 1";
  if packet_length < 1 then
    invalid_arg "Workloads.bandwidth_proportional: packet_length < 1";
  if capacity_mbps <= 0. then
    invalid_arg "Workloads.bandwidth_proportional: capacity <= 0";
  (* Generator state and packet ids are threaded explicitly through the
     per-flow/per-packet recursion; nothing outlives the call. *)
  let packets_for rng next_id (f : Traffic.flow) =
    match Network.route net f.Traffic.id with
    | [] -> ([], rng, next_id)
    | route ->
        let route = Array.of_list route in
        let flits =
          f.Traffic.bandwidth /. capacity_mbps *. float_of_int duration
        in
        let n = max 1 (int_of_float (flits /. float_of_int packet_length)) in
        let interval = max 1 (duration / n) in
        let rec gen rng next_id j acc =
          if j = n then (List.rev acc, rng, next_id)
          else begin
            let jitter, rng = Rng.int rng (max 1 (interval / 2)) in
            let p =
              Noc_sim.Packet.make ~id:next_id ~flow:f.Traffic.id ~route
                ~length:packet_length
                ~inject_at:(min (duration - 1) ((j * interval) + jitter))
            in
            gen rng (next_id + 1) (j + 1) (p :: acc)
          end
        in
        gen rng next_id 0 []
  in
  let rec all rng next_id acc = function
    | [] -> List.concat (List.rev acc)
    | f :: rest ->
        let ps, rng, next_id = packets_for rng next_id f in
        all rng next_id (ps :: acc) rest
  in
  all (Rng.make seed) 0 [] (Traffic.flows (Network.traffic net))

let offered_load net ~capacity_mbps =
  let flows =
    List.filter
      (fun (f : Traffic.flow) -> Network.route net f.Traffic.id <> [])
      (Traffic.flows (Network.traffic net))
  in
  match flows with
  | [] -> 0.
  | _ ->
      List.fold_left
        (fun acc (f : Traffic.flow) -> acc +. (f.Traffic.bandwidth /. capacity_mbps))
        0. flows
      /. float_of_int (List.length flows)

(* ------------------------------------------------------------------ *)
(* First-class workload specs                                          *)
(* ------------------------------------------------------------------ *)

type spec =
  | Burst of { packet_length : int; packets_per_flow : int }
  | Uniform_random of {
      packet_length : int;
      duration : int;
      rate : float;
      seed : int;
    }
  | Hotspot of {
      packet_length : int;
      duration : int;
      rate : float;
      factor : float;
      seed : int;
    }
  | Transpose of { packet_length : int; packets_per_flow : int; interval : int }
  | Bursty of {
      request_length : int;
      response_length : int;
      duration : int;
      exchanges : int;
      idle : int;
      seed : int;
    }
  | Bandwidth_proportional of {
      packet_length : int;
      duration : int;
      capacity_mbps : float;
      seed : int;
    }

let default_burst = Burst { packet_length = 8; packets_per_flow = 2 }

let default_uniform =
  Uniform_random { packet_length = 4; duration = 512; rate = 0.1; seed = 1 }

let default_hotspot =
  Hotspot { packet_length = 4; duration = 512; rate = 0.1; factor = 4.; seed = 1 }

let default_transpose =
  Transpose { packet_length = 8; packets_per_flow = 4; interval = 32 }

let default_bursty =
  Bursty
    {
      request_length = 1;
      response_length = 8;
      duration = 512;
      exchanges = 2;
      idle = 64;
      seed = 1;
    }

let default_bandwidth =
  Bandwidth_proportional
    { packet_length = 4; duration = 512; capacity_mbps = 1000.; seed = 1 }

let kind = function
  | Burst _ -> "burst"
  | Uniform_random _ -> "uniform"
  | Hotspot _ -> "hotspot"
  | Transpose _ -> "transpose"
  | Bursty _ -> "bursty"
  | Bandwidth_proportional _ -> "bandwidth"

let kinds = [ "burst"; "uniform"; "hotspot"; "transpose"; "bursty"; "bandwidth" ]

let of_kind = function
  | "burst" -> Some default_burst
  | "uniform" -> Some default_uniform
  | "hotspot" -> Some default_hotspot
  | "transpose" -> Some default_transpose
  | "bursty" -> Some default_bursty
  | "bandwidth" -> Some default_bandwidth
  | _ -> None

let describe = function
  | Burst { packet_length; packets_per_flow } ->
      Printf.sprintf "burst l=%d n=%d" packet_length packets_per_flow
  | Uniform_random { rate; _ } -> Printf.sprintf "uniform r=%.2f" rate
  | Hotspot { rate; factor; _ } ->
      Printf.sprintf "hotspot r=%.2f x%.1f" rate factor
  | Transpose { interval; _ } -> Printf.sprintf "transpose i=%d" interval
  | Bursty { exchanges; idle; _ } ->
      Printf.sprintf "bursty e=%d idle=%d" exchanges idle
  | Bandwidth_proportional { capacity_mbps; _ } ->
      Printf.sprintf "bandwidth c=%g" capacity_mbps

let injection_rate = function
  | Uniform_random { rate; _ } | Hotspot { rate; _ } -> Some rate
  | Burst _ | Transpose _ | Bursty _ | Bandwidth_proportional _ -> None

let at_rate spec rate =
  match spec with
  | Uniform_random u -> Some (Uniform_random { u with rate })
  | Hotspot h -> Some (Hotspot { h with rate })
  | Burst _ | Transpose _ | Bursty _ | Bandwidth_proportional _ -> None

let with_seed spec seed =
  match spec with
  | Uniform_random u -> Uniform_random { u with seed }
  | Hotspot h -> Hotspot { h with seed }
  | Bursty b -> Bursty { b with seed }
  | Bandwidth_proportional b -> Bandwidth_proportional { b with seed }
  | (Burst _ | Transpose _) as s -> s

let validate spec =
  let e cond msg acc = if cond then msg :: acc else acc in
  List.rev
    (match spec with
    | Burst { packet_length; packets_per_flow } ->
        [] |> e (packet_length < 1) "packet_length < 1"
        |> e (packets_per_flow < 1) "packets_per_flow < 1"
    | Uniform_random { packet_length; duration; rate; _ } ->
        [] |> e (packet_length < 1) "packet_length < 1"
        |> e (duration < 1) "duration < 1"
        |> e (rate <= 0.) "rate <= 0"
    | Hotspot { packet_length; duration; rate; factor; _ } ->
        [] |> e (packet_length < 1) "packet_length < 1"
        |> e (duration < 1) "duration < 1"
        |> e (rate <= 0.) "rate <= 0"
        |> e (factor < 1.) "hotspot factor < 1"
    | Transpose { packet_length; packets_per_flow; interval } ->
        [] |> e (packet_length < 1) "packet_length < 1"
        |> e (packets_per_flow < 1) "packets_per_flow < 1"
        |> e (interval < 1) "interval < 1"
    | Bursty { request_length; response_length; duration; exchanges; idle; _ }
      ->
        [] |> e (request_length < 1) "request_length < 1"
        |> e (response_length < 1) "response_length < 1"
        |> e (duration < 1) "duration < 1"
        |> e (exchanges < 1) "exchanges < 1"
        |> e (idle < 1) "idle < 1"
    | Bandwidth_proportional { packet_length; duration; capacity_mbps; _ } ->
        [] |> e (packet_length < 1) "packet_length < 1"
        |> e (duration < 1) "duration < 1"
        |> e (capacity_mbps <= 0.) "capacity <= 0")

let saturation_warning = function
  | Uniform_random { rate; _ } when rate > 1. ->
      Some
        (Printf.sprintf
           "injection rate %.2f flits/cycle/flow exceeds the 1.0 a single \
            injection port can sustain"
           rate)
  | Hotspot { rate; factor; _ } when rate *. factor > 1. ->
      Some
        (Printf.sprintf
           "hotspot flows inject at %.2f flits/cycle (rate x factor), beyond \
            the 1.0 a single injection port can sustain"
           (rate *. factor))
  | Burst _ | Uniform_random _ | Hotspot _ | Transpose _ | Bursty _
  | Bandwidth_proportional _ ->
      None

let check_valid spec =
  match validate spec with
  | [] -> ()
  | errs ->
      invalid_arg
        (Printf.sprintf "Workloads.%s: %s" (kind spec) (String.concat ", " errs))

(* Shared scaffolding: walk the routed flows in flow-id order, threading
   the generator state and the packet-id counter, exactly like
   [bandwidth_proportional] does. *)
let over_routed_flows net ~seed packets_for =
  let rec all rng next_id acc = function
    | [] -> List.concat (List.rev acc)
    | (f, route) :: rest ->
        let ps, rng, next_id = packets_for rng next_id f route in
        all rng next_id (ps :: acc) rest
  in
  let routed =
    List.filter_map
      (fun (f : Traffic.flow) ->
        match Network.route net f.Traffic.id with
        | [] -> None
        | route -> Some (f, Array.of_list route))
      (Traffic.flows (Network.traffic net))
  in
  all (Rng.make seed) 0 [] routed

(* About [rate * duration / packet_length] packets per flow at seeded
   uniform injection times; the fractional expectation becomes one extra
   packet with matching probability, so the mean rate is exact. *)
let uniform_packets_for ~packet_length ~duration ~rate rng next_id
    (f : Traffic.flow) route =
  let expected = rate *. float_of_int duration /. float_of_int packet_length in
  let base = int_of_float expected in
  let frac = expected -. float_of_int base in
  let draw, rng = Rng.float rng 1. in
  let n = base + (if draw < frac then 1 else 0) in
  let rec gen rng next_id j acc =
    if j = n then (List.rev acc, rng, next_id)
    else begin
      let at, rng = Rng.int rng duration in
      let p =
        Noc_sim.Packet.make ~id:next_id ~flow:f.Traffic.id ~route
          ~length:packet_length ~inject_at:at
      in
      gen rng (next_id + 1) (j + 1) (p :: acc)
    end
  in
  gen rng next_id 0 []

let uniform_random net ~packet_length ~duration ~rate ~seed =
  check_valid (Uniform_random { packet_length; duration; rate; seed });
  over_routed_flows net ~seed
    (uniform_packets_for ~packet_length ~duration ~rate)

(* The hotspot is the destination core with the highest total demanded
   bandwidth (lowest core id on ties): flows into it inject [factor]
   times faster than the background. *)
let hotspot_core net =
  let demand = Hashtbl.create 16 in
  List.iter
    (fun (f : Traffic.flow) ->
      if Network.route net f.Traffic.id <> [] then begin
        let k = Ids.Core.to_int f.Traffic.dst in
        Hashtbl.replace demand k
          (f.Traffic.bandwidth
          +. Option.value ~default:0. (Hashtbl.find_opt demand k))
      end)
    (Traffic.flows (Network.traffic net));
  Hashtbl.fold
    (fun core bw best ->
      match best with
      | Some (_, best_bw) when best_bw > bw -> best
      | Some (best_core, best_bw) when best_bw = bw && best_core < core -> best
      | _ -> Some (core, bw))
    demand None
  |> Option.map fst

let hotspot net ~packet_length ~duration ~rate ~factor ~seed =
  check_valid (Hotspot { packet_length; duration; rate; factor; seed });
  let hot = hotspot_core net in
  over_routed_flows net ~seed (fun rng next_id (f : Traffic.flow) route ->
      let rate =
        if Some (Ids.Core.to_int f.Traffic.dst) = hot then rate *. factor
        else rate
      in
      uniform_packets_for ~packet_length ~duration ~rate rng next_id f route)

(* Benchmark flows are fixed (src, dst) pairs, so the classic transpose
   permutation becomes a schedule: flows fire in destination-major
   (transposed) order, each phase-shifted within the interval, so
   packets converging on one destination arrive as a wave. *)
let transpose net ~packet_length ~packets_per_flow ~interval =
  check_valid (Transpose { packet_length; packets_per_flow; interval });
  let routed =
    List.filter_map
      (fun (f : Traffic.flow) ->
        match Network.route net f.Traffic.id with
        | [] -> None
        | route -> Some (f, Array.of_list route))
      (Traffic.flows (Network.traffic net))
  in
  let transposed =
    List.sort
      (fun ((a : Traffic.flow), _) ((b : Traffic.flow), _) ->
        match compare (Ids.Core.to_int a.Traffic.dst) (Ids.Core.to_int b.Traffic.dst) with
        | 0 -> compare (Ids.Core.to_int a.Traffic.src) (Ids.Core.to_int b.Traffic.src)
        | c -> c)
      routed
  in
  let n_flows = max 1 (List.length transposed) in
  let next_id = ref 0 in
  List.concat
    (List.mapi
       (fun r ((f : Traffic.flow), route) ->
         let offset = r * interval / n_flows in
         List.init packets_per_flow (fun j ->
             let id = !next_id in
             incr next_id;
             Noc_sim.Packet.make ~id ~flow:f.Traffic.id ~route
               ~length:packet_length
               ~inject_at:((j * interval) + offset)))
       transposed)

(* AXI-style request/response exchange on the forward route: a short
   command packet immediately followed by a long data packet, a few
   exchanges back to back, then a seeded idle gap.  The long packets in
   convoy are what makes this pattern deadlock-prone. *)
let bursty net ~request_length ~response_length ~duration ~exchanges ~idle
    ~seed =
  check_valid
    (Bursty { request_length; response_length; duration; exchanges; idle; seed });
  over_routed_flows net ~seed (fun rng next_id (f : Traffic.flow) route ->
      let make ~id ~length ~at =
        Noc_sim.Packet.make ~id ~flow:f.Traffic.id ~route ~length
          ~inject_at:(min (duration - 1) at)
      in
      let rec bursts rng next_id t acc =
        if t >= duration then (List.rev acc, rng, next_id)
        else begin
          let rec exchange rng next_id k t acc =
            if k = exchanges || t >= duration then (rng, next_id, t, acc)
            else begin
              let jitter, rng = Rng.int rng 4 in
              let req = make ~id:next_id ~length:request_length ~at:t in
              let resp =
                make ~id:(next_id + 1) ~length:response_length
                  ~at:(t + request_length + jitter)
              in
              exchange rng (next_id + 2) (k + 1)
                (t + request_length + jitter + response_length)
                (resp :: req :: acc)
            end
          in
          let rng, next_id, t, acc = exchange rng next_id 0 t acc in
          let gap, rng = Rng.int rng (max 1 idle) in
          bursts rng next_id (t + idle + gap) acc
        end
      in
      let start, rng = Rng.int rng (max 1 idle) in
      bursts rng next_id start [])

let generate net = function
  | Burst { packet_length; packets_per_flow } ->
      Noc_sim.Traffic_gen.burst net ~packet_length ~packets_per_flow
  | Uniform_random { packet_length; duration; rate; seed } ->
      uniform_random net ~packet_length ~duration ~rate ~seed
  | Hotspot { packet_length; duration; rate; factor; seed } ->
      hotspot net ~packet_length ~duration ~rate ~factor ~seed
  | Transpose { packet_length; packets_per_flow; interval } ->
      transpose net ~packet_length ~packets_per_flow ~interval
  | Bursty { request_length; response_length; duration; exchanges; idle; seed }
    ->
      bursty net ~request_length ~response_length ~duration ~exchanges ~idle
        ~seed
  | Bandwidth_proportional { packet_length; duration; capacity_mbps; seed } ->
      bandwidth_proportional net ~packet_length ~duration ~capacity_mbps ~seed
