(* Reference wormhole engine: the table-and-queue formulation that
   [Noc_sim.Engine.run] must agree with, outcome for outcome and event
   for event.  Channel state lives in a [Channel.Table], every hop
   re-finds the flit's route position by scanning the route, every
   cycle resets each channel's [accepted] flag and folds the table for
   the in-network flit count, and an event is built for every action.
   Slow, but each step is the definition.  It records no spans or
   counters. *)

open Noc_model
open Noc_sim

type buffered = { flit : Packet.flit; mutable arrived : int }

type chan_state = {
  channel : Channel.t;
  capacity : int;
  queue : buffered Queue.t;
  mutable owner : int option;
  mutable accepted : bool;
  mutable arrivals : int;
}

type source = { mutable pending : Packet.t list; mutable sent : int }

let route_index (p : Packet.t) c =
  let n = Array.length p.Packet.route in
  let rec go i =
    if i >= n then invalid_arg "Engine_oracle: flit in a channel not on its route"
    else if Channel.equal p.Packet.route.(i) c then i
    else go (i + 1)
  in
  go 0

let run ?(config = Engine.default_config) ?(on_event = fun (_ : Trace.event) -> ())
    net packets =
  let topo = Network.topology net in
  let states = Channel.Table.create 256 in
  List.iter
    (fun c ->
      Channel.Table.replace states c
        {
          channel = c;
          capacity = config.Engine.buffer_depth;
          queue = Queue.create ();
          owner = None;
          accepted = false;
          arrivals = 0;
        })
    (Topology.channels topo);
  let state c =
    match Channel.Table.find_opt states c with
    | Some s -> s
    | None ->
        invalid_arg
          (Format.asprintf "Engine.run: packet uses unknown channel %a" Channel.pp c)
  in
  List.iter
    (fun (p : Packet.t) -> Array.iter (fun c -> ignore (state c)) p.Packet.route)
    packets;
  let channel_order =
    List.map state (List.sort Channel.compare (Topology.channels topo))
  in
  let by_flow = Hashtbl.create 64 in
  List.iter
    (fun (p : Packet.t) ->
      let k = Ids.Flow.to_int p.Packet.flow in
      Hashtbl.replace by_flow k
        (p :: Option.value ~default:[] (Hashtbl.find_opt by_flow k)))
    packets;
  let sources =
    Hashtbl.fold
      (fun k ps acc ->
        let sorted =
          List.sort
            (fun (a : Packet.t) b ->
              match compare a.Packet.inject_at b.Packet.inject_at with
              | 0 -> compare a.Packet.id b.Packet.id
              | c -> c)
            ps
        in
        (k, { pending = sorted; sent = 0 }) :: acc)
      by_flow []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let n_packets = List.length packets in
  let flits_moved = ref 0 in
  (* Per-flow accounting, keyed by flow id. *)
  let per_flow = Hashtbl.create 64 in
  let delivered = ref 0 and flits_delivered = ref 0 and latencies = ref [] in
  let record_delivery (p : Packet.t) cycle =
    let latency = cycle - p.Packet.inject_at in
    incr delivered;
    flits_delivered := !flits_delivered + p.Packet.length;
    latencies := latency :: !latencies;
    let k = Ids.Flow.to_int p.Packet.flow in
    let f =
      Option.value
        ~default:
          { Stats.flow = p.Packet.flow; delivered = 0; total_latency = 0; max_latency = 0 }
        (Hashtbl.find_opt per_flow k)
    in
    Hashtbl.replace per_flow k
      {
        f with
        Stats.delivered = f.Stats.delivered + 1;
        total_latency = f.Stats.total_latency + latency;
        max_latency = max f.Stats.max_latency latency;
      }
  in
  let network_flits () =
    Channel.Table.fold (fun _ cs acc -> acc + Queue.length cs.queue) states 0
  in
  let stats cycle =
    let channel_moves =
      List.filter_map
        (fun cs -> if cs.arrivals > 0 then Some (cs.channel, cs.arrivals) else None)
        channel_order
    in
    {
      Stats.cycles = cycle;
      delivered = !delivered;
      flits_moved = !flits_moved;
      flits_delivered = !flits_delivered;
      latencies = Array.of_list (List.rev !latencies);
      per_flow =
        Hashtbl.fold (fun _ f l -> f :: l) per_flow []
        |> List.sort (fun a b -> Ids.Flow.compare a.Stats.flow b.Stats.flow);
      channel_moves;
    }
  in
  let n_channels = List.length channel_order in
  let service_order cycle =
    if (not config.Engine.rotate_priority) || n_channels = 0 then channel_order
    else begin
      let k = cycle mod n_channels in
      let rec split i acc rest =
        if i = k then rest @ List.rev acc
        else
          match rest with
          | x :: tl -> split (i + 1) (x :: acc) tl
          | [] -> List.rev acc
      in
      split 0 [] channel_order
    end
  in
  (* A flit may enter [cs'] when the packet owns it, or when it is free
     and the flit is a head; at most one flit enters per cycle. *)
  let may_enter (p : Packet.t) flit cs' =
    (match cs'.owner with
    | Some o -> o = p.Packet.id
    | None -> Packet.is_head flit)
    && (not cs'.accepted)
    && Queue.length cs'.queue < cs'.capacity
  in
  let enter cycle (p : Packet.t) flit cs' =
    let was_free = cs'.owner = None in
    cs'.owner <- Some p.Packet.id;
    if was_free then
      on_event (Trace.Acquire { cycle; packet = p.Packet.id; channel = cs'.channel });
    cs'.accepted <- true;
    cs'.arrivals <- cs'.arrivals + 1;
    Queue.push { flit; arrived = cycle } cs'.queue;
    on_event
      (Trace.Hop
         { cycle; packet = p.Packet.id; flit = flit.Packet.index; channel = cs'.channel });
    incr flits_moved
  in
  let step cycle =
    let moved = ref false in
    List.iter (fun cs -> cs.accepted <- false) channel_order;
    let forward cs =
      match Queue.peek_opt cs.queue with
      | None -> ()
      | Some b when b.arrived + config.Engine.router_latency > cycle -> ()
      | Some b ->
          let p = b.flit.Packet.packet in
          let i = route_index p cs.channel in
          if i = Array.length p.Packet.route - 1 then begin
            ignore (Queue.pop cs.queue);
            incr flits_moved;
            moved := true;
            if Packet.is_tail b.flit then begin
              cs.owner <- None;
              on_event
                (Trace.Release { cycle; packet = p.Packet.id; channel = cs.channel });
              record_delivery p cycle;
              on_event (Trace.Deliver { cycle; packet = p.Packet.id })
            end
          end
          else begin
            let cs' = state p.Packet.route.(i + 1) in
            if may_enter p b.flit cs' then begin
              ignore (Queue.pop cs.queue);
              enter cycle p b.flit cs';
              if Packet.is_tail b.flit then begin
                cs.owner <- None;
                on_event
                  (Trace.Release { cycle; packet = p.Packet.id; channel = cs.channel })
              end;
              moved := true
            end
          end
    in
    List.iter forward (service_order cycle);
    let inject src =
      match src.pending with
      | [] -> ()
      | p :: rest ->
          if p.Packet.inject_at <= cycle then begin
            let cs' = state p.Packet.route.(0) in
            let flit = { Packet.packet = p; index = src.sent } in
            if may_enter p flit cs' then begin
              if Packet.is_head flit then
                on_event (Trace.Inject { cycle; packet = p.Packet.id });
              enter cycle p flit cs';
              src.sent <- src.sent + 1;
              moved := true;
              if src.sent = p.Packet.length then begin
                src.pending <- rest;
                src.sent <- 0
              end
            end
          end
    in
    List.iter inject sources;
    !moved
  in
  let waits_for cycle =
    let edges = ref [] in
    let blocked = ref [] in
    let consider_waiter pid next_cs =
      blocked := pid :: !blocked;
      match next_cs.owner with
      | Some q when q <> pid ->
          edges := { Deadlock_detect.waiter = pid; holder = q } :: !edges
      | Some _ | None -> ()
    in
    List.iter
      (fun cs ->
        match Queue.peek_opt cs.queue with
        | None -> ()
        | Some b ->
            let p = b.flit.Packet.packet in
            let i = route_index p cs.channel in
            if i < Array.length p.Packet.route - 1 then
              consider_waiter p.Packet.id (state p.Packet.route.(i + 1)))
      channel_order;
    List.iter
      (fun src ->
        match src.pending with
        | p :: _ when p.Packet.inject_at <= cycle ->
            consider_waiter p.Packet.id (state p.Packet.route.(0))
        | _ :: _ | [] -> ())
      sources;
    (List.rev !edges, List.sort_uniq compare !blocked)
  in
  let rec loop cycle stall =
    if !delivered = n_packets then Engine.Completed (stats cycle)
    else if cycle >= config.Engine.max_cycles then Engine.Timed_out (stats cycle)
    else begin
      let moved = step cycle in
      let in_net = network_flits () in
      let eligible_source =
        List.exists
          (fun src ->
            match src.pending with
            | p :: _ -> p.Packet.inject_at <= cycle
            | [] -> false)
          sources
      in
      let alive = in_net > 0 || eligible_source in
      let stall = if moved || not alive then 0 else stall + 1 in
      let threshold =
        max config.Engine.stall_threshold (4 * config.Engine.router_latency)
      in
      if stall >= threshold then begin
        let edges, blocked = waits_for cycle in
        Engine.Deadlocked
          {
            Engine.cycle;
            in_network_flits = in_net;
            blocked_packets = blocked;
            waits_for_cycle = Deadlock_detect.find_cycle edges;
            stats = stats cycle;
          }
      end
      else loop (cycle + 1) stall
    end
  in
  loop 0 0
