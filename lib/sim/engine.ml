open Noc_model

type config = {
  buffer_depth : int;
  max_cycles : int;
  stall_threshold : int;
  rotate_priority : bool;
  router_latency : int;
}

let default_config =
  {
    buffer_depth = 4;
    max_cycles = 200_000;
    stall_threshold = 64;
    rotate_priority = false;
    router_latency = 1;
  }

type deadlock_info = {
  cycle : int;
  in_network_flits : int;
  blocked_packets : int list;
  waits_for_cycle : int list option;
}

type outcome =
  | Completed of Stats.t
  | Deadlocked of deadlock_info
  | Timed_out of Stats.t

(* A flit sitting in a channel FIFO; [arrived] forbids moving twice in
   one cycle (one hop per cycle). *)
type buffered = { flit : Packet.flit; mutable arrived : int }

(* Observability: one span around the whole run, one span per batch of
   [span_cycle_batch] cycles (per-cycle spans would swamp the trace),
   and process totals for injected/delivered flits.  The counters are
   looked up once per run, at its end: merely linking the simulator
   never adds sim rows to unrelated metric snapshots, and the lookup is
   idempotent and mutex-guarded, so runs on any domain are safe. *)
let span_cycle_batch = 1024

type chan_state = {
  channel : Channel.t;
  capacity : int;
  queue : buffered Queue.t;
  mutable owner : int option;  (* packet id holding the channel *)
  mutable accepted : bool;  (* a flit already entered this cycle *)
  mutable arrivals : int;  (* total flits accepted, for utilization *)
}

(* Per-flow injection port: packets leave in order; [sent] counts the
   flits of the front packet already pushed into the network. *)
type source = { mutable pending : Packet.t list; mutable sent : int }

let route_index (p : Packet.t) c =
  let n = Array.length p.Packet.route in
  let rec go i =
    if i >= n then invalid_arg "Engine: flit in a channel not on its route"
    else if Channel.equal p.Packet.route.(i) c then i
    else go (i + 1)
  in
  go 0

let run ?(config = default_config) ?(on_event = fun (_ : Trace.event) -> ()) net
    packets =
  let total_flits =
    List.fold_left (fun acc (p : Packet.t) -> acc + p.Packet.length) 0 packets
  in
  Noc_obs.Trace.with_span "sim.run"
    ~attrs:
      [
        ("packets", Noc_obs.Trace.Int (List.length packets));
        ("flits", Noc_obs.Trace.Int total_flits);
      ]
  @@ fun run_span ->
  let topo = Network.topology net in
  let states = Channel.Table.create 256 in
  List.iter
    (fun c ->
      Channel.Table.replace states c
        {
          channel = c;
          capacity = config.buffer_depth;
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
  (* Validate all packet routes up front. *)
  List.iter
    (fun (p : Packet.t) -> Array.iter (fun c -> ignore (state c)) p.Packet.route)
    packets;
  let channel_order =
    List.map state (List.sort Channel.compare (Topology.channels topo))
  in
  (* Sources keyed by flow id, packets in (inject_at, id) order. *)
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
  let injected_flits = ref 0 in
  let ejected_flits = ref 0 in
  let acc = Stats.Accumulator.create () in
  let record_delivery (p : Packet.t) cycle =
    Stats.Accumulator.record acc ~flow:p.Packet.flow
      ~latency:(cycle - p.Packet.inject_at)
  in
  let delivered () = Stats.Accumulator.delivered acc in
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
      delivered = delivered ();
      flits_moved = !flits_moved;
      per_flow = Stats.Accumulator.flow_stats acc;
      channel_moves;
    }
  in
  let n_channels = List.length channel_order in
  (* Service order of the channels this cycle: fixed priority, or
     rotated by one position per cycle for round-robin fairness. *)
  let service_order cycle =
    if (not config.rotate_priority) || n_channels = 0 then channel_order
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
  (* One simulation cycle; returns true when anything moved. *)
  let step cycle =
    let moved = ref false in
    List.iter (fun cs -> cs.accepted <- false) channel_order;
    (* Forwarding and ejection. *)
    let forward cs =
      match Queue.peek_opt cs.queue with
      | None -> ()
      | Some b when b.arrived + config.router_latency > cycle -> ()
      | Some b ->
          let p = b.flit.Packet.packet in
          let i = route_index p cs.channel in
          if i = Array.length p.Packet.route - 1 then begin
            (* Ejection into the destination NI: always drains. *)
            ignore (Queue.pop cs.queue);
            incr flits_moved;
            incr ejected_flits;
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
            let was_free = cs'.owner = None in
            let may_own =
              match cs'.owner with
              | Some o -> o = p.Packet.id
              | None -> Packet.is_head b.flit
            in
            if may_own && (not cs'.accepted) && Queue.length cs'.queue < cs'.capacity
            then begin
              ignore (Queue.pop cs.queue);
              cs'.owner <- Some p.Packet.id;
              if was_free then
                on_event
                  (Trace.Acquire
                     { cycle; packet = p.Packet.id; channel = cs'.channel });
              cs'.accepted <- true;
              cs'.arrivals <- cs'.arrivals + 1;
              Queue.push { flit = b.flit; arrived = cycle } cs'.queue;
              on_event
                (Trace.Hop
                   {
                     cycle;
                     packet = p.Packet.id;
                     flit = b.flit.Packet.index;
                     channel = cs'.channel;
                   });
              if Packet.is_tail b.flit then begin
                cs.owner <- None;
                on_event
                  (Trace.Release
                     { cycle; packet = p.Packet.id; channel = cs.channel })
              end;
              incr flits_moved;
              moved := true
            end
          end
    in
    List.iter forward (service_order cycle);
    (* Injection, one flit per flow per cycle. *)
    let inject src =
      match src.pending with
      | [] -> ()
      | p :: rest ->
          if p.Packet.inject_at <= cycle then begin
            let cs' = state p.Packet.route.(0) in
            let flit = { Packet.packet = p; index = src.sent } in
            let was_free = cs'.owner = None in
            let may_own =
              match cs'.owner with
              | Some o -> o = p.Packet.id
              | None -> Packet.is_head flit
            in
            if may_own && (not cs'.accepted) && Queue.length cs'.queue < cs'.capacity
            then begin
              cs'.owner <- Some p.Packet.id;
              if Packet.is_head flit then
                on_event (Trace.Inject { cycle; packet = p.Packet.id });
              if was_free then
                on_event
                  (Trace.Acquire
                     { cycle; packet = p.Packet.id; channel = cs'.channel });
              cs'.accepted <- true;
              cs'.arrivals <- cs'.arrivals + 1;
              Queue.push { flit; arrived = cycle } cs'.queue;
              on_event
                (Trace.Hop
                   {
                     cycle;
                     packet = p.Packet.id;
                     flit = flit.Packet.index;
                     channel = cs'.channel;
                   });
              src.sent <- src.sent + 1;
              incr flits_moved;
              incr injected_flits;
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
  (* Waits-for edges at stall time, for the deadlock certificate. *)
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
  (* Span batching: one "sim.cycles" span per [span_cycle_batch] cycles
     keeps the trace readable at any simulation length.  Spans nest
     strictly inside "sim.run" (LIFO per domain), which the balanced-
     span lint pass checks. *)
  let batch_span = ref Noc_obs.Trace.null_span in
  let rotate_batch cycle =
    Noc_obs.Trace.finish !batch_span;
    batch_span :=
      Noc_obs.Trace.start
        ~attrs:[ ("cycle", Noc_obs.Trace.Int cycle) ]
        "sim.cycles"
  in
  let conclude outcome =
    Noc_obs.Trace.finish !batch_span;
    Noc_obs.Metrics.add
      (Noc_obs.Metrics.counter "noc_sim_flits_injected_total")
      !injected_flits;
    Noc_obs.Metrics.add
      (Noc_obs.Metrics.counter "noc_sim_flits_delivered_total")
      !ejected_flits;
    let name, cycles =
      match outcome with
      | Completed s -> ("completed", s.Stats.cycles)
      | Timed_out s -> ("timed-out", s.Stats.cycles)
      | Deadlocked d ->
          Noc_obs.Metrics.incr
            (Noc_obs.Metrics.counter "noc_sim_deadlocks_total");
          ("deadlocked", d.cycle)
    in
    Noc_obs.Trace.add_attr run_span "outcome" (Noc_obs.Trace.Str name);
    Noc_obs.Trace.add_attr run_span "cycles" (Noc_obs.Trace.Int cycles);
    Noc_obs.Trace.add_attr run_span "delivered"
      (Noc_obs.Trace.Int (delivered ()));
    outcome
  in
  let rec loop cycle stall =
    if delivered () = n_packets then conclude (Completed (stats cycle))
    else if cycle >= config.max_cycles then conclude (Timed_out (stats cycle))
    else begin
      if cycle mod span_cycle_batch = 0 then rotate_batch cycle;
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
      (* Deep pipelines legitimately idle for [router_latency] cycles;
         the watchdog must not mistake that for a deadlock. *)
      let threshold = max config.stall_threshold (4 * config.router_latency) in
      if stall >= threshold then begin
        let edges, blocked = waits_for cycle in
        conclude
          (Deadlocked
             {
               cycle;
               in_network_flits = in_net;
               blocked_packets = blocked;
               waits_for_cycle = Deadlock_detect.find_cycle edges;
             })
      end
      else loop (cycle + 1) stall
    end
  in
  loop 0 0

let pp_outcome ppf = function
  | Completed s -> Format.fprintf ppf "completed: %a" Stats.pp s
  | Timed_out s -> Format.fprintf ppf "TIMED OUT: %a" Stats.pp s
  | Deadlocked d ->
      Format.fprintf ppf
        "DEADLOCK at cycle %d: %d flits stuck, %d blocked packets%a" d.cycle
        d.in_network_flits
        (List.length d.blocked_packets)
        (fun ppf -> function
          | Some cycle_ids ->
              Format.fprintf ppf ", waits-for cycle: %a"
                (Format.pp_print_list
                   ~pp_sep:(fun ppf () -> Format.fprintf ppf " -> ")
                   Format.pp_print_int)
                cycle_ids
          | None -> Format.fprintf ppf ", no waits-for cycle (starvation)")
        d.waits_for_cycle
