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
  stats : Stats.t;
}

type outcome =
  | Completed of Stats.t
  | Deadlocked of deadlock_info
  | Timed_out of Stats.t

(* Observability: one span around the whole run, one span per batch of
   [span_cycle_batch] cycles (per-cycle spans would swamp the trace),
   and process totals for injected/delivered flits.  The counters are
   looked up once per run, at its end: merely linking the simulator
   never adds sim rows to unrelated metric snapshots, and the lookup is
   idempotent and mutex-guarded, so runs on any domain are safe. *)
let span_cycle_batch = 1024

(* A run compiled to flat arrays.  Channels are dense ints in
   [Channel.compare] order, which is also the fixed service order.
   Packets are dense ints in injection order: flows by id, each flow's
   packets by (inject_at, id), so flow [f] injects packets
   [flow_end.(f - 1)] to [flow_end.(f) - 1] in turn.  Every position on
   every route is a dense int too ("hop"): packet [p]'s route is hops
   [first.(p)] to [last.(p)], and [hop_channel]/[hop_packet] say where
   and whose each hop is.  A buffered flit carries its hop, so
   forwarding reads its next channel at [hop + 1]. *)
type compiled = {
  channels : Channel.t array;
  hop_channel : int array;
  hop_packet : int array;
  id : int array;
  length : int array;
  inject_at : int array;
  first : int array;
  last : int array;
  flow_of : int array;
  flows : Ids.Flow.t array;
  flow_end : int array;
}

let compile net packets =
  let channels =
    Array.of_list (List.sort Channel.compare (Topology.channels (Network.topology net)))
  in
  let dense = Channel.Table.create (Array.length channels) in
  Array.iteri (fun i c -> Channel.Table.replace dense c i) channels;
  let index c =
    match Channel.Table.find_opt dense c with
    | Some i -> i
    | None ->
        invalid_arg
          (Format.asprintf "Engine.run: packet uses unknown channel %a" Channel.pp c)
  in
  let routes =
    List.map (fun (p : Packet.t) -> (p, Array.map index p.Packet.route)) packets
  in
  (* A flit's hop would be ambiguous on a route that enters a channel
     twice; valid routes never do ([Route.check_detailed]). *)
  let seen = Array.make (Array.length channels) (-1) in
  List.iteri
    (fun k ((p : Packet.t), route) ->
      Array.iter
        (fun c ->
          if seen.(c) = k then
            invalid_arg
              (Format.asprintf "Engine.run: packet %d revisits channel %a" p.Packet.id
                 Channel.pp channels.(c));
          seen.(c) <- k)
        route)
    routes;
  (* Injection order: flows by id; within a flow, packets by
     (inject_at, id), ties in reverse input order. *)
  let by_flow = Hashtbl.create 64 in
  List.iter
    (fun (((p : Packet.t), _) as entry) ->
      let k = Ids.Flow.to_int p.Packet.flow in
      Hashtbl.replace by_flow k
        (entry :: Option.value ~default:[] (Hashtbl.find_opt by_flow k)))
    routes;
  let sources =
    Hashtbl.fold (fun k entries acc -> (k, entries) :: acc) by_flow []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map (fun (_, entries) ->
           List.stable_sort
             (fun ((a : Packet.t), _) ((b : Packet.t), _) ->
               match Int.compare a.Packet.inject_at b.Packet.inject_at with
               | 0 -> Int.compare a.Packet.id b.Packet.id
               | c -> c)
             entries)
  in
  let n_packets = List.length packets and n_flows = List.length sources in
  let n_hops = List.fold_left (fun acc (_, route) -> acc + Array.length route) 0 routes in
  let c =
    {
      channels;
      hop_channel = Array.make n_hops 0;
      hop_packet = Array.make n_hops 0;
      id = Array.make n_packets 0;
      length = Array.make n_packets 0;
      inject_at = Array.make n_packets 0;
      first = Array.make n_packets 0;
      last = Array.make n_packets 0;
      flow_of = Array.make n_packets 0;
      flows = Array.make n_flows (Ids.Flow.of_int 0);
      flow_end = Array.make n_flows 0;
    }
  in
  let p = ref 0 and hop = ref 0 in
  List.iteri
    (fun f entries ->
      List.iter
        (fun ((packet : Packet.t), route) ->
          let k = !p in
          c.flows.(f) <- packet.Packet.flow;
          c.id.(k) <- packet.Packet.id;
          c.length.(k) <- packet.Packet.length;
          c.inject_at.(k) <- packet.Packet.inject_at;
          c.flow_of.(k) <- f;
          c.first.(k) <- !hop;
          Array.iter
            (fun ch ->
              c.hop_channel.(!hop) <- ch;
              c.hop_packet.(!hop) <- k;
              incr hop)
            route;
          c.last.(k) <- !hop - 1;
          incr p)
        entries;
      c.flow_end.(f) <- !p)
    sources;
  c

(* FIFO storage starts at [fifo_slots] flits, or fewer when the buffer
   or the whole run holds fewer, and doubles on demand.  It is never
   sized by [buffer_depth] alone: the depth is only bounded from below,
   and a FIFO can never hold more flits than the run has. *)
let fifo_slots = 16

let run ?(config = default_config) ?on_event net packets =
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
  let r = compile net packets in
  let tracing = Option.is_some on_event in
  let emit = Option.value on_event ~default:ignore in
  let depth = config.buffer_depth and latency = config.router_latency in
  let n_channels = Array.length r.channels in
  let n_packets = Array.length r.id in
  let n_flows = Array.length r.flows in
  (* Channel state: the packet holding the channel (a dense packet, -1
     when free; ownership compares packet ids), the last cycle a flit
     entered it, and the flits it accepted in total. *)
  let owner = Array.make n_channels (-1) in
  let entered_at = Array.make n_channels (-1) in
  let arrivals = Array.make n_channels 0 in
  (* Channel FIFOs: ring buffers of (hop, flit index, ready cycle)
     triples; a flit may leave once the cycle reaches [ready]. *)
  let storage = max 0 (min fifo_slots (min depth total_flits)) in
  let fifo = Array.init n_channels (fun _ -> Array.make (3 * storage) 0) in
  let fifo_head = Array.make n_channels 0 in
  let fifo_len = Array.make n_channels 0 in
  let grow c =
    let q = fifo.(c) in
    let slots = Array.length q / 3 in
    let q' = Array.make (3 * min (max 4 (2 * slots)) (min depth total_flits)) 0 in
    let h = fifo_head.(c) in
    Array.blit q (3 * h) q' 0 (3 * (slots - h));
    Array.blit q 0 q' (3 * (slots - h)) (3 * h);
    fifo.(c) <- q';
    fifo_head.(c) <- 0;
    q'
  in
  let push c hop flit ready =
    let len = fifo_len.(c) in
    let q = if 3 * len < Array.length fifo.(c) then fifo.(c) else grow c in
    let slots = Array.length q / 3 in
    let i = fifo_head.(c) + len in
    let i = 3 * if i >= slots then i - slots else i in
    q.(i) <- hop;
    q.(i + 1) <- flit;
    q.(i + 2) <- ready;
    fifo_len.(c) <- len + 1
  in
  let pop c =
    let h = fifo_head.(c) + 1 in
    fifo_head.(c) <- (if 3 * h = Array.length fifo.(c) then 0 else h);
    fifo_len.(c) <- fifo_len.(c) - 1
  in
  (* Sources: the flow's front packet and the flits of it already
     injected. *)
  let next = Array.init n_flows (fun f -> if f = 0 then 0 else r.flow_end.(f - 1)) in
  let sent = Array.make n_flows 0 in
  (* Accounting. *)
  let flits_moved = ref 0 and injected = ref 0 and ejected = ref 0 in
  let in_network = ref 0 and moved = ref false in
  let delivered = ref 0 and flits_delivered = ref 0 in
  let latencies = Array.make n_packets 0 in
  let flow_delivered = Array.make n_flows 0 in
  let flow_latency = Array.make n_flows 0 in
  let flow_max = Array.make n_flows 0 in
  let deliver p cycle =
    let latency = cycle - r.inject_at.(p) and f = r.flow_of.(p) in
    latencies.(!delivered) <- latency;
    incr delivered;
    flits_delivered := !flits_delivered + r.length.(p);
    flow_delivered.(f) <- flow_delivered.(f) + 1;
    flow_latency.(f) <- flow_latency.(f) + latency;
    flow_max.(f) <- max flow_max.(f) latency
  in
  let stats cycle =
    let channel_moves = ref [] and per_flow = ref [] in
    for c = n_channels - 1 downto 0 do
      if arrivals.(c) > 0 then
        channel_moves := (r.channels.(c), arrivals.(c)) :: !channel_moves
    done;
    for f = n_flows - 1 downto 0 do
      if flow_delivered.(f) > 0 then
        per_flow :=
          {
            Stats.flow = r.flows.(f);
            delivered = flow_delivered.(f);
            total_latency = flow_latency.(f);
            max_latency = flow_max.(f);
          }
          :: !per_flow
    done;
    {
      Stats.cycles = cycle;
      delivered = !delivered;
      flits_moved = !flits_moved;
      flits_delivered = !flits_delivered;
      latencies = Array.sub latencies 0 !delivered;
      per_flow = !per_flow;
      channel_moves = !channel_moves;
    }
  in
  (* A flit may enter channel [c] when its packet owns [c], or when [c]
     is free and the flit is a head; one flit enters a channel per
     cycle, and only while its FIFO has room. *)
  let may_enter cycle p flit c =
    let o = owner.(c) in
    (if o < 0 then flit = 0 else o = p || r.id.(o) = r.id.(p))
    && entered_at.(c) <> cycle
    && fifo_len.(c) < depth
  in
  let enter cycle p hop flit c =
    let was_free = owner.(c) < 0 in
    owner.(c) <- p;
    if tracing && was_free then
      emit (Trace.Acquire { cycle; packet = r.id.(p); channel = r.channels.(c) });
    entered_at.(c) <- cycle;
    arrivals.(c) <- arrivals.(c) + 1;
    push c hop flit (cycle + latency);
    if tracing then
      emit
        (Trace.Hop { cycle; packet = r.id.(p); flit; channel = r.channels.(c) });
    incr flits_moved;
    moved := true
  in
  let release cycle p c =
    owner.(c) <- -1;
    if tracing then
      emit (Trace.Release { cycle; packet = r.id.(p); channel = r.channels.(c) })
  in
  (* Forwarding and ejection out of the non-empty channel [c]. *)
  let forward cycle c =
    let q = fifo.(c) and i = 3 * fifo_head.(c) in
    if q.(i + 2) <= cycle then begin
      let hop = q.(i) and flit = q.(i + 1) in
      let p = r.hop_packet.(hop) in
      let tail = flit = r.length.(p) - 1 in
      if hop = r.last.(p) then begin
        (* Ejection into the destination NI: always drains. *)
        pop c;
        incr flits_moved;
        incr ejected;
        decr in_network;
        moved := true;
        if tail then begin
          release cycle p c;
          deliver p cycle;
          if tracing then emit (Trace.Deliver { cycle; packet = r.id.(p) })
        end
      end
      else begin
        let c' = r.hop_channel.(hop + 1) in
        if may_enter cycle p flit c' then begin
          pop c;
          enter cycle p (hop + 1) flit c';
          if tail then release cycle p c
        end
      end
    end
  in
  (* Whether flow [f] has a front packet allowed to inject at [cycle]. *)
  let ready cycle f = next.(f) < r.flow_end.(f) && r.inject_at.(next.(f)) <= cycle in
  (* Injection of the next flit of flow [f]'s front packet [p]. *)
  let inject cycle f p =
    let hop = r.first.(p) and flit = sent.(f) in
    let c = r.hop_channel.(hop) in
    if may_enter cycle p flit c then begin
      if tracing && flit = 0 then emit (Trace.Inject { cycle; packet = r.id.(p) });
      enter cycle p hop flit c;
      incr injected;
      incr in_network;
      if flit + 1 = r.length.(p) then begin
        next.(f) <- p + 1;
        sent.(f) <- 0
      end
      else sent.(f) <- flit + 1
    end
  in
  (* One cycle: forwarding in service order (fixed priority, or
     rotated by one position per cycle for round-robin fairness), then
     one injected flit per flow in flow order.  These loops visit
     every channel and flow each cycle, so the empty-FIFO and
     readiness tests stay inline rather than behind a call. *)
  let step cycle =
    moved := false;
    if config.rotate_priority && n_channels > 0 then begin
      let k = cycle mod n_channels in
      for c = k to n_channels - 1 do
        if fifo_len.(c) > 0 then forward cycle c
      done;
      for c = 0 to k - 1 do
        if fifo_len.(c) > 0 then forward cycle c
      done
    end
    else
      for c = 0 to n_channels - 1 do
        if fifo_len.(c) > 0 then forward cycle c
      done;
    for f = 0 to n_flows - 1 do
      let p = next.(f) in
      if p < r.flow_end.(f) && r.inject_at.(p) <= cycle then inject cycle f p
    done
  in
  let eligible_source cycle =
    let rec go f = f < n_flows && (ready cycle f || go (f + 1)) in
    go 0
  in
  (* Waits-for edges at stall time, for the deadlock certificate: every
     channel's front flit in channel order, then every eligible source
     in flow order. *)
  let waits_for cycle =
    let edges = ref [] and blocked = ref [] in
    let consider_waiter p c =
      let pid = r.id.(p) in
      blocked := pid :: !blocked;
      let o = owner.(c) in
      if o >= 0 && r.id.(o) <> pid then
        edges := { Deadlock_detect.waiter = pid; holder = r.id.(o) } :: !edges
    in
    for c = 0 to n_channels - 1 do
      if fifo_len.(c) > 0 then begin
        let hop = fifo.(c).(3 * fifo_head.(c)) in
        let p = r.hop_packet.(hop) in
        if hop < r.last.(p) then consider_waiter p r.hop_channel.(hop + 1)
      end
    done;
    for f = 0 to n_flows - 1 do
      if ready cycle f then consider_waiter next.(f) r.hop_channel.(r.first.(next.(f)))
    done;
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
      !injected;
    Noc_obs.Metrics.add
      (Noc_obs.Metrics.counter "noc_sim_flits_delivered_total")
      !ejected;
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
    Noc_obs.Trace.add_attr run_span "delivered" (Noc_obs.Trace.Int !delivered);
    outcome
  in
  (* Deep pipelines legitimately idle for [router_latency] cycles; the
     watchdog must not mistake that for a deadlock. *)
  let threshold = max config.stall_threshold (4 * latency) in
  let rec loop cycle stall =
    if !delivered = n_packets then conclude (Completed (stats cycle))
    else if cycle >= config.max_cycles then conclude (Timed_out (stats cycle))
    else begin
      if cycle mod span_cycle_batch = 0 then rotate_batch cycle;
      step cycle;
      (* A cycle without movement counts only while the network is
         alive: flits in flight, or a source allowed to inject. *)
      let stall =
        if !moved then 0
        else if !in_network > 0 || eligible_source cycle then stall + 1
        else 0
      in
      if stall >= threshold then begin
        let edges, blocked = waits_for cycle in
        conclude
          (Deadlocked
             {
               cycle;
               in_network_flits = !in_network;
               blocked_packets = blocked;
               waits_for_cycle = Deadlock_detect.find_cycle edges;
               stats = stats cycle;
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
