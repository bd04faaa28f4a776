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
   forwarding reads its next channel at [hop + 1].  Routes sit in the
   hop arrays in input order; only the packet arrays are sorted. *)
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

let swap_in (a : int array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

(* Injection order within a flow: by (inject_at, id), ties in reverse
   input order.  Routes are laid out in input order (see [compile]), so
   a later packet has a larger [first]. *)
let injects_before c a b =
  let ta = c.inject_at.(a) and tb = c.inject_at.(b) in
  ta < tb
  || ta = tb
     &&
     let ia = c.id.(a) and ib = c.id.(b) in
     ia < ib || (ia = ib && c.first.(a) > c.first.(b))

let swap_packets c a b =
  swap_in c.id a b;
  swap_in c.length a b;
  swap_in c.inject_at a b;
  swap_in c.first a b;
  swap_in c.last a b

(* In-place heap sort of the packets [lo] to [lo + size - 1] into
   injection order. *)
let rec sift c lo root size =
  let child = (2 * root) + 1 in
  if child < size then begin
    let child =
      if child + 1 < size && injects_before c (lo + child) (lo + child + 1) then
        child + 1
      else child
    in
    if injects_before c (lo + root) (lo + child) then begin
      swap_packets c (lo + root) (lo + child);
      sift c lo child size
    end
  end

let sort_packets c lo size =
  for root = (size / 2) - 1 downto 0 do
    sift c lo root size
  done;
  for last = size - 1 downto 1 do
    swap_packets c lo (lo + last);
    sift c lo 0 last
  done

(* Index of [x] in the sorted, duplicate-free [a.(lo)] to [a.(hi - 1)],
   which holds it. *)
let rec search (a : int array) (x : int) lo hi =
  let mid = (lo + hi) / 2 in
  if a.(mid) < x then search a x (mid + 1) hi
  else if a.(mid) > x then search a x lo mid
  else mid

let compile net packets =
  let topo = Network.topology net in
  (* Links are dense, and each link's VCs are contiguous in
     [Channel.compare] order: channel (l, v) is dense [base.(l) + v]. *)
  let n_links = Topology.n_links topo in
  let base = Array.make (n_links + 1) 0 in
  for l = 0 to n_links - 1 do
    base.(l + 1) <- base.(l) + Topology.vc_count topo (Ids.Link.of_int l)
  done;
  let n_channels = base.(n_links) in
  let channels = Array.make n_channels (Channel.make (Ids.Link.of_int 0) 0) in
  for l = 0 to n_links - 1 do
    for v = 0 to base.(l + 1) - base.(l) - 1 do
      channels.(base.(l) + v) <- Channel.make (Ids.Link.of_int l) v
    done
  done;
  let index (ch : Channel.t) =
    let l = Ids.Link.to_int ch.Channel.link and v = ch.Channel.vc in
    if l < n_links && v >= 0 && v < base.(l + 1) - base.(l) then base.(l) + v
    else
      invalid_arg
        (Format.asprintf "Engine.run: packet uses unknown channel %a" Channel.pp ch)
  in
  (* First pass, in input order: index every route, raising on the
     first unknown channel, and note the first packet whose route
     enters a channel twice.  A flit's hop would be ambiguous on such a
     route; valid routes never have one ([Route.check_detailed]).  The
     revisit is reported only once every route has been indexed.  Also
     count the hops and the runs of consecutive packets of one flow. *)
  let seen = Array.make n_channels (-1) in
  let rec scan k hops runs prev revisit = function
    | [] -> (k, hops, runs, revisit)
    | (p : Packet.t) :: rest ->
        let route = p.Packet.route in
        if Array.length route = 0 then
          invalid_arg (Printf.sprintf "Engine.run: packet %d has an empty route" p.Packet.id);
        let revisit = ref revisit in
        for i = 0 to Array.length route - 1 do
          let c = index route.(i) in
          if seen.(c) = k && Option.is_none !revisit then revisit := Some (p, c);
          seen.(c) <- k
        done;
        let flow = Ids.Flow.to_int p.Packet.flow in
        scan (k + 1)
          (hops + Array.length route)
          (if flow = prev then runs else runs + 1)
          flow !revisit rest
  in
  let n_packets, n_hops, n_runs, revisit = scan 0 0 0 (-1) None packets in
  Option.iter
    (fun ((p : Packet.t), c) ->
      invalid_arg
        (Format.asprintf "Engine.run: packet %d revisits channel %a" p.Packet.id
           Channel.pp channels.(c)))
    revisit;
  (* Dense flows in id order: sort the flow of each run and drop
     repeats.  Flow ids are non-negative, so -1 starts the first run. *)
  let ids = Array.make n_runs 0 in
  let rec fill_runs r prev = function
    | [] -> ()
    | (p : Packet.t) :: rest ->
        let flow = Ids.Flow.to_int p.Packet.flow in
        if flow = prev then fill_runs r prev rest
        else begin
          ids.(r) <- flow;
          fill_runs (r + 1) flow rest
        end
  in
  fill_runs 0 (-1) packets;
  Array.sort Int.compare ids;
  let n_flows = ref 0 in
  for r = 0 to n_runs - 1 do
    if !n_flows = 0 || ids.(!n_flows - 1) <> ids.(r) then begin
      ids.(!n_flows) <- ids.(r);
      incr n_flows
    end
  done;
  let n_flows = !n_flows in
  let dense (p : Packet.t) = search ids (Ids.Flow.to_int p.Packet.flow) 0 n_flows in
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
      flows = Array.init n_flows (fun f -> Ids.Flow.of_int ids.(f));
      flow_end = Array.make n_flows 0;
    }
  in
  (* Group by flow in one counting pass: count, then place each packet
     in its flow's block, filled from the block's end, and its route at
     the next free hops.  [fill.(f)] ends at the start of flow [f]'s
     block. *)
  List.iter (fun p -> let f = dense p in c.flow_end.(f) <- c.flow_end.(f) + 1) packets;
  for f = 1 to n_flows - 1 do
    c.flow_end.(f) <- c.flow_end.(f) + c.flow_end.(f - 1)
  done;
  let fill = Array.copy c.flow_end in
  let hop = ref 0 in
  List.iter
    (fun (p : Packet.t) ->
      let f = dense p in
      let k = fill.(f) - 1 in
      fill.(f) <- k;
      c.id.(k) <- p.Packet.id;
      c.length.(k) <- p.Packet.length;
      c.inject_at.(k) <- p.Packet.inject_at;
      c.flow_of.(k) <- f;
      c.first.(k) <- !hop;
      let route = p.Packet.route in
      for i = 0 to Array.length route - 1 do
        c.hop_channel.(!hop) <- index route.(i);
        incr hop
      done;
      c.last.(k) <- !hop - 1)
    packets;
  for f = 0 to n_flows - 1 do
    sort_packets c fill.(f) (c.flow_end.(f) - fill.(f))
  done;
  for k = 0 to n_packets - 1 do
    for h = c.first.(k) to c.last.(k) do
      c.hop_packet.(h) <- k
    done
  done;
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
