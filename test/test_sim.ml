open Noc_model
open Noc_sim

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let sw = Fixtures.sw
let core = Fixtures.core
let ch = Fixtures.ch

(* ------------------------------------------------------------------ *)
(* Packets                                                             *)
(* ------------------------------------------------------------------ *)

let test_packet_make_checks () =
  let route = [| ch 0 |] in
  Alcotest.check_raises "length" (Invalid_argument "Packet.make: length < 1")
    (fun () ->
      ignore (Packet.make ~id:0 ~flow:(Fixtures.fl 0) ~route ~length:0 ~inject_at:0));
  Alcotest.check_raises "route" (Invalid_argument "Packet.make: empty route")
    (fun () ->
      ignore (Packet.make ~id:0 ~flow:(Fixtures.fl 0) ~route:[||] ~length:1 ~inject_at:0));
  Alcotest.check_raises "time"
    (Invalid_argument "Packet.make: negative injection cycle") (fun () ->
      ignore (Packet.make ~id:0 ~flow:(Fixtures.fl 0) ~route ~length:1 ~inject_at:(-1)))

let test_packet_flits () =
  let p = Packet.make ~id:1 ~flow:(Fixtures.fl 0) ~route:[| ch 0 |] ~length:3 ~inject_at:0 in
  let flits = Packet.flits p in
  check int_c "three flits" 3 (List.length flits);
  (match flits with
  | head :: _ -> check bool_c "head" true (Packet.is_head head)
  | [] -> Alcotest.fail "no flits");
  check bool_c "tail" true (Packet.is_tail (List.nth flits 2));
  check bool_c "middle is neither" false
    (Packet.is_head (List.nth flits 1) || Packet.is_tail (List.nth flits 1))

let test_single_flit_packet_is_head_and_tail () =
  let p = Packet.make ~id:1 ~flow:(Fixtures.fl 0) ~route:[| ch 0 |] ~length:1 ~inject_at:0 in
  match Packet.flits p with
  | [ f ] -> check bool_c "both" true (Packet.is_head f && Packet.is_tail f)
  | _ -> Alcotest.fail "expected one flit"

(* ------------------------------------------------------------------ *)
(* Traffic generation                                                  *)
(* ------------------------------------------------------------------ *)

let test_burst_generation () =
  let ring = Fixtures.paper_ring () in
  let packets = Traffic_gen.burst ring.Fixtures.net ~packet_length:4 ~packets_per_flow:3 in
  check int_c "4 flows x 3" 12 (List.length packets);
  check int_c "flits" 48 (Traffic_gen.total_flits packets);
  check bool_c "all at cycle 0" true
    (List.for_all (fun (p : Packet.t) -> p.Packet.inject_at = 0) packets)

let test_periodic_generation () =
  let ring = Fixtures.paper_ring () in
  let packets =
    Traffic_gen.periodic ring.Fixtures.net ~packet_length:2 ~packets_per_flow:2
      ~interval:10
  in
  check int_c "8 packets" 8 (List.length packets);
  let flow0 =
    List.filter (fun (p : Packet.t) -> Ids.Flow.to_int p.Packet.flow = 0) packets
  in
  check
    Alcotest.(list int)
    "flow 0 staggered" [ 0; 10 ]
    (List.sort compare (List.map (fun (p : Packet.t) -> p.Packet.inject_at) flow0))

let test_periodic_bad_interval () =
  let ring = Fixtures.paper_ring () in
  Alcotest.check_raises "interval" (Invalid_argument "Traffic_gen.periodic: interval < 1")
    (fun () ->
      ignore
        (Traffic_gen.periodic ring.Fixtures.net ~packet_length:1 ~packets_per_flow:1
           ~interval:0))

let test_generation_skips_local_flows () =
  (* A flow between cores on the same switch has an empty route and
     must not produce packets. *)
  let topo = Topology.create ~n_switches:2 in
  let l = Topology.add_link topo ~src:(sw 0) ~dst:(sw 1) in
  let traffic = Traffic.create ~n_cores:3 in
  let f_local = Traffic.add_flow traffic ~src:(core 0) ~dst:(core 1) ~bandwidth:1. in
  let f_net = Traffic.add_flow traffic ~src:(core 0) ~dst:(core 2) ~bandwidth:1. in
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c ->
        if Ids.Core.to_int c = 2 then sw 1 else sw 0)
  in
  Network.set_route net f_local [];
  Network.set_route net f_net [ Channel.make l 0 ];
  let packets = Traffic_gen.burst net ~packet_length:2 ~packets_per_flow:1 in
  check int_c "only the network flow" 1 (List.length packets);
  check bool_c "right flow" true
    (match packets with
    | [ p ] -> Ids.Flow.equal p.Packet.flow f_net
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Deadlock detection                                                  *)
(* ------------------------------------------------------------------ *)

let test_waits_for_cycle () =
  let edges =
    [
      { Deadlock_detect.waiter = 10; holder = 20 };
      { Deadlock_detect.waiter = 20; holder = 30 };
      { Deadlock_detect.waiter = 30; holder = 10 };
    ]
  in
  check bool_c "deadlocked" true (Deadlock_detect.is_deadlocked edges);
  match Deadlock_detect.find_cycle edges with
  | Some ids ->
      check
        Alcotest.(list int)
        "cycle members" [ 10; 20; 30 ]
        (List.sort compare ids)
  | None -> Alcotest.fail "cycle expected"

let test_waits_for_chain_no_cycle () =
  let edges =
    [
      { Deadlock_detect.waiter = 1; holder = 2 };
      { Deadlock_detect.waiter = 2; holder = 3 };
    ]
  in
  check bool_c "chain is not deadlock" false (Deadlock_detect.is_deadlocked edges);
  check bool_c "empty relation fine" false (Deadlock_detect.is_deadlocked [])

(* ------------------------------------------------------------------ *)
(* Engine: simple deliveries                                           *)
(* ------------------------------------------------------------------ *)

let one_link_net () =
  let topo = Topology.create ~n_switches:2 in
  let l = Topology.add_link topo ~src:(sw 0) ~dst:(sw 1) in
  let traffic = Traffic.create ~n_cores:2 in
  let f = Traffic.add_flow traffic ~src:(core 0) ~dst:(core 1) ~bandwidth:1. in
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c -> sw (Ids.Core.to_int c))
  in
  Network.set_route net f [ Channel.make l 0 ];
  (net, f, l)

let test_engine_single_packet () =
  let net, f, _ = one_link_net () in
  let p = Packet.make ~id:0 ~flow:f ~route:(Array.of_list (Network.route net f)) ~length:4 ~inject_at:0 in
  match Engine.run net [ p ] with
  | Engine.Completed s ->
      check int_c "delivered" 1 s.Stats.delivered;
      (* 4 flits, 1/cycle injection + 1 cycle in the buffer each:
         latency is small and positive. *)
      check bool_c "sane latency" true (Stats.max_latency s >= 4);
      check int_c "flit moves: 4 in + 4 out" 8 s.Stats.flits_moved
  | Engine.Deadlocked _ | Engine.Timed_out _ -> Alcotest.fail "expected completion"

let test_engine_respects_inject_at () =
  let net, f, _ = one_link_net () in
  let p = Packet.make ~id:0 ~flow:f ~route:(Array.of_list (Network.route net f)) ~length:1 ~inject_at:50 in
  match Engine.run net [ p ] with
  | Engine.Completed s ->
      check bool_c "waits for injection time" true (s.Stats.cycles >= 50)
  | Engine.Deadlocked _ | Engine.Timed_out _ -> Alcotest.fail "expected completion"

let test_engine_wormhole_blocking () =
  (* Two packets on the same single-channel route: strictly serialized
     because the channel is owned until the tail passes. *)
  let net, f, _ = one_link_net () in
  let route = Array.of_list (Network.route net f) in
  let p1 = Packet.make ~id:0 ~flow:f ~route ~length:6 ~inject_at:0 in
  let p2 = Packet.make ~id:1 ~flow:f ~route ~length:6 ~inject_at:0 in
  match Engine.run net [ p1; p2 ] with
  | Engine.Completed s ->
      check int_c "both delivered" 2 s.Stats.delivered;
      check bool_c "second waited" true (Stats.max_latency s > 6)
  | Engine.Deadlocked _ | Engine.Timed_out _ -> Alcotest.fail "expected completion"

let test_engine_unknown_channel_rejected () =
  let net, f, _ = one_link_net () in
  let bogus = Channel.make (Fixtures.lk 0) 3 in
  let p = Packet.make ~id:0 ~flow:f ~route:[| bogus |] ~length:1 ~inject_at:0 in
  Alcotest.check_raises "unknown channel"
    (Invalid_argument "Engine.run: packet uses unknown channel L0'3") (fun () ->
      ignore (Engine.run net [ p ]))

(* A route that enters a channel twice leaves a flit's position on it
   ambiguous; it used to be misreported as a starvation deadlock. *)
let test_engine_revisiting_route_rejected () =
  let topo = Topology.create ~n_switches:2 in
  let l0 = Topology.add_link topo ~src:(sw 0) ~dst:(sw 1) in
  let l1 = Topology.add_link topo ~src:(sw 1) ~dst:(sw 0) in
  let traffic = Traffic.create ~n_cores:2 in
  let f = Traffic.add_flow traffic ~src:(core 0) ~dst:(core 1) ~bandwidth:1. in
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c -> sw (Ids.Core.to_int c))
  in
  let route = [| Channel.make l0 0; Channel.make l1 0; Channel.make l0 0 |] in
  let p = Packet.make ~id:0 ~flow:f ~route ~length:2 ~inject_at:0 in
  Alcotest.check_raises "revisit"
    (Invalid_argument "Engine.run: packet 0 revisits channel L0") (fun () ->
      ignore (Engine.run net [ p ]))

(* The compile's input errors, in the order it reports them.  Packets
   are built as records, so the channel records reach the engine as
   given (a negative VC included). *)
let two_link_ring () =
  let topo = Topology.create ~n_switches:2 in
  let l0 = Topology.add_link topo ~src:(sw 0) ~dst:(sw 1) in
  let l1 = Topology.add_link topo ~src:(sw 1) ~dst:(sw 0) in
  let traffic = Traffic.create ~n_cores:2 in
  ignore (Traffic.add_flow traffic ~src:(core 0) ~dst:(core 1) ~bandwidth:1.);
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c -> sw (Ids.Core.to_int c))
  in
  (net, Channel.make l0 0, Channel.make l1 0)

let record_packet ~id ~flow route =
  { Packet.id; flow = Fixtures.fl flow; route; length = 2; inject_at = 0 }

let test_engine_unknown_channel_before_revisit () =
  let net, c0, c1 = two_link_ring () in
  let revisits = record_packet ~id:0 ~flow:0 [| c0; c1; c0 |] in
  let unknown = record_packet ~id:1 ~flow:0 [| c0; ch ~vc:3 1 |] in
  Alcotest.check_raises "unknown channel wins"
    (Invalid_argument "Engine.run: packet uses unknown channel L1'3") (fun () ->
      ignore (Engine.run net [ revisits; unknown ]))

let test_engine_first_revisit_in_input_order () =
  let net, c0, c1 = two_link_ring () in
  (* The first packet in input order has the higher id and flow, so
     neither an id nor a flow order would name it first. *)
  let first = record_packet ~id:7 ~flow:1 [| c0; c1; c0 |] in
  let second = record_packet ~id:2 ~flow:0 [| c1; c0; c1 |] in
  Alcotest.check_raises "first revisiting packet"
    (Invalid_argument "Engine.run: packet 7 revisits channel L0") (fun () ->
      ignore (Engine.run net [ first; second ]))

let test_engine_negative_vc_is_unknown () =
  let net, c0, _ = two_link_ring () in
  let negative = { Channel.link = Fixtures.lk 0; vc = -1 } in
  Alcotest.check_raises "VC -1"
    (Invalid_argument "Engine.run: packet uses unknown channel L0'-1") (fun () ->
      ignore (Engine.run net [ record_packet ~id:0 ~flow:0 [| c0; negative |] ]));
  Alcotest.check_raises "undeclared link"
    (Invalid_argument "Engine.run: packet uses unknown channel L2") (fun () ->
      ignore (Engine.run net [ record_packet ~id:0 ~flow:0 [| ch 2 |] ]))

(* [Packet.make] refuses an empty route, but a record can carry one;
   its packet would have no first hop to inject into. *)
let test_engine_empty_route_rejected () =
  let net, c0, _ = two_link_ring () in
  let empty = record_packet ~id:3 ~flow:0 [||] in
  Alcotest.check_raises "empty route"
    (Invalid_argument "Engine.run: packet 3 has an empty route") (fun () ->
      ignore (Engine.run net [ record_packet ~id:0 ~flow:0 [| c0 |]; empty ]))

let test_engine_empty_workload () =
  let net, _, _ = one_link_net () in
  match Engine.run net [] with
  | Engine.Completed s ->
      check int_c "zero cycles" 0 s.Stats.cycles;
      check int_c "nothing" 0 s.Stats.delivered
  | Engine.Deadlocked _ | Engine.Timed_out _ -> Alcotest.fail "vacuous completion"

(* ------------------------------------------------------------------ *)
(* Engine: deadlock behaviour (the heart of the reproduction)          *)
(* ------------------------------------------------------------------ *)

let test_ring_deadlocks_under_burst () =
  let ring = Fixtures.paper_ring () in
  let packets = Traffic_gen.burst ring.Fixtures.net ~packet_length:8 ~packets_per_flow:2 in
  match Engine.run ring.Fixtures.net packets with
  | Engine.Deadlocked d ->
      check bool_c "flits stuck" true (d.Engine.in_network_flits > 0);
      check bool_c "certificate found" true (d.Engine.waits_for_cycle <> None);
      check bool_c "blocked packets listed" true (d.Engine.blocked_packets <> [])
  | Engine.Completed _ -> Alcotest.fail "cyclic ring should deadlock under burst"
  | Engine.Timed_out _ -> Alcotest.fail "should stall, not time out"

let test_ring_completes_after_removal () =
  let ring = Fixtures.paper_ring () in
  ignore (Noc_deadlock.Removal.run ring.Fixtures.net);
  let packets = Traffic_gen.burst ring.Fixtures.net ~packet_length:8 ~packets_per_flow:2 in
  match Engine.run ring.Fixtures.net packets with
  | Engine.Completed s -> check int_c "all 8 packets" 8 s.Stats.delivered
  | Engine.Deadlocked _ -> Alcotest.fail "acyclic CDG must not deadlock"
  | Engine.Timed_out _ -> Alcotest.fail "should finish quickly"

let test_ring_completes_after_resource_ordering () =
  let ring = Fixtures.paper_ring () in
  ignore (Noc_deadlock.Resource_ordering.apply ring.Fixtures.net);
  let packets = Traffic_gen.burst ring.Fixtures.net ~packet_length:8 ~packets_per_flow:2 in
  match Engine.run ring.Fixtures.net packets with
  | Engine.Completed s -> check int_c "all delivered" 8 s.Stats.delivered
  | Engine.Deadlocked _ | Engine.Timed_out _ ->
      Alcotest.fail "ordering-fixed design must complete"

let test_xy_mesh_never_deadlocks () =
  let net = Fixtures.xy_mesh_2x2 () in
  let packets = Traffic_gen.burst net ~packet_length:12 ~packets_per_flow:2 in
  match Engine.run net packets with
  | Engine.Completed s ->
      check int_c "all delivered" (List.length packets) s.Stats.delivered
  | Engine.Deadlocked _ -> Alcotest.fail "XY routing cannot deadlock"
  | Engine.Timed_out _ -> Alcotest.fail "small mesh should finish"

let test_short_packets_escape_ring () =
  (* Single-flit packets never hold two channels at once, so even the
     cyclic ring drains: deadlock needs multi-channel occupancy. *)
  let ring = Fixtures.paper_ring () in
  let packets = Traffic_gen.burst ring.Fixtures.net ~packet_length:1 ~packets_per_flow:2 in
  match Engine.run ring.Fixtures.net packets with
  | Engine.Completed s -> check int_c "all delivered" 8 s.Stats.delivered
  | Engine.Deadlocked _ -> Alcotest.fail "single-flit packets cannot deadlock here"
  | Engine.Timed_out _ -> Alcotest.fail "should finish"

let test_channel_utilization () =
  let net, f, l = one_link_net () in
  let p = Packet.make ~id:0 ~flow:f ~route:(Array.of_list (Network.route net f)) ~length:4 ~inject_at:0 in
  match Engine.run net [ p ] with
  | Engine.Completed s ->
      let c = Channel.make l 0 in
      (match Stats.busiest_channel s with
      | Some (busiest, n) ->
          check bool_c "the single channel is busiest" true (Channel.equal busiest c);
          check int_c "4 arrivals" 4 n
      | None -> Alcotest.fail "expected channel stats");
      check bool_c "utilization in (0, 1]" true
        (Stats.utilization s c > 0. && Stats.utilization s c <= 1.);
      check (Alcotest.float 1e-9) "unknown channel idle" 0.
        (Stats.utilization s (Channel.make l 7))
  | Engine.Deadlocked _ | Engine.Timed_out _ -> Alcotest.fail "expected completion"

let test_rotate_priority_still_correct () =
  (* Round-robin arbitration changes the schedule but not safety or
     delivery. *)
  let config = { Engine.default_config with Engine.rotate_priority = true } in
  let net = Fixtures.xy_mesh_2x2 () in
  let packets = Traffic_gen.burst net ~packet_length:8 ~packets_per_flow:2 in
  (match Engine.run ~config net packets with
  | Engine.Completed s -> check int_c "all delivered" (List.length packets) s.Stats.delivered
  | Engine.Deadlocked _ | Engine.Timed_out _ -> Alcotest.fail "mesh must complete");
  (* And the cyclic ring still deadlocks — fairness does not remove
     structural deadlock. *)
  let ring = Fixtures.paper_ring () in
  let packets = Traffic_gen.burst ring.Fixtures.net ~packet_length:8 ~packets_per_flow:2 in
  match Engine.run ~config ring.Fixtures.net packets with
  | Engine.Deadlocked _ -> ()
  | Engine.Completed _ | Engine.Timed_out _ ->
      Alcotest.fail "rotation cannot fix a structural deadlock"

let test_router_latency_slows_delivery () =
  let run latency =
    let net, f, _ = one_link_net () in
    let p =
      Packet.make ~id:0 ~flow:f ~route:(Array.of_list (Network.route net f)) ~length:4 ~inject_at:0
    in
    let config = { Engine.default_config with Engine.router_latency = latency } in
    match Engine.run ~config net [ p ] with
    | Engine.Completed s -> s.Stats.cycles
    | Engine.Deadlocked _ | Engine.Timed_out _ -> -1
  in
  let fast = run 1 and slow = run 4 in
  check bool_c "both complete" true (fast > 0 && slow > 0);
  check bool_c "deeper pipeline is slower" true (slow > fast)

let test_router_latency_no_false_deadlock () =
  (* A latency deeper than the stall threshold must not be mistaken for
     a deadlock (the watchdog auto-scales). *)
  let net, f, _ = one_link_net () in
  let p =
    Packet.make ~id:0 ~flow:f ~route:(Array.of_list (Network.route net f)) ~length:2 ~inject_at:0
  in
  let config =
    { Engine.default_config with Engine.router_latency = 100; stall_threshold = 8 }
  in
  match Engine.run ~config net [ p ] with
  | Engine.Completed _ -> ()
  | Engine.Deadlocked _ -> Alcotest.fail "pipeline delay misread as deadlock"
  | Engine.Timed_out _ -> Alcotest.fail "should complete"

let test_engine_timeout_path () =
  (* A workload that cannot finish within max_cycles must report
     Timed_out with partial statistics, not hang or misreport. *)
  let net, f, _ = one_link_net () in
  let packets =
    List.init 50 (fun i ->
        Packet.make ~id:i ~flow:f ~route:(Array.of_list (Network.route net f)) ~length:8
          ~inject_at:0)
  in
  let config = { Engine.default_config with Engine.max_cycles = 20 } in
  match Engine.run ~config net packets with
  | Engine.Timed_out s ->
      check int_c "clock stopped at the cap" 20 s.Stats.cycles;
      check bool_c "partial delivery counted" true (s.Stats.delivered < 50)
  | Engine.Completed _ -> Alcotest.fail "cannot finish 400 flits in 20 cycles"
  | Engine.Deadlocked _ -> Alcotest.fail "a chain cannot deadlock"

let test_outcome_printers () =
  (* pp smoke tests: every outcome constructor renders. *)
  let net, f, _ = one_link_net () in
  let p = Packet.make ~id:0 ~flow:f ~route:(Array.of_list (Network.route net f)) ~length:2 ~inject_at:0 in
  let done_ = Engine.run net [ p ] in
  check bool_c "completed renders" true
    (String.length (Format.asprintf "%a" Engine.pp_outcome done_) > 0);
  let ring = Fixtures.paper_ring () in
  let stuck =
    Engine.run ring.Fixtures.net
      (Traffic_gen.burst ring.Fixtures.net ~packet_length:8 ~packets_per_flow:1)
  in
  check bool_c "deadlock renders" true
    (String.length (Format.asprintf "%a" Engine.pp_outcome stuck) > 0);
  check bool_c "stats render" true
    (match done_ with
    | Engine.Completed s -> String.length (Format.asprintf "%a" Stats.pp s) > 0
    | Engine.Deadlocked _ | Engine.Timed_out _ -> false)

let test_deterministic_outcomes () =
  let run_once () =
    let ring = Fixtures.paper_ring () in
    let packets = Traffic_gen.burst ring.Fixtures.net ~packet_length:8 ~packets_per_flow:2 in
    match Engine.run ring.Fixtures.net packets with
    | Engine.Deadlocked d -> (d.Engine.cycle, d.Engine.in_network_flits)
    | Engine.Completed _ | Engine.Timed_out _ -> (-1, -1)
  in
  check (Alcotest.pair int_c int_c) "bit-identical reruns" (run_once ()) (run_once ())

(* ------------------------------------------------------------------ *)
(* Observability: Engine.run under a span collector                    *)
(* ------------------------------------------------------------------ *)

let counter_value name =
  List.fold_left
    (fun acc m ->
      match m with
      | Noc_obs.Metrics.Counter { name = n; value; _ } when n = name ->
          acc + value
      | _ -> acc)
    0 (Noc_obs.Metrics.snapshot ())

let test_engine_emits_spans_and_counters () =
  let collector = Noc_obs.Trace.create () in
  Noc_obs.Metrics.reset ();
  Noc_obs.Trace.install collector;
  let outcome =
    Fun.protect ~finally:Noc_obs.Trace.uninstall (fun () ->
        let net, f, _ = one_link_net () in
        let p =
          Packet.make ~id:0 ~flow:f ~route:(Array.of_list (Network.route net f)) ~length:4
            ~inject_at:0
        in
        Engine.run net [ p ])
  in
  (match outcome with
  | Engine.Completed _ -> ()
  | Engine.Deadlocked _ | Engine.Timed_out _ -> Alcotest.fail "expected completion");
  let spans = Noc_obs.Trace.completed_spans collector in
  let named n =
    List.filter (fun (s : Noc_obs.Trace.completed) -> s.Noc_obs.Trace.name = n) spans
  in
  check bool_c "one sim.run span" true (List.length (named "sim.run") = 1);
  check bool_c "cycle batch spans" true (named "sim.cycles" <> []);
  check int_c "injected counter" 4 (counter_value "noc_sim_flits_injected_total");
  check int_c "delivered counter" 4 (counter_value "noc_sim_flits_delivered_total");
  check int_c "no deadlock counted" 0 (counter_value "noc_sim_deadlocks_total")

let test_engine_counts_deadlocks () =
  let collector = Noc_obs.Trace.create () in
  Noc_obs.Metrics.reset ();
  Noc_obs.Trace.install collector;
  let outcome =
    Fun.protect ~finally:Noc_obs.Trace.uninstall (fun () ->
        let ring = Fixtures.paper_ring () in
        Engine.run ring.Fixtures.net
          (Traffic_gen.burst ring.Fixtures.net ~packet_length:8
             ~packets_per_flow:2))
  in
  (match outcome with
  | Engine.Deadlocked _ -> ()
  | Engine.Completed _ | Engine.Timed_out _ -> Alcotest.fail "expected deadlock");
  check int_c "deadlock counted" 1 (counter_value "noc_sim_deadlocks_total")

(* ------------------------------------------------------------------ *)
(* Trace invariants                                                    *)
(* ------------------------------------------------------------------ *)

let run_traced net packets =
  let emit, dump = Trace.recorder () in
  let outcome = Engine.run ~on_event:emit net packets in
  (outcome, dump ())

let route_table packets =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (p : Packet.t) ->
      Hashtbl.replace tbl p.Packet.id (Array.to_list p.Packet.route))
    packets;
  fun id -> Option.value ~default:[] (Hashtbl.find_opt tbl id)

let test_trace_mesh_invariants () =
  let net = Fixtures.xy_mesh_2x2 () in
  let packets = Traffic_gen.burst net ~packet_length:6 ~packets_per_flow:2 in
  let outcome, events = run_traced net packets in
  (match outcome with
  | Engine.Completed _ -> ()
  | Engine.Deadlocked _ | Engine.Timed_out _ -> Alcotest.fail "expected completion");
  check bool_c "events recorded" true (events <> []);
  (match Trace.check_exclusive_ownership events with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("ownership: " ^ e));
  (match Trace.check_balanced events with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("balance: " ^ e));
  match Trace.check_route_order (route_table packets) events with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("route order: " ^ e)

let test_trace_deadlock_unbalanced () =
  (* A deadlocked run must leave unreleased acquisitions: the checker
     is supposed to notice. *)
  let ring = Fixtures.paper_ring () in
  let packets = Traffic_gen.burst ring.Fixtures.net ~packet_length:8 ~packets_per_flow:1 in
  let outcome, events = run_traced ring.Fixtures.net packets in
  (match outcome with
  | Engine.Deadlocked _ -> ()
  | Engine.Completed _ | Engine.Timed_out _ -> Alcotest.fail "expected deadlock");
  check bool_c "ownership still exclusive" true
    (Trace.check_exclusive_ownership events = Ok ());
  check bool_c "balance violated (stuck packets)" true
    (Result.is_error (Trace.check_balanced events))

let test_trace_checkers_reject_corrupt () =
  let c = Fixtures.ch 0 in
  let double_acquire =
    [
      Trace.Acquire { cycle = 0; packet = 1; channel = c };
      Trace.Acquire { cycle = 1; packet = 2; channel = c };
    ]
  in
  check bool_c "double acquire caught" true
    (Result.is_error (Trace.check_exclusive_ownership double_acquire));
  let foreign_release =
    [
      Trace.Acquire { cycle = 0; packet = 1; channel = c };
      Trace.Release { cycle = 1; packet = 2; channel = c };
    ]
  in
  check bool_c "foreign release caught" true
    (Result.is_error (Trace.check_exclusive_ownership foreign_release));
  let unowned_release = [ Trace.Release { cycle = 0; packet = 1; channel = c } ] in
  check bool_c "unowned release caught" true
    (Result.is_error (Trace.check_exclusive_ownership unowned_release))

let test_trace_route_order_checker () =
  let c0 = Fixtures.ch 0 and c1 = Fixtures.ch 1 in
  let routes = function 1 -> [ c0; c1 ] | _ -> [] in
  let ok =
    [
      Trace.Acquire { cycle = 0; packet = 1; channel = c0 };
      Trace.Acquire { cycle = 1; packet = 1; channel = c1 };
    ]
  in
  check bool_c "in order ok" true (Trace.check_route_order routes ok = Ok ());
  let skipped = [ Trace.Acquire { cycle = 0; packet = 1; channel = c1 } ] in
  check bool_c "skip caught" true
    (Result.is_error (Trace.check_route_order routes skipped))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* After removal, *any* burst workload on the paper ring completes:
   acyclic CDG -> no deadlock, for every packet length / count. *)
let prop_removal_implies_completion =
  QCheck.Test.make ~name:"post-removal ring completes for any workload" ~count:40
    QCheck.(pair (int_range 1 12) (int_range 1 4))
    (fun (packet_length, packets_per_flow) ->
      let ring = Fixtures.paper_ring () in
      ignore (Noc_deadlock.Removal.run ring.Fixtures.net);
      let packets = Traffic_gen.burst ring.Fixtures.net ~packet_length ~packets_per_flow in
      match Engine.run ring.Fixtures.net packets with
      | Engine.Completed s -> s.Stats.delivered = List.length packets
      | Engine.Deadlocked _ | Engine.Timed_out _ -> false)

let prop_trace_invariants_hold =
  QCheck.Test.make ~name:"wormhole invariants hold on every completed run"
    ~count:40
    QCheck.(pair (int_range 1 10) (int_range 1 3))
    (fun (packet_length, packets_per_flow) ->
      let net = Fixtures.xy_mesh_2x2 () in
      let packets = Traffic_gen.burst net ~packet_length ~packets_per_flow in
      let outcome, events = run_traced net packets in
      match outcome with
      | Engine.Completed _ ->
          Trace.check_exclusive_ownership events = Ok ()
          && Trace.check_balanced events = Ok ()
          && Trace.check_route_order (route_table packets) events = Ok ()
      | Engine.Deadlocked _ | Engine.Timed_out _ -> false)

let prop_flit_conservation =
  QCheck.Test.make ~name:"completed runs move every flit exactly route+1 times"
    ~count:40
    QCheck.(pair (int_range 1 8) (int_range 1 3))
    (fun (packet_length, packets_per_flow) ->
      let net = Fixtures.xy_mesh_2x2 () in
      let packets = Traffic_gen.burst net ~packet_length ~packets_per_flow in
      let expected =
        List.fold_left
          (fun acc (p : Packet.t) ->
            acc + (p.Packet.length * (Array.length p.Packet.route + 1)))
          0 packets
      in
      match Engine.run net packets with
      | Engine.Completed s -> s.Stats.flits_moved = expected
      | Engine.Deadlocked _ | Engine.Timed_out _ -> false)

(* Across the whole benchmark registry: once [Removal.run] has made the
   CDG acyclic, no seeded workload — AXI-style bursty convoys or
   bandwidth-proportional injection — can deadlock the design. *)
let registry_names =
  List.map (fun s -> s.Noc_benchmarks.Spec.name) Noc_benchmarks.Registry.all

let synth_benchmark name =
  let spec = Option.get (Noc_benchmarks.Registry.find name) in
  let traffic = spec.Noc_benchmarks.Spec.build () in
  let n_switches = min 12 spec.Noc_benchmarks.Spec.n_cores in
  Noc_synth.Custom.synthesize_exn traffic ~n_switches

let prop_removal_registry_never_deadlocks =
  QCheck.Test.make
    ~name:"post-removal registry designs never deadlock (any workload seed)"
    ~count:30
    QCheck.(triple (oneofl registry_names) (int_range 1 1000) bool)
    (fun (name, seed, bursty) ->
      let net = synth_benchmark name in
      ignore (Noc_deadlock.Removal.run net);
      let workload =
        if bursty then
          Noc_benchmarks.Workloads.Bursty
            {
              request_length = 1;
              response_length = 8;
              duration = 256;
              exchanges = 2;
              idle = 32;
              seed;
            }
        else
          Noc_benchmarks.Workloads.Bandwidth_proportional
            { packet_length = 4; duration = 256; capacity_mbps = 1000.; seed }
      in
      let packets = Noc_benchmarks.Workloads.generate net workload in
      match Engine.run net packets with
      | Engine.Deadlocked _ -> false
      | Engine.Completed _ | Engine.Timed_out _ -> true)

(* Every deadlock the engine reports on the cyclic ring must carry a
   waits-for cycle certificate that the detector itself confirms: the
   consecutive (waiter, holder) pairs of the certificate form a cycle
   over exactly its members, and each member is a blocked packet. *)
let prop_deadlock_certificates_check_out =
  QCheck.Test.make ~name:"deadlock certificates are confirmed by find_cycle"
    ~count:30
    QCheck.(pair (int_range 2 12) (int_range 1 4))
    (fun (packet_length, packets_per_flow) ->
      let ring = Fixtures.paper_ring () in
      let packets =
        Traffic_gen.burst ring.Fixtures.net ~packet_length ~packets_per_flow
      in
      match Engine.run ring.Fixtures.net packets with
      | Engine.Completed _ | Engine.Timed_out _ -> true (* light loads drain *)
      | Engine.Deadlocked d -> (
          match d.Engine.waits_for_cycle with
          | None -> false
          | Some [] -> false
          | Some (first :: _ as members) ->
              let rec pairs = function
                | a :: (b :: _ as rest) ->
                    { Deadlock_detect.waiter = a; holder = b } :: pairs rest
                | [ last ] ->
                    [ { Deadlock_detect.waiter = last; holder = first } ]
                | [] -> []
              in
              (match Deadlock_detect.find_cycle (pairs members) with
              | Some cycle ->
                  List.sort compare cycle = List.sort compare members
              | None -> false)
              && List.for_all
                   (fun m -> List.mem m d.Engine.blocked_packets)
                   members))

(* The engine against the reference engine in [Engine_oracle], with and
   without a listener: the outcome (statistics, latencies, deadlock
   certificate) and the event list must be equal.  Each case is built
   from one seed: a deadlocking ring, an XY mesh or a small registry
   design (as synthesized or after removal), several packets per flow
   with unsorted injection times, sometimes with repeated packet ids,
   and a random engine configuration whose [max_cycles] sometimes cuts
   the run short. *)
type sim_case = {
  label : string;
  net : Network.t;
  packets : Packet.t list;
  config : Engine.config;
}

let small_registry_names =
  List.filter_map
    (fun (s : Noc_benchmarks.Spec.t) ->
      if s.Noc_benchmarks.Spec.n_cores <= 40 then Some s.Noc_benchmarks.Spec.name
      else None)
    Noc_benchmarks.Registry.all

let sim_case_of_seed seed =
  let st = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let label, net =
    match Random.State.int st 4 with
    | 0 -> ("ring", (Fixtures.paper_ring ()).Fixtures.net)
    | 1 -> ("mesh", Fixtures.xy_mesh_2x2 ())
    | k ->
        let name = pick small_registry_names in
        let n_switches = 2 + Random.State.int st 7 in
        let spec = Option.get (Noc_benchmarks.Registry.find name) in
        let net =
          Noc_synth.Custom.synthesize_exn (spec.Noc_benchmarks.Spec.build ()) ~n_switches
        in
        if k = 3 then ignore (Noc_deadlock.Removal.run net);
        (Printf.sprintf "%s@%d%s" name n_switches (if k = 3 then "+removal" else ""), net)
  in
  let repeat_ids = Random.State.int st 4 = 0 in
  let next_id = ref 0 in
  let packets =
    List.concat_map
      (fun (f : Traffic.flow) ->
        match Network.route net f.Traffic.id with
        | [] -> []
        | route ->
            List.init (1 + Random.State.int st 4) (fun _ ->
                let id = if repeat_ids then Random.State.int st 4 else !next_id in
                incr next_id;
                Packet.make ~id ~flow:f.Traffic.id ~route:(Array.of_list route)
                  ~length:(1 + Random.State.int st 8)
                  ~inject_at:(Random.State.int st 30)))
      (Traffic.flows (Network.traffic net))
  in
  let packets =
    List.map snd
      (List.sort compare (List.map (fun p -> (Random.State.bits st, p)) packets))
  in
  let config =
    {
      Engine.buffer_depth = 1 + Random.State.int st 4;
      max_cycles = (if Random.State.bool st then 1 + Random.State.int st 80 else 5_000);
      stall_threshold = pick [ 8; 16; 64 ];
      rotate_priority = Random.State.bool st;
      router_latency = Random.State.int st 4;
    }
  in
  { label; net; packets; config }

let print_sim_case case =
  let c = case.config in
  Printf.sprintf
    "%s, %d packets, depth %d, max_cycles %d, stall %d, rotate %b, latency %d"
    case.label (List.length case.packets) c.Engine.buffer_depth c.Engine.max_cycles
    c.Engine.stall_threshold c.Engine.rotate_priority c.Engine.router_latency

let prop_engine_matches_oracle =
  QCheck.Test.make ~name:"engine matches the reference engine, listener or not"
    ~count:300
    (QCheck.make
       ~print:(fun seed -> Printf.sprintf "seed %d: %s" seed (print_sim_case (sim_case_of_seed seed)))
       QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let { net; packets; config; _ } = sim_case_of_seed seed in
      let emit, events = Trace.recorder () in
      let traced = Engine.run ~config ~on_event:emit net packets in
      let oracle_emit, oracle_events = Trace.recorder () in
      let expected = Engine_oracle.run ~config ~on_event:oracle_emit net packets in
      let silent = Engine.run ~config net packets in
      traced = expected && silent = expected && events () = oracle_events ())

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_removal_implies_completion; prop_flit_conservation;
      prop_trace_invariants_hold; prop_removal_registry_never_deadlocks;
      prop_deadlock_certificates_check_out; prop_engine_matches_oracle;
    ]

(* ------------------------------------------------------------------ *)
(* Golden pin over the simulate jobs nocbench's sim-campaign submits   *)
(* ------------------------------------------------------------------ *)

(* The campaign grid at nocbench's sim points (D26_media, D36_6, D36_8
   at 8/14/20 switches x the six workload kinds x rates 0.05/0.1/0.2 x
   as-is/removal/ordering, default seeds: 270 jobs), then extra cells
   with single-flit buffers and with a cycle cap low enough that some
   cells time out.  Any change to the simulator, the workloads or the
   simulate metrics that moves one bit of one result moves a digest. *)
let golden_digest outcomes =
  Digest.to_hex
    (Digest.string (String.concat "" (List.map Noc_service.Outcome.result_hash outcomes)))

let execute_all = List.map Noc_service.Runner.execute

let golden_workloads =
  List.filter_map Noc_benchmarks.Workloads.of_kind Noc_benchmarks.Workloads.kinds

let test_golden_sim_campaign_grid () =
  let points =
    List.concat_map
      (fun benchmark ->
        List.map
          (fun n_switches -> { Noc_campaign.Campaign.benchmark; n_switches })
          [ 8; 14; 20 ])
      [ "D26_media"; "D36_6"; "D36_8" ]
  in
  let grid =
    Noc_campaign.Campaign.grid ~rates:[ 0.05; 0.1; 0.2 ] ~points
      ~workloads:golden_workloads ()
  in
  check int_c "grid size" 270 (List.length grid);
  check Alcotest.string "grid" "552146ecd12bbdf39fa7a8d0ceef6051" (golden_digest (execute_all grid))

let test_golden_sim_edge_cells () =
  let cells ?buffer_depth ?max_cycles () =
    List.concat_map
      (fun (name, n_switches) ->
        List.concat_map
          (fun workload ->
            List.map
              (fun prepare ->
                {
                  Noc_service.Job.design =
                    Noc_service.Job.Benchmark
                      {
                        name;
                        n_switches;
                        max_degree = Noc_service.Job.default_max_degree;
                      };
                  method_ =
                    Noc_service.Job.simulate ~prepare ?buffer_depth ?max_cycles workload;
                })
              Noc_campaign.Campaign.default_prepares)
          golden_workloads)
      [ ("D26_media", 8); ("D36_8", 14) ]
  in
  let depth_one = execute_all (cells ~buffer_depth:1 ())
  and capped = execute_all (cells ~max_cycles:300 ()) in
  let count metric outcomes =
    List.length
      (List.filter (fun o -> Noc_service.Outcome.metric o metric = Some 1.) outcomes)
  in
  check bool_c "some capped cells time out" true (count "timed_out" capped > 0);
  check bool_c "some single-flit cells deadlock" true (count "deadlocked" depth_one > 0);
  check Alcotest.string "single-flit buffers" "30e21f226da09e1acb08655714f5dbfb" (golden_digest depth_one);
  check Alcotest.string "cycle cap" "16a7243778c40a258bdee2d146d297ce" (golden_digest capped)

(* ------------------------------------------------------------------ *)
(* Allocation budgets                                                  *)
(* ------------------------------------------------------------------ *)

(* Words allocated by [f ()]: minor plus major, less the promoted words
   the major count already holds.  On OCaml 5.1 these counters settle
   only at a collection: the minor ones at a minor collection, and a
   block allocated straight in the major heap only at a major slice.
   Hence a full collection before each reading. *)
let allocated_words f =
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let r = f () in
  Gc.full_major ();
  let s1 = Gc.quick_stat () in
  let d field = field s1 -. field s0 in
  ( r,
    d (fun s -> s.Gc.minor_words)
    +. d (fun s -> s.Gc.major_words)
    -. d (fun s -> s.Gc.promoted_words) )

(* D36_8 at 14 switches after removal, under the default uniform
   workload: 2,947 packets.  Per packet, generating them once took 38
   words and simulating them 60 while every packet copied its route and
   the engine's compile hashed; sharing each flow's route array and an
   unboxed random draw bring generation to about 25, and the hash-free
   compile brings the run to about 13.  Each budget sits between. *)
let test_simulate_allocation_budgets () =
  let spec = Option.get (Noc_benchmarks.Registry.find "D36_8") in
  let net = Noc_synth.Custom.synthesize_exn (spec.Noc_benchmarks.Spec.build ()) ~n_switches:14 in
  ignore (Noc_deadlock.Removal.run net);
  let packets, generate_words =
    allocated_words (fun () ->
        Noc_benchmarks.Workloads.generate net Noc_benchmarks.Workloads.default_uniform)
  in
  let n = List.length packets in
  check int_c "packets" 2947 n;
  let _, engine_words = allocated_words (fun () -> Engine.run net packets) in
  let over =
    List.filter_map
      (fun (name, words, budget) ->
        let per_packet = words /. float_of_int n in
        if per_packet > budget then
          Some (Printf.sprintf "%s: %.1f words per packet, budget %g" name per_packet budget)
        else None)
      [ ("Workloads.generate", generate_words, 32.); ("Engine.run", engine_words, 30.) ]
  in
  if over <> [] then Alcotest.fail (String.concat "; " over)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "noc_sim"
    [
      ( "packet",
        [
          tc "constructor checks" test_packet_make_checks;
          tc "flit enumeration" test_packet_flits;
          tc "single-flit head=tail" test_single_flit_packet_is_head_and_tail;
        ] );
      ( "traffic_gen",
        [
          tc "burst" test_burst_generation;
          tc "periodic" test_periodic_generation;
          tc "bad interval" test_periodic_bad_interval;
          tc "skips local flows" test_generation_skips_local_flows;
        ] );
      ( "deadlock_detect",
        [
          tc "cycle found" test_waits_for_cycle;
          tc "chain is safe" test_waits_for_chain_no_cycle;
        ] );
      ( "engine_basic",
        [
          tc "single packet" test_engine_single_packet;
          tc "inject_at respected" test_engine_respects_inject_at;
          tc "wormhole serialization" test_engine_wormhole_blocking;
          tc "unknown channel rejected" test_engine_unknown_channel_rejected;
          tc "revisiting route rejected" test_engine_revisiting_route_rejected;
          tc "unknown channel before revisit" test_engine_unknown_channel_before_revisit;
          tc "first revisit in input order" test_engine_first_revisit_in_input_order;
          tc "negative VC is unknown" test_engine_negative_vc_is_unknown;
          tc "empty route rejected" test_engine_empty_route_rejected;
          tc "empty workload" test_engine_empty_workload;
        ] );
      ( "engine_deadlock",
        [
          tc "ring deadlocks under burst" test_ring_deadlocks_under_burst;
          tc "ring completes after removal" test_ring_completes_after_removal;
          tc "ring completes after ordering" test_ring_completes_after_resource_ordering;
          tc "xy mesh never deadlocks" test_xy_mesh_never_deadlocks;
          tc "single-flit packets escape" test_short_packets_escape_ring;
          tc "channel utilization" test_channel_utilization;
          tc "rotating priority" test_rotate_priority_still_correct;
          tc "router latency slows delivery" test_router_latency_slows_delivery;
          tc "deep pipeline is not a deadlock" test_router_latency_no_false_deadlock;
          tc "timeout path" test_engine_timeout_path;
          tc "outcome printers" test_outcome_printers;
          tc "deterministic" test_deterministic_outcomes;
        ] );
      ( "observability",
        [
          tc "spans and flit counters" test_engine_emits_spans_and_counters;
          tc "deadlocks counted" test_engine_counts_deadlocks;
        ] );
      ( "trace",
        [
          tc "mesh invariants" test_trace_mesh_invariants;
          tc "deadlock leaves unbalanced trace" test_trace_deadlock_unbalanced;
          tc "checkers reject corrupt traces" test_trace_checkers_reject_corrupt;
          tc "route order checker" test_trace_route_order_checker;
        ] );
      ("properties", qcheck_cases);
      ("allocation", [ tc "simulate budgets" test_simulate_allocation_budgets ]);
      ( "golden",
        [
          tc "sim-campaign grid" test_golden_sim_campaign_grid;
          tc "single-flit buffers and cycle cap" test_golden_sim_edge_cells;
        ] );
    ]
