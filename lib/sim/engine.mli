(** Cycle-driven wormhole network simulator.

    Model: each channel (link x VC) owns one flit FIFO of
    [buffer_depth] at its downstream switch.  A packet acquires a
    channel when its head flit enters it and releases it only when its
    tail flit leaves — the wormhole property that makes cyclic channel
    dependencies deadly.  One flit crosses each channel per cycle; one
    flit per flow is injected per cycle; arbitration is deterministic
    (channel id, then flow id), so runs are exactly reproducible.

    The simulator never tries to work around a deadlock: if packets
    stop moving while flits remain in flight, it reports the deadlock
    together with a waits-for cycle certificate.  That is the
    behavioural ground truth the paper's static analysis predicts.

    {b Compiled runs.}  {!run} first compiles its input once, without
    hashing.  Channels become dense ints in {!Noc_model.Channel.compare}
    order (the fixed service order): a channel's index is its link's
    VC offset plus its VC.  Every route is copied once into one int
    array of hops, and the packets become flat arrays in injection
    order, grouped by flow in one counting pass and then sorted in
    place within each flow.  Beyond those arrays the compile allocates
    nothing per packet.  The cycle loop then steps over flat
    arrays: channel FIFOs are ring buffers of (route position, flit,
    ready cycle), so a hop reads its next channel without searching
    the route; "a flit entered this cycle" is a per-channel cycle
    stamp; and the in-network flit count is kept as flits enter and
    leave.  Compilation costs O(hops + packets) plus the in-place
    sorts of the flows and of each flow's packets; a cycle costs
    O(channels + flows) plus O(1) per flit moved.

    {b Listeners.}  {!Trace} events are built only when [on_event] is
    given; without it a run allocates nothing per hop.  With it, every
    action allocates one event and calls the listener.

    {b Latencies.}  Each delivered packet's latency and the flits of
    the delivered packets are on the outcome: in the {!Stats.t} of
    [Completed] and [Timed_out], and in [deadlock_info.stats] for a
    deadlock, so a caller needs no listener for them. *)

open Noc_model

type config = {
  buffer_depth : int;  (** Flits per channel FIFO (default 4). *)
  max_cycles : int;  (** Hard wall clock (default 200_000). *)
  stall_threshold : int;
      (** Consecutive motionless cycles that count as a deadlock
          (default 64; any value > network diameter is safe because a
          live network moves at least one flit per cycle). *)
  rotate_priority : bool;
      (** When [true], the channel service order rotates by one
          position per cycle (round-robin fairness); when [false]
          (default) lower channel ids always win contention.  Both are
          deterministic. *)
  router_latency : int;
      (** Pipeline depth of a hop: a flit that entered a buffer at
          cycle [t] becomes eligible to leave at [t + router_latency].
          Default [1] (single-cycle routers); real designs are 2–4. *)
}

val default_config : config

type deadlock_info = {
  cycle : int;  (** Cycle at which the stall was declared. *)
  in_network_flits : int;
  blocked_packets : int list;  (** Every packet waiting on a channel. *)
  waits_for_cycle : int list option;
      (** A cyclic chain of packet ids, when one exists: the formal
          deadlock certificate. *)
  stats : Stats.t;
      (** What the run achieved up to the stall, [cycles] being
          [cycle]. *)
}

type outcome =
  | Completed of Stats.t
  | Deadlocked of deadlock_info
  | Timed_out of Stats.t  (** [max_cycles] elapsed without stall. *)

val run :
  ?config:config -> ?on_event:(Trace.event -> unit) -> Network.t ->
  Packet.t list -> outcome
(** Simulates the packet workload on the network's current topology
    and VC structure.  Packet routes must use existing channels.
    [on_event] (default: none) receives every observable action, in
    order — see {!Trace}.

    When a {!Noc_obs.Trace} collector is installed, the run records a
    ["sim.run"] span (packet/flit counts, outcome, cycles) containing
    one ["sim.cycles"] span per 1024-cycle batch.  Every run adds to the
    [noc_sim_flits_injected_total] and [noc_sim_flits_delivered_total]
    counters (flits injected and ejected) and, on a deadlock, bumps
    [noc_sim_deadlocks_total].
    @raise Invalid_argument when a packet references an unknown
    channel, has an empty route, or enters the same channel twice. *)

val pp_outcome : Format.formatter -> outcome -> unit
