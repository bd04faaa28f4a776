(** Simulation statistics. *)

open Noc_model

type flow_stats = {
  flow : Ids.Flow.t;
  delivered : int;
  total_latency : int;  (** Sum over delivered packets. *)
  max_latency : int;
}

type t = {
  cycles : int;
  delivered : int;  (** Packets whose tail was ejected. *)
  flits_moved : int;
  flits_delivered : int;  (** Flits of the delivered packets. *)
  latencies : int array;
      (** Each delivered packet's latency (ejection cycle of its tail
          minus its [inject_at]), in delivery order. *)
  per_flow : flow_stats list;
  channel_moves : (Channel.t * int) list;
      (** Flits that crossed each channel (entered its buffer), in
          channel order; channels that never moved a flit are
          omitted. *)
}

val utilization : t -> Channel.t -> float
(** Fraction of simulated cycles in which the channel accepted a flit;
    [0.] for unknown channels or zero-cycle runs. *)

val busiest_channel : t -> (Channel.t * int) option
(** The channel with the most flit arrivals (ties: smallest channel). *)

val avg_latency : t -> float
(** Mean packet latency over all delivered packets; [0.] when none. *)

val max_latency : t -> int

val flow : t -> Ids.Flow.t -> flow_stats option

val pp : Format.formatter -> t -> unit
