(** Packet workload generators for the simulator.  Flows whose source
    and destination share a switch have empty routes and never enter
    the network; they are skipped. *)

open Noc_model

val burst :
  Network.t -> packet_length:int -> packets_per_flow:int -> Packet.t list
(** Every flow injects all its packets back-to-back starting at cycle
    0 — the adversarial pattern that exposes wormhole deadlocks: long
    packets grab channel chains simultaneously. *)

val total_flits : Packet.t list -> int
