(** Event tracing for the simulator.

    The engine can emit one event per observable action (channel
    acquisition/release, flit hop, injection, delivery).  The test
    suites check a recorded list against the defining invariants of
    wormhole flow control. *)

open Noc_model

type event =
  | Inject of { cycle : int; packet : int }
      (** The packet's head flit entered the network. *)
  | Acquire of { cycle : int; packet : int; channel : Channel.t }
      (** The packet's head took ownership of a free channel. *)
  | Release of { cycle : int; packet : int; channel : Channel.t }
      (** The packet's tail left the channel. *)
  | Hop of { cycle : int; packet : int; flit : int; channel : Channel.t }
      (** A flit entered the channel's buffer. *)
  | Deliver of { cycle : int; packet : int }
      (** The packet's tail was ejected at its destination. *)

val recorder : unit -> (event -> unit) * (unit -> event list)
(** [let emit, dump = recorder ()]: feed [emit] to
    {!Engine.run}; [dump ()] returns the events in emission order. *)
