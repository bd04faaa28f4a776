(** Packets and flits of the wormhole simulator. *)

open Noc_model

type t = {
  id : int;
  flow : Ids.Flow.t;
  route : Channel.t array;  (** Channel sequence, source to sink. *)
  length : int;  (** Flits, head and tail included. *)
  inject_at : int;  (** Earliest injection cycle. *)
}

type flit = {
  packet : t;
  index : int;  (** 0 = head, [length - 1] = tail. *)
}

val make :
  id:int -> flow:Ids.Flow.t -> route:Channel.t array -> length:int ->
  inject_at:int -> t
(** The packet keeps [route] itself, not a copy, so the packets of one
    flow can share their flow's route.  Callers must not mutate it
    afterwards.
    @raise Invalid_argument when [length < 1], the route is empty, or
    [inject_at < 0]. *)

val flits : t -> flit list
(** The packet's flits in order. *)

val is_head : flit -> bool
val is_tail : flit -> bool

val pp : Format.formatter -> t -> unit
