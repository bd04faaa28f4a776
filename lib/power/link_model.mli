(** Per-link wire power and repeater area, using floorplan lengths. *)

open Noc_model

type breakdown = {
  link : Ids.Link.t;
  length_mm : float;
  dynamic_mw : float;
  area_um2 : float;
}

val analyze :
  Params.t -> Noc_synth.Floorplan.t -> Network.loads -> Ids.Link.t -> breakdown
(** Wire power and area of one link carrying its load in the table. *)

val pp_breakdown : Format.formatter -> breakdown -> unit
