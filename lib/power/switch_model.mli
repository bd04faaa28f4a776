(** Per-switch power and area.  A switch has one input port per
    incoming link plus a local injection port, one output port per
    outgoing link plus a local ejection port; each network input port
    carries as many VC buffers as its link has VCs, the local port one.

    Dynamic power scales with the switch's traffic (flit arrival rate
    derived from the routed bandwidths); leakage and area scale with
    the instantiated structures — which is where extra VCs hurt. *)

open Noc_model

type breakdown = {
  switch : Ids.Switch.t;
  in_ports : int;
  out_ports : int;
  vc_buffers : int;  (** Total VC FIFOs across input ports. *)
  dynamic_mw : float;
  leakage_mw : float;
  area_um2 : float;
}

val analyze : Params.t -> Network.t -> Network.loads -> Ids.Switch.t -> breakdown
(** Power/area of one switch under the network's routed traffic, read
    from [Network.loads net]. *)

val total_mw : breakdown -> float

val pp_breakdown : Format.formatter -> breakdown -> unit
