open Noc_model

type breakdown = {
  switch : Ids.Switch.t;
  in_ports : int;
  out_ports : int;
  vc_buffers : int;
  dynamic_mw : float;
  leakage_mw : float;
  area_um2 : float;
}

let analyze (p : Params.t) net loads s =
  let topo = Network.topology net in
  let in_links = Topology.in_links topo s in
  let out_links = Topology.out_links topo s in
  let in_ports = List.length in_links + 1 in
  let out_ports = List.length out_links + 1 in
  let vc_buffers =
    1
    + List.fold_left
        (fun acc (l : Topology.link) -> acc + Topology.vc_count topo l.Topology.id)
        0 in_links
  in
  let flit_bits = float_of_int p.Params.flit_bits in
  let buffer_bits =
    float_of_int (vc_buffers * p.Params.buffer_depth) *. flit_bits
  in
  (* Traffic through the switch: every flit arriving on an input link
     is written into and read out of a buffer, crosses the crossbar and
     requests the allocator once. *)
  let arriving_mbps =
    List.fold_left
      (fun acc (l : Topology.link) -> acc +. Network.load_on_link loads l.Topology.id)
      0. in_links
  in
  (* Locally injected traffic also crosses the crossbar. *)
  let injected_mbps = Network.injected_at loads s in
  let bits_per_s mbps = mbps *. 1.0e6 *. 8. in
  let flits_per_s mbps = bits_per_s mbps /. flit_bits in
  let dynamic_pj_per_s =
    (bits_per_s arriving_mbps *. p.Params.e_buffer_pj_per_bit)
    +. bits_per_s (arriving_mbps +. injected_mbps)
       *. p.Params.e_crossbar_pj_per_bit_port
       *. float_of_int (in_ports + out_ports)
    +. flits_per_s (arriving_mbps +. injected_mbps) *. p.Params.e_arbiter_pj_per_req
  in
  let dynamic_mw = dynamic_pj_per_s /. 1.0e9 in
  (* Load-independent power: storage-cell clocking plus leakage.  This
     is the term through which every extra VC buffer costs power even
     when no flit ever rides it. *)
  let clock_mw =
    buffer_bits *. p.Params.e_clock_fj_per_bit_cycle *. p.Params.frequency_hz
    /. 1.0e12
  in
  let leakage_mw =
    clock_mw
    +. (buffer_bits *. p.Params.p_leak_buffer_nw_per_bit
    +. flit_bits
       *. float_of_int (in_ports * out_ports)
       *. p.Params.p_leak_crossbar_nw_per_bit_port2
    +. float_of_int (in_ports + out_ports) *. p.Params.p_leak_arbiter_nw_per_port)
    /. 1.0e6
  in
  let area_um2 =
    (buffer_bits *. p.Params.a_buffer_um2_per_bit)
    +. flit_bits
       *. float_of_int (in_ports * out_ports)
       *. p.Params.a_crossbar_um2_per_bit_port2
    +. float_of_int (vc_buffers * (in_ports + out_ports))
       *. p.Params.a_arbiter_um2_per_port_vc
  in
  { switch = s; in_ports; out_ports; vc_buffers; dynamic_mw; leakage_mw; area_um2 }

let total_mw b = b.dynamic_mw +. b.leakage_mw

let pp_breakdown ppf b =
  Format.fprintf ppf
    "%a: %dx%d ports, %d VC buffers, %.3f mW dyn + %.3f mW leak, %.0f um^2"
    Ids.Switch.pp b.switch b.in_ports b.out_ports b.vc_buffers b.dynamic_mw
    b.leakage_mw b.area_um2
