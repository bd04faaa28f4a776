open Noc_model

type breakdown = {
  link : Ids.Link.t;
  length_mm : float;
  dynamic_mw : float;
  area_um2 : float;
}

let analyze (p : Params.t) floorplan loads l =
  let length_mm = Noc_synth.Floorplan.link_length_mm floorplan l in
  let bits_per_s = Network.load_on_link loads l *. 1.0e6 *. 8. in
  let dynamic_mw =
    bits_per_s *. p.Params.e_wire_pj_per_bit_mm *. length_mm /. 1.0e9
  in
  let area_um2 =
    float_of_int p.Params.flit_bits *. p.Params.a_wire_um2_per_bit_mm *. length_mm
  in
  { link = l; length_mm; dynamic_mw; area_um2 }

let pp_breakdown ppf b =
  Format.fprintf ppf "%a: %.1f mm, %.3f mW, %.0f um^2" Ids.Link.pp b.link
    b.length_mm b.dynamic_mw b.area_um2
