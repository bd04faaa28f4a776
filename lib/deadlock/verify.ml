open Noc_model

type certificate = {
  acyclic : bool;
  n_channels : int;
  n_dependencies : int;
  numbering : (Channel.t * int) list option;
  sample_cycle : Channel.t list option;
}

let certify net =
  let cdg = Cdg.build net in
  let g = Cdg.graph cdg in
  let order = Noc_graph.Toposort.sort g in
  let numbering =
    Option.map
      (fun vs -> List.mapi (fun i v -> (Cdg.channel_of_vertex cdg v, i)) vs)
    order
  in
  let acyclic = numbering <> None in
  {
    acyclic;
    n_channels = Cdg.n_channels cdg;
    n_dependencies = Noc_graph.Digraph.n_edges g;
    numbering;
    sample_cycle = (if acyclic then None else Cdg.smallest_cycle cdg);
  }

let check_numbering net numbering =
  let table = Channel.Table.create 64 in
  List.iter (fun (c, n) -> Channel.Table.replace table c n) numbering;
  let route_ok (_, route) =
    let increasing (a, b) =
      match (Channel.Table.find_opt table a, Channel.Table.find_opt table b) with
      | Some na, Some nb -> na < nb
      | None, _ | _, None -> false
    in
    List.for_all increasing (Route.consecutive_pairs route)
  in
  List.for_all route_ok (Network.routes net)

let pp_certificate ppf c =
  Format.fprintf ppf "@[<v>certificate: %s, %d channels, %d dependencies"
    (if c.acyclic then "deadlock-free" else "CYCLIC")
    c.n_channels c.n_dependencies;
  (match c.sample_cycle with
  | Some cycle ->
      Format.fprintf ppf "@,cycle: %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf " -> ")
           Channel.pp)
        cycle
  | None -> ());
  Format.fprintf ppf "@]"
