(* Shared test fixtures.  The central one is the paper's running
   example (Figures 1-2): a 4-switch ring with four flows whose CDG has
   exactly one cycle L1 -> L2 -> L3 -> L4 -> L1. *)

open Noc_model

let sw = Ids.Switch.of_int
let core = Ids.Core.of_int
let lk = Ids.Link.of_int
let fl = Ids.Flow.of_int
let ch ?(vc = 0) l = Channel.make (lk l) vc

(* The paper numbers switches/links/flows from 1; we use 0-based ids,
   so the paper's L1 is our L0, F1 our F0, and so on. *)
type ring = { net : Network.t; links : Ids.Link.t array; flows : Ids.Flow.t array }

let paper_ring () =
  let topo = Topology.create ~n_switches:4 in
  let l1 = Topology.add_link topo ~src:(sw 0) ~dst:(sw 1) in
  let l2 = Topology.add_link topo ~src:(sw 1) ~dst:(sw 2) in
  let l3 = Topology.add_link topo ~src:(sw 2) ~dst:(sw 3) in
  let l4 = Topology.add_link topo ~src:(sw 3) ~dst:(sw 0) in
  let traffic = Traffic.create ~n_cores:4 in
  (* Flow endpoints are chosen so that min-hop routes on the ring are
     exactly the paper's R1..R4. *)
  let f1 = Traffic.add_flow traffic ~src:(core 0) ~dst:(core 3) ~bandwidth:100. in
  let f2 = Traffic.add_flow traffic ~src:(core 2) ~dst:(core 0) ~bandwidth:100. in
  let f3 = Traffic.add_flow traffic ~src:(core 3) ~dst:(core 1) ~bandwidth:100. in
  let f4 = Traffic.add_flow traffic ~src:(core 0) ~dst:(core 2) ~bandwidth:100. in
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c ->
        sw (Ids.Core.to_int c))
  in
  Network.set_route net f1 [ ch 0; ch 1; ch 2 ];
  Network.set_route net f2 [ ch 2; ch 3 ];
  Network.set_route net f3 [ ch 3; ch 0 ];
  Network.set_route net f4 [ ch 0; ch 1 ];
  { net; links = [| l1; l2; l3; l4 |]; flows = [| f1; f2; f3; f4 |] }

(* A 2x2 mesh with XY-routed all-to-all traffic: deadlock-free by
   construction (XY routing forbids the turns that close cycles). *)
let xy_mesh_2x2 () =
  let topo = Topology.create ~n_switches:4 in
  (* Switch layout: 0 1 / 2 3.  Bidirectional neighbour links. *)
  let pairs = [ (0, 1); (1, 0); (2, 3); (3, 2); (0, 2); (2, 0); (1, 3); (3, 1) ] in
  List.iter
    (fun (a, b) -> ignore (Topology.add_link topo ~src:(sw a) ~dst:(sw b)))
    pairs;
  let traffic = Traffic.create ~n_cores:4 in
  for s = 0 to 3 do
    for d = 0 to 3 do
      if s <> d then
        ignore (Traffic.add_flow traffic ~src:(core s) ~dst:(core d) ~bandwidth:10.)
    done
  done;
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c ->
        sw (Ids.Core.to_int c))
  in
  let find a b =
    match Topology.find_links topo ~src:(sw a) ~dst:(sw b) with
    | l :: _ -> Channel.make l.Topology.id 0
    | [] -> failwith "xy_mesh_2x2: missing link"
  in
  (* XY: move horizontally (within the row) first, then vertically. *)
  let route s d =
    let col n = n mod 2 and row n = n / 2 in
    let x_hops = if col s = col d then [] else [ find s (row s * 2 + col d) ] in
    let after_x = (row s * 2) + col d in
    let y_hops = if row s = row d then [] else [ find after_x d ] in
    x_hops @ y_hops
  in
  List.iter
    (fun (f : Traffic.flow) ->
      let s = Ids.Core.to_int f.Traffic.src and d = Ids.Core.to_int f.Traffic.dst in
      Network.set_route net f.Traffic.id (route s d))
    (Traffic.flows traffic);
  net

let check_valid name net =
  match Validate.check net with
  | [] -> ()
  | issues ->
      Alcotest.failf "%s: invalid network: %a" name
        (Format.pp_print_list Validate.pp_issue)
        issues

(* Every registry design point (6 benchmarks x switches 2-26 x
   max_degree 3-5), saved inline the way nocbench's warm-replay builds
   it. *)
let registry_design_texts () =
  List.concat_map
    (fun (spec : Noc_benchmarks.Spec.t) ->
      List.concat_map
        (fun n_switches ->
          List.map
            (fun d ->
              let options =
                {
                  Noc_synth.Custom.default_options with
                  Noc_synth.Custom.max_out_degree = d;
                  max_in_degree = d;
                }
              in
              Io.save
                (Noc_synth.Custom.synthesize_exn ~options
                   (spec.Noc_benchmarks.Spec.build ())
                   ~n_switches))
            [ 3; 4; 5 ])
        (List.init 25 (fun i -> i + 2)))
    Noc_benchmarks.Registry.all
