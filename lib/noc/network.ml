type t = {
  topology : Topology.t;
  traffic : Traffic.t;
  mapping : Ids.Switch.t array;
  routes : Route.t array;
}

let make ~topology ~traffic ~mapping =
  let n_cores = Traffic.n_cores traffic in
  let sample i =
    let s = mapping (Ids.Core.of_int i) in
    if Ids.Switch.to_int s >= Topology.n_switches topology then
      invalid_arg
        (Printf.sprintf "Network.make: core %d mapped to unknown switch %d" i
           (Ids.Switch.to_int s));
    s
  in
  {
    topology;
    traffic;
    mapping = Array.init n_cores sample;
    routes = Array.make (Traffic.n_flows traffic) [];
  }

let topology t = t.topology
let traffic t = t.traffic
let switch_of_core t c = t.mapping.(Ids.Core.to_int c)
let set_route t f r = t.routes.(Ids.Flow.to_int f) <- r
let route t f = t.routes.(Ids.Flow.to_int f)

let routes t =
  List.map (fun f -> (f.Traffic.id, route t f.Traffic.id)) (Traffic.flows t.traffic)

let endpoints t f =
  let fl = Traffic.flow t.traffic f in
  (switch_of_core t fl.Traffic.src, switch_of_core t fl.Traffic.dst)

let copy t =
  {
    topology = Topology.copy t.topology;
    traffic = t.traffic;
    mapping = Array.copy t.mapping;
    routes = Array.copy t.routes;
  }

let channel_load t c =
  let add acc f =
    if Route.uses_channel (route t f.Traffic.id) c then acc +. f.Traffic.bandwidth
    else acc
  in
  List.fold_left add 0. (Traffic.flows t.traffic)

type loads = {
  link_load : float array;
  link_flows : Ids.Flow.t list array;
  injected : float array;
}

(* One pass over the routes in flow order, so each link's and each
   switch's sum adds the same bandwidths in the same order as a scan of
   the flows per link would.  [seen.(k)] is the last flow counted on
   link [k]: a flow crossing a link on several VCs counts once.  A
   channel naming no link of the topology is on none. *)
let loads t =
  let n_links = Topology.n_links t.topology in
  let link_load = Array.make n_links 0. in
  let link_flows = Array.make n_links [] in
  let injected = Array.make (Topology.n_switches t.topology) 0. in
  let seen = Array.make n_links (-1) in
  let index c = Ids.Link.to_int (Channel.link c) in
  List.iter
    (fun (f : Traffic.flow) ->
      let i = Ids.Flow.to_int f.Traffic.id in
      let r = t.routes.(i) in
      (match r with
      | first :: _ when index first < n_links ->
          let l = Topology.link t.topology (Channel.link first) in
          let s = Ids.Switch.to_int l.Topology.src in
          injected.(s) <- injected.(s) +. f.Traffic.bandwidth
      | _ :: _ | [] -> ());
      List.iter
        (fun c ->
          let k = index c in
          if k < n_links && seen.(k) <> i then begin
            seen.(k) <- i;
            link_load.(k) <- link_load.(k) +. f.Traffic.bandwidth;
            link_flows.(k) <- f.Traffic.id :: link_flows.(k)
          end)
        r)
    (Traffic.flows t.traffic);
  { link_load; link_flows = Array.map List.rev link_flows; injected }

let load_on_link l id = l.link_load.(Ids.Link.to_int id)
let flows_on_link l id = l.link_flows.(Ids.Link.to_int id)
let injected_at l s = l.injected.(Ids.Switch.to_int s)

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@,%a@,routes:" Topology.pp t.topology Traffic.pp
    t.traffic;
  List.iter
    (fun (f, r) -> Format.fprintf ppf "@,%a: %a" Ids.Flow.pp f Route.pp r)
    (routes t);
  Format.fprintf ppf "@]"
