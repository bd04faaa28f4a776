type link = { id : Ids.Link.t; src : Ids.Switch.t; dst : Ids.Switch.t }

type t = {
  n_switches : int;
  mutable links_rev : link list;
  mutable n_links : int;
  link_by_id : (int, link) Hashtbl.t;
  vcs : (int, int) Hashtbl.t; (* link id -> vc count *)
  out_by_switch : (int, link list) Hashtbl.t;
  in_by_switch : (int, link list) Hashtbl.t;
}

let create ~n_switches =
  if n_switches <= 0 then invalid_arg "Topology.create: need at least one switch";
  {
    n_switches;
    links_rev = [];
    n_links = 0;
    link_by_id = Hashtbl.create 64;
    vcs = Hashtbl.create 64;
    out_by_switch = Hashtbl.create 64;
    in_by_switch = Hashtbl.create 64;
  }

let n_switches t = t.n_switches
let n_links t = t.n_links

let check_switch t s name =
  let i = Ids.Switch.to_int s in
  if i >= t.n_switches then
    invalid_arg (Printf.sprintf "Topology.%s: switch %d out of range" name i)

let bucket_add tbl key v =
  let old = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (v :: old)

let add_link t ~src ~dst =
  check_switch t src "add_link";
  check_switch t dst "add_link";
  if Ids.Switch.equal src dst then invalid_arg "Topology.add_link: self-loop";
  let id = Ids.Link.of_int t.n_links in
  let l = { id; src; dst } in
  t.links_rev <- l :: t.links_rev;
  t.n_links <- t.n_links + 1;
  Hashtbl.replace t.link_by_id (Ids.Link.to_int id) l;
  Hashtbl.replace t.vcs (Ids.Link.to_int id) 1;
  bucket_add t.out_by_switch (Ids.Switch.to_int src) l;
  bucket_add t.in_by_switch (Ids.Switch.to_int dst) l;
  id

let link t id =
  match Hashtbl.find_opt t.link_by_id (Ids.Link.to_int id) with
  | Some l -> l
  | None ->
      invalid_arg
        (Printf.sprintf "Topology.link: unknown link %d" (Ids.Link.to_int id))

let mem_link t id = Hashtbl.mem t.link_by_id (Ids.Link.to_int id)

let links t = List.rev t.links_rev

let vc_count t id =
  match Hashtbl.find_opt t.vcs (Ids.Link.to_int id) with
  | Some n -> n
  | None ->
      invalid_arg
        (Printf.sprintf "Topology.vc_count: unknown link %d" (Ids.Link.to_int id))

let add_vc t id =
  let n = vc_count t id in
  Hashtbl.replace t.vcs (Ids.Link.to_int id) (n + 1);
  n

let total_vcs t = Hashtbl.fold (fun _ n acc -> acc + n) t.vcs 0
let extra_vcs t = total_vcs t - t.n_links

let channels t =
  let per_link l =
    List.init (vc_count t l.id) (fun v -> Channel.make l.id v)
  in
  List.concat_map per_link (links t)

let out_links t s =
  check_switch t s "out_links";
  List.rev (Option.value ~default:[] (Hashtbl.find_opt t.out_by_switch (Ids.Switch.to_int s)))

let in_links t s =
  check_switch t s "in_links";
  List.rev (Option.value ~default:[] (Hashtbl.find_opt t.in_by_switch (Ids.Switch.to_int s)))

let find_links t ~src ~dst =
  List.filter (fun l -> Ids.Switch.equal l.dst dst) (out_links t src)

let switch_graph t =
  let g = Noc_graph.Digraph.create ~initial_capacity:t.n_switches () in
  Noc_graph.Digraph.ensure_vertex g (t.n_switches - 1);
  List.iter
    (fun l ->
      Noc_graph.Digraph.add_edge g (Ids.Switch.to_int l.src) (Ids.Switch.to_int l.dst))
    (links t);
  g

let degree t s = List.length (out_links t s) + List.length (in_links t s)

let is_connected t =
  let uf = Noc_graph.Union_find.create t.n_switches in
  List.iter
    (fun l ->
      ignore
        (Noc_graph.Union_find.union uf (Ids.Switch.to_int l.src)
           (Ids.Switch.to_int l.dst)))
    (links t);
  Noc_graph.Union_find.n_sets uf = 1

let copy t =
  {
    n_switches = t.n_switches;
    links_rev = t.links_rev;
    n_links = t.n_links;
    link_by_id = Hashtbl.copy t.link_by_id;
    vcs = Hashtbl.copy t.vcs;
    out_by_switch = Hashtbl.copy t.out_by_switch;
    in_by_switch = Hashtbl.copy t.in_by_switch;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>topology: %d switches, %d links, %d VCs" t.n_switches
    t.n_links (total_vcs t);
  List.iter
    (fun l ->
      Format.fprintf ppf "@,%a: %a -> %a (%d VC)" Ids.Link.pp l.id Ids.Switch.pp
        l.src Ids.Switch.pp l.dst (vc_count t l.id))
    (links t);
  Format.fprintf ppf "@]"
