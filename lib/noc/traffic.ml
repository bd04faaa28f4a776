type flow = {
  id : Ids.Flow.t;
  src : Ids.Core.t;
  dst : Ids.Core.t;
  bandwidth : float;
}

type t = {
  n_cores : int;
  mutable flows_rev : flow list;
  mutable n_flows : int;
  flow_by_id : (int, flow) Hashtbl.t;
}

let create ~n_cores =
  if n_cores <= 0 then invalid_arg "Traffic.create: need at least one core";
  { n_cores; flows_rev = []; n_flows = 0; flow_by_id = Hashtbl.create 64 }

let n_cores t = t.n_cores
let n_flows t = t.n_flows

let check_core t c name =
  let i = Ids.Core.to_int c in
  if i >= t.n_cores then
    invalid_arg (Printf.sprintf "Traffic.%s: core %d out of range" name i)

let add_flow t ~src ~dst ~bandwidth =
  check_core t src "add_flow";
  check_core t dst "add_flow";
  if Ids.Core.equal src dst then invalid_arg "Traffic.add_flow: self-flow";
  if bandwidth <= 0. then invalid_arg "Traffic.add_flow: non-positive bandwidth";
  if not (Float.is_finite bandwidth) then
    invalid_arg "Traffic.add_flow: non-finite bandwidth";
  let id = Ids.Flow.of_int t.n_flows in
  let f = { id; src; dst; bandwidth } in
  t.flows_rev <- f :: t.flows_rev;
  t.n_flows <- t.n_flows + 1;
  Hashtbl.replace t.flow_by_id (Ids.Flow.to_int id) f;
  id

let flow t id =
  match Hashtbl.find_opt t.flow_by_id (Ids.Flow.to_int id) with
  | Some f -> f
  | None ->
      invalid_arg
        (Printf.sprintf "Traffic.flow: unknown flow %d" (Ids.Flow.to_int id))

let flows t = List.rev t.flows_rev
let flows_from t c = List.filter (fun f -> Ids.Core.equal f.src c) (flows t)
let flows_to t c = List.filter (fun f -> Ids.Core.equal f.dst c) (flows t)
let total_bandwidth t = List.fold_left (fun acc f -> acc +. f.bandwidth) 0. (flows t)

let demand_between t src dst =
  List.fold_left
    (fun acc f -> if Ids.Core.equal f.dst dst then acc +. f.bandwidth else acc)
    0. (flows_from t src)

let pp ppf t =
  Format.fprintf ppf "@[<v>traffic: %d cores, %d flows" t.n_cores t.n_flows;
  List.iter
    (fun f ->
      Format.fprintf ppf "@,%a: %a -> %a (%.1f MB/s)" Ids.Flow.pp f.id Ids.Core.pp
        f.src Ids.Core.pp f.dst f.bandwidth)
    (flows t);
  Format.fprintf ppf "@]"
