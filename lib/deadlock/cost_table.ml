open Noc_model

type direction = Forward | Backward

type t = {
  direction : direction;
  cycle : Channel.t array;
  flows : Ids.Flow.t array;
  routes : Route.t array;
  costs : int array array;
  max_costs : int array;
  best_cost : int;
  best_pos : int;
}

let dependency t i =
  let k = Array.length t.cycle in
  (t.cycle.(i), t.cycle.((i + 1) mod k))

(* Position of the (unique, routes being simple) occurrence of the
   dependency [ci -> cj] inside a route, or [None] when the flow does
   not create it. *)
let dep_position route ci cj =
  let arr = Array.of_list route in
  let m = Array.length arr in
  let rec scan i =
    if i + 1 >= m then None
    else if Channel.equal arr.(i) ci && Channel.equal arr.(i + 1) cj then Some i
    else scan (i + 1)
  in
  scan 0

let duplicate_set direction ~cycle_set ~route ~ci ~cj =
  match dep_position route ci cj with
  | None -> []
  | Some idx ->
      let arr = Array.of_list route in
      let m = Array.length arr in
      let in_cycle c = Channel.Set.mem c cycle_set in
      let collect lo hi =
        let out = ref [] in
        for p = hi downto lo do
          if in_cycle arr.(p) then out := arr.(p) :: !out
        done;
        !out
      in
      (match direction with
      | Forward -> collect 0 idx
      | Backward -> collect (idx + 1) (m - 1))

let involved_flows net in_cycle =
  let crosses (f : Traffic.flow) =
    (* The flow is involved as soon as two of its channels lie on the
       cycle; no need to scan the rest of the route. *)
    let rec scan count = function
      | [] -> false
      | c :: rest ->
          if in_cycle c then count + 1 >= 2 || scan (count + 1) rest
          else scan count rest
    in
    scan 0 (Network.route net f.Traffic.id)
  in
  List.filter crosses (Traffic.flows (Network.traffic net))

(* The removal driver prices both directions of the same cycle every
   iteration, and the expensive parts — finding the involved flows and
   locating each flow's cycle dependencies — are direction-blind, so
   both tables are computed in one shared pass. *)
let finish direction ~cycle ~flows ~routes ~k ~n_rows costs =
  let max_costs =
    Array.init k (fun col ->
        let best = ref 0 in
        for row = 0 to n_rows - 1 do
          if costs.(row).(col) > !best then best := costs.(row).(col)
        done;
        !best)
  in
  (* Columns with max 0 carry no dependency created by an involved flow
     (possible only on degenerate inputs); they cannot be broken, so
     they are skipped when choosing the minimum. *)
  let best_cost = ref max_int and best_pos = ref (-1) in
  Array.iteri
    (fun col c -> if c > 0 && c < !best_cost then begin best_cost := c; best_pos := col end)
    max_costs;
  if !best_pos < 0 then begin
    (* No breakable column: fall back to column 0 with the price of
       duplicating the whole cycle.  The driver treats this as "break
       everything", which always succeeds. *)
    best_cost := k;
    best_pos := 0
  end;
  {
    direction;
    cycle;
    flows;
    routes;
    costs;
    max_costs;
    best_cost = !best_cost;
    best_pos = !best_pos;
  }

let both net cycle_list =
  if cycle_list = [] then invalid_arg "Cost_table: empty cycle";
  Noc_obs.Trace.with_span "cost_table.both"
    ~attrs:[ ("cycle_len", Noc_obs.Trace.Int (List.length cycle_list)) ]
  @@ fun _sp ->
  let cycle = Array.of_list cycle_list in
  let k = Array.length cycle in
  let col_of = Channel.Table.create (2 * k) in
  Array.iteri (fun i c -> Channel.Table.replace col_of c i) cycle;
  let in_cycle c = Channel.Table.mem col_of c in
  let flows = Array.of_list (involved_flows net in_cycle) in
  let n_rows = Array.length flows in
  let fwd_costs = Array.make_matrix n_rows k 0 in
  let bwd_costs = Array.make_matrix n_rows k 0 in
  let routes = Array.map (fun f -> Network.route net f.Traffic.id) flows in
  (* Single pass per route instead of one [duplicate_set] scan per
     (row, column, direction): a route position [p] carries the
     dependency of column [col] iff [arr.(p)] is the cycle's [col]-th
     channel and [arr.(p+1)] follows it on the cycle; the costs are
     then the number of cycle channels the route uses up to [p]
     (forward) or after it (backward) — prefix-sum reads.  The counts
     are exactly [List.length (duplicate_set ...)], just not
     recomputed from scratch per cell. *)
  for row = 0 to n_rows - 1 do
    let arr = Array.of_list routes.(row) in
    let m = Array.length arr in
    let prefix = Array.make (m + 1) 0 in
    for p = 0 to m - 1 do
      prefix.(p + 1) <- (prefix.(p) + if in_cycle arr.(p) then 1 else 0)
    done;
    for p = 0 to m - 2 do
      match Channel.Table.find_opt col_of arr.(p) with
      | Some col when Channel.equal cycle.((col + 1) mod k) arr.(p + 1) ->
          (* Routes are simple, so each dependency occurs at most once
             per route. *)
          fwd_costs.(row).(col) <- prefix.(p + 1);
          bwd_costs.(row).(col) <- prefix.(m) - prefix.(p + 1)
      | Some _ | None -> ()
    done
  done;
  let flow_ids = Array.map (fun f -> f.Traffic.id) flows in
  ( finish Forward ~cycle ~flows:flow_ids ~routes ~k ~n_rows fwd_costs,
    finish Backward ~cycle ~flows:flow_ids ~routes ~k ~n_rows bwd_costs )

let forward net cycle = fst (both net cycle)
let backward net cycle = snd (both net cycle)

let channels_to_duplicate t flow col =
  let ci, cj = dependency t col in
  let cycle_set = Channel.Set.of_list (Array.to_list t.cycle) in
  let row = ref (-1) in
  Array.iteri (fun i f -> if Ids.Flow.equal f flow then row := i) t.flows;
  if !row < 0 then []
  else
    duplicate_set t.direction ~cycle_set ~route:t.routes.(!row) ~ci ~cj

let pp ppf t =
  let k = Array.length t.cycle in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "     ";
  for col = 1 to k do
    Format.fprintf ppf "D%-3d" col
  done;
  Array.iteri
    (fun row f ->
      Format.fprintf ppf "@,%-5s" (Format.asprintf "%a" Ids.Flow.pp f);
      Array.iter (fun c -> Format.fprintf ppf "%-4d" c) t.costs.(row))
    t.flows;
  Format.fprintf ppf "@,%-5s" "MAX";
  Array.iter (fun c -> Format.fprintf ppf "%-4d" c) t.max_costs;
  Format.fprintf ppf "@]"
