(* Reference cost tables: the formulation that
   [Noc_deadlock.Cost_table.both] must agree with, field for field.
   Every flow's whole route is filtered against the cycle to decide
   whether it is involved, and every (row, column) cell rescans the
   route for the dependency and collects the channels to duplicate.
   Slow, but each step is Algorithm 2: a cell's cost is the number of
   cycle channels from where the flow enters the cycle up to the
   dependency (forward), or from the dependency to where it leaves
   (backward). *)

open Noc_model
open Noc_deadlock

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
      | Cost_table.Forward -> collect 0 idx
      | Cost_table.Backward -> collect (idx + 1) (m - 1))

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
    Cost_table.direction;
    cycle;
    flows;
    routes;
    costs;
    max_costs;
    best_cost = !best_cost;
    best_pos = !best_pos;
  }

let compute direction net cycle_list =
  if cycle_list = [] then invalid_arg "Cost_table: empty cycle";
  let cycle = Array.of_list cycle_list in
  let k = Array.length cycle in
  let cycle_set = Channel.Set.of_list cycle_list in
  let involved =
    let crosses (f : Traffic.flow) =
      let inside =
        List.filter
          (fun c -> Channel.Set.mem c cycle_set)
          (Network.route net f.Traffic.id)
      in
      List.length inside > 1
    in
    List.filter crosses (Traffic.flows (Network.traffic net))
  in
  let flows = Array.of_list involved in
  let n_rows = Array.length flows in
  let costs = Array.make_matrix n_rows k 0 in
  for row = 0 to n_rows - 1 do
    let route = Network.route net flows.(row).Traffic.id in
    for col = 0 to k - 1 do
      let ci = cycle.(col) and cj = cycle.((col + 1) mod k) in
      costs.(row).(col) <-
        List.length (duplicate_set direction ~cycle_set ~route ~ci ~cj)
    done
  done;
  finish direction ~cycle
    ~flows:(Array.map (fun f -> f.Traffic.id) flows)
    ~routes:(Array.map (fun f -> Network.route net f.Traffic.id) flows)
    ~k ~n_rows costs

let forward net cycle = compute Cost_table.Forward net cycle
let backward net cycle = compute Cost_table.Backward net cycle
