(* Independent deadlock-freedom prover.

   Everything here is deliberately self-contained: the waits-for
   relation is rebuilt from the routes with a private interning table,
   and the condition is decided by an escape-elimination fixpoint
   (reverse Kahn over waits, processed in deterministic rounds) rather
   than the DFS toposort Verify uses.  The value of the module is the
   disagreement surface: if this code and Noc_deadlock.Verify ever
   return different verdicts on the same network, one of them has a
   bug, and the NOC-DLF-001/002 lint codes make that loud. *)

open Noc_model

type verdict = {
  deadlock_free : bool;
  n_channels : int;
  n_waits : int;
  escape_order : Channel.t list option;
  knot : Channel.t list option;
  knot_cycle : Channel.t list option;
}

type bound = { lower_bound : int; disjoint_cycles : Channel.t list list }

(* Private arena: channels of the topology interned into dense indices
   (Topology.channels is ordered by link then VC, so indices are
   stable), waits deduplicated.  [succs] are the channels a flit on the
   key waits for; [preds] the reverse, used to propagate escapes. *)
type arena = {
  channels : Channel.t array;
  succs : int list array;
  preds : int list array;
  n_waits : int;
}

let build_arena net =
  let channels = Array.of_list (Topology.channels (Network.topology net)) in
  let n = Array.length channels in
  let index = Channel.Table.create (2 * max 1 n) in
  Array.iteri (fun i c -> Channel.Table.replace index c i) channels;
  let succs = Array.make n [] and preds = Array.make n [] in
  let seen = Hashtbl.create 256 in
  let n_waits = ref 0 in
  List.iter
    (fun (_flow, route) ->
      List.iter
        (fun (a, b) ->
          match
            (Channel.Table.find_opt index a, Channel.Table.find_opt index b)
          with
          | Some u, Some v when not (Hashtbl.mem seen (u, v)) ->
              Hashtbl.replace seen (u, v) ();
              succs.(u) <- v :: succs.(u);
              preds.(v) <- u :: preds.(v);
              incr n_waits
          | _ -> ())
        (Route.consecutive_pairs route))
    (Network.routes net);
  { channels; succs; preds; n_waits = !n_waits }

(* The fixpoint.  A channel escapes once all channels it waits for have
   escaped; wait-free channels escape vacuously.  Rounds (all channels
   eligible at the start of a round escape together, ascending index)
   make the elimination order a pure function of the network. *)
let eliminate arena =
  let n = Array.length arena.channels in
  let pending = Array.map List.length arena.succs in
  let escaped = Array.make n false in
  let order = ref [] (* reversed escape order *) in
  let wave = ref [] in
  for v = n - 1 downto 0 do
    if pending.(v) = 0 then wave := v :: !wave
  done;
  while !wave <> [] do
    let current = !wave in
    wave := [];
    List.iter
      (fun v ->
        escaped.(v) <- true;
        order := v :: !order)
      current;
    let next = ref [] in
    List.iter
      (fun v ->
        List.iter
          (fun u ->
            if not escaped.(u) then begin
              pending.(u) <- pending.(u) - 1;
              if pending.(u) = 0 then next := u :: !next
            end)
          arena.preds.(v))
      current;
    wave := List.sort_uniq compare !next
  done;
  (escaped, List.rev !order)

(* A concrete waits-for cycle inside the knot: follow the smallest
   non-escaped successor from the smallest knot member until a vertex
   repeats.  Total because every knot member waits on a knot member. *)
let cycle_in_knot arena escaped start =
  let position = Hashtbl.create 16 in
  let path = ref [] in
  let rec walk v len =
    match Hashtbl.find_opt position v with
    | Some at ->
        let tail = List.rev !path in
        List.filteri (fun i _ -> i >= at) tail
    | None ->
        Hashtbl.replace position v len;
        path := v :: !path;
        let next =
          List.fold_left
            (fun best u ->
              if escaped.(u) then best
              else match best with Some b when b <= u -> best | _ -> Some u)
            None arena.succs.(v)
        in
        walk (Option.get next) (len + 1)
  in
  walk start 0

let analyze net =
  let arena = build_arena net in
  let n = Array.length arena.channels in
  let escaped, order = eliminate arena in
  if List.length order = n then
    {
      deadlock_free = true;
      n_channels = n;
      n_waits = arena.n_waits;
      escape_order = Some (List.map (fun v -> arena.channels.(v)) order);
      knot = None;
      knot_cycle = None;
    }
  else begin
    let knot = ref [] in
    for v = n - 1 downto 0 do
      if not escaped.(v) then knot := v :: !knot
    done;
    let cycle = cycle_in_knot arena escaped (List.hd !knot) in
    {
      deadlock_free = false;
      n_channels = n;
      n_waits = arena.n_waits;
      escape_order = None;
      knot = Some (List.map (fun v -> arena.channels.(v)) !knot);
      knot_cycle = Some (List.map (fun v -> arena.channels.(v)) cycle);
    }
  end

(* Witness replay, on purpose not reusing [eliminate]: a valid escape
   ordering lists every channel exactly once and, for each wait (a, b),
   ranks b (the waited-for channel) strictly earlier than a. *)
let check_escape_order net order =
  let rank = Channel.Table.create 64 in
  let duplicate = ref false in
  List.iteri
    (fun i c ->
      if Channel.Table.mem rank c then duplicate := true
      else Channel.Table.replace rank c i)
    order;
  (not !duplicate)
  && List.for_all
       (fun (_flow, route) ->
         List.for_all
           (fun (a, b) ->
             match
               (Channel.Table.find_opt rank a, Channel.Table.find_opt rank b)
             with
             | Some ra, Some rb -> rb < ra
             | _ -> false)
           (Route.consecutive_pairs route))
       (Network.routes net)

(* VC lower bound: greedy vertex-disjoint cycle packing over the
   waits-for relation.  Each packed cycle must lose at least one of its
   own channels to duplication before the relation can become acyclic,
   and disjoint cycles need distinct duplications, so the packing size
   bounds vcs_added from below.  Shortest-cycle-first keeps the packing
   large and the witness readable.

   A design may declare far more channels than its routes use, so the
   cost must follow the waits, not the arena: a search starts only at a
   channel that both waits and is waited on (no other channel lies on a
   cycle), and the search arrays are allocated once and reset only
   where a search went.  [dist] is -1 outside a search; [parent] is
   read only where [dist] is set. *)
let shortest_cycle_through arena alive ~dist ~parent start =
  let visited = ref [ start ] in
  dist.(start) <- 0;
  let queue = Queue.create () in
  Queue.add start queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun u ->
        if alive.(u) && dist.(u) < 0 then begin
          dist.(u) <- dist.(v) + 1;
          parent.(u) <- v;
          visited := u :: !visited;
          Queue.add u queue
        end)
      arena.succs.(v)
  done;
  (* Close the cycle through the best reachable predecessor of start. *)
  let closer =
    List.fold_left
      (fun best p ->
        if (not alive.(p)) || dist.(p) < 0 then best
        else
          match best with
          | Some b when dist.(b) <= dist.(p) -> best
          | _ -> Some p)
      None arena.preds.(start)
  in
  let cycle =
    match closer with
    | None -> None
    | Some p ->
        let rec unwind v acc =
          if v = start then start :: acc else unwind parent.(v) (v :: acc)
        in
        Some (unwind p [])
  in
  List.iter (fun v -> dist.(v) <- -1) !visited;
  cycle

let vc_lower_bound net =
  let arena = build_arena net in
  let n = Array.length arena.channels in
  let alive = Array.make n true in
  let dist = Array.make n (-1) and parent = Array.make n (-1) in
  let starts = ref [] in
  for v = n - 1 downto 0 do
    if arena.succs.(v) <> [] && arena.preds.(v) <> [] then
      starts := v :: !starts
  done;
  let cycles = ref [] in
  let continue_ = ref true in
  while !continue_ do
    let best = ref None in
    List.iter
      (fun v ->
        if alive.(v) then
          match shortest_cycle_through arena alive ~dist ~parent v with
          | None -> ()
          | Some cycle -> (
              match !best with
              | Some b when List.length b <= List.length cycle -> ()
              | _ -> best := Some cycle))
      !starts;
    match !best with
    | None -> continue_ := false
    | Some cycle ->
        List.iter (fun v -> alive.(v) <- false) cycle;
        cycles := cycle :: !cycles
  done;
  let disjoint_cycles =
    List.rev_map (List.map (fun v -> arena.channels.(v))) !cycles
  in
  { lower_bound = List.length disjoint_cycles; disjoint_cycles }

let pp_channels ppf cs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf " -> ")
    Channel.pp ppf cs

let pp_verdict ppf v =
  if v.deadlock_free then
    Format.fprintf ppf
      "deadlock-free (%d channels, %d waits, escape ordering of %d channels)"
      v.n_channels v.n_waits
      (match v.escape_order with Some o -> List.length o | None -> 0)
  else
    Format.fprintf ppf
      "can deadlock (%d channels, %d waits, knot of %d channels; cycle: %a)"
      v.n_channels v.n_waits
      (match v.knot with Some k -> List.length k | None -> 0)
      pp_channels
      (match v.knot_cycle with Some c -> c | None -> [])
