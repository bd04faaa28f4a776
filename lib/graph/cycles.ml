let has_cycle g =
  let non_trivial = Scc.non_trivial g in
  non_trivial <> []

(* DFS with colors; on meeting a grey vertex we unwind the explicit
   path stack to extract the cycle. *)
let find_any g =
  let n = Digraph.n_vertices g in
  let color = Array.make n 0 in
  (* 0 white, 1 grey, 2 black *)
  let cycle = ref None in
  let rec walk path u =
    color.(u) <- 1;
    let path = u :: path in
    let check v =
      if !cycle = None then
        if color.(v) = 1 then begin
          (* [path] is [u; ...; v; ...]; the cycle is v ... u. *)
          let rec take acc = function
            | [] -> acc
            | w :: ws -> if w = v then w :: acc else take (w :: acc) ws
          in
          cycle := Some (take [] path)
        end
        else if color.(v) = 0 then walk path v
    in
    Digraph.iter_succ check g u;
    color.(u) <- 2
  in
  let try_root v = if color.(v) = 0 && !cycle = None then walk [] v in
  Digraph.iter_vertices try_root g;
  !cycle

(* Shortest cycle through v = 1 + shortest path from some successor of
   v back to v.  A single BFS from v over the whole graph would not
   find the path *ending* at v, so we search from each successor and
   read the parent chain when v is re-entered.

   [bound] is an exclusive upper limit on the cycle length: only
   strictly shorter cycles are returned, and each per-successor BFS is
   cut off at the matching edge budget (a path of [e] edges closes a
   cycle of length [e + 1]).  [allowed] restricts the BFS to a vertex
   subset; the caller must guarantee that every shortest returning
   path lies inside it (true for v's own SCC), so restricting never
   changes the answer — it only skips provably dead frontier. *)
let shortest_through_in ?(bound = max_int) ?allowed g v =
  if bound <= 1 then None
  else if Digraph.mem_edge g v v then Some [ v ]
  else begin
    let best = ref None in
    let best_len = ref bound in
    let consider s =
      if !best_len > 2 then
        match Traversal.shortest_path ~max_edges:(!best_len - 2) ?allowed g s v with
        | None -> ()
        | Some path ->
            let len = List.length path in
            if len < !best_len then begin
              best := Some path;
              best_len := len
            end
    in
    List.iter consider (List.sort compare (Digraph.succ g v));
    match !best with
    | None -> None
    | Some path -> Some (v :: List.filter (fun w -> w <> v) path)
  end

let shortest_through ?bound g v = shortest_through_in ?bound g v

let shortest ?(prefer = []) g =
  (* Restrict the search to vertices inside non-trivial SCCs: every
     cycle lives entirely within one SCC, so other vertices cannot
     start one.  The scan visits candidates in ascending vertex order
     with strict improvement, so the result is the cycle of globally
     minimal length rooted at the smallest such vertex — exactly the
     answer the naive all-vertices fold produced, but with three
     lossless prunings:
     - a self-loop prescan (a self-loop is always the unique winner);
     - per-vertex searches bounded by the best length found so far;
     - each BFS confined to the candidate's own SCC.
     [prefer] vertices (typically those touched by the last CDG edit)
     are probed first purely to seed the bound: probing cannot change
     which cycle wins because the main scan still runs with an
     off-by-one slack ([b + 1]) that keeps every equally-short cycle
     at a smaller vertex reachable. *)
  let n = Digraph.n_vertices g in
  let selfloop = ref None in
  (try
     for v = 0 to n - 1 do
       if Digraph.mem_edge g v v then begin
         selfloop := Some v;
         raise Exit
       end
     done
   with Exit -> ());
  match !selfloop with
  | Some v -> Some [ v ]
  | None ->
      let scc = Scc.compute g in
      let comp = scc.Scc.component in
      let size = Array.make scc.Scc.count 0 in
      for v = 0 to n - 1 do
        size.(comp.(v)) <- size.(comp.(v)) + 1
      done;
      let candidate v = size.(comp.(v)) >= 2 in
      (* Flat (CSR) snapshot of the predecessor adjacency: the probe
         BFS below is the scan's inner loop, and walking list cells
         through a closure there costs more than one up-front copy.
         Row [v] preserves [Digraph.pred g v] order exactly. *)
      let m = Digraph.n_edges g in
      let poff = Array.make (n + 1) 0 in
      let padj = Array.make (max 1 m) 0 in
      let fill = ref 0 in
      for v = 0 to n - 1 do
        poff.(v) <- !fill;
        List.iter
          (fun u ->
            padj.(!fill) <- u;
            incr fill)
          (Digraph.pred g v)
      done;
      poff.(n) <- !fill;
      (* Scratch state shared by every bounded BFS of the scan —
         [stamp]/[gen] make clearing O(1) — so the inner loop never
         allocates.  Discovery order is identical to a fresh BFS, so
         the parent chains (hence the returned cycles) are too. *)
      let dist = Array.make n 0 in
      let parent = Array.make n (-1) in
      let stamp = Array.make n 0 in
      let tstamp = Array.make n 0 in
      let gen = ref 0 in
      (* Each vertex is enqueued at most once per BFS, so a flat array
         of size [n] is queue enough; [stamp]/[gen] make per-BFS
         clearing O(1). *)
      let queue = Array.make (max 1 n) 0 in
      let bfs s v c max_edges =
        incr gen;
        let gn = !gen in
        stamp.(s) <- gn;
        dist.(s) <- 0;
        parent.(s) <- -1;
        queue.(0) <- s;
        let head = ref 0 and tail = ref 1 in
        let found = ref false in
        while (not !found) && !head < !tail do
          let u = queue.(!head) in
          incr head;
          let du = dist.(u) in
          if du < max_edges then begin
            let rec visit = function
              | [] -> ()
              | w :: ws ->
                  if stamp.(w) <> gn && comp.(w) = c then begin
                    stamp.(w) <- gn;
                    dist.(w) <- du + 1;
                    parent.(w) <- u;
                    if w = v then found := true
                    else begin
                      queue.(!tail) <- w;
                      incr tail
                    end
                  end;
                  if not !found then visit ws
            in
            visit (Digraph.succ g u)
          end
        done;
        !found
      in
      (* Length of the shortest cycle through [v] if it is strictly
         below [bound], else 0 — a single backward BFS instead of one
         forward BFS per successor.  The shortest cycle through [v] is
         [1 + min over in-SCC successors s of dist(s -> v)], and a
         backward BFS from [v] over predecessor edges discovers
         vertices in nondecreasing dist-to-[v] order, so the first
         successor it reaches realizes that minimum.  Self-loops are
         prescanned away, so [v] itself is never a target. *)
      let probe ~bound v =
        let max_edges = bound - 2 in
        if max_edges < 1 then 0
        else begin
          let c = comp.(v) in
          incr gen;
          let gn = !gen in
          let has_target = ref false in
          List.iter
            (fun s ->
              if comp.(s) = c then begin
                tstamp.(s) <- gn;
                has_target := true
              end)
            (Digraph.succ g v);
          if not !has_target then 0
          else begin
            stamp.(v) <- gn;
            dist.(v) <- 0;
            queue.(0) <- v;
            let head = ref 0 and tail = ref 1 in
            let res = ref 0 in
            (try
               while !head < !tail do
                 let u = queue.(!head) in
                 incr head;
                 let du = dist.(u) in
                 if du < max_edges then
                   for i = poff.(u) to poff.(u + 1) - 1 do
                     let w = padj.(i) in
                     if stamp.(w) <> gn && comp.(w) = c then begin
                       stamp.(w) <- gn;
                       dist.(w) <- du + 1;
                       if tstamp.(w) = gn then begin
                         (* v -> w -> ... -> v: dist(w) edges back to
                            v plus the closing edge = dist(w) + 1
                            vertices. *)
                         res := du + 2;
                         raise Exit
                       end;
                       queue.(!tail) <- w;
                       incr tail
                     end
                   done
               done
             with Exit -> ());
            !res
          end
        end
      in
      let through ~bound v =
        let c = comp.(v) in
        let best = ref None in
        let best_len = ref bound in
        List.iter
          (fun s ->
            (* A successor outside v's SCC has no path back to v; and
               once the bound hits 2 nothing can improve (self-loops
               were prescanned away). *)
            if !best_len > 2 && comp.(s) = c && bfs s v c (!best_len - 2)
            then begin
              let rec build w acc =
                if w = s then w :: acc else build parent.(w) (w :: acc)
              in
              let path = build v [] in
              (* Found within [best_len - 2] edges, so this cycle is
                 strictly shorter than [best_len] by construction. *)
              best := Some path;
              best_len := List.length path
            end)
          (List.sort compare (Digraph.succ g v));
        match !best with
        | None -> None
        | Some path -> Some (v :: List.filter (fun w -> w <> v) path)
      in
      (* The hint pass only needs a length to seed the bound, so the
         cheap probe suffices — no cycle reconstruction. *)
      let hint_bound = ref max_int in
      List.iter
        (fun h ->
          if h >= 0 && h < n && candidate h && !hint_bound > 2 then begin
            let l = probe ~bound:!hint_bound h in
            if l > 0 then hint_bound := l
          end)
        (List.sort_uniq compare prefer);
      let best = ref None in
      let limit =
        ref (if !hint_bound = max_int then max_int else !hint_bound + 1)
      in
      (try
         for v = 0 to n - 1 do
           if candidate v then begin
             let l = probe ~bound:!limit v in
             if l > 0 then begin
               (* The probe says the minimum through [v] is exactly
                  [l]; rerun the seed's per-successor search with the
                  matching budget to obtain the exact seed cycle (the
                  first successor in sorted order achieving [l], with
                  BFS-parent tie-breaks).  Any bound > l yields the
                  same winner, so the tight [l + 1] is lossless. *)
               match through ~bound:(l + 1) v with
               | Some c ->
                   best := Some c;
                   limit := l;
                   (* Without self-loops no cycle is shorter than 2, so
                      the first 2-cycle found cannot be beaten. *)
                   if l <= 2 then raise Exit
               | None ->
                   (* Unreachable: the probe and [through] compute the
                      same SCC-confined shortest distances. *)
                   assert false
             end
           end
         done
       with Exit -> ());
      !best

(* Johnson's elementary-cycle enumeration, bounded. *)
let enumerate ?(max_cycles = 10_000) g =
  let n = Digraph.n_vertices g in
  let results = ref [] in
  let count = ref 0 in
  let blocked = Array.make n false in
  let b_sets = Array.make n [] in
  let stack = ref [] in
  let exception Done in
  let rec unblock v =
    if blocked.(v) then begin
      blocked.(v) <- false;
      let deps = b_sets.(v) in
      b_sets.(v) <- [];
      List.iter unblock deps
    end
  in
  let normalize cycle =
    (* Rotate so the smallest vertex leads: canonical form for
       deduplication and stable test expectations. *)
    let arr = Array.of_list cycle in
    let k = Array.length arr in
    let min_pos = ref 0 in
    for i = 1 to k - 1 do
      if arr.(i) < arr.(!min_pos) then min_pos := i
    done;
    List.init k (fun i -> arr.((i + !min_pos) mod k))
  in
  let emit cycle =
    results := normalize cycle :: !results;
    incr count;
    if !count >= max_cycles then raise Done
  in
  let rec circuit s allowed v =
    let found = ref false in
    blocked.(v) <- true;
    stack := v :: !stack;
    let explore w =
      if w >= s && allowed w then
        if w = s then begin
          emit (List.rev !stack);
          found := true
        end
        else if not blocked.(w) then
          if circuit s allowed w then found := true
    in
    Digraph.iter_succ explore g v;
    if !found then unblock v
    else
      Digraph.iter_succ
        (fun w ->
          if w >= s && allowed w && not (List.mem v b_sets.(w)) then
            b_sets.(w) <- v :: b_sets.(w))
        g v;
    (match !stack with
    | w :: rest when w = v -> stack := rest
    | _ -> assert false);
    !found
  in
  (try
     for s = 0 to n - 1 do
       (* Only consider the SCC of s in the subgraph induced by
          vertices >= s; the [w >= s] guards in [circuit] realize the
          induced-subgraph restriction, and the SCC pre-check below
          keeps the allowed set tight. *)
       Array.fill blocked 0 n false;
       Array.fill b_sets 0 n [];
       stack := [];
       let allowed w = w >= s in
       if List.exists (fun w -> w >= s) (Digraph.succ g s) || Digraph.mem_edge g s s
       then ignore (circuit s allowed s)
     done
   with Done -> ());
  List.rev !results
