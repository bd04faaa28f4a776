exception Negative_weight

(* A simple pairing of (distance, vertex) in a sorted set works as the
   priority queue; graphs in this project stay small (thousands of
   vertices), so the O(log n) set operations are more than enough.  The
   comparison orders pairs as [Stdlib.compare] does, without its
   generic traversal. *)
module Pq = Set.Make (struct
  type t = float * int

  let compare (d1, v1) (d2, v2) =
    match Float.compare d1 d2 with 0 -> Int.compare v1 v2 | c -> c
end)

(* The one Dijkstra.  Vertices settle in (distance, id) order and an
   edge relaxes only on a strict improvement, so a vertex's parent is
   final once it settles.  Stopping when [target] settles therefore
   yields exactly the parents the full search would give every vertex
   settled so far; [target = -1] settles everything reachable. *)
let search g ~weight ~target src =
  let n = Digraph.n_vertices g in
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  dist.(src) <- 0.;
  let pq = ref (Pq.singleton (0., src)) in
  while not (Pq.is_empty !pq) do
    let ((d, u) as top) = Pq.min_elt !pq in
    pq := Pq.remove top !pq;
    if d <= dist.(u) then
      if u = target then pq := Pq.empty
      else begin
        let relax v =
          let w = weight u v in
          if w < 0. then raise Negative_weight;
          let d' = d +. w in
          if d' < dist.(v) then begin
            dist.(v) <- d';
            parent.(v) <- u;
            pq := Pq.add (d', v) !pq
          end
        in
        Digraph.iter_succ relax g u
      end
  done;
  (dist, parent)

let dijkstra g ~weight src = search g ~weight ~target:(-1) src

let shortest_path g ~weight src dst =
  let dist, parent = search g ~weight ~target:dst src in
  if dist.(dst) = infinity then None
  else begin
    let rec build v acc = if v = src then v :: acc else build parent.(v) (v :: acc) in
    Some (build dst [])
  end

let path_weight ~weight path =
  let rec total acc = function
    | u :: (v :: _ as rest) -> total (acc +. weight u v) rest
    | [ _ ] | [] -> acc
  in
  total 0. path

let eccentricity g v =
  let dist = Traversal.bfs_distances g v in
  Array.fold_left (fun acc d -> if d > acc then d else acc) 0 dist

let diameter g =
  let best = ref 0 in
  Digraph.iter_vertices (fun v -> best := max !best (eccentricity g v)) g;
  !best
