(* Adjacency is stored twice (successors and predecessors) so that the
   cycle-breaking passes, which walk the CDG in both directions, pay the
   same cost either way.  Lists are kept sorted-by-insertion; membership
   is answered by scanning the successor list.  The graphs this module
   serves (CDGs, topology graphs) have small out-degrees, so the scan
   beats a hash set of edge keys in practice: the hash table dominated
   both construction time and allocation in the incremental-CDG hot
   path, which rebuilds the graph once per removal iteration. *)

type t = {
  mutable n : int;
  mutable succ : int list array;
  mutable pred : int list array;
  mutable m : int;
}

let create ?(initial_capacity = 16) () =
  let cap = max 1 initial_capacity in
  { n = 0; succ = Array.make cap []; pred = Array.make cap []; m = 0 }

let n_vertices g = g.n
let n_edges g = g.m

let grow g needed =
  let cap = Array.length g.succ in
  if needed > cap then begin
    let cap' =
      let rec next c = if c >= needed then c else next (2 * c) in
      next (max 1 cap)
    in
    let succ' = Array.make cap' [] and pred' = Array.make cap' [] in
    Array.blit g.succ 0 succ' 0 g.n;
    Array.blit g.pred 0 pred' 0 g.n;
    g.succ <- succ';
    g.pred <- pred'
  end

let add_vertex g =
  let v = g.n in
  grow g (v + 1);
  g.n <- v + 1;
  v

let ensure_vertex g v =
  if v < 0 then invalid_arg "Digraph.ensure_vertex: negative vertex";
  if v >= g.n then begin
    grow g (v + 1);
    g.n <- v + 1
  end

let mem_edge g u v =
  u >= 0 && u < g.n && v >= 0 && v < g.n && List.mem v g.succ.(u)

let add_edge g u v =
  ensure_vertex g u;
  ensure_vertex g v;
  if not (List.mem v g.succ.(u)) then begin
    g.succ.(u) <- v :: g.succ.(u);
    g.pred.(v) <- u :: g.pred.(v);
    g.m <- g.m + 1
  end

(* [add_edge] minus the dedup scan and vertex growth, for bulk loads
   where the caller guarantees both vertices exist and the edge is not
   yet present (e.g. rebuilding from a deduplicated edge index).
   Violating that corrupts the edge count and duplicates adjacency
   entries. *)
let unsafe_add_edge g u v =
  g.succ.(u) <- v :: g.succ.(u);
  g.pred.(v) <- u :: g.pred.(v);
  g.m <- g.m + 1

let remove_edge g u v =
  if mem_edge g u v then begin
    g.succ.(u) <- List.filter (fun w -> w <> v) g.succ.(u);
    g.pred.(v) <- List.filter (fun w -> w <> u) g.pred.(v);
    g.m <- g.m - 1
  end

let check_vertex g v name =
  if v < 0 || v >= g.n then
    invalid_arg (Printf.sprintf "Digraph.%s: vertex %d out of range" name v)

let succ g v =
  check_vertex g v "succ";
  g.succ.(v)

let pred g v =
  check_vertex g v "pred";
  g.pred.(v)

let out_degree g v = List.length (succ g v)
let in_degree g v = List.length (pred g v)
let iter_succ f g v = List.iter f (succ g v)

let iter_vertices f g =
  for v = 0 to g.n - 1 do
    f v
  done

let iter_edges f g =
  for u = 0 to g.n - 1 do
    List.iter (fun v -> f u v) (List.rev g.succ.(u))
  done

let fold_edges f init g =
  let acc = ref init in
  iter_edges (fun u v -> acc := f !acc u v) g;
  !acc

let edges g = List.rev (fold_edges (fun acc u v -> (u, v) :: acc) [] g)

let of_edges ?(n = 0) es =
  let g = create ~initial_capacity:(max n 16) () in
  if n > 0 then ensure_vertex g (n - 1);
  List.iter (fun (u, v) -> add_edge g u v) es;
  g

let copy g =
  let g' = create ~initial_capacity:(Array.length g.succ) () in
  g'.n <- g.n;
  Array.blit g.succ 0 g'.succ 0 g.n;
  Array.blit g.pred 0 g'.pred 0 g.n;
  g'.m <- g.m;
  g'

let equal a b =
  a.n = b.n && a.m = b.m
  && (let same = ref true in
      (try
         for v = 0 to a.n - 1 do
           if a.succ.(v) <> b.succ.(v) || a.pred.(v) <> b.pred.(v) then begin
             same := false;
             raise Exit
           end
         done
       with Exit -> ());
      !same)

let transpose g =
  let g' = create ~initial_capacity:(max 1 g.n) () in
  if g.n > 0 then ensure_vertex g' (g.n - 1);
  iter_edges (fun u v -> add_edge g' v u) g;
  g'

let pp ppf g =
  Format.fprintf ppf "@[<v>digraph: %d vertices, %d edges" g.n g.m;
  iter_edges (fun u v -> Format.fprintf ppf "@,%d -> %d" u v) g;
  Format.fprintf ppf "@]"
