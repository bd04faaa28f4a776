open Noc_graph
open Noc_oracle

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let int_list = Alcotest.(list int)
let int_list_opt = Alcotest.(option (list int))

(* ------------------------------------------------------------------ *)
(* Digraph basics                                                      *)
(* ------------------------------------------------------------------ *)

let test_empty () =
  let g = Digraph.create () in
  check int_c "no vertices" 0 (Digraph.n_vertices g);
  check int_c "no edges" 0 (Digraph.n_edges g)

let test_add_vertex_dense () =
  let g = Digraph.create () in
  check int_c "first id" 0 (Digraph.add_vertex g);
  check int_c "second id" 1 (Digraph.add_vertex g);
  check int_c "count" 2 (Digraph.n_vertices g)

let test_ensure_vertex () =
  let g = Digraph.create () in
  Digraph.ensure_vertex g 5;
  check int_c "grows to 6" 6 (Digraph.n_vertices g);
  Digraph.ensure_vertex g 2;
  check int_c "no shrink" 6 (Digraph.n_vertices g)

let test_ensure_vertex_negative () =
  let g = Digraph.create () in
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Digraph.ensure_vertex: negative vertex") (fun () ->
      Digraph.ensure_vertex g (-1))

let test_add_edge_allocates () =
  let g = Digraph.create () in
  Digraph.add_edge g 2 5;
  check int_c "vertices" 6 (Digraph.n_vertices g);
  check bool_c "edge present" true (Digraph.mem_edge g 2 5);
  check bool_c "reverse absent" false (Digraph.mem_edge g 5 2)

let test_add_edge_idempotent () =
  let g = Digraph.create () in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 1;
  check int_c "simple graph" 1 (Digraph.n_edges g);
  check int_list "single successor" [ 1 ] (Digraph.succ g 0)

let test_remove_edge () =
  let g = Digraph.of_edges [ (0, 1); (1, 2); (0, 2) ] in
  Digraph.remove_edge g 0 1;
  check bool_c "gone" false (Digraph.mem_edge g 0 1);
  check int_c "two left" 2 (Digraph.n_edges g);
  Digraph.remove_edge g 0 1;
  check int_c "idempotent" 2 (Digraph.n_edges g);
  check int_list "pred of 2" [ 1; 0 ] (List.sort (fun a b -> compare b a) (Digraph.pred g 2))

let test_self_loop () =
  let g = Digraph.create () in
  Digraph.add_edge g 3 3;
  check bool_c "self loop" true (Digraph.mem_edge g 3 3);
  check int_c "out" 1 (Digraph.out_degree g 3);
  check int_c "in" 1 (Digraph.in_degree g 3)

let test_degrees () =
  let g = Digraph.of_edges [ (0, 1); (0, 2); (3, 0) ] in
  check int_c "out 0" 2 (Digraph.out_degree g 0);
  check int_c "in 0" 1 (Digraph.in_degree g 0);
  check int_c "out 2" 0 (Digraph.out_degree g 2)

let test_succ_out_of_range () =
  let g = Digraph.create () in
  Alcotest.check_raises "range check"
    (Invalid_argument "Digraph.succ: vertex 0 out of range") (fun () ->
      ignore (Digraph.succ g 0))

let test_edges_listing () =
  let g = Digraph.of_edges [ (1, 0); (0, 1); (2, 1) ] in
  let es = List.sort compare (Digraph.edges g) in
  check Alcotest.(list (pair int int)) "all edges" [ (0, 1); (1, 0); (2, 1) ] es

let test_transpose () =
  let g = Digraph.of_edges [ (0, 1); (1, 2) ] in
  let t = Digraph.transpose g in
  check bool_c "reversed" true (Digraph.mem_edge t 1 0);
  check bool_c "reversed2" true (Digraph.mem_edge t 2 1);
  check int_c "same vertex count" (Digraph.n_vertices g) (Digraph.n_vertices t);
  check int_c "same edge count" (Digraph.n_edges g) (Digraph.n_edges t)

let test_copy_independent () =
  let g = Digraph.of_edges [ (0, 1) ] in
  let g' = Digraph.copy g in
  Digraph.add_edge g' 1 2;
  Digraph.remove_edge g' 0 1;
  check bool_c "original keeps edge" true (Digraph.mem_edge g 0 1);
  check int_c "original vertex count" 2 (Digraph.n_vertices g);
  check bool_c "copy lost edge" false (Digraph.mem_edge g' 0 1)

let test_of_edges_n () =
  let g = Digraph.of_edges ~n:10 [ (0, 1) ] in
  check int_c "forced size" 10 (Digraph.n_vertices g)

(* ------------------------------------------------------------------ *)
(* Traversal                                                           *)
(* ------------------------------------------------------------------ *)

let chain n =
  Digraph.of_edges (List.init (n - 1) (fun i -> (i, i + 1)))

let test_bfs_distances () =
  let g = Digraph.of_edges [ (0, 1); (0, 2); (1, 3); (2, 3); (4, 0) ] in
  let d = Traversal.bfs_distances g 0 in
  check int_c "self" 0 d.(0);
  check int_c "direct" 1 d.(1);
  check int_c "two hops" 2 d.(3);
  check int_c "unreachable" (-1) d.(4)

let test_bfs_order_starts_at_src () =
  let g = chain 5 in
  match Traversal.bfs_order g 2 with
  | [] -> Alcotest.fail "empty order"
  | first :: _ -> check int_c "starts at src" 2 first

let test_shortest_path_simple () =
  let g = Digraph.of_edges [ (0, 1); (1, 2); (0, 2) ] in
  check int_list_opt "direct edge wins" (Some [ 0; 2 ])
    (Traversal.shortest_path g 0 2)

let test_shortest_path_none () =
  let g = Digraph.of_edges [ (0, 1) ] in
  Digraph.ensure_vertex g 2;
  check int_list_opt "unreachable" None (Traversal.shortest_path g 1 2)

let test_shortest_path_self () =
  let g = chain 3 in
  check int_list_opt "trivial" (Some [ 1 ]) (Traversal.shortest_path g 1 1)

let test_dfs_postorder_chain () =
  let g = chain 4 in
  check int_list "postorder of a chain" [ 0; 1; 2; 3 ] (Traversal.dfs_postorder g)

let test_dfs_postorder_covers_all () =
  let g = Digraph.of_edges [ (0, 1); (2, 3) ] in
  check int_c "covers every vertex" 4 (List.length (Traversal.dfs_postorder g))

let test_reachable () =
  let g = Digraph.of_edges [ (0, 1); (1, 2); (3, 1) ] in
  let r = Traversal.reachable g 0 in
  check bool_c "self" true r.(0);
  check bool_c "down" true r.(2);
  check bool_c "not up" false r.(3);
  check bool_c "is_reachable agrees" true (Traversal.is_reachable g 0 2)

(* Deep graph: the iterative DFS must not overflow the stack. *)
let test_dfs_deep () =
  let g = chain 200_000 in
  check int_c "deep chain postorder size" 200_000
    (List.length (Traversal.dfs_postorder g))

(* ------------------------------------------------------------------ *)
(* SCC                                                                 *)
(* ------------------------------------------------------------------ *)

let test_scc_two_cycles () =
  let g = Digraph.of_edges [ (0, 1); (1, 0); (2, 3); (3, 4); (4, 2); (1, 2) ] in
  let r = Scc.compute g in
  check int_c "two components" 2 r.Scc.count;
  check bool_c "0 and 1 together" true (r.Scc.component.(0) = r.Scc.component.(1));
  check bool_c "2,3,4 together" true
    (r.Scc.component.(2) = r.Scc.component.(3)
    && r.Scc.component.(3) = r.Scc.component.(4));
  check bool_c "distinct" true (r.Scc.component.(0) <> r.Scc.component.(2))

let test_scc_reverse_topological_ids () =
  (* Edge from the {0,1} component into the {2} component: the source
     component must get the larger id. *)
  let g = Digraph.of_edges [ (0, 1); (1, 0); (1, 2) ] in
  let r = Scc.compute g in
  check bool_c "source SCC later" true (r.Scc.component.(0) > r.Scc.component.(2))

let test_scc_acyclic_all_singletons () =
  let g = chain 6 in
  check int_c "n components" 6 (Scc.compute g).Scc.count;
  check int_c "no non-trivial" 0 (List.length (Scc.non_trivial g))

let test_scc_self_loop_non_trivial () =
  let g = Digraph.of_edges [ (0, 0); (0, 1) ] in
  check Alcotest.(list (list int)) "self loop counts" [ [ 0 ] ] (Scc.non_trivial g)

let test_condensation_acyclic () =
  let g = Digraph.of_edges [ (0, 1); (1, 0); (1, 2); (2, 3); (3, 2) ] in
  let _, cg = Scc.condensation g in
  check bool_c "condensation acyclic" true (Toposort.sort cg <> None);
  check int_c "two vertices" 2 (Digraph.n_vertices cg);
  check int_c "one edge" 1 (Digraph.n_edges cg)

(* ------------------------------------------------------------------ *)
(* Cycles                                                              *)
(* ------------------------------------------------------------------ *)

let ring n =
  Digraph.of_edges (List.init n (fun i -> (i, (i + 1) mod n)))

let is_cycle g vs =
  match vs with
  | [] -> false
  | [ v ] -> Digraph.mem_edge g v v
  | first :: _ ->
      let rec ok = function
        | a :: (b :: _ as rest) -> Digraph.mem_edge g a b && ok rest
        | [ last ] -> Digraph.mem_edge g last first
        | [] -> true
      in
      ok vs

let test_has_cycle () =
  check bool_c "ring cyclic" true (Cycles.has_cycle (ring 4));
  check bool_c "chain acyclic" false (Cycles.has_cycle (chain 4));
  check bool_c "self loop cyclic" true (Cycles.has_cycle (Digraph.of_edges [ (0, 0) ]))

let test_find_any_valid () =
  let g = ring 5 in
  match Cycles.find_any g with
  | None -> Alcotest.fail "cycle expected"
  | Some c -> check bool_c "valid cycle" true (is_cycle g c)

let test_find_any_none () =
  check Alcotest.(option (list int)) "acyclic" None (Cycles.find_any (chain 4))

let test_shortest_ring () =
  let g = ring 6 in
  match Cycles.shortest g with
  | None -> Alcotest.fail "cycle expected"
  | Some c ->
      check int_c "whole ring" 6 (List.length c);
      check bool_c "valid" true (is_cycle g c)

let test_shortest_prefers_small () =
  (* 6-ring plus a chord creating a 2-cycle between 0 and 1. *)
  let g = ring 6 in
  Digraph.add_edge g 1 0;
  match Cycles.shortest g with
  | None -> Alcotest.fail "cycle expected"
  | Some c ->
      check int_c "2-cycle found" 2 (List.length c);
      check bool_c "valid" true (is_cycle g c)

let test_shortest_self_loop () =
  let g = ring 4 in
  Digraph.add_edge g 2 2;
  match Cycles.shortest g with
  | Some [ v ] -> check int_c "the self loop" 2 v
  | Some c -> Alcotest.failf "expected self-loop, got length %d" (List.length c)
  | None -> Alcotest.fail "cycle expected"

let test_shortest_through () =
  let g = ring 4 in
  (match Cycles.shortest_through g 2 with
  | Some c ->
      check int_c "length" 4 (List.length c);
      check int_c "starts at 2" 2 (List.hd c)
  | None -> Alcotest.fail "cycle expected");
  let acyclic = chain 3 in
  check bool_c "none in chain" true (Cycles.shortest_through acyclic 1 = None)

let test_enumerate_ring () =
  let cycles = Cycles.enumerate (ring 4) in
  check int_c "single elementary cycle" 1 (List.length cycles);
  check int_list "canonical rotation" [ 0; 1; 2; 3 ] (List.hd cycles)

let test_enumerate_complete3 () =
  (* K3 with all 6 arcs: three 2-cycles and two 3-cycles. *)
  let edges = [ (0, 1); (1, 0); (1, 2); (2, 1); (0, 2); (2, 0) ] in
  let cycles = Cycles.enumerate (Digraph.of_edges edges) in
  let by_len n = List.length (List.filter (fun c -> List.length c = n) cycles) in
  check int_c "2-cycles" 3 (by_len 2);
  check int_c "3-cycles" 2 (by_len 3);
  check int_c "total" 5 (List.length cycles)

let test_enumerate_bounded () =
  let edges = [ (0, 1); (1, 0); (1, 2); (2, 1); (0, 2); (2, 0) ] in
  let cycles = Cycles.enumerate ~max_cycles:2 (Digraph.of_edges edges) in
  check int_c "stops at bound" 2 (List.length cycles)

(* ------------------------------------------------------------------ *)
(* Toposort                                                            *)
(* ------------------------------------------------------------------ *)

let test_toposort_chain () =
  check int_list_opt "chain order" (Some [ 0; 1; 2; 3 ]) (Toposort.sort (chain 4))

let test_toposort_cyclic () =
  check int_list_opt "cyclic none" None (Toposort.sort (ring 3))

let test_toposort_respects_edges () =
  let edges = [ (3, 1); (1, 0); (3, 0); (2, 0) ] in
  let g = Digraph.of_edges edges in
  match Toposort.sort g with
  | None -> Alcotest.fail "acyclic expected"
  | Some order ->
      let pos = Array.make 4 0 in
      List.iteri (fun i v -> pos.(v) <- i) order;
      List.iter
        (fun (u, v) ->
          check bool_c (Printf.sprintf "%d before %d" u v) true (pos.(u) < pos.(v)))
        edges

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)
(* ------------------------------------------------------------------ *)

let test_dijkstra_weights () =
  (* 0->1->2 costs 2, direct 0->2 costs 5: indirect wins. *)
  let g = Digraph.of_edges [ (0, 1); (1, 2); (0, 2) ] in
  let weight u v = if u = 0 && v = 2 then 5. else 1. in
  let dist, _ = Paths.dijkstra g ~weight 0 in
  check (Alcotest.float 1e-9) "cheap path" 2. dist.(2);
  check int_list_opt "path itself" (Some [ 0; 1; 2 ]) (Paths.shortest_path g ~weight 0 2)

let test_dijkstra_unreachable () =
  let g = Digraph.of_edges [ (0, 1) ] in
  Digraph.ensure_vertex g 2;
  let dist, _ = Paths.dijkstra g ~weight:(fun _ _ -> 1.) 0 in
  check bool_c "infinite" true (dist.(2) = infinity)

let test_dijkstra_negative_rejected () =
  let g = Digraph.of_edges [ (0, 1) ] in
  Alcotest.check_raises "negative weight" Paths.Negative_weight (fun () ->
      ignore (Paths.dijkstra g ~weight:(fun _ _ -> -1.) 0))

let test_path_weight () =
  let weight _ _ = 2.5 in
  check (Alcotest.float 1e-9) "3 edges" 7.5 (Paths.path_weight ~weight [ 0; 1; 2; 3 ]);
  check (Alcotest.float 1e-9) "empty" 0. (Paths.path_weight ~weight [])

let test_eccentricity_diameter () =
  let g = chain 5 in
  check int_c "ecc of head" 4 (Paths.eccentricity g 0);
  check int_c "ecc of tail" 0 (Paths.eccentricity g 4);
  check int_c "diameter" 4 (Paths.diameter g);
  check int_c "ring diameter" 3 (Paths.diameter (ring 4))

(* ------------------------------------------------------------------ *)
(* K-shortest paths                                                    *)
(* ------------------------------------------------------------------ *)

let unit_weight _ _ = 1.

let test_yen_basic () =
  (* Diamond: 0->1->3 and 0->2->3, plus direct 0->3. *)
  let g = Digraph.of_edges [ (0, 1); (1, 3); (0, 2); (2, 3); (0, 3) ] in
  let paths = K_shortest.yen g ~weight:unit_weight ~k:3 0 3 in
  check int_c "three paths" 3 (List.length paths);
  check int_list "best is direct" [ 0; 3 ] (List.hd paths);
  List.iter
    (fun p -> check int_c "others are 2-hop" 3 (List.length p))
    (List.tl paths)

let test_yen_ordering_by_weight () =
  let g = Digraph.of_edges [ (0, 1); (1, 3); (0, 2); (2, 3); (0, 3) ] in
  (* Make the direct edge expensive: it must come last. *)
  let weight u v = if u = 0 && v = 3 then 10. else 1. in
  let paths = K_shortest.yen g ~weight ~k:3 0 3 in
  check int_c "three paths" 3 (List.length paths);
  check int_list "direct edge now last" [ 0; 3 ]
    (List.nth paths 2)

let test_yen_fewer_than_k () =
  let g = chain 4 in
  let paths = K_shortest.yen g ~weight:unit_weight ~k:5 0 3 in
  check int_c "only one path exists" 1 (List.length paths)

let test_yen_unreachable () =
  let g = Digraph.of_edges [ (0, 1) ] in
  Digraph.ensure_vertex g 2;
  check int_c "no paths" 0 (List.length (K_shortest.yen g ~weight:unit_weight ~k:3 0 2))

let test_yen_loopless () =
  (* A cycle adjacent to the path must not leak into results. *)
  let g = Digraph.of_edges [ (0, 1); (1, 2); (1, 1); (2, 1) ] in
  let paths = K_shortest.yen g ~weight:unit_weight ~k:4 0 2 in
  List.iter
    (fun p ->
      check int_c "no repeated vertices" (List.length p)
        (List.length (List.sort_uniq compare p)))
    paths

let test_yen_k_invalid () =
  let g = chain 2 in
  Alcotest.check_raises "k" (Invalid_argument "K_shortest.yen: k < 1") (fun () ->
      ignore (K_shortest.yen g ~weight:unit_weight ~k:0 0 1))

(* ------------------------------------------------------------------ *)
(* Dot                                                                 *)
(* ------------------------------------------------------------------ *)

let string_contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let test_dot_structure () =
  let g = Digraph.of_edges [ (0, 1) ] in
  let s = Dot.render ~name:"demo" g in
  check bool_c "digraph header" true (string_contains ~needle:"digraph \"demo\"" s);
  check bool_c "edge" true (string_contains ~needle:"n0 -> n1" s);
  check bool_c "closes" true (string_contains ~needle:"}" s)

let test_dot_labels_and_attrs () =
  let g = Digraph.of_edges [ (0, 1) ] in
  let s =
    Dot.render
      ~vertex_label:(fun v -> Printf.sprintf "ch%d" v)
      ~vertex_attrs:(fun v -> if v = 0 then [ ("color", "red") ] else [])
      ~edge_attrs:(fun _ _ -> [ ("style", "dashed") ])
      g
  in
  check bool_c "label used" true (string_contains ~needle:"label=\"ch0\"" s);
  check bool_c "vertex attr" true (string_contains ~needle:"color=\"red\"" s);
  check bool_c "edge attr" true (string_contains ~needle:"style=\"dashed\"" s)

let test_dot_escaping () =
  let g = Digraph.of_edges [ (0, 0) ] in
  let s = Dot.render ~vertex_label:(fun _ -> "a\"b\\c") g in
  check bool_c "quote escaped" true (string_contains ~needle:"a\\\"b\\\\c" s)

(* ------------------------------------------------------------------ *)
(* Union-find                                                          *)
(* ------------------------------------------------------------------ *)

let test_union_find_basic () =
  let uf = Union_find.create 5 in
  check int_c "initial sets" 5 (Union_find.n_sets uf);
  check bool_c "union merges" true (Union_find.union uf 0 1);
  check bool_c "second union no-op" false (Union_find.union uf 1 0);
  check bool_c "same" true (Union_find.same uf 0 1);
  check bool_c "not same" false (Union_find.same uf 0 2);
  check int_c "4 sets" 4 (Union_find.n_sets uf)

let test_union_find_transitive () =
  let uf = Union_find.create 4 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 1 2);
  check bool_c "transitively same" true (Union_find.same uf 0 3);
  check int_c "one set" 1 (Union_find.n_sets uf)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let random_graph_gen =
  QCheck.Gen.(
    sized_size (int_bound 40) (fun n ->
        let n = max 2 n in
        list_size (int_bound (3 * n)) (pair (int_bound (n - 1)) (int_bound (n - 1)))
        >|= fun edges -> (n, edges)))

let arbitrary_graph =
  QCheck.make ~print:(fun (n, es) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat "; " (List.map (fun (u, v) -> Printf.sprintf "%d,%d" u v) es)))
    random_graph_gen

let build (n, edges) = Digraph.of_edges ~n edges

let prop_scc_vs_toposort =
  QCheck.Test.make ~name:"acyclic iff all SCCs trivial" ~count:200 arbitrary_graph
    (fun input ->
      let g = build input in
      (Toposort.sort g <> None) = (Scc.non_trivial g = []))

let prop_shortest_cycle_valid =
  QCheck.Test.make ~name:"shortest cycle is a real cycle" ~count:200 arbitrary_graph
    (fun input ->
      let g = build input in
      match Cycles.shortest g with
      | None -> not (Cycles.has_cycle g)
      | Some c -> is_cycle g c)

let prop_shortest_cycle_minimal =
  QCheck.Test.make ~name:"shortest cycle no longer than any enumerated" ~count:100
    arbitrary_graph (fun input ->
      let g = build input in
      match Cycles.shortest g with
      | None -> true
      | Some c ->
          let all = Cycles.enumerate ~max_cycles:2000 g in
          List.for_all (fun c' -> List.length c <= List.length c') all)

let prop_transpose_involution =
  QCheck.Test.make ~name:"transpose twice is identity" ~count:200 arbitrary_graph
    (fun input ->
      let g = build input in
      let tt = Digraph.transpose (Digraph.transpose g) in
      List.sort compare (Digraph.edges g) = List.sort compare (Digraph.edges tt))

let prop_bfs_triangle =
  QCheck.Test.make ~name:"bfs distance triangle inequality over edges" ~count:200
    arbitrary_graph (fun input ->
      let g = build input in
      let d = Traversal.bfs_distances g 0 in
      Digraph.fold_edges
        (fun acc u v ->
          acc && (d.(u) < 0 || d.(v) < 0 || d.(v) <= d.(u) + 1))
        true g)

let prop_yen_first_is_dijkstra =
  QCheck.Test.make ~name:"yen's first path weighs the same as dijkstra's" ~count:100
    arbitrary_graph (fun input ->
      let g = build input in
      let n = Digraph.n_vertices g in
      if n < 2 then true
      else begin
        let src = 0 and dst = n - 1 in
        let d = Paths.shortest_path g ~weight:unit_weight src dst in
        match (K_shortest.yen g ~weight:unit_weight ~k:1 src dst, d) with
        | [], None -> true
        | [ p ], Some best -> List.length p = List.length best
        | [], Some _ | _ :: _, None | _ :: _ :: _, _ -> false
      end)

let prop_yen_sorted_and_distinct =
  QCheck.Test.make ~name:"yen paths are sorted by weight and distinct" ~count:100
    arbitrary_graph (fun input ->
      let g = build input in
      let n = Digraph.n_vertices g in
      if n < 2 then true
      else begin
        let paths = K_shortest.yen g ~weight:unit_weight ~k:4 0 (n - 1) in
        let weights = List.map (fun p -> List.length p) paths in
        let rec sorted = function
          | a :: (b :: _ as rest) -> a <= b && sorted rest
          | [ _ ] | [] -> true
        in
        sorted weights
        && List.length paths = List.length (List.sort_uniq compare paths)
      end)

let prop_toposort_sound =
  QCheck.Test.make ~name:"toposort puts every edge forward" ~count:200
    arbitrary_graph (fun input ->
      let g = build input in
      match Toposort.sort g with
      | None -> true
      | Some order ->
          let pos = Array.make (Digraph.n_vertices g) 0 in
          List.iteri (fun i v -> pos.(v) <- i) order;
          Digraph.fold_edges (fun acc u v -> acc && pos.(u) < pos.(v)) true g)

(* Brute-force enumeration of all simple paths, to cross-check Yen. *)
let all_simple_paths g src dst =
  let n = Digraph.n_vertices g in
  let results = ref [] in
  let visited = Array.make n false in
  let rec walk path v =
    if v = dst then results := List.rev (v :: path) :: !results
    else begin
      visited.(v) <- true;
      List.iter (fun w -> if not visited.(w) then walk (v :: path) w) (Digraph.succ g v);
      visited.(v) <- false
    end
  in
  if n > 0 then walk [] src;
  !results

let prop_yen_matches_bruteforce =
  QCheck.Test.make ~name:"yen finds the k genuinely shortest simple paths"
    ~count:60
    (QCheck.make ~print:(fun (n, es) ->
         Printf.sprintf "n=%d edges=%d" n (List.length es))
       QCheck.Gen.(
         let* n = int_range 2 7 in
         let* edges =
           list_size (int_bound 14) (pair (int_bound (n - 1)) (int_bound (n - 1)))
         in
         return (n, edges)))
    (fun (n, edges) ->
      let g = Digraph.of_edges ~n edges in
      let k = 3 in
      let yen = K_shortest.yen g ~weight:unit_weight ~k 0 (n - 1) in
      let brute =
        all_simple_paths g 0 (n - 1)
        |> List.map (fun p -> (List.length p, p))
        |> List.sort compare
        |> List.map snd
      in
      let expected = List.filteri (fun i _ -> i < k) brute in
      List.length yen = List.length expected
      && List.for_all2
           (fun a b -> List.length a = List.length b)
           yen expected)

(* The optimized smallest-cycle scan must agree with the verbatim seed
   implementation on the exact cycle returned — not just its length —
   because the removal trajectory tie-breaks on vertex ids and
   adjacency order. *)
let prop_shortest_matches_reference =
  QCheck.Test.make ~name:"shortest equals the reference implementation"
    ~count:300 arbitrary_graph (fun input ->
      let g = build input in
      Cycles.shortest g = Cycles_oracle.shortest g)

(* Search hints are pure acceleration: any prefer list (including
   out-of-range vertices) must leave the result bit-identical. *)
let prop_shortest_prefer_lossless =
  QCheck.Test.make ~name:"shortest with hints returns the same cycle"
    ~count:200 arbitrary_graph (fun input ->
      let g = build input in
      let n = Digraph.n_vertices g in
      let prefers =
        [ [ 0 ]; [ n - 1; 0; n / 2 ]; [ -1; n + 5 ]; List.init n Fun.id ]
      in
      let expected = Cycles.shortest g in
      List.for_all (fun prefer -> Cycles.shortest ~prefer g = expected) prefers)

(* [bound] is an exclusive cutoff: a bound one above the true length
   changes nothing, the true length itself rules the cycle out. *)
let prop_shortest_through_bound_lossless =
  QCheck.Test.make ~name:"bounded shortest_through agrees with unbounded"
    ~count:100 arbitrary_graph (fun input ->
      let g = build input in
      let n = Digraph.n_vertices g in
      let ok v =
        match Cycles.shortest_through g v with
        | None -> Cycles.shortest_through ~bound:(n + 2) g v = None
        | Some c ->
            let l = List.length c in
            Cycles.shortest_through ~bound:(l + 1) g v = Some c
            && Cycles.shortest_through ~bound:l g v = None
      in
      List.for_all ok (List.init n Fun.id))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_scc_vs_toposort;
      prop_shortest_cycle_valid;
      prop_shortest_cycle_minimal;
      prop_shortest_matches_reference;
      prop_shortest_prefer_lossless;
      prop_shortest_through_bound_lossless;
      prop_transpose_involution;
      prop_bfs_triangle;
      prop_toposort_sound;
      prop_yen_first_is_dijkstra;
      prop_yen_sorted_and_distinct;
      prop_yen_matches_bruteforce;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "noc_graph"
    [
      ( "digraph",
        [
          tc "empty" test_empty;
          tc "add_vertex dense ids" test_add_vertex_dense;
          tc "ensure_vertex grows" test_ensure_vertex;
          tc "ensure_vertex rejects negatives" test_ensure_vertex_negative;
          tc "add_edge allocates endpoints" test_add_edge_allocates;
          tc "add_edge idempotent" test_add_edge_idempotent;
          tc "remove_edge" test_remove_edge;
          tc "self loop" test_self_loop;
          tc "degrees" test_degrees;
          tc "succ range check" test_succ_out_of_range;
          tc "edges listing" test_edges_listing;
          tc "transpose" test_transpose;
          tc "copy is independent" test_copy_independent;
          tc "of_edges ~n" test_of_edges_n;
        ] );
      ( "traversal",
        [
          tc "bfs distances" test_bfs_distances;
          tc "bfs order starts at src" test_bfs_order_starts_at_src;
          tc "shortest path prefers fewer hops" test_shortest_path_simple;
          tc "shortest path none" test_shortest_path_none;
          tc "shortest path to self" test_shortest_path_self;
          tc "dfs postorder chain" test_dfs_postorder_chain;
          tc "dfs postorder covers all" test_dfs_postorder_covers_all;
          tc "reachability" test_reachable;
          tc "dfs survives deep graphs" test_dfs_deep;
        ] );
      ( "scc",
        [
          tc "two cycles" test_scc_two_cycles;
          tc "reverse topological ids" test_scc_reverse_topological_ids;
          tc "acyclic all singletons" test_scc_acyclic_all_singletons;
          tc "self loop non-trivial" test_scc_self_loop_non_trivial;
          tc "condensation acyclic" test_condensation_acyclic;
        ] );
      ( "cycles",
        [
          tc "has_cycle" test_has_cycle;
          tc "find_any returns a valid cycle" test_find_any_valid;
          tc "find_any none on DAG" test_find_any_none;
          tc "shortest on ring" test_shortest_ring;
          tc "shortest prefers the 2-cycle" test_shortest_prefers_small;
          tc "shortest handles self loops" test_shortest_self_loop;
          tc "shortest through a vertex" test_shortest_through;
          tc "enumerate ring" test_enumerate_ring;
          tc "enumerate K3" test_enumerate_complete3;
          tc "enumerate bounded" test_enumerate_bounded;
        ] );
      ( "toposort",
        [
          tc "chain" test_toposort_chain;
          tc "cyclic" test_toposort_cyclic;
          tc "respects edges" test_toposort_respects_edges;
        ] );
      ( "paths",
        [
          tc "dijkstra weights" test_dijkstra_weights;
          tc "dijkstra unreachable" test_dijkstra_unreachable;
          tc "dijkstra rejects negative" test_dijkstra_negative_rejected;
          tc "path weight" test_path_weight;
          tc "eccentricity and diameter" test_eccentricity_diameter;
        ] );
      ( "k_shortest",
        [
          tc "diamond" test_yen_basic;
          tc "ordering by weight" test_yen_ordering_by_weight;
          tc "fewer than k" test_yen_fewer_than_k;
          tc "unreachable" test_yen_unreachable;
          tc "loopless" test_yen_loopless;
          tc "k invalid" test_yen_k_invalid;
        ] );
      ( "dot",
        [
          tc "structure" test_dot_structure;
          tc "labels and attrs" test_dot_labels_and_attrs;
          tc "escaping" test_dot_escaping;
        ] );
      ( "union_find",
        [
          tc "basics" test_union_find_basic;
          tc "transitivity" test_union_find_transitive;
        ] );
      ("properties", qcheck_cases);
    ]
