module Int_set = Set.Make (Int)

let sort g =
  let n = Digraph.n_vertices g in
  let indeg = Array.make n 0 in
  Digraph.iter_edges (fun _ v -> indeg.(v) <- indeg.(v) + 1) g;
  let ready = ref Int_set.empty in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then ready := Int_set.add v !ready
  done;
  let order = ref [] in
  let emitted = ref 0 in
  while not (Int_set.is_empty !ready) do
    let v = Int_set.min_elt !ready in
    ready := Int_set.remove v !ready;
    order := v :: !order;
    incr emitted;
    let release w =
      indeg.(w) <- indeg.(w) - 1;
      if indeg.(w) = 0 then ready := Int_set.add w !ready
    in
    Digraph.iter_succ release g v
  done;
  if !emitted = n then Some (List.rev !order) else None
