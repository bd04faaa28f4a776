(* Reference LRU: the list formulation that [Noc_service.Lru] must
   agree with.  Recency is a list, most recent first: a touch filters
   the key out and conses it back on, and an eviction takes the last
   element.  Quadratic, but each step is the definition. *)

type 'a t = { capacity : int; mutable recency : (string * 'a) list }

let create ~capacity = { capacity; recency = [] }
let length t = List.length t.recency
let mem t key = List.mem_assoc key t.recency
let keys t = List.map fst t.recency
let remove t key = t.recency <- List.filter (fun (k, _) -> k <> key) t.recency

let touch t key value =
  remove t key;
  t.recency <- (key, value) :: t.recency

let find t key =
  match List.assoc_opt key t.recency with
  | Some value ->
      touch t key value;
      Some value
  | None -> None

let add t key value =
  touch t key value;
  if length t <= t.capacity then None
  else
    match List.rev t.recency with
    | [] -> assert false
    | (oldest, _) :: _ ->
        remove t oldest;
        Some oldest
