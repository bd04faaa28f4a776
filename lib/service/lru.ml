(* Recency is a stamp from a per-table clock rather than a position in
   a list: restamping is O(1), where moving a key to the front of a
   list costs a pass over it on every hit and every write.  The price
   moves to eviction, which scans for the smallest stamp — it runs
   only once the table is full, and then once per insert. *)

type 'a slot = { mutable value : 'a; mutable stamp : int }

type 'a t = {
  capacity : int;
  table : (string, 'a slot) Hashtbl.t;
  mutable clock : int;
}

let create ~capacity = { capacity; table = Hashtbl.create (min capacity 64); clock = 0 }
let length t = Hashtbl.length t.table
let mem t key = Hashtbl.mem t.table key

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some slot ->
      slot.stamp <- tick t;
      Some slot.value
  | None -> None

let remove t key = Hashtbl.remove t.table key

let oldest t =
  Hashtbl.fold
    (fun key slot acc ->
      match acc with
      | Some (_, s) when s.stamp <= slot.stamp -> acc
      | _ -> Some (key, slot))
    t.table None

let add t key value =
  match Hashtbl.find_opt t.table key with
  | Some slot ->
      slot.value <- value;
      slot.stamp <- tick t;
      None
  | None -> (
      Hashtbl.replace t.table key { value; stamp = tick t };
      if Hashtbl.length t.table <= t.capacity then None
      else
        match oldest t with
        | Some (victim, slot) ->
            remove t victim;
            Some (victim, slot.value)
        | None -> assert false)

let bindings t =
  Hashtbl.fold (fun key slot acc -> (slot.stamp, (key, slot.value)) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd
