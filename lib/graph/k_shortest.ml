(* Yen's algorithm.  Candidate paths are kept in a sorted set keyed by
   (weight, path) so extraction order is deterministic. *)

module Candidates = Set.Make (struct
  type t = float * int list

  let compare = compare
end)

let yen g ~weight ~k src dst =
  if k < 1 then invalid_arg "K_shortest.yen: k < 1";
  (* Shortest path avoiding a set of edges and a set of vertices: a
     banned edge, or any edge into a banned vertex, weighs infinity and
     so never relaxes. *)
  let restricted_shortest ~banned_edges ~banned_vertices s =
    let masked u v =
      if Hashtbl.mem banned_edges (u, v) || Hashtbl.mem banned_vertices v then
        infinity
      else weight u v
    in
    Paths.shortest_path g ~weight:masked s dst
  in
  let path_weight path = Paths.path_weight ~weight path in
  let no_bans () = (Hashtbl.create 1, Hashtbl.create 1) in
  match
    let be, bv = no_bans () in
    restricted_shortest ~banned_edges:be ~banned_vertices:bv src
  with
  | None -> []
  | Some p0 ->
      (* [path_weight] adds the edges from the source on, in the order
         Dijkstra accumulated the distance, so it is that distance. *)
      let accepted = ref [ (path_weight p0, p0) ] in
      let candidates = ref Candidates.empty in
      let rec grow () =
        if List.length !accepted >= k then ()
        else begin
          let _, last_path = List.hd !accepted in
          let last = Array.of_list last_path in
          (* Spur from every prefix of the last accepted path. *)
          for i = 0 to Array.length last - 2 do
            let spur = last.(i) in
            let root = Array.to_list (Array.sub last 0 (i + 1)) in
            let banned_edges = Hashtbl.create 8 in
            let banned_vertices = Hashtbl.create 8 in
            (* Ban edges leaving the spur node along any accepted or
               candidate path sharing this root. *)
            let ban_for (_, path) =
              let arr = Array.of_list path in
              if Array.length arr > i + 1 then begin
                let same_root = ref true in
                for j = 0 to i do
                  if arr.(j) <> last.(j) then same_root := false
                done;
                if !same_root then
                  Hashtbl.replace banned_edges (arr.(i), arr.(i + 1)) ()
              end
            in
            List.iter ban_for !accepted;
            Candidates.iter (fun (w, p) -> ban_for (w, p)) !candidates;
            (* Ban root vertices except the spur itself (looplessness). *)
            List.iteri
              (fun j v -> if j < i then Hashtbl.replace banned_vertices v ())
              root;
            (match restricted_shortest ~banned_edges ~banned_vertices spur with
            | None -> ()
            | Some spur_path ->
                let full =
                  root @ (match spur_path with _ :: rest -> rest | [] -> [])
                in
                let cand = (path_weight full, full) in
                if
                  (not (List.exists (fun (_, p) -> p = full) !accepted))
                  && not (Candidates.mem cand !candidates)
                then candidates := Candidates.add cand !candidates)
          done;
          match Candidates.min_elt_opt !candidates with
          | None -> ()
          | Some best ->
              candidates := Candidates.remove best !candidates;
              accepted := best :: !accepted;
              grow ()
        end
      in
      grow ();
      List.map snd (List.sort compare (List.rev !accepted))
