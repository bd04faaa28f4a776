(* Persistent content-addressed result store: the disk-backed
   successor of the in-memory Result_cache, so warm hits survive
   daemon restarts.

   Layout under the root directory:

     objects/ab/cdef0123....json   one object per job hash, sharded on
                                   the first two hex digits
     index.json                    LRU order, most recent first

   Every write is write-to-temp + rename in the destination directory,
   so a crash at any instant leaves either the old file or the new one
   — never a torn object, never a torn index.  The index is a cache of
   the directory listing, not the source of truth: when it is missing
   or stale the objects directory is rescanned, and entries whose
   object file disappeared are dropped at load.  Object payloads are
   self-describing ({schema, job_hash, outcome}); a read that fails the
   integrity check (hash mismatch, unparsable outcome) deletes the
   object and reports a miss, so one corrupted file costs one recompute
   rather than poisoning results. *)

module Json = Noc_json.Json

(* Looked up per use, for the same reason as Result_cache: only
   processes that open a store carry its counters, and the registry
   lookup is safe from any domain. *)
let count name = Noc_obs.Metrics.incr (Noc_obs.Metrics.counter name)

let object_schema = "noc-store/1"
let index_schema = "noc-store-index/1"

type t = {
  root : string;
  capacity : int;
  (* Key set and recency move together under the mutex, exactly like
     Result_cache; the disk adds durability, not a new concurrency
     story. *)
  table : (string, unit) Hashtbl.t;
  mutable recency : string list;  (* most recent first *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutex : Mutex.t;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* ------------------------------------------------------------------ *)
(* Paths and atomic writes                                             *)
(* ------------------------------------------------------------------ *)

let is_hex s = String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let valid_key key = String.length key >= 3 && is_hex key

let objects_dir t = Filename.concat t.root "objects"
let index_path t = Filename.concat t.root "index.json"

let shard_dir t key = Filename.concat (objects_dir t) (String.sub key 0 2)

let object_path t key =
  Filename.concat (shard_dir t key)
    (String.sub key 2 (String.length key - 2) ^ ".json")

let ensure_dir path =
  if not (Sys.file_exists path) then
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let write_atomic ~dir ~path content =
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path) ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content);
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Index                                                               *)
(* ------------------------------------------------------------------ *)

let index_json t =
  Json.Obj
    [
      ("schema", Json.Str index_schema);
      ("entries", Json.Arr (List.map (fun k -> Json.Str k) t.recency));
    ]

(* Called under the mutex.  Failures (full disk, root removed from
   under us) are swallowed: the index is reconstructible by a rescan,
   so losing a flush must never take a job down with it. *)
let flush_index t =
  try write_atomic ~dir:t.root ~path:(index_path t) (Json.to_string (index_json t) ^ "\n")
  with Sys_error _ -> ()

let load_index path =
  match read_file path with
  | exception Sys_error _ -> None
  | text -> (
      match Json.of_string text with
      | Error _ -> None
      | Ok root -> (
          match (Json.member "schema" root, Json.member "entries" root) with
          | Some (Json.Str s), Some (Json.Arr items) when s = index_schema ->
              let keys =
                List.filter_map
                  (function Json.Str k when valid_key k -> Some k | _ -> None)
                  items
              in
              Some keys
          | _ -> None))

(* Recover keys from the objects directory when the index is missing
   or unreadable; recency order is lost, but no result is. *)
let scan_objects dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | shards ->
      Array.to_list shards
      |> List.concat_map (fun shard ->
             if String.length shard <> 2 || not (is_hex shard) then []
             else
               match Sys.readdir (Filename.concat dir shard) with
               | exception Sys_error _ -> []
               | files ->
                   Array.to_list files
                   |> List.filter_map (fun f ->
                          if Filename.check_suffix f ".json" then
                            Some (shard ^ Filename.chop_suffix f ".json")
                          else None))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let create ~root ~capacity =
  if capacity < 1 then invalid_arg "Store.create: capacity < 1";
  ignore (Noc_obs.Metrics.counter "noc_store_evictions_total");
  ensure_dir root;
  let t =
    {
      root;
      capacity;
      table = Hashtbl.create 64;
      recency = [];
      hits = 0;
      misses = 0;
      evictions = 0;
      mutex = Mutex.create ();
    }
  in
  ensure_dir (objects_dir t);
  let indexed =
    match load_index (index_path t) with
    | Some keys -> keys
    | None -> scan_objects (objects_dir t)
  in
  (* Integrity check on load: keep only entries whose object file is
     actually present (newest first, dedup'd); deep validation of the
     payload happens lazily at [find]. *)
  let keys =
    List.filter
      (fun key ->
        (not (Hashtbl.mem t.table key)) && Sys.file_exists (object_path t key)
        && (Hashtbl.replace t.table key ();
            true))
      indexed
  in
  t.recency <- keys;
  t

let capacity t = t.capacity
let root t = t.root

(* ------------------------------------------------------------------ *)
(* Lookup and insert                                                   *)
(* ------------------------------------------------------------------ *)

let touch t key = t.recency <- key :: List.filter (fun k -> k <> key) t.recency

(* Under the mutex.  Drops the entry and its file. *)
let forget t key =
  Hashtbl.remove t.table key;
  t.recency <- List.filter (fun k -> k <> key) t.recency;
  try Sys.remove (object_path t key) with Sys_error _ -> ()

let decode_object ~key text =
  match Json.of_string text with
  | Error e -> Error e
  | Ok root -> (
      match (Json.member "schema" root, Json.member "job_hash" root) with
      | Some (Json.Str s), _ when s <> object_schema ->
          Error (Printf.sprintf "schema %S (want %S)" s object_schema)
      | _, Some (Json.Str h) when h <> key -> Error "job hash mismatch"
      | Some (Json.Str _), Some (Json.Str _) -> (
          match Json.member "outcome" root with
          | Some o -> Outcome.of_json o
          | None -> Error "missing outcome")
      | _ -> Error "missing schema or job_hash")

let find t key =
  count "noc_store_lookups_total";
  locked t (fun () ->
      if not (Hashtbl.mem t.table key) then begin
        t.misses <- t.misses + 1;
        None
      end
      else
        match read_file (object_path t key) with
        | exception Sys_error _ ->
            forget t key;
            t.misses <- t.misses + 1;
            None
        | text -> (
            match decode_object ~key text with
            | Ok outcome ->
                t.hits <- t.hits + 1;
                count "noc_store_hits_total";
                touch t key;
                Some outcome
            | Error _ ->
                (* Corrupt object: evict it so the next run recomputes
                   and rewrites, instead of failing forever. *)
                forget t key;
                flush_index t;
                t.misses <- t.misses + 1;
                None))

let object_json ~key outcome =
  Json.Obj
    [
      ("schema", Json.Str object_schema);
      ("job_hash", Json.Str key);
      ("outcome", Outcome.to_json outcome);
    ]

let store t key outcome =
  if not (valid_key key) then invalid_arg "Store.store: not a hex job hash";
  locked t (fun () ->
      let dir = shard_dir t key in
      ensure_dir dir;
      write_atomic ~dir ~path:(object_path t key)
        (Json.to_string (object_json ~key outcome) ^ "\n");
      if not (Hashtbl.mem t.table key) then Hashtbl.replace t.table key ();
      touch t key;
      let evicted =
        if Hashtbl.length t.table > t.capacity then begin
          match List.rev t.recency with
          | [] -> assert false
          | oldest :: _ ->
              forget t oldest;
              t.evictions <- t.evictions + 1;
              count "noc_store_evictions_total";
              true
        end
        else false
      in
      flush_index t;
      evicted)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.table;
      })

let hit_rate s =
  let total = s.hits + s.misses in
  if total = 0 then 0. else float_of_int s.hits /. float_of_int total

let reset_counters t =
  locked t (fun () ->
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0)

let flush t = locked t (fun () -> flush_index t)

let pp_stats ppf s =
  Format.fprintf ppf "%d hit%s / %d miss%s (%.0f%%), %d entr%s on disk, %d eviction%s"
    s.hits
    (if s.hits = 1 then "" else "s")
    s.misses
    (if s.misses = 1 then "" else "es")
    (100. *. hit_rate s)
    s.entries
    (if s.entries = 1 then "y" else "ies")
    s.evictions
    (if s.evictions = 1 then "" else "s")
