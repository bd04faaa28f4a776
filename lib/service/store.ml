(* Persistent content-addressed result store: the disk-backed
   successor of the in-memory Result_cache, so warm hits survive
   daemon restarts.

   The root holds one append-only log, store.log.  Each record is one
   line headed by its job hash: a put ("<hash> {...}", the
   self-describing payload) or a drop ("<hash> -", the hash left the
   table).  The table maps each live hash to its newest put's offset
   and length, so a store is one write(2) on a descriptor opened once
   and a lookup is one read.  Open replays the log by line heads only;
   a final line without its newline was torn mid-append and is cut
   off.  Payloads are checked when read: one that fails is dropped and
   reported as a miss, never served.

   Superseded puts, drops and garbled lines are dead bytes.  Once they
   outnumber the live ones, or at a flush when the log differs from
   the table, the live puts are rewritten in LRU order, oldest first,
   to a temp file renamed over the log.

   Nothing is fsynced: a kill -9 loses at most the record being
   appended and the recency order since the last flush.  A write the
   disk refuses is counted and swallowed, so it never takes a job
   down. *)

module Json = Noc_json.Json

(* Looked up per use, for the same reason as Result_cache: only
   processes that open a store carry its counters, and the registry
   lookup is safe from any domain. *)
let count name = Noc_obs.Metrics.incr (Noc_obs.Metrics.counter name)

let object_schema = "noc-store/1"
let log_name = "store.log"

(* Where a live hash's newest put sits in the log, newline included.
   [off] moves when the log is rewritten. *)
type loc = { mutable off : int; len : int }

type t = {
  root : string;
  (* Key set and recency move together under the mutex, exactly like
     Result_cache; the disk adds durability, not a new concurrency
     story.  The log descriptor, its end and the byte counts are only
     touched under it too. *)
  lru : loc Lru.t;
  mutable fd : Unix.file_descr;
  (* End of the log: where the next record lands. *)
  mutable size : int;
  (* Bytes of the live puts; [size - live] are dead. *)
  mutable live : int;
  (* A hit has moved a key in the table but not in the log. *)
  mutable reordered : bool;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutex : Mutex.t;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let is_hex s = String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let valid_key key = String.length key >= 3 && is_hex key

let log_path root = Filename.concat root log_name

let ensure_dir path =
  if not (Sys.file_exists path) then
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let write_error () = count "noc_store_write_errors_total"

(* ------------------------------------------------------------------ *)
(* Records                                                             *)
(* ------------------------------------------------------------------ *)

let put_line ~key outcome =
  let payload =
    Json.Obj
      [
        ("schema", Json.Str object_schema);
        ("job_hash", Json.Str key);
        ("outcome", Outcome.to_json outcome);
      ]
  in
  String.concat "" [ key; " "; Json.to_string payload; "\n" ]

let drop_line key = key ^ " -\n"

(* A line's head, without its newline: [`Put key], [`Drop key] or
   garbled.  The payload is not looked at. *)
let classify line =
  match String.index_opt line ' ' with
  | None -> `Garbled
  | Some i -> (
      let key = String.sub line 0 i in
      if i + 1 = String.length line || not (valid_key key) then `Garbled
      else
        match line.[i + 1] with
        | '{' -> `Put key
        | '-' when i + 2 = String.length line -> `Drop key
        | _ -> `Garbled)

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

let decode_record ~key line =
  let prefix = key ^ " " in
  let n = String.length prefix in
  if String.starts_with ~prefix line then
    decode_object ~key (String.sub line n (String.length line - n))
  else Error "record of another key"

(* ------------------------------------------------------------------ *)
(* Log I/O, under the mutex                                            *)
(* ------------------------------------------------------------------ *)

(* Unix.write retries until every byte is out; a record is one
   write(2). *)
let write_all fd s = ignore (Unix.write_substring fd s 0 (String.length s))

(* A failed append is cut back off the log, so half a record never
   prefixes the next one. *)
let append t line =
  match write_all t.fd line with
  | () ->
      let loc = { off = t.size; len = String.length line } in
      t.size <- t.size + loc.len;
      Some loc
  | exception Unix.Unix_error _ ->
      (try Unix.ftruncate t.fd t.size with Unix.Unix_error _ -> ());
      write_error ();
      None

let read_record t { off; len } =
  let buf = Bytes.create len in
  let rec go pos =
    if pos = len then Ok (Bytes.unsafe_to_string buf)
    else
      match Unix.read t.fd buf pos (len - pos) with
      | 0 -> Error "record cut short"
      | n -> go (pos + n)
  in
  try
    ignore (Unix.lseek t.fd off Unix.SEEK_SET);
    go 0
  with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* Write the live puts, least recent first, to a fresh log and rename
   it over the old one; the new descriptor stays open across the
   rename.  Any failure leaves the old log in use. *)
let rewrite t =
  let path = log_path t.root in
  let tmp = path ^ ".tmp" in
  match Unix.openfile tmp [ O_RDWR; O_APPEND; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 with
  | exception Unix.Unix_error _ -> write_error ()
  | fd -> (
      let buf = Buffer.create 65536 in
      let spill () =
        write_all fd (Buffer.contents buf);
        Buffer.clear buf
      in
      let copy (moved, off) (_, loc) =
        match read_record t loc with
        | Error e -> raise (Sys_error e)
        | Ok record ->
            Buffer.add_string buf record;
            if Buffer.length buf >= 65536 then spill ();
            ((loc, off) :: moved, off + loc.len)
      in
      match
        let moved, size = List.fold_left copy ([], 0) (Lru.bindings t.lru) in
        spill ();
        Unix.rename tmp path;
        (moved, size)
      with
      | moved, size ->
          (try Unix.close t.fd with Unix.Unix_error _ -> ());
          t.fd <- fd;
          List.iter (fun (loc, off) -> loc.off <- off) moved;
          t.size <- size;
          t.live <- size;
          t.reordered <- false
      | exception (Unix.Unix_error _ | Sys_error _) ->
          Unix.close fd;
          (try Unix.unlink tmp with Unix.Unix_error _ -> ());
          write_error ())

let compact_if_due t = if t.size - t.live > t.live then rewrite t

(* [key] left the table at [loc]: its put is dead, and a drop record
   keeps it out of the next open. *)
let drop t key loc =
  t.live <- t.live - loc.len;
  ignore (append t (drop_line key))

let evict t (key, loc) =
  drop t key loc;
  t.evictions <- t.evictions + 1;
  count "noc_store_evictions_total"

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

(* The newest put of every live key with the index of its line, and the
   end of the last whole line.  Reads the log through a buffered
   channel, one line at a time. *)
let replay path =
  let latest = Hashtbl.create 256 in
  In_channel.with_open_bin path @@ fun ic ->
  let rec go seq off =
    match In_channel.input_line ic with
    | None -> off
    | Some line ->
        let next = Int64.to_int (In_channel.pos ic) in
        if next = off + String.length line then off (* torn: no newline *)
        else begin
          (match classify line with
          | `Put key -> Hashtbl.replace latest key (seq, { off; len = next - off })
          | `Drop key -> Hashtbl.remove latest key
          | `Garbled -> ());
          go (seq + 1) next
        end
  in
  let valid = go 0 0 in
  (latest, valid)

let create ~root ~capacity =
  if capacity < 1 then invalid_arg "Store.create: capacity < 1";
  ignore (Noc_obs.Metrics.counter "noc_store_evictions_total");
  ignore (Noc_obs.Metrics.counter "noc_store_write_errors_total");
  ensure_dir root;
  let path = log_path root in
  (* What a crash in the middle of a rewrite left behind. *)
  (try Unix.unlink (path ^ ".tmp") with Unix.Unix_error _ -> ());
  let fd = Unix.openfile path [ O_RDWR; O_APPEND; O_CREAT; O_CLOEXEC ] 0o644 in
  let t =
    {
      root;
      lru = Lru.create ~capacity;
      fd;
      size = 0;
      live = 0;
      reordered = false;
      hits = 0;
      misses = 0;
      evictions = 0;
      mutex = Mutex.create ();
    }
  in
  (* Only a regular file has an end to read to. *)
  let st = Unix.fstat fd in
  if st.Unix.st_kind = Unix.S_REG then begin
    let latest, valid = replay path in
    if valid < st.Unix.st_size then Unix.ftruncate fd valid;
    t.size <- valid;
    (* Oldest first, so each key gets its place in the log's order.  A
       store reopened above its capacity sheds its least recent entries
       here, where inserts alone would evict one per insert and never
       shrink it. *)
    Hashtbl.fold (fun key (seq, loc) acc -> (seq, key, loc) :: acc) latest []
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
    |> List.iter (fun (_, key, loc) ->
           t.live <- t.live + loc.len;
           Option.iter (evict t) (Lru.add t.lru key loc));
    compact_if_due t
  end;
  t

let root t = t.root

(* ------------------------------------------------------------------ *)
(* Lookup and insert                                                   *)
(* ------------------------------------------------------------------ *)

let find t key =
  count "noc_store_lookups_total";
  locked t (fun () ->
      match Lru.find t.lru key with
      | None ->
          t.misses <- t.misses + 1;
          None
      | Some loc -> (
          match Result.bind (read_record t loc) (decode_record ~key) with
          | Ok outcome ->
              t.hits <- t.hits + 1;
              t.reordered <- true;
              count "noc_store_hits_total";
              Some outcome
          | Error _ ->
              (* Corrupt record: drop it so the next run recomputes and
                 rewrites, instead of failing forever. *)
              Lru.remove t.lru key;
              drop t key loc;
              compact_if_due t;
              t.misses <- t.misses + 1;
              None))

let store t key outcome =
  if not (valid_key key) then invalid_arg "Store.store: not a hex job hash";
  let line = put_line ~key outcome in
  locked t (fun () ->
      match append t line with
      | None -> false
      | Some loc ->
          (* A put of a stored key makes its older put dead. *)
          Option.iter (fun old -> t.live <- t.live - old.len) (Lru.find t.lru key);
          t.live <- t.live + loc.len;
          let evicted = Lru.add t.lru key loc in
          Option.iter (evict t) evicted;
          compact_if_due t;
          evicted <> None)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Lru.length t.lru;
      })

let hit_rate s =
  let total = s.hits + s.misses in
  if total = 0 then 0. else float_of_int s.hits /. float_of_int total

let flush t = locked t (fun () -> if t.reordered || t.size > t.live then rewrite t)
