(* Content-addressed result cache: job hash -> outcome, LRU-bounded,
   shared across the worker domains of a batch (hence the mutex — the
   table and the recency list must move together).  Hit/miss counters
   feed telemetry and the service bench's warm-replay measurement. *)

(* Evictions happen on worker domains mid-batch, where nobody is
   looking at [stats]; the registry counter makes them visible to
   serve-stats and every other metrics consumer as they happen.
   Registered by [create], so tools that never build a cache keep it
   out of their traces; looked up per eviction, which is safe from any
   domain. *)
let evictions_total () = Noc_obs.Metrics.counter "noc_cache_evictions_total"

type entry = { key : string; mutable outcome : Outcome.t }

type t = {
  capacity : int;
  table : (string, entry) Hashtbl.t;
  (* Most-recent first.  A plain list is fine: capacities are small
     (hundreds), and every operation already takes the mutex. *)
  mutable recency : entry list;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutex : Mutex.t;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Result_cache.create: capacity < 1";
  ignore (evictions_total ());
  {
    capacity;
    table = Hashtbl.create (min capacity 64);
    recency = [];
    hits = 0;
    misses = 0;
    evictions = 0;
    mutex = Mutex.create ();
  }

let capacity t = t.capacity

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let touch t entry =
  t.recency <- entry :: List.filter (fun e -> e.key <> entry.key) t.recency

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some entry ->
          t.hits <- t.hits + 1;
          touch t entry;
          Some entry.outcome
      | None ->
          t.misses <- t.misses + 1;
          None)

let store t key outcome =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some entry ->
          entry.outcome <- outcome;
          touch t entry;
          false
      | None ->
          let entry = { key; outcome } in
          Hashtbl.replace t.table key entry;
          touch t entry;
          if Hashtbl.length t.table > t.capacity then begin
            match List.rev t.recency with
            | [] -> assert false
            | oldest :: _ ->
                Hashtbl.remove t.table oldest.key;
                t.recency <- List.filter (fun e -> e.key <> oldest.key) t.recency;
                t.evictions <- t.evictions + 1;
                Noc_obs.Metrics.incr (evictions_total ());
                true
          end
          else false)

type stats = { hits : int; misses : int; evictions : int; entries : int }

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

let pp_stats ppf s =
  Format.fprintf ppf "%d hit%s / %d miss%s (%.0f%%), %d entr%s, %d eviction%s"
    s.hits
    (if s.hits = 1 then "" else "s")
    s.misses
    (if s.misses = 1 then "" else "es")
    (100. *. hit_rate s)
    s.entries
    (if s.entries = 1 then "y" else "ies")
    s.evictions
    (if s.evictions = 1 then "" else "s")
