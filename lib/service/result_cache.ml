(* Content-addressed result cache: job hash -> outcome, LRU-bounded,
   shared across the worker domains of a batch (hence the mutex — the
   table and its recency stamps must move together).  Hit/miss counters
   feed the service bench's warm-replay measurement. *)

(* Evictions happen on worker domains mid-batch, where nobody is
   looking at [stats]; the registry counter makes them visible to
   serve-stats and every other metrics consumer as they happen.
   Registered by [create], so tools that never build a cache keep it
   out of their traces; looked up per eviction, which is safe from any
   domain. *)
let evictions_total () = Noc_obs.Metrics.counter "noc_cache_evictions_total"

type t = {
  lru : Outcome.t Lru.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutex : Mutex.t;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Result_cache.create: capacity < 1";
  ignore (evictions_total ());
  {
    lru = Lru.create ~capacity;
    hits = 0;
    misses = 0;
    evictions = 0;
    mutex = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let find t key =
  locked t (fun () ->
      match Lru.find t.lru key with
      | Some outcome ->
          t.hits <- t.hits + 1;
          Some outcome
      | None ->
          t.misses <- t.misses + 1;
          None)

let store t key outcome =
  locked t (fun () ->
      match Lru.add t.lru key outcome with
      | Some _ ->
          t.evictions <- t.evictions + 1;
          Noc_obs.Metrics.incr (evictions_total ());
          true
      | None -> false)

type stats = { hits : int; misses : int; evictions : int; entries : int }

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

let reset_counters t =
  locked t (fun () ->
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0)
