type task = unit -> unit

type t = {
  queue : task Bounded_queue.t;
  workers : unit Domain.t array;
  workers_gauge : Noc_obs.Metrics.gauge;
  busy_gauge : Noc_obs.Metrics.gauge;
  mutable shut_down : bool;
}

let default_queue_capacity = 256

(* Queue wait — push to pop — is the pool's saturation signal; it is
   measured per task (the histogram is always on, one atomic per
   sample) rather than per pool so traces from nested pools merge. *)
let queue_wait_ms = Noc_obs.Metrics.histogram "noc_pool_queue_wait_ms"
let tasks_total = Noc_obs.Metrics.counter "noc_pool_tasks_total"

(* Worker-utilization gauges.  [create] registers them, on the calling
   domain before any worker exists, so they appear only once a pool
   does (pool-free traces stay clean) and workers only ever touch the
   handles in [t].  Counts aggregate across live pools; busy/total is
   the utilization `noc_tool top` shows. *)
let total_workers = Atomic.make 0
let busy_workers = Atomic.make 0

let adjust gauge count delta =
  let v = Atomic.fetch_and_add count delta + delta in
  Noc_obs.Metrics.set_gauge gauge (float_of_int v)

let worker_loop queue () =
  (* One span per worker domain, covering its whole lifetime; task
     spans nest under it on the same domain's buffer. *)
  Noc_obs.Trace.with_span "pool.worker" @@ fun _sp ->
  let rec loop () =
    match Bounded_queue.pop queue with
    | None -> ()
    | Some task ->
        task ();
        loop ()
  in
  loop ()

let create ?(queue_capacity = default_queue_capacity) ~domains () =
  if domains < 1 then invalid_arg "Pool.create: domains < 1";
  let queue = Bounded_queue.create ~capacity:queue_capacity in
  let workers_gauge = Noc_obs.Metrics.gauge "noc_pool_workers" in
  let busy_gauge = Noc_obs.Metrics.gauge "noc_pool_busy_workers" in
  let workers = Array.init domains (fun _ -> Domain.spawn (worker_loop queue)) in
  adjust workers_gauge total_workers domains;
  { queue; workers; workers_gauge; busy_gauge; shut_down = false }

let domains t = Array.length t.workers

let queue_depth t = Bounded_queue.length t.queue

let shutdown t =
  if not t.shut_down then begin
    t.shut_down <- true;
    Bounded_queue.close t.queue;
    Array.iter Domain.join t.workers;
    adjust t.workers_gauge total_workers (-Array.length t.workers)
  end

let with_pool ?queue_capacity ~domains f =
  let t = create ?queue_capacity ~domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let instrumented t task =
  let submitted_ns = Noc_obs.Clock.now_ns () in
  fun () ->
    let wait_ms =
      Noc_obs.Clock.ms_between ~start_ns:submitted_ns
        ~stop_ns:(Noc_obs.Clock.now_ns ())
    in
    Noc_obs.Metrics.observe queue_wait_ms wait_ms;
    Noc_obs.Metrics.incr tasks_total;
    adjust t.busy_gauge busy_workers 1;
    Fun.protect
      ~finally:(fun () -> adjust t.busy_gauge busy_workers (-1))
      (fun () ->
        Noc_obs.Trace.with_span "pool.task"
          ~attrs:[ ("queue_wait_ms", Noc_obs.Trace.Float wait_ms) ]
          (fun _sp -> task ()))

let submit t task =
  if t.shut_down then invalid_arg "Pool.submit: pool is shut down";
  Bounded_queue.push t.queue (instrumented t task)

let try_submit t task =
  if t.shut_down then invalid_arg "Pool.try_submit: pool is shut down";
  Bounded_queue.try_push t.queue (instrumented t task)

(* Order-preserving parallel map.  Tasks store into a slot array; the
   caller blocks until every slot is filled, then re-raises the first
   exception (by item index) if any task failed.  Submission happens on
   the calling thread, so a full queue applies backpressure here rather
   than growing without bound. *)
let map t f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  if n = 0 then []
  else begin
    let results = Array.make n None in
    let mutex = Mutex.create () in
    let all_done = Condition.create () in
    let remaining = ref n in
    for i = 0 to n - 1 do
      submit t (fun () ->
          let r = try Ok (f items.(i)) with e -> Error e in
          Mutex.lock mutex;
          results.(i) <- Some r;
          decr remaining;
          if !remaining = 0 then Condition.signal all_done;
          Mutex.unlock mutex)
    done;
    Mutex.lock mutex;
    while !remaining > 0 do
      Condition.wait all_done mutex
    done;
    Mutex.unlock mutex;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error e) -> raise e
           | None -> assert false)
         results)
  end

let run ?queue_capacity ~domains f xs =
  if domains <= 1 then List.map f xs
  else with_pool ?queue_capacity ~domains (fun t -> map t f xs)
