(* The noc serve daemon: a select loop on one thread, solver work on
   the domain pool, results streamed back over noc-wire/1 frames.

   Division of labour:

   - The accept/read loop (the thread that called [run]) owns every
     file descriptor: it accepts connections, feeds each connection's
     frame decoder, vets submissions through the lint gate, consults
     the persistent store, and hands cache misses to the pool.  It
     never runs a solver, and it never blocks reading a socket: select
     tells it what is readable.  Writes do block.  [send] loops on a
     blocking write, and the loop itself sends every pong, metrics
     report, rejection, overload reply and store-hit result, so one
     client that stops reading stalls the whole loop once its socket
     buffer fills (ROADMAP item 1 output-queues the connections).
   - Worker domains run [Runner.execute], write the outcome into the
     store, and send the result frame themselves — each connection has
     a write mutex, so replies from any domain interleave whole frames,
     never bytes.  A worker never touches the fd table; it only writes
     to fds the loop keeps alive until the connection's pending count
     drops to zero (so a recycled descriptor can never receive another
     client's result).
   - Backpressure is typed, not implicit: when the bounded queue is
     full, [try_submit] fails and the client gets [Overloaded] with
     the current depth instead of a stalled socket.

   Graceful drain ([stop], wired to SIGTERM by noc_tool serve): stop
   accepting, answer new submissions with a draining rejection, wait
   for in-flight jobs, shut the pool down (joining the workers closes
   their trace spans), flush the store, close everything,
   return.  The self-pipe makes [stop] safe to call from a
   signal handler or another domain: it only sets an atomic and writes
   one byte. *)

module Json = Noc_json.Json

(* Built in [create], before the pool can spawn its workers (at the
   first store miss): the serve.* family belongs in a daemon's registry
   from startup (a /metrics report with the counters at zero), but not
   in the traces of CLI runs that never start a server.  Workers reach
   the handles through [t], so no instrument is ever registered on a
   worker domain. *)
type serve_metrics = {
  m_jobs : Noc_obs.Metrics.counter;
  m_rejected : Noc_obs.Metrics.counter;
  m_overloaded : Noc_obs.Metrics.counter;
  m_warm_hits : Noc_obs.Metrics.counter;
  m_connections : Noc_obs.Metrics.counter;
  m_scrapes : Noc_obs.Metrics.counter;
  m_queue_depth : Noc_obs.Metrics.gauge;
  m_inflight : Noc_obs.Metrics.gauge;
  (* Per-method request-handling latency (admission time for submit —
     the queue and solver are covered by m_submit_to_result_ms). *)
  m_req_submit : Noc_obs.Metrics.histogram;
  m_req_metrics : Noc_obs.Metrics.histogram;
  m_req_ping : Noc_obs.Metrics.histogram;
  (* Receipt of the submit frame to the result frame going out. *)
  m_submit_to_result_ms : Noc_obs.Metrics.histogram;
}

let serve_metrics () =
  let request_ms name =
    Noc_obs.Metrics.histogram "noc_serve_request_ms"
      ~labels:[ ("method", name) ]
  in
  {
    m_jobs = Noc_obs.Metrics.counter "noc_serve_jobs_total";
    m_rejected = Noc_obs.Metrics.counter "noc_serve_rejected_total";
    m_overloaded = Noc_obs.Metrics.counter "noc_serve_overloaded_total";
    m_warm_hits = Noc_obs.Metrics.counter "noc_serve_warm_hits_total";
    m_connections = Noc_obs.Metrics.counter "noc_serve_connections_total";
    m_scrapes = Noc_obs.Metrics.counter "noc_serve_scrapes_total";
    m_queue_depth = Noc_obs.Metrics.gauge "noc_serve_queue_depth";
    m_inflight = Noc_obs.Metrics.gauge "noc_serve_inflight";
    m_req_submit = request_ms "submit";
    m_req_metrics = request_ms "metrics";
    m_req_ping = request_ms "ping";
    m_submit_to_result_ms =
      Noc_obs.Metrics.histogram "noc_serve_submit_to_result_ms";
  }

type config = {
  socket_path : string;
  tcp_port : int option;  (* loopback, for clients that cannot speak AF_UNIX *)
  metrics_addr : int option;
      (* loopback HTTP port serving the Prometheus text exposition *)
  domains : int;
  queue_capacity : int;
  store : Store.t option;
  lint : bool;
  slos : Noc_obs.Slo.t list;
}

let default_config =
  {
    socket_path = "noc-serve.sock";
    tcp_port = None;
    metrics_addr = None;
    domains = 2;
    queue_capacity = 64;
    store = None;
    lint = true;
    slos = Noc_obs.Slo.defaults;
  }

type conn = {
  fd : Unix.file_descr;
  dec : Wire.decoder;
  write_mutex : Mutex.t;
  alive : bool Atomic.t;  (* false: stop writing (peer gone or protocol error) *)
  mutable eof : bool;  (* true: stop reading; close once pending = 0 *)
  pending : int Atomic.t;  (* jobs in the pool that will write to this fd *)
}

type t = {
  config : config;
  pool : Noc_pool.Pool.t;
  m : serve_metrics;
  stopping : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  inflight : int Atomic.t;
  mutable started_at : float;
}

let create config =
  if config.domains < 1 then invalid_arg "Server.create: domains < 1";
  if config.queue_capacity < 1 then
    invalid_arg "Server.create: queue_capacity < 1";
  let m = serve_metrics () in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_w;
  {
    config;
    pool =
      Noc_pool.Pool.create ~queue_capacity:config.queue_capacity
        ~domains:config.domains ();
    m;
    stopping = Atomic.make false;
    wake_r;
    wake_w;
    inflight = Atomic.make 0;
    started_at = 0.;
  }

let wake t =
  try ignore (Unix.write t.wake_w (Bytes.make 1 'w') 0 1)
  with Unix.Unix_error _ -> ()  (* pipe full: the loop is already awake *)

let stop t =
  Atomic.set t.stopping true;
  wake t

let stopping t = Atomic.get t.stopping

(* ------------------------------------------------------------------ *)
(* Frame writes (any domain)                                           *)
(* ------------------------------------------------------------------ *)

let send conn response =
  if Atomic.get conn.alive then begin
    let data = Wire.encode_response response in
    Mutex.lock conn.write_mutex;
    (try
       let len = String.length data in
       let off = ref 0 in
       while !off < len do
         off := !off + Unix.write_substring conn.fd data !off (len - !off)
       done
     with Unix.Unix_error _ | Sys_error _ -> Atomic.set conn.alive false);
    Mutex.unlock conn.write_mutex
  end

(* ------------------------------------------------------------------ *)
(* The /metrics-style report                                           *)
(* ------------------------------------------------------------------ *)

let typed_stats t =
  {
    Wire.uptime_s = Unix.gettimeofday () -. t.started_at;
    draining = stopping t;
    queue_depth = Noc_pool.Pool.queue_depth t.pool;
    inflight = Atomic.get t.inflight;
    store =
      Option.map
        (fun store ->
          let s = Store.stats store in
          {
            Wire.entries = s.Store.entries;
            hits = s.Store.hits;
            misses = s.Store.misses;
            evictions = s.Store.evictions;
            hit_rate = Store.hit_rate s;
          })
        t.config.store;
  }

(* Snapshot plus the SLO verdict gauges — what both the wire Metrics
   reply and the HTTP exposition serve. *)
let evaluated_snapshot t =
  let metrics = Noc_obs.Metrics.snapshot () in
  let verdicts = Noc_obs.Slo.evaluate t.config.slos metrics in
  (metrics @ Noc_obs.Slo.to_metrics verdicts, verdicts)

let metrics_report t =
  let metrics, verdicts = evaluated_snapshot t in
  Wire.Metrics_report
    {
      Wire.mr_stats = typed_stats t;
      mr_metrics = Noc_obs.Expo.json metrics;
      mr_slo = Noc_obs.Slo.to_json verdicts;
    }

(* ------------------------------------------------------------------ *)
(* Request handling (the loop thread)                                  *)
(* ------------------------------------------------------------------ *)

let finish_job t conn ~id ~received_ns ~hash ~cached outcome =
  Noc_obs.Metrics.observe t.m.m_submit_to_result_ms
    (Noc_obs.Clock.ms_between ~start_ns:received_ns
       ~stop_ns:(Noc_obs.Clock.now_ns ()));
  send conn (Wire.Result { id; job_hash = hash; outcome; cached })

(* Admission, traced as one serve.submit span whose [verdict] says how
   the request left the loop: [hit], [queued], [rejected], [overloaded]
   or [draining]. *)
let handle_submit t conn ~id ?corr job =
  let m = t.m in
  let received_ns = Noc_obs.Clock.now_ns () in
  Noc_obs.Metrics.incr m.m_jobs;
  Noc_obs.Trace.with_span "serve.submit" @@ fun sp ->
  let hash = Job.hash job in
  (* What names the request in serve.submit and serve.job: the first 8
     hex characters of its one hash, and its correlation id if sent. *)
  let attrs =
    ("job", Noc_obs.Trace.Str (String.sub hash 0 8))
    :: (match corr with None -> [] | Some c -> [ ("corr", Noc_obs.Trace.Str c) ])
  in
  List.iter (fun (k, v) -> Noc_obs.Trace.add_attr sp k v) attrs;
  let reject reason =
    Noc_obs.Metrics.incr m.m_rejected;
    send conn (Wire.Rejected { id; reason })
  in
  let verdict =
    if stopping t then begin
      reject "server is draining";
      "draining"
    end
    else
      match if t.config.lint then Lint.vet_job job else Ok () with
      | Error reason ->
          reject reason;
          "rejected"
      | Ok () -> (
          match
            Option.bind t.config.store (fun store -> Store.find store hash)
          with
          | Some outcome ->
              Noc_obs.Metrics.incr m.m_warm_hits;
              finish_job t conn ~id ~received_ns ~hash ~cached:true outcome;
              "hit"
          | None -> (
              let depth = Noc_pool.Pool.queue_depth t.pool in
              Noc_obs.Metrics.set_gauge m.m_queue_depth (float_of_int depth);
              Atomic.incr t.inflight;
              Atomic.incr conn.pending;
              Noc_obs.Metrics.set_gauge m.m_inflight
                (float_of_int (Atomic.get t.inflight));
              let task () =
                Noc_obs.Trace.with_span "serve.job" ~attrs @@ fun sp ->
                (* The words this worker's domain allocates for the job:
                   [Gc.minor_words] counts the calling domain only. *)
                let words = Gc.minor_words () in
                let outcome = Runner.execute job in
                (match t.config.store with
                | Some store when Outcome.is_done outcome ->
                    ignore (Store.store store hash outcome)
                | _ -> ());
                finish_job t conn ~id ~received_ns ~hash ~cached:false outcome;
                Atomic.decr t.inflight;
                Atomic.decr conn.pending;
                wake t;
                Noc_obs.Trace.add_attr sp "words"
                  (Noc_obs.Trace.Int (int_of_float (Gc.minor_words () -. words)));
                Noc_obs.Trace.add_attr sp "status"
                  (Noc_obs.Trace.Str (Outcome.status_name outcome.Outcome.status))
              in
              let unqueued () =
                Atomic.decr t.inflight;
                Atomic.decr conn.pending
              in
              (* The first miss spawns the pool's workers; a spawn the
                 runtime refuses rejects this job and leaves the loop
                 serving. *)
              match Noc_pool.Pool.try_submit t.pool task with
              | true -> "queued"
              | false ->
                  unqueued ();
                  Noc_obs.Metrics.incr m.m_overloaded;
                  send conn (Wire.Overloaded { id; queue_depth = depth });
                  "overloaded"
              | exception Failure reason ->
                  unqueued ();
                  reject reason;
                  "rejected"))
  in
  Noc_obs.Trace.add_attr sp "verdict" (Noc_obs.Trace.Str verdict)

let handle_request t conn request =
  let request_hist =
    match request with
    | Wire.Ping -> t.m.m_req_ping
    | Wire.Metrics -> t.m.m_req_metrics
    | Wire.Submit _ -> t.m.m_req_submit
  in
  let t0 = Noc_obs.Clock.now_ns () in
  (match request with
  | Wire.Ping -> send conn Wire.Pong
  | Wire.Metrics -> send conn (metrics_report t)
  | Wire.Submit { id; corr; job } -> handle_submit t conn ~id ?corr job);
  Noc_obs.Metrics.observe request_hist
    (Noc_obs.Clock.ms_between ~start_ns:t0 ~stop_ns:(Noc_obs.Clock.now_ns ()))

let handle_readable t conn buf =
  match Unix.read conn.fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      conn.eof <- true;
      Atomic.set conn.alive false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | 0 -> conn.eof <- true
  | n ->
      Wire.feed conn.dec (Bytes.sub_string buf 0 n) ~off:0 ~len:n;
      let rec drain () =
        match Wire.next conn.dec with
        | Ok None -> ()
        | Ok (Some json) ->
            (match Wire.request_of_json json with
            | Ok request -> handle_request t conn request
            | Error e ->
                (* Bad message in a good frame: answer and carry on —
                   the stream is still synchronized. *)
                send conn (Wire.Error_msg e));
            drain ()
        | Error e ->
            (* Framing is broken; nothing downstream can be trusted. *)
            send conn (Wire.Error_msg e);
            conn.eof <- true;
            Atomic.set conn.alive false
      in
      drain ()

(* ------------------------------------------------------------------ *)
(* Listeners and the loop                                              *)
(* ------------------------------------------------------------------ *)

let unix_listener path =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Sys.remove path  (* stale *)
  | _ -> failwith (Printf.sprintf "%s exists and is not a socket" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  (* Bind under a temporary name and rename it onto [path] only once
     the socket listens: a client that connects as soon as [path]
     exists is never refused. *)
  let tmp = Printf.sprintf "%s.%d" path (Unix.getpid ()) in
  (try Unix.unlink tmp with Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX tmp);
  Unix.listen fd 64;
  Unix.rename tmp path;
  fd

let tcp_listener port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

let accept t conns lfd =
  match Unix.accept lfd with
  | exception Unix.Unix_error (_, _, _) -> ()
  | fd, _ ->
      Noc_obs.Metrics.incr t.m.m_connections;
      conns :=
        {
          fd;
          dec = Wire.decoder ();
          write_mutex = Mutex.create ();
          alive = Atomic.make true;
          eof = false;
          pending = Atomic.make 0;
        }
        :: !conns;
      send (List.hd !conns) (Wire.Hello { protocol = Wire.protocol })

let close_conn conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* One-shot HTTP exchange on the loop thread: accept, read whatever
   request bytes arrived (with a receive timeout so a silent client
   cannot wedge the loop), write the exposition, close.  Scrapers are
   loopback-only (tcp_listener binds 127.0.0.1) and the body is a few
   KiB, so a blocking write is fine here. *)
let handle_scrape t lfd =
  match Unix.accept lfd with
  | exception Unix.Unix_error (_, _, _) -> ()
  | fd, _ ->
      Noc_obs.Metrics.incr t.m.m_scrapes;
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0
       with Unix.Unix_error _ -> ());
      (try ignore (Unix.read fd (Bytes.create 4096) 0 4096)
       with Unix.Unix_error _ -> ());
      let metrics, _ = evaluated_snapshot t in
      let body = Noc_obs.Expo.text metrics in
      let response =
        Printf.sprintf
          "HTTP/1.0 200 OK\r\n\
           Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
           Content-Length: %d\r\n\
           Connection: close\r\n\
           \r\n\
           %s"
          (String.length body) body
      in
      (try
         let len = String.length response in
         let off = ref 0 in
         while !off < len do
           off := !off + Unix.write_substring fd response !off (len - !off)
         done
       with Unix.Unix_error _ | Sys_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

let run t =
  (* A client that vanished mid-reply must cost an EPIPE error code,
     not the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* The daemon's life, store flush included, is one serve.run span. *)
  Noc_obs.Trace.with_span "serve.run" @@ fun _ ->
  t.started_at <- Unix.gettimeofday ();
  let listeners =
    unix_listener t.config.socket_path
    :: (match t.config.tcp_port with
       | None -> []
       | Some port -> [ tcp_listener port ])
  in
  let metrics_listener = Option.map tcp_listener t.config.metrics_addr in
  let conns = ref [] in
  let buf = Bytes.create 65536 in
  let listeners_open = ref true in
  (* The serve.drain span, open from the first iteration that sees the
     stop flag until the last in-flight job is done. *)
  let drain = ref None in
  let close_listeners () =
    if !listeners_open then begin
      listeners_open := false;
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners
    end
  in
  let close_metrics_listener () =
    Option.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      metrics_listener
  in
  let finished = ref false in
  while not !finished do
    if stopping t && Option.is_none !drain then begin
      drain := Some (Noc_obs.Trace.start "serve.drain");
      close_listeners ()
    end;
    if stopping t && Atomic.get t.inflight = 0 then begin
      Option.iter Noc_obs.Trace.finish !drain;
      finished := true
    end
    else begin
      (* Connections at EOF with no pending replies can be retired;
         everyone else stays selectable. *)
      conns :=
        List.filter
          (fun c ->
            if (c.eof || not (Atomic.get c.alive)) && Atomic.get c.pending = 0
            then begin
              close_conn c;
              false
            end
            else true)
          !conns;
      let read_fds =
        (t.wake_r :: (if !listeners_open then listeners else []))
        @ Option.to_list metrics_listener
        @ List.filter_map
            (fun c -> if c.eof then None else Some c.fd)
            !conns
      in
      match Unix.select read_fds [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, _, _ ->
          if List.mem t.wake_r readable then
            ignore (Unix.read t.wake_r buf 0 (Bytes.length buf));
          if !listeners_open then
            List.iter
              (fun lfd -> if List.mem lfd readable then accept t conns lfd)
              listeners;
          Option.iter
            (fun lfd -> if List.mem lfd readable then handle_scrape t lfd)
            metrics_listener;
          List.iter
            (fun c ->
              if (not c.eof) && List.mem c.fd readable then
                handle_readable t c buf)
            !conns
    end
  done;
  (* Drained: no job will write again.  Joining the workers closes
     their pool.worker spans, so a --trace stream is balanced. *)
  Noc_pool.Pool.shutdown t.pool;
  List.iter close_conn !conns;
  close_listeners ();
  close_metrics_listener ();
  (try Sys.remove t.config.socket_path with Sys_error _ -> ());
  Option.iter Store.flush t.config.store;
  Unix.close t.wake_r;
  Unix.close t.wake_w
