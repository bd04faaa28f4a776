(* The daemon under test: a real [noc_tool serve] process with two
   worker domains and its own store directory, spawned from the freshly
   built binary and stopped with SIGTERM (graceful drain). *)

open Noc_service

let exe = "_build/default/bin/noc_tool.exe"
let domains = 2

type t = { pid : int; socket : string }

(* Daemons still running, so an abort (exception or signal) can stop
   them before the benchmark exits. *)
let live : t list ref = ref []

let now_s () = Int64.to_float (Noc_obs.Clock.now_ns ()) /. 1e9

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* Spawn a daemon on [store] and wait for its Hello.  Returns the
   daemon, a connected client and the set-up time: spawn until the
   first Hello frame has been read (the store index load included). *)
let spawn ~dir ~store =
  let socket = Filename.concat dir "serve.sock" in
  let log =
    Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = now_s () in
  let pid =
    Unix.create_process exe
      [|
        exe; "serve"; "--socket"; socket; "--store"; store; "--domains";
        string_of_int domains;
      |]
      null log log
  in
  Unix.close log;
  Unix.close null;
  let d = { pid; socket } in
  live := d :: !live;
  let rec hello () =
    match Client.connect ~socket with
    | Ok client -> client
    | Error e ->
        if exited pid then failwith ("daemon exited before its hello: " ^ e)
        else if now_s () -. t0 > 60. then failwith ("no hello from daemon: " ^ e)
        else (
          Unix.sleepf 0.0002;
          hello ())
  in
  let client = hello () in
  (d, client, now_s () -. t0)

(* Peak resident set (VmHWM), read while the daemon still runs. *)
let peak_rss_mb d =
  let ic = open_in (Printf.sprintf "/proc/%d/status" d.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith "no VmHWM in /proc status"
      in
      scan ())

let stop d =
  live := List.filter (fun d' -> d'.pid <> d.pid) !live;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> ()
  | _, (Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c) ->
      failwith (Printf.sprintf "daemon exited with status %d" c)
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let stop_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* [n] set-ups on [store]: every daemon but the last is stopped right
   after its Hello.  Returns the last one, still serving, its client,
   and the set-up times. *)
let setups ~dir ~store n =
  let rec go i times =
    let d, client, s = spawn ~dir ~store in
    if i + 1 = n then (d, client, List.rev (s :: times))
    else (
      Client.close client;
      stop d;
      go (i + 1) (s :: times))
  in
  go 0 []
