open Noc_service
open Noc_oracle
module Json = Noc_json.Json

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Json: the hand-written printer/parser round-trips                   *)
(* ------------------------------------------------------------------ *)

(* Finite floats only: canonical JSON has no encoding for nan/inf. *)
let finite_float_gen =
  QCheck.Gen.(
    oneof
      [
        map float_of_int (int_range (-1_000_000) 1_000_000);
        map
          (fun (a, b) -> float_of_int a /. float_of_int (1 + abs b))
          (pair (int_range (-10_000) 10_000) (int_range 0 997));
        oneofl [ 0.; -0.; 1e-12; 1.5e300; -2.25 ];
      ])

let key_gen = QCheck.Gen.(string_size ~gen:printable (int_bound 12))

let json_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Num f) finite_float_gen;
        map (fun s -> Json.Str s) (string_size ~gen:printable (int_bound 20));
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (1, map (fun xs -> Json.Arr xs) (list_size (int_bound 4) (self (depth - 1))));
            ( 1,
              map
                (fun kvs -> Json.Obj kvs)
                (list_size (int_bound 4) (pair key_gen (self (depth - 1)))) );
          ])
    3

let arbitrary_json =
  QCheck.make ~print:(fun v -> Json.to_string v) json_gen

let prop_json_roundtrip =
  QCheck.Test.make ~name:"Json.of_string inverts to_string" ~count:500
    arbitrary_json (fun v -> Json.of_string (Json.to_string v) = Ok v)

let prop_json_pretty_roundtrip =
  QCheck.Test.make ~name:"Json.of_string inverts to_string_pretty" ~count:500
    arbitrary_json (fun v -> Json.of_string (Json.to_string_pretty v) = Ok v)

(* ------------------------------------------------------------------ *)
(* Job: canonical serialization round-trips, hash stable               *)
(* ------------------------------------------------------------------ *)

let job_gen =
  let open QCheck.Gen in
  let design_gen =
    oneof
      [
        (let* name =
           oneof
             [
               oneofl [ "D26_media"; "D36_8"; "D35_bott"; "not-a-benchmark" ];
               string_size ~gen:printable (int_range 1 16);
             ]
         in
         let* n_switches = int_range 1 64 in
         let* max_degree = int_range 1 8 in
         return (Job.Benchmark { name; n_switches; max_degree }));
        map
          (fun text -> Job.Inline text)
          (string_size ~gen:printable (int_bound 80));
      ]
  in
  let workload_gen =
    let open Noc_benchmarks.Workloads in
    oneof
      [
        (let* packet_length = int_range 1 12 in
         let* packets_per_flow = int_range 1 4 in
         return (Burst { packet_length; packets_per_flow }));
        (let* packet_length = int_range 1 12 in
         let* duration = int_range 1 1024 in
         let* rate = map (fun n -> float_of_int n /. 100.) (int_range 1 120) in
         let* seed = int_range 0 1000 in
         return (Uniform_random { packet_length; duration; rate; seed }));
        (let* packet_length = int_range 1 12 in
         let* duration = int_range 1 1024 in
         let* rate = map (fun n -> float_of_int n /. 100.) (int_range 1 120) in
         let* factor = map (fun n -> float_of_int n /. 10.) (int_range 10 80) in
         let* seed = int_range 0 1000 in
         return (Hotspot { packet_length; duration; rate; factor; seed }));
        (let* packet_length = int_range 1 12 in
         let* packets_per_flow = int_range 1 4 in
         let* interval = int_range 1 64 in
         return (Transpose { packet_length; packets_per_flow; interval }));
        (let* request_length = int_range 1 4 in
         let* response_length = int_range 1 16 in
         let* duration = int_range 1 1024 in
         let* exchanges = int_range 1 4 in
         let* idle = int_range 1 128 in
         let* seed = int_range 0 1000 in
         return
           (Bursty
              { request_length; response_length; duration; exchanges; idle; seed }));
        (let* packet_length = int_range 1 12 in
         let* duration = int_range 1 1024 in
         let* capacity_mbps = map float_of_int (int_range 100 10_000) in
         let* seed = int_range 0 1000 in
         return
           (Bandwidth_proportional { packet_length; duration; capacity_mbps; seed }));
      ]
  in
  let method_gen =
    oneof
      [
        (let* heuristic =
           oneofl
             [
               Noc_deadlock.Removal.Smallest_cycle_first;
               Noc_deadlock.Removal.Any_cycle_first;
             ]
         in
         let* directions =
           oneofl
             [
               [ Noc_deadlock.Cost_table.Forward; Noc_deadlock.Cost_table.Backward ];
               [ Noc_deadlock.Cost_table.Forward ];
               [ Noc_deadlock.Cost_table.Backward ];
             ]
         in
         let* resource =
           oneofl
             [
               Noc_deadlock.Break_cycle.Virtual_channel;
               Noc_deadlock.Break_cycle.Physical_link;
             ]
         in
         return (Job.Removal { heuristic; directions; resource }));
        map
          (fun strategy -> Job.Resource_ordering { strategy })
          (oneofl
             [
               Noc_deadlock.Resource_ordering.Greedy_ordered;
               Noc_deadlock.Resource_ordering.Hop_index;
             ]);
        return Job.Sweep;
        (let* prepare =
           oneofl [ Job.As_is; Job.Removal_first; Job.Ordering_first ]
         in
         let* workload = workload_gen in
         let* buffer_depth = int_range 1 8 in
         let* max_cycles = int_range 100 10_000 in
         return (Job.Simulate { prepare; workload; buffer_depth; max_cycles }));
      ]
  in
  let* design = design_gen in
  let* method_ = method_gen in
  return { Job.design; method_ }

let arbitrary_job = QCheck.make ~print:Job.canonical job_gen

let prop_job_roundtrip =
  QCheck.Test.make ~name:"Job.of_json inverts to_json" ~count:500 arbitrary_job
    (fun job -> Job.of_json (Job.to_json job) = Ok job)

let prop_job_roundtrip_via_text =
  QCheck.Test.make ~name:"Job round-trips through canonical text" ~count:500
    arbitrary_job (fun job ->
      match Json.of_string (Job.canonical job) with
      | Error _ -> false
      | Ok v -> Job.of_json v = Ok job)

let prop_job_hash_stable =
  QCheck.Test.make ~name:"Job.hash is stable across encode/decode" ~count:500
    arbitrary_job (fun job ->
      match Job.of_json (Job.to_json job) with
      | Error _ -> false
      | Ok decoded -> Job.hash decoded = Job.hash job)

let prop_job_file_roundtrip =
  QCheck.Test.make ~name:"Job file list round-trips (pretty form)" ~count:100
    QCheck.(make QCheck.Gen.(list_size (int_bound 5) job_gen))
    (fun jobs ->
      Job.list_of_json (Json.to_string_pretty (Job.list_to_json jobs)) = Ok jobs)

let test_job_defaults_fill_in () =
  (* Omitted optional fields decode to the documented defaults and the
     result re-encodes canonically — so a terse hand-written job file
     and its fully-explicit form have the same content hash. *)
  let terse =
    {|{"design": {"benchmark": "D26_media", "switches": 14}, "method": "removal"}|}
  in
  let explicit =
    {
      Job.design =
        Job.Benchmark
          { name = "D26_media"; n_switches = 14; max_degree = Job.default_max_degree };
      method_ = Job.removal_defaults;
    }
  in
  match Result.bind (Json.of_string terse) Job.of_json with
  | Error e -> Alcotest.failf "terse job did not parse: %s" e
  | Ok decoded ->
      check bool_c "defaults applied" true (decoded = explicit);
      check string_c "same content hash" (Job.hash explicit) (Job.hash decoded)

let test_job_file_rejects_bad_schema () =
  let bad = {|{"schema": "noc-jobs/999", "jobs": []}|} in
  match Job.list_of_json bad with
  | Ok _ -> Alcotest.fail "accepted an unsupported schema"
  | Error e ->
      let contains ~needle haystack =
        let n = String.length needle and h = String.length haystack in
        let rec scan i =
          i + n <= h && (String.sub haystack i n = needle || scan (i + 1))
        in
        n = 0 || scan 0
      in
      check bool_c "error names the schema" true (contains ~needle:"noc-jobs" e)

let test_simulate_defaults_pinned () =
  (* A terse simulate job decodes to the documented defaults... *)
  let terse =
    {|{"design": {"benchmark": "D36_8", "switches": 14}, "method": "simulate"}|}
  in
  let explicit =
    {
      Job.design =
        Job.Benchmark
          { name = "D36_8"; n_switches = 14; max_degree = Job.default_max_degree };
      method_ = Job.simulate Noc_benchmarks.Workloads.default_uniform;
    }
  in
  (match Result.bind (Json.of_string terse) Job.of_json with
  | Error e -> Alcotest.failf "terse simulate job did not parse: %s" e
  | Ok decoded ->
      check bool_c "defaults applied" true (decoded = explicit);
      check string_c "same content hash" (Job.hash explicit) (Job.hash decoded));
  (* ...and a workload given only by kind decodes to the corresponding
     [Workloads.default_*] spec, pinning the JSON-level defaults to the
     library-level ones. *)
  List.iter
    (fun kind ->
      let text =
        Printf.sprintf
          {|{"design": {"benchmark": "D36_8", "switches": 14},
             "method": "simulate", "options": {"workload": {"kind": %S}}}|}
          kind
      in
      match Result.bind (Json.of_string text) Job.of_json with
      | Ok { Job.method_ = Job.Simulate { workload; _ }; _ } ->
          check bool_c (kind ^ " kind alone gives the default spec") true
            (Some workload = Noc_benchmarks.Workloads.of_kind kind)
      | Ok _ -> Alcotest.fail "decoded to a non-simulate method"
      | Error e -> Alcotest.failf "workload kind %s did not parse: %s" kind e)
    Noc_benchmarks.Workloads.kinds

let run_simulate_job ~prepare workload =
  Runner.execute
    {
      Job.design =
        Job.Benchmark
          { name = "D36_8"; n_switches = 14; max_degree = Job.default_max_degree };
      method_ = Job.simulate ~prepare workload;
    }

let test_simulate_runner_outcomes () =
  let metric outcome name =
    match Outcome.metric outcome name with
    | Some v -> v
    | None -> Alcotest.failf "metric %s missing" name
  in
  (* Unprotected cyclic design: a certified deadlock, reported as data
     (status Done) so campaigns can cache and analyze it. *)
  let stuck =
    run_simulate_job ~prepare:Job.As_is Noc_benchmarks.Workloads.default_burst
  in
  check bool_c "as-is run is Done" true (Outcome.is_done stuck);
  check (Alcotest.float 0.) "cdg cyclic" 1. (metric stuck "cdg_cyclic");
  check (Alcotest.float 0.) "deadlocked" 1. (metric stuck "deadlocked");
  check (Alcotest.float 0.) "certified" 1. (metric stuck "certified");
  check bool_c "cycle members counted" true (metric stuck "waits_for_len" > 0.);
  (* The same design behind the removal pass completes, and the prep
     cost (extra VCs) is reported alongside the sim metrics. *)
  let fixed =
    run_simulate_job ~prepare:Job.Removal_first
      Noc_benchmarks.Workloads.default_burst
  in
  check (Alcotest.float 0.) "acyclic after removal" 0. (metric fixed "cdg_cyclic");
  check (Alcotest.float 0.) "no deadlock" 0. (metric fixed "deadlocked");
  check (Alcotest.float 0.) "all packets delivered"
    (metric fixed "packets")
    (metric fixed "delivered");
  check bool_c "removal cost reported" true (metric fixed "vcs_added" > 0.);
  check bool_c "latency percentiles ordered" true
    (metric fixed "p50_latency" <= metric fixed "p95_latency"
    && metric fixed "p95_latency" <= metric fixed "p99_latency"
    && metric fixed "p99_latency" <= metric fixed "max_latency");
  (* Resource ordering also protects, at a much higher VC cost. *)
  let ordered =
    run_simulate_job ~prepare:Job.Ordering_first
      Noc_benchmarks.Workloads.default_burst
  in
  check (Alcotest.float 0.) "ordering protects" 0. (metric ordered "deadlocked");
  check bool_c "ordering costs more VCs" true
    (metric ordered "vcs_added" > metric fixed "vcs_added")

(* Lint bounds [buffer_depth] only from below, so a job may ask for a
   billion-flit buffer.  The engine must not size its FIFOs by the
   request: the job runs, and deadlocks exactly as with any buffer
   deeper than the flits it carries. *)
let test_simulate_huge_buffer_depth () =
  let outcome =
    Runner.execute
      {
        Job.design =
          Job.Benchmark
            { name = "D36_8"; n_switches = 14; max_degree = Job.default_max_degree };
        method_ =
          Job.simulate ~buffer_depth:1_000_000_000
            Noc_benchmarks.Workloads.default_uniform;
      }
  in
  check bool_c "job is Done" true (Outcome.is_done outcome);
  check (Alcotest.option (Alcotest.float 0.)) "deadlocked" (Some 1.)
    (Outcome.metric outcome "deadlocked");
  check (Alcotest.option (Alcotest.float 0.)) "cycles" (Some 857.)
    (Outcome.metric outcome "cycles")

let test_simulate_lint_codes () =
  let codes job =
    List.map
      (fun (d : Noc_analysis.Diagnostic.t) ->
        d.Noc_analysis.Diagnostic.code.Noc_model.Diag_code.code)
      (Lint.job_diagnostics ~location:Noc_analysis.Diagnostic.Design job)
  in
  let design =
    Job.Benchmark
      { name = "D36_8"; n_switches = 14; max_degree = Job.default_max_degree }
  in
  let sim ?prepare ?buffer_depth ?max_cycles workload =
    { Job.design; method_ = Job.simulate ?prepare ?buffer_depth ?max_cycles workload }
  in
  check Alcotest.(list string) "clean job" []
    (codes (sim Noc_benchmarks.Workloads.default_uniform));
  let bad_workload =
    Noc_benchmarks.Workloads.Uniform_random
      { packet_length = 0; duration = 512; rate = -1.; seed = 1 }
  in
  check bool_c "invalid workload -> NOC-SIM-001" true
    (List.mem "NOC-SIM-001" (codes (sim bad_workload)));
  check bool_c "bad engine config -> NOC-SIM-002" true
    (List.mem "NOC-SIM-002"
       (codes (sim ~buffer_depth:0 Noc_benchmarks.Workloads.default_uniform)));
  let saturated =
    Noc_benchmarks.Workloads.Hotspot
      { packet_length = 4; duration = 512; rate = 0.5; factor = 4.; seed = 1 }
  in
  check bool_c "oversubscribed workload -> NOC-SIM-003" true
    (List.mem "NOC-SIM-003" (codes (sim saturated)));
  (* The saturation warning must not reject the job at the batch gate. *)
  check bool_c "warning does not reject" true
    (Result.is_ok (Lint.vet_job (sim saturated)));
  check bool_c "error rejects" true
    (Result.is_error (Lint.vet_job (sim bad_workload)))

(* ------------------------------------------------------------------ *)
(* Admission: what Lint.vet_job answers for inline designs             *)
(* ------------------------------------------------------------------ *)

let registry_design_texts = Fixtures.registry_design_texts

(* The integer fields of a design line that a mutation may rewrite:
   counts, ids, endpoints, VC counts and route hops, as (token, part of
   a link:vc hop).  Flow bandwidths are left alone. *)
let integer_fields = function
  | ("switches" | "cores") :: _ -> [ (1, None) ]
  | "link" :: _ -> [ (1, None); (2, None); (3, None); (4, None) ]
  | "core" :: _ -> [ (1, None); (2, None) ]
  | "flow" :: _ -> [ (1, None); (2, None); (3, None) ]
  | "route" :: _ :: hops ->
      (1, None)
      :: List.concat
           (List.mapi (fun i _ -> [ (i + 2, Some 0); (i + 2, Some 1) ]) hops)
  | _ -> []

let set_field tokens (at, part) value =
  let value = string_of_int value in
  List.mapi
    (fun i token ->
      if i <> at then token
      else
        match part with
        | None -> value
        | Some k ->
            String.concat ":"
              (List.mapi
                 (fun j s -> if j = k then value else s)
                 (String.split_on_char ':' token)))
    tokens

(* One seeded mutation: drop or duplicate a line, set one integer field
   to a value from -1 to 30, or drop every link of one switch. *)
let mutate_design st text =
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  let tokens = List.map (String.split_on_char ' ') lines in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let mutated =
    match Random.State.int st 4 with
    | 0 ->
        let at = Random.State.int st (List.length lines) in
        List.filteri (fun i _ -> i <> at) lines
    | 1 ->
        let at = Random.State.int st (List.length lines) in
        List.concat
          (List.mapi (fun i l -> if i = at then [ l; l ] else [ l ]) lines)
    | 2 ->
        (* Directive first, so the few count lines are hit as often as
           the many route lines. *)
        let directive =
          pick
            (List.sort_uniq compare
               (List.filter_map
                  (fun t ->
                    if integer_fields t = [] then None else Some (List.hd t))
                  tokens))
        in
        let at, t =
          pick
            (List.filter
               (fun (_, t) -> List.hd t = directive)
               (List.mapi (fun i t -> (i, t)) tokens))
        in
        let value = Random.State.int st 32 - 1 in
        let field = pick (integer_fields t) in
        let t' = set_field t field value in
        List.mapi (fun i l -> if i = at then String.concat " " t' else l) lines
    | _ ->
        let n_switches =
          List.find_map
            (function [ "switches"; n ] -> int_of_string_opt n | _ -> None)
            tokens
        in
        let s = string_of_int (Random.State.int st (Option.get n_switches)) in
        List.filter_map
          (fun t ->
            match t with
            | "link" :: _ :: src :: dst :: _ when src = s || dst = s -> None
            | _ -> Some (String.concat " " t))
          tokens
  in
  String.concat "\n" mutated ^ "\n"

(* One digest pins the verdict, "ok" or the full rejection message, of
   every registry design and of 600 seeded mutations of them.  The
   counts keep the digest from passing vacuously: a change that
   rejected or accepted everything would also move them. *)
let test_admission_verdicts_golden () =
  let designs = Array.of_list (registry_design_texts ()) in
  let st = Random.State.make [| 19 |] in
  let mutants =
    List.init 600 (fun _ ->
        let design = designs.(Random.State.int st (Array.length designs)) in
        mutate_design st design)
  in
  let verdict text =
    match
      Lint.vet_job
        { Job.design = Job.Inline text; method_ = Job.removal_defaults }
    with
    | Ok () -> "ok"
    | Error msg -> msg
  in
  let verdicts = List.map verdict (Array.to_list designs @ mutants) in
  let contains needle s =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = needle || go (i + 1))
    in
    go 0
  in
  let count p = List.length (List.filter p verdicts) in
  check int_c "jobs" 1050 (List.length verdicts);
  check int_c "accepted" 520 (count (String.equal "ok"));
  check int_c "does not parse" 518
    (count (contains "inline design does not parse"));
  check int_c "NOC-TOPO-001" 12 (count (contains "NOC-TOPO-001"));
  check string_c "verdicts digest" "4bb733f528045ca8e01353c56ac2e81d"
    (Digest.to_hex (Digest.string (String.concat "\n" verdicts)))

(* A flow bandwidth of nan or inf parses as a float; admitted, the job
   ran and its NaN power broke the client's JSON decoder. *)
let test_admission_rejects_non_finite_bandwidth () =
  List.iter
    (fun bw ->
      let text =
        "noc-design 1\nswitches 2\ncores 2\nlink 0 0 1 1\ncore 0 0\n\
         core 1 1\nflow 0 0 1 " ^ bw ^ "\nroute 0 0:0\n"
      in
      match
        Lint.vet_job
          { Job.design = Job.Inline text; method_ = Job.removal_defaults }
      with
      | Ok () -> Alcotest.failf "bandwidth %s admitted" bw
      | Error msg ->
          check string_c bw
            "rejected by lint: NOC-JOB-002 inline design does not parse: \
             Traffic.add_flow: non-finite bandwidth"
            msg)
    [ "nan"; "inf" ]

(* Admission must not pay for switches a design declares but never
   links: 3,000,000 of them, two linked, are rejected as disconnected
   within 2 s. *)
let test_admission_declared_switches_are_cheap () =
  let text =
    "noc-design 1\nswitches 3000000\ncores 2\nlink 0 0 1 1\ncore 0 0\n\
     core 1 1\nflow 0 0 1 100\nroute 0 0:0\n"
  in
  let t0 = Unix.gettimeofday () in
  let verdict =
    Lint.vet_job { Job.design = Job.Inline text; method_ = Job.removal_defaults }
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match verdict with
  | Ok () -> Alcotest.fail "a disconnected design was admitted"
  | Error msg ->
      check string_c "message"
        "rejected by lint: NOC-JOB-002 inline design fails error-level lint: \
         NOC-TOPO-001 design: topology is not (weakly) connected"
        msg);
  check bool_c (Printf.sprintf "vets within 2 s (took %.2f s)" elapsed) true
    (elapsed < 2.)

(* ------------------------------------------------------------------ *)
(* Outcome                                                             *)
(* ------------------------------------------------------------------ *)

let test_outcome_hash_ignores_wall_time () =
  let metrics = [ ("vcs_added", 3.); ("power_mw", 35.25) ] in
  let a = Outcome.done_ ~wall_ms:1.0 metrics in
  let b = Outcome.done_ ~wall_ms:999.0 metrics in
  check string_c "wall time excluded" (Outcome.result_hash a) (Outcome.result_hash b);
  let c = Outcome.done_ ~wall_ms:1.0 [ ("vcs_added", 4.); ("power_mw", 35.25) ] in
  check bool_c "metrics included" false
    (Outcome.result_hash a = Outcome.result_hash c)

let test_outcome_roundtrip () =
  List.iter
    (fun outcome ->
      match Outcome.of_json (Outcome.to_json outcome) with
      | Ok decoded -> check bool_c "round-trips" true (decoded = outcome)
      | Error e -> Alcotest.failf "outcome did not round-trip: %s" e)
    [
      Outcome.done_ ~wall_ms:1.5 [ ("a", 1.); ("b", -2.25) ];
      Outcome.failed ~wall_ms:0.5 "boom";
      Outcome.timed_out ~wall_ms:7.;
      Outcome.cancelled;
    ]

(* ------------------------------------------------------------------ *)
(* Pool: lazy workers, order preservation and error propagation       *)
(* ------------------------------------------------------------------ *)

(* The gauges must exist as soon as [create] returns, so no worker
   registers an instrument while its peers start their first tasks.
   The registry is process-wide and never forgets an instrument, so
   this must run before anything else in this executable creates a
   pool. *)
let test_pool_gauges_registered_at_create () =
  let pool = Noc_pool.Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Noc_pool.Pool.shutdown pool) @@ fun () ->
  let gauge name =
    List.find_map
      (function
        | Noc_obs.Metrics.Gauge { name = n; value; _ } when n = name ->
            Some value
        | _ -> None)
      (Noc_obs.Metrics.snapshot ())
  in
  check bool_c "noc_pool_workers counts the new workers" true
    (match gauge "noc_pool_workers" with Some v -> v >= 2. | None -> false);
  check bool_c "noc_pool_busy_workers registered before any task" true
    (gauge "noc_pool_busy_workers" = Some 0.)

(* Runs [f] under a fresh trace collector and returns its result with
   the domains on which a [pool.worker] span opened and closed. *)
let with_worker_spans f =
  let collector = Noc_obs.Trace.create () in
  Noc_obs.Trace.install collector;
  let result = Fun.protect ~finally:Noc_obs.Trace.uninstall f in
  ( result,
    List.filter_map
      (fun (s : Noc_obs.Trace.completed) ->
        if s.Noc_obs.Trace.name = "pool.worker" then Some s.Noc_obs.Trace.domain
        else None)
      (Noc_obs.Trace.completed_spans collector) )

(* Workers spawn with the first task: a pool that never gets one runs
   no domain. *)
let test_pool_without_tasks_spawns_no_worker () =
  let (), workers =
    with_worker_spans (fun () ->
        Noc_pool.Pool.shutdown (Noc_pool.Pool.create ~domains:2 ()))
  in
  check int_c "pool.worker spans" 0 (List.length workers)

(* Two domains submit a fresh pool's first tasks at once: the workers
   spawn once, all of them after the first submission (domain ids only
   grow), and every task runs. *)
let test_pool_first_tasks_spawn_workers_once () =
  let domains = 3 and per_submitter = 50 in
  let ran = Atomic.make 0 in
  let (submitters : int list), workers =
    with_worker_spans (fun () ->
        let pool = Noc_pool.Pool.create ~domains () in
        let ready = Atomic.make 0 in
        let submitter () =
          Atomic.incr ready;
          while Atomic.get ready < 2 do
            Domain.cpu_relax ()
          done;
          for _ = 1 to per_submitter do
            Noc_pool.Pool.submit pool (fun () -> Atomic.incr ran)
          done;
          (Domain.self () :> int)
        in
        let a = Domain.spawn submitter and b = Domain.spawn submitter in
        let ids = [ Domain.join a; Domain.join b ] in
        Noc_pool.Pool.shutdown pool;
        ids)
  in
  check int_c "every task ran" (2 * per_submitter) (Atomic.get ran);
  check int_c "pool.worker spans" domains (List.length workers);
  let first = List.fold_left min max_int submitters in
  check bool_c "workers spawned after the first submitter started" true
    (List.for_all (fun w -> w > first) workers)

let test_pool_preserves_order () =
  let xs = List.init 100 Fun.id in
  let expected = List.map (fun x -> x * x) xs in
  check bool_c "3 domains = sequential" true
    (Noc_pool.Pool.run ~domains:3 (fun x -> x * x) xs = expected);
  check bool_c "1 domain = sequential" true
    (Noc_pool.Pool.run ~domains:1 (fun x -> x * x) xs = expected)

let test_pool_reraises () =
  Alcotest.check_raises "first failing index wins" (Failure "item 3") (fun () ->
      ignore
        (Noc_pool.Pool.run ~domains:2
           (fun x -> if x >= 3 then failwith (Printf.sprintf "item %d" x) else x)
           (List.init 10 Fun.id)))

(* ------------------------------------------------------------------ *)
(* Result cache                                                        *)
(* ------------------------------------------------------------------ *)

let test_cache_lru_eviction () =
  let cache = Result_cache.create ~capacity:2 in
  let outcome k = Outcome.done_ [ ("k", float_of_int k) ] in
  check bool_c "no eviction below capacity" false
    (Result_cache.store cache "a" (outcome 1));
  check bool_c "no eviction at capacity" false
    (Result_cache.store cache "b" (outcome 2));
  ignore (Result_cache.find cache "a");
  check bool_c "store beyond capacity evicts" true
    (Result_cache.store cache "c" (outcome 3));
  check bool_c "recently-used survives" true (Result_cache.find cache "a" <> None);
  check bool_c "least-recently-used evicted" true (Result_cache.find cache "b" = None);
  let stats = Result_cache.stats cache in
  check int_c "one eviction" 1 stats.Result_cache.evictions;
  check int_c "two entries" 2 stats.Result_cache.entries

(* ------------------------------------------------------------------ *)
(* Batch engine                                                        *)
(* ------------------------------------------------------------------ *)

let registry_jobs () =
  (* One removal and one ordering job per registry benchmark: full
     registry coverage, at a switch count clipped to the core count. *)
  List.concat_map
    (fun spec ->
      let design =
        Job.Benchmark
          {
            name = spec.Noc_benchmarks.Spec.name;
            n_switches = min 10 spec.Noc_benchmarks.Spec.n_cores;
            max_degree = Job.default_max_degree;
          }
      in
      [
        { Job.design; method_ = Job.removal_defaults };
        {
          Job.design;
          method_ =
            Job.Resource_ordering
              { strategy = Noc_deadlock.Resource_ordering.Hop_index };
        };
      ])
    Noc_benchmarks.Registry.all

let run_batch ?cache ~domains jobs =
  Batch.run { Batch.default_config with Batch.domains; cache } jobs

let deterministic_payload (r : Batch.job_result) =
  ( r.Batch.index,
    Job.hash r.Batch.job,
    r.Batch.outcome.Outcome.status,
    r.Batch.outcome.Outcome.metrics,
    Outcome.result_hash r.Batch.outcome )

let test_batch_differential_4_domains () =
  (* The determinism contract of the whole subsystem: a 4-domain batch
     over the full benchmark registry is bit-identical — same order,
     same statuses, same metric lists, same result hashes — to the
     sequential run.  Wall times are the only field allowed to vary. *)
  let jobs = registry_jobs () in
  let sequential, seq_summary = run_batch ~domains:1 jobs in
  let parallel, par_summary = run_batch ~domains:4 jobs in
  check int_c "all jobs succeeded sequentially"
    (List.length jobs) seq_summary.Batch.succeeded;
  check int_c "all jobs succeeded in parallel"
    (List.length jobs) par_summary.Batch.succeeded;
  check bool_c "bit-identical to sequential execution" true
    (List.map deterministic_payload sequential
    = List.map deterministic_payload parallel)

let test_batch_streams_in_submission_order () =
  let jobs = registry_jobs () in
  let streamed = ref [] in
  let on_result (r : Batch.job_result) = streamed := r.Batch.index :: !streamed in
  let _ = Batch.run ~on_result { Batch.default_config with Batch.domains = 4 } jobs in
  check bool_c "on_result follows submission order" true
    (List.rev !streamed = List.init (List.length jobs) Fun.id)

let test_batch_warm_replay_all_hits () =
  let jobs = registry_jobs () in
  let cache = Result_cache.create ~capacity:64 in
  let cold, _ = run_batch ~cache ~domains:1 jobs in
  Result_cache.reset_counters cache;
  let warm, warm_summary = run_batch ~cache ~domains:1 jobs in
  check int_c "every job a cache hit"
    (List.length jobs) warm_summary.Batch.cache_hits;
  check bool_c "100% hit rate" true
    (Result_cache.hit_rate (Result_cache.stats cache) = 1.0);
  check bool_c "replay results identical" true
    (List.map deterministic_payload cold = List.map deterministic_payload warm)

let test_batch_fail_fast_cancels () =
  let bad =
    {
      Job.design = Job.Benchmark { name = "nope"; n_switches = 3; max_degree = 4 };
      method_ = Job.removal_defaults;
    }
  in
  let ok = List.hd (registry_jobs ()) in
  let results, summary =
    Batch.run
      { Batch.default_config with Batch.fail_fast = true }
      [ bad; ok; ok ]
  in
  check int_c "one failure" 1 summary.Batch.failed;
  check int_c "rest cancelled" 2 summary.Batch.cancelled;
  check bool_c "cancelled jobs carry no metrics" true
    (List.for_all
       (fun (r : Batch.job_result) ->
         r.Batch.index = 0 || r.Batch.outcome.Outcome.metrics = [])
       results)

let test_batch_timeout_classification () =
  let ok = List.hd (registry_jobs ()) in
  let _, summary =
    Batch.run
      { Batch.default_config with Batch.timeout_ms = Some 0. }
      [ ok ]
  in
  check int_c "over-budget job classified timed out" 1 summary.Batch.timed_out

(* Runs [f] under a fresh collector.  Returns its result and a lookup
   from a span name to the attribute lists of its completed spans. *)
let traced f =
  let collector = Noc_obs.Trace.create () in
  Noc_obs.Trace.install collector;
  let result = Fun.protect ~finally:Noc_obs.Trace.uninstall f in
  let spans = Noc_obs.Trace.completed_spans collector in
  ( result,
    fun name ->
      List.filter_map
        (fun (s : Noc_obs.Trace.completed) ->
          if s.Noc_obs.Trace.name = name then Some s.Noc_obs.Trace.attrs
          else None)
        spans )

let str_attr key attrs =
  match List.assoc_opt key attrs with
  | Some (Noc_obs.Trace.Str v) -> v
  | _ -> Alcotest.failf "span has no string attribute %S" key

let int_attr key attrs =
  match List.assoc_opt key attrs with
  | Some (Noc_obs.Trace.Int v) -> v
  | _ -> Alcotest.failf "span has no integer attribute %S" key

let unparsable_inline_job =
  { Job.design = Job.Inline "not a design"; method_ = Job.removal_defaults }

(* A lint-rejected job under fail-fast cancels the two good ones behind
   it, and each of the three still ends one batch.job span. *)
let test_batch_one_job_span_per_job () =
  let ok = List.hd (registry_jobs ()) in
  let jobs = [ unparsable_inline_job; ok; ok ] in
  let (_, summary), spans =
    traced (fun () ->
        Batch.run { Batch.default_config with Batch.fail_fast = true } jobs)
  in
  check int_c "cancelled" 2 summary.Batch.cancelled;
  check int_c "one batch.run span" 1 (List.length (spans "batch.run"));
  let job_spans = spans "batch.job" in
  check
    Alcotest.(list (pair int string))
    "index and status of every batch.job span"
    [ (0, "failed"); (1, "cancelled"); (2, "cancelled") ]
    (List.map (fun a -> (int_attr "index" a, str_attr "status" a)) job_spans);
  check
    Alcotest.(list string)
    "job ids are hash heads"
    (List.map (fun j -> String.sub (Job.hash j) 0 8) jobs)
    (List.map (str_attr "job") job_spans)

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

(* A batch's telemetry is its span trace, written to a file as a
   noc-trace/1 stream by [Export.write_jsonl].  Written over an older
   file at the same path, it replaces that file whole: a reader polling
   the path meanwhile finds the old text or the new one, never a prefix
   or a mix.  The file then lints clean, ends the batch's batch.job span
   with its status, and has no temporary file beside it. *)
let test_telemetry_to_file_atomic () =
  let collector = Noc_obs.Trace.create () in
  Noc_obs.Trace.install collector;
  let _ =
    Fun.protect ~finally:Noc_obs.Trace.uninstall (fun () ->
        Batch.run Batch.default_config [ List.hd (registry_jobs ()) ])
  in
  let lines = Noc_obs.Export.jsonl collector in
  let text =
    String.concat "" (List.map (fun l -> Json.to_string l ^ "\n") lines)
  in
  let dir = Filename.temp_file "noc_telemetry_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "events.jsonl" in
  let stale = "{\"stale\":true}\n" in
  Out_channel.with_open_text path (fun oc -> output_string oc stale);
  let read () = In_channel.with_open_text path In_channel.input_all in
  let written = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set written true)
          (fun () -> Noc_obs.Export.write_jsonl path lines))
  in
  let torn = ref 0 in
  while not (Atomic.get written) do
    let seen = read () in
    if seen <> stale && seen <> text then incr torn
  done;
  Domain.join writer;
  check int_c "never a torn file at the path" 0 !torn;
  check string_c "the new stream after the rename" text (read ());
  (match Noc_analysis.Trace_check.check ~path text with
  | [] -> ()
  | ds ->
      Alcotest.failf "the written trace has %d lint findings" (List.length ds));
  let job_ends =
    List.filter_map
      (fun l ->
        match Json.of_string l with
        | Error msg -> Alcotest.failf "line does not parse: %s" msg
        | Ok e ->
            if
              Json.member "event" e = Some (Json.Str "span_end")
              && Json.member "name" e = Some (Json.Str "batch.job")
            then Some (Json.field "attrs" e)
            else None)
      (List.filter (fun l -> l <> "") (String.split_on_char '\n' (read ())))
  in
  check
    Alcotest.(list string)
    "one batch.job end with its status" [ "done" ]
    (List.map (fun a -> Json.to_str (Json.field "status" a)) job_ends);
  check bool_c "no temp leftover" true (Sys.readdir dir = [| "events.jsonl" |]);
  Sys.remove path;
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)
(* Wire: length-prefixed frames survive arbitrary chunk boundaries     *)
(* ------------------------------------------------------------------ *)

let outcome_gen =
  let open QCheck.Gen in
  let* status =
    oneof
      [
        return Outcome.Done;
        map (fun m -> Outcome.Failed m) (string_size ~gen:printable (int_bound 30));
        return Outcome.Timed_out;
        return Outcome.Cancelled;
      ]
  in
  let* metrics =
    list_size (int_bound 4)
      (pair (string_size ~gen:printable (int_range 1 10)) finite_float_gen)
  in
  let* wall_ms = map float_of_int (int_bound 10_000) in
  return { Outcome.status; metrics; wall_ms }

let request_gen =
  let open QCheck.Gen in
  frequency
    [
      ( 4,
        let* id = int_bound 10_000 in
        let* corr =
          opt (string_size ~gen:(char_range 'a' 'z') (int_range 1 12))
        in
        let* job = job_gen in
        return (Wire.Submit { id; corr; job }) );
      (1, return Wire.Metrics);
      (1, return Wire.Ping);
    ]

let response_gen =
  let open QCheck.Gen in
  frequency
    [
      ( 1,
        map
          (fun protocol -> Wire.Hello { protocol })
          (oneofl [ "noc-wire/1"; "noc-wire/9" ]) );
      ( 4,
        let* id = int_bound 10_000 in
        let* job = job_gen in
        let* outcome = outcome_gen in
        let* cached = bool in
        return (Wire.Result { id; job_hash = Job.hash job; outcome; cached }) );
      ( 1,
        let* id = int_bound 10_000 in
        map
          (fun reason -> Wire.Rejected { id; reason })
          (string_size ~gen:printable (int_bound 40)) );
      ( 1,
        let* id = int_bound 10_000 in
        let* queue_depth = int_bound 256 in
        return (Wire.Overloaded { id; queue_depth }) );
      ( 1,
        let* uptime_s = map float_of_int (int_bound 100_000) in
        let* draining = bool in
        let* queue_depth = int_bound 256 in
        let* inflight = int_bound 64 in
        let* store =
          opt
            (let* entries = int_bound 500 in
             let* hits = int_bound 500 in
             let* misses = int_bound 500 in
             let* evictions = int_bound 500 in
             let* hit_rate = map float_of_int (int_bound 1) in
             return { Wire.entries; hits; misses; evictions; hit_rate })
        in
        let* tag = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
        return
          (Wire.Metrics_report
             {
               mr_stats =
                 { Wire.uptime_s; draining; queue_depth; inflight; store };
               mr_metrics = Json.Obj [ ("schema", Json.Str tag) ];
               mr_slo = Json.Obj [ ("slos", Json.Arr []) ];
             }) );
      (1, return Wire.Pong);
      (1, map (fun s -> Wire.Error_msg s) (string_size ~gen:printable (int_bound 40)));
    ]

(* Feed [data] in 1–7 byte chunks driven by the generated [sizes] list
   (whatever remains goes in one final chunk), so frames get split at
   arbitrary points — including inside the 4-byte length prefix. *)
let feed_in_chunks dec data sizes =
  let n = String.length data in
  let rec go off sizes =
    if off < n then
      match sizes with
      | [] -> Wire.feed dec data ~off ~len:(n - off)
      | s :: rest ->
          let len = min (1 + (s mod 7)) (n - off) in
          Wire.feed dec data ~off ~len;
          go (off + len) rest
  in
  go 0 sizes

let decode_all dec =
  let rec loop acc =
    match Wire.next dec with
    | Ok (Some json) -> loop (json :: acc)
    | Ok None -> Ok (List.rev acc)
    | Error e -> Error e
  in
  loop []

let chunked_stream_prop ~name ~encode ~decode gen =
  QCheck.Test.make ~name ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 6) gen)
           (list_size (int_bound 400) (int_bound 1_000_000))))
    (fun (messages, sizes) ->
      let data = String.concat "" (List.map encode messages) in
      let dec = Wire.decoder () in
      feed_in_chunks dec data sizes;
      match decode_all dec with
      | Error _ -> false
      | Ok frames ->
          List.length frames = List.length messages
          && List.for_all2 (fun j m -> decode j = Ok m) frames messages)

let prop_wire_requests_chunked =
  chunked_stream_prop ~name:"wire requests survive arbitrary chunking"
    ~encode:Wire.encode_request ~decode:Wire.request_of_json request_gen

let prop_wire_responses_chunked =
  chunked_stream_prop ~name:"wire responses survive arbitrary chunking"
    ~encode:Wire.encode_response ~decode:Wire.response_of_json response_gen

let test_wire_rejects_oversized_frame () =
  let dec = Wire.decoder () in
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int (Wire.max_frame_bytes + 1));
  Wire.feed_string dec (Bytes.to_string header);
  match Wire.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized frame accepted"

let test_wire_rejects_garbage_payload () =
  let dec = Wire.decoder () in
  Wire.feed_string dec (Wire.frame "not json");
  match Wire.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-JSON payload accepted"

(* ------------------------------------------------------------------ *)
(* Store: the persistent content-addressed result store                *)
(* ------------------------------------------------------------------ *)

let counter_value name =
  List.fold_left
    (fun acc m ->
      match m with
      | Noc_obs.Metrics.Counter { name = n; value; _ } when n = name -> value
      | _ -> acc)
    0
    (Noc_obs.Metrics.snapshot ())

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "noc_service_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let hex_key seed = Digest.to_hex (Digest.string seed)

let log_file root = Filename.concat root "store.log"

(* The log's whole lines, each with its offset, newline dropped. *)
let log_records root =
  let text = In_channel.with_open_bin (log_file root) In_channel.input_all in
  let rec go off acc =
    match String.index_from_opt text off '\n' with
    | None -> List.rev acc
    | Some nl -> go (nl + 1) ((off, String.sub text off (nl - off)) :: acc)
  in
  go 0 []

(* The keys whose last record is a put, in log order (oldest first):
   the table a reopen restores. *)
let live_keys root =
  List.rev
    (List.fold_left
       (fun order (_, line) ->
         match String.index_opt line ' ' with
         | Some i ->
             let key = String.sub line 0 i in
             let order = List.filter (( <> ) key) order in
             if String.length line > i + 1 && line.[i + 1] = '{' then key :: order
             else order
         | None -> order)
       [] (log_records root))

(* Offset and length (newline excluded) of [key]'s newest put. *)
let newest_put root key =
  List.fold_left
    (fun found (off, line) ->
      if String.starts_with ~prefix:(key ^ " {") line then Some (off, String.length line)
      else found)
    None (log_records root)

let overwrite_log root ~off text =
  let fd = Unix.openfile (log_file root) [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.write_substring fd text 0 (String.length text)))

(* Overwrite the payload of [key]'s newest put in place, at the same
   length: the line still reads as a put, its payload no longer
   parses. *)
let corrupt_record root key =
  match newest_put root key with
  | None -> Alcotest.fail "no put record to corrupt"
  | Some (off, len) ->
      let head = String.length key + 1 in
      overwrite_log root ~off:(off + head) ("{" ^ String.make (len - head - 1) 'x')

let log_size root = (Unix.stat (log_file root)).Unix.st_size

let test_store_persists_across_reopen () =
  with_temp_dir (fun dir ->
      let root = Filename.concat dir "store" in
      let key = hex_key "persist-me" in
      let outcome = Outcome.done_ ~wall_ms:1.5 [ ("vcs_added", 2.) ] in
      let s1 = Store.create ~root ~capacity:8 in
      check bool_c "cold miss" true (Store.find s1 key = None);
      ignore (Store.store s1 key outcome);
      check bool_c "warm hit" true (Store.find s1 key = Some outcome);
      (* A second handle on the same root sees the object — the
         daemon-restart scenario. *)
      let s2 = Store.create ~root ~capacity:8 in
      (match Store.find s2 key with
      | Some got ->
          check bool_c "outcome identical after reopen" true (got = outcome)
      | None -> Alcotest.fail "store lost the object across reopen");
      let stats = Store.stats s2 in
      check int_c "one entry" 1 stats.Store.entries;
      check int_c "one hit" 1 stats.Store.hits;
      check int_c "no misses" 0 stats.Store.misses)

let test_store_lru_eviction_appends_drop () =
  with_temp_dir (fun dir ->
      let root = Filename.concat dir "store" in
      let s = Store.create ~root ~capacity:2 in
      let key i = hex_key (string_of_int i) in
      let out i = Outcome.done_ [ ("k", float_of_int i) ] in
      check bool_c "no eviction below capacity" false
        (Store.store s (key 1) (out 1));
      check bool_c "no eviction at capacity" false
        (Store.store s (key 2) (out 2));
      ignore (Store.find s (key 1));
      check bool_c "store beyond capacity evicts" true
        (Store.store s (key 3) (out 3));
      check bool_c "recently-used survives" true (Store.find s (key 1) <> None);
      check bool_c "least-recently-used evicted" true
        (Store.find s (key 2) = None);
      check int_c "eviction counted" 1 (Store.stats s).Store.evictions;
      check string_c "the evicted key's last record is a drop" (key 2 ^ " -")
        (snd (List.nth (log_records root) 3));
      check (Alcotest.list string_c) "the log keeps the surviving pair" [ key 1; key 3 ]
        (live_keys root);
      let s2 = Store.create ~root ~capacity:2 in
      check int_c "reopen sees the surviving pair" 2 (Store.stats s2).Store.entries)

let test_store_corrupt_object_is_a_miss () =
  with_temp_dir (fun dir ->
      let root = Filename.concat dir "store" in
      let s = Store.create ~root ~capacity:4 in
      let key = hex_key "corrupt-me" and intact = hex_key "intact" in
      ignore (Store.store s key (Outcome.done_ [ ("k", 1.) ]));
      ignore (Store.store s intact (Outcome.done_ [ ("k", 3.) ]));
      corrupt_record root key;
      let s2 = Store.create ~root ~capacity:4 in
      check bool_c "corrupt record reads as a miss" true
        (Store.find s2 key = None);
      check (Alcotest.list string_c) "corrupt record dropped from the log" [ intact ]
        (live_keys root);
      (* The store heals: a fresh write round-trips again. *)
      ignore (Store.store s2 key (Outcome.done_ [ ("k", 2.) ]));
      check bool_c "healed" true (Store.find s2 key = Some (Outcome.done_ [ ("k", 2.) ])))

let test_store_reopen_above_capacity_shrinks () =
  with_temp_dir (fun dir ->
      let root = Filename.concat dir "store" in
      let key i = hex_key (Printf.sprintf "shrink-%d" i) in
      let out i = Outcome.done_ [ ("k", float_of_int i) ] in
      let s1 = Store.create ~root ~capacity:8 in
      List.iter (fun i -> ignore (Store.store s1 (key i) (out i))) (List.init 8 Fun.id);
      ignore (Store.find s1 (key 0));
      Store.flush s1;
      let before = counter_value "noc_store_evictions_total" in
      let s2 = Store.create ~root ~capacity:2 in
      check int_c "shrunk to capacity at open" 2 (Store.stats s2).Store.entries;
      check int_c "shed entries counted as evictions" 6 (Store.stats s2).Store.evictions;
      check int_c "noc_store_evictions_total counts them" (before + 6)
        (counter_value "noc_store_evictions_total");
      check (Alcotest.list string_c) "the log keeps only the two most recent"
        [ key 7; key 0 ] (live_keys root);
      List.iter (fun i -> ignore (Store.store s2 (key i) (out i))) (List.init 7 (( + ) 8));
      check int_c "stays at capacity" 2 (Store.stats s2).Store.entries)

(* The kill -9 path: nothing was flushed, and a second handle on the
   same root still finds every stored result. *)
let test_store_unflushed_reopen_finds_all () =
  with_temp_dir (fun dir ->
      let root = Filename.concat dir "store" in
      let key i = hex_key (Printf.sprintf "crash-%d" i) in
      let out i = Outcome.done_ [ ("k", float_of_int i) ] in
      let s1 = Store.create ~root ~capacity:8 in
      List.iter (fun i -> ignore (Store.store s1 (key i) (out i))) (List.init 5 Fun.id);
      let s2 = Store.create ~root ~capacity:8 in
      check int_c "every object found" 5 (Store.stats s2).Store.entries;
      List.iter
        (fun i ->
          check bool_c "stored outcome served" true (Store.find s2 (key i) = Some (out i)))
        (List.init 5 Fun.id))

let test_store_flushed_reopen_keeps_lru_order () =
  with_temp_dir (fun dir ->
      let root = Filename.concat dir "store" in
      let key i = hex_key (Printf.sprintf "order-%d" i) in
      let out i = Outcome.done_ [ ("k", float_of_int i) ] in
      let s1 = Store.create ~root ~capacity:3 in
      List.iter (fun i -> ignore (Store.store s1 (key i) (out i))) [ 1; 2; 3 ];
      ignore (Store.find s1 (key 1));
      Store.flush s1;
      let s2 = Store.create ~root ~capacity:3 in
      check bool_c "a fourth key evicts" true (Store.store s2 (key 4) (out 4));
      check bool_c "k2, the least recent, evicted" false
        (List.mem (key 2) (live_keys root));
      List.iter
        (fun i -> check bool_c "the rest kept" true (Store.find s2 (key i) = Some (out i)))
        [ 1; 3; 4 ])

let rec files_under path =
  if Sys.is_directory path then
    Array.to_list (Sys.readdir path)
    |> List.concat_map (fun f -> files_under (Filename.concat path f))
  else [ path ]

(* No file per result: puts, evictions, rewrites and flushes all land in
   the one log. *)
let test_store_holds_only_the_log () =
  with_temp_dir (fun dir ->
      let root = Filename.concat dir "store" in
      let only_the_log what =
        check (Alcotest.list string_c) what [ log_file root ] (files_under root)
      in
      Unix.mkdir root 0o755;
      Out_channel.with_open_bin (log_file root ^ ".tmp") (fun oc ->
          Out_channel.output_string oc "what a crash mid-rewrite left");
      let s = Store.create ~root ~capacity:4 in
      only_the_log "an empty store is one log, a crashed rewrite's temp file gone";
      for i = 1 to 100 do
        ignore
          (Store.store s (hex_key (Printf.sprintf "only-%d" i)) (Outcome.done_ [ ("k", 1.) ]))
      done;
      only_the_log "a hundred puts later";
      Store.flush s;
      only_the_log "after a flush")

(* A kill -9 in the middle of an append leaves a last record without its
   newline.  Open cuts it, so the next append starts a clean line. *)
let test_store_torn_tail_is_cut () =
  with_temp_dir (fun dir ->
      let root = Filename.concat dir "store" in
      let key i = hex_key (Printf.sprintf "torn-%d" i) in
      let out i = Outcome.done_ [ ("k", float_of_int i) ] in
      let s1 = Store.create ~root ~capacity:8 in
      List.iter (fun i -> ignore (Store.store s1 (key i) (out i))) [ 0; 1; 2 ];
      Unix.truncate (log_file root) (log_size root - 10);
      let s2 = Store.create ~root ~capacity:8 in
      check int_c "the torn record is not an entry" 2 (Store.stats s2).Store.entries;
      check (Alcotest.list bool_c) "every other result served" [ true; true; false ]
        (List.map (fun i -> Store.find s2 (key i) = Some (out i)) [ 0; 1; 2 ]);
      ignore (Store.store s2 (key 3) (out 3));
      check bool_c "the next store round-trips" true (Store.find s2 (key 3) = Some (out 3));
      let s3 = Store.create ~root ~capacity:8 in
      check (Alcotest.list bool_c) "and survives a reopen" [ true; true; true ]
        (List.map (fun i -> Store.find s3 (key i) = Some (out i)) [ 0; 1; 3 ]))

let test_store_garbled_record_misses_alone () =
  with_temp_dir (fun dir ->
      let root = Filename.concat dir "store" in
      let key i = hex_key (Printf.sprintf "garbled-%d" i) in
      let out i = Outcome.done_ [ ("k", float_of_int i) ] in
      let s1 = Store.create ~root ~capacity:8 in
      List.iter (fun i -> ignore (Store.store s1 (key i) (out i))) [ 0; 1; 2 ];
      (match newest_put root (key 1) with
      | Some (off, len) -> overwrite_log root ~off (String.make len '#')
      | None -> Alcotest.fail "no record for key 1");
      let s2 = Store.create ~root ~capacity:8 in
      check (Alcotest.list bool_c) "only the garbled key misses" [ true; false; true ]
        (List.map (fun i -> Store.find s2 (key i) = Some (out i)) [ 0; 1; 2 ]))

(* Every put past capacity evicts, so most of what churn appends is
   dead; rewrites keep the log under twice its live bytes. *)
let test_store_churn_stays_compact () =
  with_temp_dir (fun dir ->
      let root = Filename.concat dir "store" in
      let s = Store.create ~root ~capacity:2 in
      let live_bytes () =
        List.fold_left
          (fun acc k ->
            match newest_put root k with Some (_, len) -> acc + len + 1 | None -> acc)
          0 (live_keys root)
      in
      for i = 1 to 2_000 do
        ignore
          (Store.store s (hex_key (Printf.sprintf "churn-%d" i))
             (Outcome.done_ [ ("k", float_of_int i) ]));
        let size = log_size root and live = live_bytes () in
        if size > 2 * live then
          Alcotest.failf "after %d puts: a %d-byte log for %d live bytes" i size live
      done;
      check int_c "two entries" 2 (Store.stats s).Store.entries)

(* A log the kernel refuses to grow costs the result, not the caller. *)
let test_store_refused_write_is_counted () =
  with_temp_dir (fun dir ->
      let root = Filename.concat dir "store" in
      Unix.mkdir root 0o755;
      Unix.symlink "/dev/full" (log_file root);
      let s = Store.create ~root ~capacity:4 in
      let key = hex_key "refused" in
      let before = counter_value "noc_store_write_errors_total" in
      check bool_c "store returns" false (Store.store s key (Outcome.done_ [ ("k", 1.) ]));
      check int_c "one write error counted" (before + 1)
        (counter_value "noc_store_write_errors_total");
      check bool_c "nothing kept" true (Store.find s key = None))

(* An older daemon's layout: one file per result plus index.json.  The
   log starts cold beside it and leaves it alone. *)
let test_store_ignores_an_objects_tree () =
  with_temp_dir (fun dir ->
      let root = Filename.concat dir "store" in
      let key = hex_key "old-layout" in
      let shard = Filename.concat (Filename.concat root "objects") (String.sub key 0 2) in
      List.iter (fun d -> Unix.mkdir d 0o755) [ root; Filename.dirname shard; shard ];
      let old = Filename.concat shard (String.sub key 2 30 ^ ".json") in
      let index = Filename.concat root "index.json" in
      Out_channel.with_open_bin old (fun oc ->
          Out_channel.output_string oc
            (Printf.sprintf
               {|{"schema":"noc-store/1","job_hash":"%s","outcome":%s}|} key
               (Json.to_string (Outcome.to_json (Outcome.done_ [ ("k", 1.) ])))));
      Out_channel.with_open_bin index (fun oc ->
          Out_channel.output_string oc
            (Printf.sprintf {|{"schema":"noc-store-index/1","entries":["%s"]}|} key));
      let s = Store.create ~root ~capacity:4 in
      check int_c "nothing read from the old layout" 0 (Store.stats s).Store.entries;
      check bool_c "a miss" true (Store.find s key = None);
      ignore (Store.store s key (Outcome.done_ [ ("k", 1.) ]));
      Store.flush s;
      check bool_c "the old object is left in place" true (Sys.file_exists old);
      check bool_c "the old index is left in place" true (Sys.file_exists index))

(* ------------------------------------------------------------------ *)
(* Store and Result_cache against the list LRU of Lru_oracle           *)
(* ------------------------------------------------------------------ *)

let prop_result_cache_matches_oracle =
  QCheck.Test.make ~name:"Result_cache agrees with the list LRU" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair int (list (pair bool int)))
       QCheck.Gen.(pair (int_range 1 4) (list_size (int_bound 60) (pair bool (int_bound 7)))))
    (fun (capacity, steps) ->
      let cache = Result_cache.create ~capacity in
      let oracle = Lru_oracle.create ~capacity in
      List.for_all
        (fun (n, (put, i)) ->
          let key = string_of_int i in
          if put then
            let outcome = Outcome.done_ [ ("step", float_of_int n) ] in
            Result_cache.store cache key outcome = (Lru_oracle.add oracle key outcome <> None)
          else Result_cache.find cache key = Lru_oracle.find oracle key)
        (List.mapi (fun n step -> (n, step)) steps)
      && (Result_cache.stats cache).Result_cache.entries = Lru_oracle.length oracle)

type store_step = Put of int | Get of int | Flush | Reopen of int | Corrupt of int

let print_store_step = function
  | Put k -> Printf.sprintf "put %d" k
  | Get k -> Printf.sprintf "get %d" k
  | Flush -> "flush"
  | Reopen c -> Printf.sprintf "reopen ~capacity:%d" c
  | Corrupt k -> Printf.sprintf "corrupt %d" k

let store_steps_gen =
  let open QCheck.Gen in
  let key = int_bound 5 in
  pair (int_range 1 4)
    (list_size (int_bound 40)
       (frequency
          [
            (4, map (fun k -> Put k) key);
            (4, map (fun k -> Get k) key);
            (1, return Flush);
            (1, map (fun c -> Reopen c) (int_range 1 4));
            (1, map (fun k -> Corrupt k) key);
          ]))

(* What the store should hold: the oracle's recency, the last outcome
   stored per key, the keys whose record was corrupted, and the order
   the log gives the keys, which is the recency a reopen restores. *)
type store_model = {
  mutable lru : unit Lru_oracle.t;
  values : (string, Outcome.t) Hashtbl.t;
  corrupt : (string, unit) Hashtbl.t;
  (* Most recent first.  A put moves its key to the front and a drop
     removes it; a hit moves the key in [lru] only, until the log is
     rewritten in LRU order. *)
  mutable log_order : string list;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

(* [key] left the key set: a drop record follows it into the log. *)
let model_drop m key =
  Lru_oracle.remove m.lru key;
  Hashtbl.remove m.values key;
  Hashtbl.remove m.corrupt key;
  m.log_order <- List.filter (( <> ) key) m.log_order

(* A fresh handle: the [capacity] most recent keys of the log stay, the
   rest are evicted. *)
let model_open m ~capacity =
  let keep = List.filteri (fun i _ -> i < capacity) m.log_order in
  let excess = List.filteri (fun i _ -> i >= capacity) m.log_order in
  m.lru <- Lru_oracle.create ~capacity;
  List.iter (fun k -> ignore (Lru_oracle.add m.lru k ())) (List.rev keep);
  List.iter (model_drop m) excess;
  m.hits <- 0;
  m.misses <- 0;
  m.evictions <- List.length excess

let prop_store_matches_oracle =
  QCheck.Test.make ~name:"Store agrees with the list LRU across reopens" ~count:100
    (QCheck.make
       ~print:QCheck.Print.(pair int (list print_store_step))
       ~shrink:QCheck.Shrink.(pair nil list)
       store_steps_gen)
    (fun (capacity, steps) ->
      with_temp_dir @@ fun dir ->
      let root = Filename.concat dir "store" in
      let key i = hex_key (Printf.sprintf "prop-%d" i) in
      let s = ref (Store.create ~root ~capacity) in
      let m =
        {
          lru = Lru_oracle.create ~capacity;
          values = Hashtbl.create 8;
          corrupt = Hashtbl.create 8;
          log_order = [];
          hits = 0;
          misses = 0;
          evictions = 0;
        }
      in
      let step n = function
        | Put i ->
            let k = key i in
            let outcome = Outcome.done_ [ ("step", float_of_int n) ] in
            let victim = Lru_oracle.add m.lru k () in
            Hashtbl.replace m.values k outcome;
            Hashtbl.remove m.corrupt k;
            m.log_order <- k :: List.filter (( <> ) k) m.log_order;
            Option.iter
              (fun v ->
                model_drop m v;
                m.evictions <- m.evictions + 1)
              victim;
            Store.store !s k outcome = (victim <> None)
        | Get i ->
            let k = key i in
            let expected =
              if Hashtbl.mem m.corrupt k then begin
                model_drop m k;
                None
              end
              else Option.map (fun () -> Hashtbl.find m.values k) (Lru_oracle.find m.lru k)
            in
            if expected = None then m.misses <- m.misses + 1 else m.hits <- m.hits + 1;
            Store.find !s k = expected
        | Flush ->
            Store.flush !s;
            m.log_order <- Lru_oracle.keys m.lru;
            true
        | Corrupt i ->
            let k = key i in
            if Lru_oracle.mem m.lru k then begin
              corrupt_record root k;
              Hashtbl.replace m.corrupt k ()
            end;
            true
        | Reopen capacity ->
            s := Store.create ~root ~capacity;
            model_open m ~capacity;
            true
      in
      let inode () = (Unix.stat (log_file root)).Unix.st_ino in
      let agree () =
        let st = Store.stats !s in
        st.Store.hits = m.hits && st.Store.misses = m.misses
        && st.Store.evictions = m.evictions
        && st.Store.entries = Lru_oracle.length m.lru
        && List.rev (live_keys root) = m.log_order
      in
      List.for_all
        (fun (n, st) ->
          let before = inode () in
          let ok = step n st in
          (* A rewrite renames a fresh log, in LRU order, over the old
             one: the only way the log's order can catch up with hits. *)
          if inode () <> before then m.log_order <- Lru_oracle.keys m.lru;
          ok && agree ())
        (List.mapi (fun n st -> (n, st)) steps))

(* ------------------------------------------------------------------ *)
(* Cache eviction is observable in the metrics registry                *)
(* ------------------------------------------------------------------ *)

let test_cache_eviction_bumps_obs_counter () =
  let before = counter_value "noc_cache_evictions_total" in
  let cache = Result_cache.create ~capacity:1 in
  ignore (Result_cache.store cache "a" (Outcome.done_ [ ("k", 1.) ]));
  ignore (Result_cache.store cache "b" (Outcome.done_ [ ("k", 2.) ]));
  check int_c "noc_cache_evictions_total counter bumped" (before + 1)
    (counter_value "noc_cache_evictions_total")

(* ------------------------------------------------------------------ *)
(* Server: in-process end-to-end, warm across a restart                *)
(* ------------------------------------------------------------------ *)

(* A raw noc-wire/1 connection, for frames the typed client cannot
   send.  Reads time out so a silent server fails the test instead of
   hanging it. *)
let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  (fd, Wire.decoder ())

let rec raw_next ((fd, dec) as conn) =
  match Wire.next dec with
  | Error e -> Alcotest.fail e
  | Ok (Some json) -> json
  | Ok None ->
      let buf = Bytes.create 4096 in
      let n = Unix.read fd buf 0 (Bytes.length buf) in
      if n = 0 then Alcotest.fail "server closed the connection";
      Wire.feed dec (Bytes.sub_string buf 0 n) ~off:0 ~len:n;
      raw_next conn

let raw_send (fd, _) frame =
  ignore (Unix.write_substring fd frame 0 (String.length frame))

(* The retired [stats] request is an unknown type now: the daemon
   answers with an error frame and keeps the connection usable. *)
let check_retired_stats_request socket =
  let conn = raw_connect socket in
  Fun.protect ~finally:(fun () -> Unix.close (fst conn)) @@ fun () ->
  let next () = Wire.response_of_json (raw_next conn) in
  (match next () with
  | Ok (Wire.Hello _) -> ()
  | _ -> Alcotest.fail "expected a hello frame");
  raw_send conn (Wire.frame {|{"type":"stats"}|});
  (match next () with
  | Ok (Wire.Error_msg m) ->
      check string_c "stats is an unknown request"
        {|unknown request type "stats"|} m
  | _ -> Alcotest.fail "expected an error reply to a stats request");
  raw_send conn (Wire.encode_request Wire.Ping);
  (match next () with
  | Ok Wire.Pong -> ()
  | _ -> Alcotest.fail "expected pong after the error");
  raw_send conn (Wire.encode_request Wire.Metrics);
  let reply = raw_next conn in
  (match Wire.response_of_json reply with
  | Ok (Wire.Metrics_report _) -> ()
  | _ -> Alcotest.fail "expected a metrics report after the error");
  check bool_c "metrics reply has no series member" true
    (Json.member "series" reply = None)

let test_server_end_to_end_warm_restart () =
  with_temp_dir (fun dir ->
      let socket = Filename.concat dir "serve.sock" in
      let jobs = List.filteri (fun i _ -> i < 4) (registry_jobs ()) in
      let run_once ~expect_cached =
        let store =
          Store.create ~root:(Filename.concat dir "store") ~capacity:64
        in
        let server =
          Server.create
            {
              Server.default_config with
              socket_path = socket;
              store = Some store;
              domains = 2;
            }
        in
        let d = Domain.spawn (fun () -> Server.run server) in
        let deadline = Unix.gettimeofday () +. 10. in
        let rec wait_for_socket () =
          if Sys.file_exists socket then ()
          else if Unix.gettimeofday () > deadline then
            Alcotest.fail "server socket never appeared"
          else begin
            Unix.sleepf 0.01;
            wait_for_socket ()
          end
        in
        wait_for_socket ();
        let client =
          match Client.connect ~socket with
          | Ok c -> c
          | Error e -> Alcotest.fail e
        in
        (match Client.ping client with
        | Ok () -> ()
        | Error e -> Alcotest.failf "ping failed: %s" e);
        check_retired_stats_request socket;
        let replies =
          match Client.submit_all client jobs ~on_result:(fun _ _ _ -> ()) with
          | Ok rs -> rs
          | Error e -> Alcotest.fail e
        in
        Client.close client;
        Server.stop server;
        Domain.join d;
        check int_c "one reply per job" (List.length jobs)
          (List.length replies);
        List.iter
          (fun r ->
            match r with
            | Wire.Result { outcome; cached; _ } ->
                check bool_c "job succeeded" true (Outcome.is_done outcome);
                check bool_c
                  (if expect_cached then "served from the store"
                   else "served cold")
                  expect_cached cached
            | _ -> Alcotest.fail "expected a result reply")
          replies;
        replies
      in
      let cold = run_once ~expect_cached:false in
      let warm = run_once ~expect_cached:true in
      (* Warm replies carry bit-identical results: restart determinism. *)
      List.iter2
        (fun a b ->
          match (a, b) with
          | ( Wire.Result { outcome = oa; job_hash = ha; _ },
              Wire.Result { outcome = ob; job_hash = hb; _ } ) ->
              check string_c "same job hash" ha hb;
              check string_c "same result hash" (Outcome.result_hash oa)
                (Outcome.result_hash ob)
          | _ -> ())
        cold warm)

(* Starts a daemon on the store under [dir], submits [jobs] over one
   connection, drains the daemon and returns the replies. *)
let serve_once ?corr_prefix ~dir jobs =
  let socket = Filename.concat dir "serve.sock" in
  let store = Store.create ~root:(Filename.concat dir "store") ~capacity:64 in
  let server =
    Server.create
      {
        Server.default_config with
        socket_path = socket;
        store = Some store;
        domains = 2;
      }
  in
  let d = Domain.spawn (fun () -> Server.run server) in
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Sys.file_exists socket)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  let replies =
    Result.bind (Client.connect ~socket) (fun client ->
        Fun.protect
          ~finally:(fun () -> Client.close client)
          (fun () ->
            Client.submit_all ?corr_prefix client jobs
              ~on_result:(fun _ _ _ -> ())))
  in
  Server.stop server;
  Domain.join d;
  match replies with Ok rs -> rs | Error e -> Alcotest.fail e

(* A daemon restarted on a warm store that answers only store hits
   never spawns its pool's workers. *)
let test_server_warm_restart_starts_no_worker () =
  with_temp_dir (fun dir ->
      let jobs = List.filteri (fun i _ -> i < 4) (registry_jobs ()) in
      ignore (serve_once ~dir jobs);
      let replies, workers = with_worker_spans (fun () -> serve_once ~dir jobs) in
      List.iter
        (function
          | Wire.Result { cached; _ } ->
              check bool_c "served from the store" true cached
          | _ -> Alcotest.fail "expected a result reply")
        replies;
      check int_c "replies" (List.length jobs) (List.length replies);
      check int_c "pool.worker spans" 0 (List.length workers))

(* A miss's [serve.job] span carries the words its worker allocated. *)
let test_server_job_span_counts_words () =
  with_temp_dir (fun dir ->
      let job =
        {
          Job.design =
            Job.Benchmark
              { name = "D26_media"; n_switches = 8; max_degree = Job.default_max_degree };
          method_ = Job.simulate Noc_benchmarks.Workloads.default_uniform;
        }
      in
      let collector = Noc_obs.Trace.create () in
      Noc_obs.Trace.install collector;
      let replies =
        Fun.protect ~finally:Noc_obs.Trace.uninstall (fun () -> serve_once ~dir [ job ])
      in
      (match replies with
      | [ Wire.Result { cached = false; _ } ] -> ()
      | _ -> Alcotest.fail "expected one cold result");
      let jobs =
        List.filter
          (fun (s : Noc_obs.Trace.completed) -> s.Noc_obs.Trace.name = "serve.job")
          (Noc_obs.Trace.completed_spans collector)
      in
      match jobs with
      | [ s ] -> (
          match List.assoc_opt "words" s.Noc_obs.Trace.attrs with
          | Some (Noc_obs.Trace.Int words) -> check bool_c "words above 0" true (words > 0)
          | _ -> Alcotest.fail "serve.job has no integer words attribute")
      | spans -> Alcotest.failf "%d serve.job spans, want 1" (List.length spans))

(* Every submission is one serve.submit span on the loop, whose verdict
   says how it left: a miss is queued, a design lint rejects is
   rejected, and the same job on a restarted daemon is a store hit.
   The hit needs the restart: [Client.submit_all] keeps several
   submissions in flight, so a repeat in the same run can miss too. *)
let test_server_submit_spans () =
  with_temp_dir (fun dir ->
      let job = List.hd (registry_jobs ()) in
      let (), spans =
        traced (fun () ->
            ignore
              (serve_once ~corr_prefix:"first" ~dir
                 [ job; unparsable_inline_job ]);
            ignore (serve_once ~corr_prefix:"second" ~dir [ job ]))
      in
      let submits =
        List.sort compare
          (List.map
             (fun a -> (str_attr "corr" a, str_attr "verdict" a))
             (spans "serve.submit"))
      in
      check
        Alcotest.(list (pair string string))
        "one serve.submit span per submission"
        [ ("first-0", "queued"); ("first-1", "rejected"); ("second-0", "hit") ]
        submits;
      match spans "serve.job" with
      | [ a ] ->
          check string_c "serve.job corr" "first-0" (str_attr "corr" a);
          check string_c "serve.job status" "done" (str_attr "status" a);
          check string_c "serve.job id is the hash head"
            (String.sub (Job.hash job) 0 8)
            (str_attr "job" a)
      | l -> Alcotest.failf "%d serve.job spans, want 1" (List.length l))

let wait_for_socket socket =
  let deadline = Unix.gettimeofday () +. 10. in
  while not (Sys.file_exists socket) do
    if Unix.gettimeofday () > deadline then Alcotest.fail "server socket never appeared";
    Unix.sleepf 0.01
  done

(* Polls [flag] for up to 10 s, so a wedged daemon or client fails the
   test instead of hanging it. *)
let within_deadline what flag =
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Atomic.get flag)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  if not (Atomic.get flag) then Alcotest.failf "%s within 10 s" what

(* A store whose root vanished costs persistence only: the miss is
   answered, and the daemon drains although its exit flush fails. *)
let test_server_answers_with_its_store_root_gone () =
  with_temp_dir (fun dir ->
      let socket = Filename.concat dir "serve.sock" in
      let root = Filename.concat dir "store" in
      let server =
        Server.create
          {
            Server.default_config with
            socket_path = socket;
            store = Some (Store.create ~root ~capacity:64);
            domains = 1;
          }
      in
      let drained = Atomic.make false in
      let d =
        Domain.spawn (fun () ->
            Server.run server;
            Atomic.set drained true)
      in
      wait_for_socket socket;
      rm_rf root;
      let conn = raw_connect socket in
      ignore (raw_next conn);
      let job = List.hd (registry_jobs ()) in
      let submit id =
        raw_send conn (Wire.encode_request (Wire.Submit { id; corr = None; job }));
        Wire.response_of_json (raw_next conn)
      in
      (match submit 0 with
      | Ok (Wire.Result { outcome; cached = false; _ }) ->
          check bool_c "the miss is done" true (Outcome.is_done outcome)
      | _ -> Alcotest.fail "expected a result for the miss");
      (match submit 1 with
      | Ok (Wire.Result { cached; _ }) -> check bool_c "the repeat is a hit" true cached
      | _ -> Alcotest.fail "expected a result for the repeat");
      Unix.close (fst conn);
      let errors = counter_value "noc_store_write_errors_total" in
      Server.stop server;
      within_deadline "the daemon drained" drained;
      Domain.join d;
      check int_c "the exit flush found no root, counted" (errors + 1)
        (counter_value "noc_store_write_errors_total"))

(* 900 distinct jobs through one submit_all: far more than the daemon
   queues, and more replies than the socket buffers hold. *)
let test_client_submit_all_large_job_file () =
  with_temp_dir (fun dir ->
      let socket = Filename.concat dir "serve.sock" in
      let server = Server.create { Server.default_config with socket_path = socket } in
      let d = Domain.spawn (fun () -> Server.run server) in
      wait_for_socket socket;
      let jobs =
        List.concat_map
          (fun (spec : Noc_benchmarks.Spec.t) ->
            List.concat_map
              (fun n_switches ->
                List.concat_map
                  (fun max_degree ->
                    let design =
                      Job.Benchmark { name = spec.Noc_benchmarks.Spec.name; n_switches; max_degree }
                    in
                    [
                      { Job.design; method_ = Job.removal_defaults };
                      {
                        Job.design;
                        method_ =
                          Job.Resource_ordering
                            { strategy = Noc_deadlock.Resource_ordering.Hop_index };
                      };
                    ])
                  [ 3; 4; 5 ])
              (List.init 25 (( + ) 2)))
          Noc_benchmarks.Registry.all
      in
      check bool_c "at least 900 jobs" true (List.length jobs >= 900);
      let finished = Atomic.make false in
      let replies = ref (Error "unfinished") in
      let client =
        Domain.spawn (fun () ->
            replies :=
              Result.bind (Client.connect ~socket) (fun c ->
                  Fun.protect
                    ~finally:(fun () -> Client.close c)
                    (fun () -> Client.submit_all c jobs ~on_result:(fun _ _ _ -> ())));
            Atomic.set finished true)
      in
      within_deadline "submit_all returned" finished;
      Domain.join client;
      Server.stop server;
      Domain.join d;
      match !replies with
      | Error e -> Alcotest.fail e
      | Ok rs ->
          check int_c "one reply per job" (List.length jobs) (List.length rs);
          List.iteri
            (fun i r ->
              match r with
              | Wire.Result { id; outcome; _ } ->
                  check int_c "in submission order" i id;
                  check bool_c "done" true (Outcome.is_done outcome)
              | _ -> Alcotest.failf "job %d: expected a result" i)
            rs)

(* The socket path appears only once the daemon listens, so a client
   that connects the moment the path exists is never refused.  The
   client spins on the path to land as close to the bind as it can. *)
let test_server_socket_ready_when_path_appears () =
  with_temp_dir (fun dir ->
      let socket = Filename.concat dir "serve.sock" in
      for round = 1 to 20 do
        let server =
          Server.create
            { Server.default_config with socket_path = socket; domains = 1 }
        in
        let d = Domain.spawn (fun () -> Server.run server) in
        let deadline = Unix.gettimeofday () +. 10. in
        while not (Sys.file_exists socket) do
          if Unix.gettimeofday () > deadline then begin
            Server.stop server;
            Domain.join d;
            Alcotest.fail "server socket never appeared"
          end
        done;
        let connected = Client.connect ~socket in
        Result.iter Client.close connected;
        Server.stop server;
        Domain.join d;
        match connected with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "round %d: %s" round e
      done)

(* ------------------------------------------------------------------ *)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_json_roundtrip;
      prop_json_pretty_roundtrip;
      prop_job_roundtrip;
      prop_job_roundtrip_via_text;
      prop_job_hash_stable;
      prop_job_file_roundtrip;
      prop_wire_requests_chunked;
      prop_wire_responses_chunked;
      prop_result_cache_matches_oracle;
      prop_store_matches_oracle;
    ]

let () =
  Alcotest.run "noc_service"
    [
      ("properties", qcheck_cases);
      ( "job",
        [
          Alcotest.test_case "defaults fill in" `Quick test_job_defaults_fill_in;
          Alcotest.test_case "bad schema rejected" `Quick
            test_job_file_rejects_bad_schema;
          Alcotest.test_case "simulate defaults pinned" `Quick
            test_simulate_defaults_pinned;
          Alcotest.test_case "simulate runner outcomes" `Quick
            test_simulate_runner_outcomes;
          Alcotest.test_case "simulate lint codes" `Quick
            test_simulate_lint_codes;
          Alcotest.test_case "simulate huge buffer depth" `Quick
            test_simulate_huge_buffer_depth;
        ] );
      ( "admission",
        [
          Alcotest.test_case "golden verdicts" `Quick
            test_admission_verdicts_golden;
          Alcotest.test_case "non-finite bandwidth rejected" `Quick
            test_admission_rejects_non_finite_bandwidth;
          Alcotest.test_case "declared switches are cheap" `Quick
            test_admission_declared_switches_are_cheap;
        ] );
      ( "outcome",
        [
          Alcotest.test_case "hash ignores wall time" `Quick
            test_outcome_hash_ignores_wall_time;
          Alcotest.test_case "round-trip" `Quick test_outcome_roundtrip;
        ] );
      ( "pool",
        [
          Alcotest.test_case "gauges registered at create" `Quick
            test_pool_gauges_registered_at_create;
          Alcotest.test_case "no task spawns no worker" `Quick
            test_pool_without_tasks_spawns_no_worker;
          Alcotest.test_case "first tasks from two domains spawn once" `Quick
            test_pool_first_tasks_spawn_workers_once;
          Alcotest.test_case "preserves order" `Quick test_pool_preserves_order;
          Alcotest.test_case "re-raises" `Quick test_pool_reraises;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "eviction bumps obs counter" `Quick
            test_cache_eviction_bumps_obs_counter;
        ] );
      ( "wire",
        [
          Alcotest.test_case "oversized frame rejected" `Quick
            test_wire_rejects_oversized_frame;
          Alcotest.test_case "garbage payload rejected" `Quick
            test_wire_rejects_garbage_payload;
        ] );
      ( "store",
        [
          Alcotest.test_case "persists across reopen" `Quick
            test_store_persists_across_reopen;
          Alcotest.test_case "lru eviction appends a drop record" `Quick
            test_store_lru_eviction_appends_drop;
          Alcotest.test_case "corrupt object is a miss" `Quick
            test_store_corrupt_object_is_a_miss;
          Alcotest.test_case "reopen above capacity shrinks" `Quick
            test_store_reopen_above_capacity_shrinks;
          Alcotest.test_case "unflushed reopen finds every object" `Quick
            test_store_unflushed_reopen_finds_all;
          Alcotest.test_case "flushed reopen keeps lru order" `Quick
            test_store_flushed_reopen_keeps_lru_order;
          Alcotest.test_case "holds only the log" `Quick
            test_store_holds_only_the_log;
          Alcotest.test_case "torn tail is cut" `Quick test_store_torn_tail_is_cut;
          Alcotest.test_case "garbled record misses alone" `Quick
            test_store_garbled_record_misses_alone;
          Alcotest.test_case "churn stays under twice the live bytes" `Quick
            test_store_churn_stays_compact;
          Alcotest.test_case "refused write is counted" `Quick
            test_store_refused_write_is_counted;
          Alcotest.test_case "ignores an older objects tree" `Quick
            test_store_ignores_an_objects_tree;
        ] );
      ( "server",
        [
          Alcotest.test_case "end-to-end, warm restart" `Quick
            test_server_end_to_end_warm_restart;
          Alcotest.test_case "socket path appears only once listening" `Quick
            test_server_socket_ready_when_path_appears;
          Alcotest.test_case "warm restart starts no worker" `Quick
            test_server_warm_restart_starts_no_worker;
          Alcotest.test_case "job span counts its words" `Quick
            test_server_job_span_counts_words;
          Alcotest.test_case "every submission has one serve.submit span"
            `Quick test_server_submit_spans;
          Alcotest.test_case "answers with its store root gone" `Quick
            test_server_answers_with_its_store_root_gone;
          Alcotest.test_case "submit_all of 900 jobs returns every reply" `Quick
            test_client_submit_all_large_job_file;
        ] );
      ( "batch",
        [
          Alcotest.test_case "4-domain differential" `Quick
            test_batch_differential_4_domains;
          Alcotest.test_case "streams in order" `Quick
            test_batch_streams_in_submission_order;
          Alcotest.test_case "warm replay" `Quick test_batch_warm_replay_all_hits;
          Alcotest.test_case "fail fast" `Quick test_batch_fail_fast_cancels;
          Alcotest.test_case "timeout classification" `Quick
            test_batch_timeout_classification;
          Alcotest.test_case "one batch.job span per job" `Quick
            test_batch_one_job_span_per_job;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "to_file is atomic" `Quick
            test_telemetry_to_file_atomic;
        ] );
    ]
