(* The observability layer: monotonic clock, metrics registry, span
   tracer, sinks, and exporters.  The properties mirror the invariants
   the exporters and the NOC-TRC lint pass rely on: every domain's
   event stream is well-parenthesized, Chrome export round-trips
   through Json.t, and a disabled tracer records nothing at all. *)

module Clock = Noc_obs.Clock
module Sink = Noc_obs.Sink
module Trace = Noc_obs.Trace
module Metrics = Noc_obs.Metrics
module Export = Noc_obs.Export
module Json = Noc_json.Json

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int

(* Every test that installs a collector must leave tracing off. *)
let with_collector f =
  let c = Trace.create () in
  Trace.install c;
  Fun.protect ~finally:Trace.uninstall (fun () -> f c)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock_monotone () =
  let a = Clock.now_ns () in
  let b = Clock.now_ns () in
  check bool_c "time does not go backwards" true (Int64.compare b a >= 0);
  check (Alcotest.float 1e-9) "ms_between of equal instants" 0.
    (Clock.ms_between ~start_ns:a ~stop_ns:a)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let find_metric name =
  List.find_opt
    (fun m -> Metrics.metric_name m = name)
    (Metrics.snapshot ())

let test_metrics_basics () =
  let c = Metrics.counter "noc_test_ops_total" in
  let g = Metrics.gauge "noc_test_level" in
  let h = Metrics.histogram "noc_test_latency_ms" in
  Metrics.incr c;
  Metrics.add c 4;
  Metrics.set_gauge g 2.5;
  Metrics.observe h 0.25;
  Metrics.observe h 1e9;
  (match find_metric "noc_test_ops_total" with
  | Some (Metrics.Counter { value; _ }) -> check int_c "counter" 5 value
  | _ -> Alcotest.fail "counter missing");
  (match find_metric "noc_test_level" with
  | Some (Metrics.Gauge { value; _ }) ->
      check (Alcotest.float 0.) "gauge" 2.5 value
  | _ -> Alcotest.fail "gauge missing");
  (match find_metric "noc_test_latency_ms" with
  | Some (Metrics.Histogram { count; overflow; sum; buckets; _ }) ->
      check int_c "histogram count" 2 count;
      check int_c "histogram overflow" 1 overflow;
      check (Alcotest.float 1.) "histogram sum" 1e9 sum;
      check bool_c "0.25 lands in the 0.5 bucket" true
        (List.exists (fun (ub, n) -> ub = 0.5 && n = 1) buckets)
  | _ -> Alcotest.fail "histogram missing");
  (* Same name, same kind: the same handle.  Same name, other kind:
     rejected. *)
  Metrics.incr (Metrics.counter "noc_test_ops_total");
  (match find_metric "noc_test_ops_total" with
  | Some (Metrics.Counter { value; _ }) -> check int_c "shared handle" 6 value
  | _ -> Alcotest.fail "counter missing");
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics: \"noc_test_level\" is already a gauge")
    (fun () -> ignore (Metrics.histogram "noc_test_level"))

let test_metrics_name_hygiene () =
  let rejects name make =
    match make name with
    | exception Invalid_argument msg ->
        check bool_c (name ^ " error names the convention") true
          (String.length msg > 0
          && (let needle = "noc_<subsystem>_<name>[_total]" in
              let n = String.length needle and h = String.length msg in
              let rec scan i =
                i + n <= h && (String.sub msg i n = needle || scan (i + 1))
              in
              scan 0))
    | _ -> Alcotest.failf "%S should have been rejected" name
  in
  (* No prefix, too few segments, bad characters, wrong suffix. *)
  rejects "requests_total" (fun n -> ignore (Metrics.counter n));
  rejects "noc_total" (fun n -> ignore (Metrics.counter n));
  rejects "noc_serve_Requests_total" (fun n -> ignore (Metrics.counter n));
  rejects "noc_serve_requests" (fun n -> ignore (Metrics.counter n));
  rejects "noc_serve_depth_total" (fun n -> ignore (Metrics.gauge n));
  (* Labeled identities are distinct instruments; bad label keys fail. *)
  let a = Metrics.counter ~labels:[ ("method", "ping") ] "noc_test_req_total" in
  let b = Metrics.counter ~labels:[ ("method", "stats") ] "noc_test_req_total" in
  Metrics.incr a;
  Metrics.incr a;
  Metrics.incr b;
  (match find_metric {|noc_test_req_total{method="ping"}|} with
  | Some (Metrics.Counter { value; labels; _ }) ->
      check int_c "labeled counter isolated" 2 value;
      check bool_c "labels carried in snapshot" true
        (labels = [ ("method", "ping") ])
  | _ -> Alcotest.fail "labeled counter missing");
  match Metrics.counter ~labels:[ ("Bad-Key", "x") ] "noc_test_req_total" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad label key accepted"

let test_metrics_reset () =
  let c = Metrics.counter "noc_test_reset_total" in
  Metrics.add c 7;
  Metrics.reset ();
  Metrics.incr c;
  match find_metric "noc_test_reset_total" with
  | Some (Metrics.Counter { value; _ }) ->
      check int_c "reset zeroes in place, handle survives" 1 value
  | _ -> Alcotest.fail "counter missing"

let test_metrics_snapshot_sorted () =
  let names = List.map Metrics.metric_name (Metrics.snapshot ()) in
  check bool_c "snapshot is name-sorted" true
    (List.sort compare names = names)

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

let test_sink_memory_and_tee () =
  let a, events_a = Sink.memory () in
  let b, events_b = Sink.memory () in
  let t = Sink.tee a b in
  t.Sink.emit (Json.Str "x");
  t.Sink.emit (Json.Num 1.);
  t.Sink.close ();
  check int_c "tee duplicates" 2 (List.length (events_a ()));
  check bool_c "both sides identical" true (events_a () = events_b ())

let test_sink_to_file_atomic () =
  let dir = Filename.temp_file "noc_obs_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "out.jsonl" in
  let sink = Sink.to_file path in
  sink.Sink.emit (Json.Obj [ ("n", Json.Num 1.) ]);
  sink.Sink.emit (Json.Obj [ ("n", Json.Num 2.) ]);
  (* Atomicity: nothing at [path] until close renames the temp file. *)
  check bool_c "absent before close" false (Sys.file_exists path);
  sink.Sink.close ();
  check bool_c "present after close" true (Sys.file_exists path);
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  check int_c "both lines landed" 2 (List.length lines);
  check bool_c "no temp leftover" true
    (Sys.readdir dir |> Array.to_list |> List.for_all (fun f -> f = "out.jsonl"));
  Sys.remove path;
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)
(* Tracer                                                              *)
(* ------------------------------------------------------------------ *)

let test_disabled_is_noop () =
  check bool_c "tracing off by default" false (Trace.enabled ());
  let sp = Trace.start "ignored" in
  Trace.add_attr sp "k" (Trace.Int 1);
  Trace.finish sp;
  check int_c "with_span passes the value through" 41
    (Trace.with_span "ignored" (fun _ -> 41));
  (* A collector that was never installed records nothing, and its
     JSONL export is exactly one header line (no metrics passed). *)
  let c = Trace.create () in
  check int_c "no events" 0 (List.length (Trace.events c));
  check int_c "header only" 1 (List.length (Export.jsonl c))

let test_span_nesting () =
  with_collector (fun c ->
      Trace.with_span "outer" (fun sp ->
          Trace.add_attr sp "k" (Trace.Str "v");
          Trace.with_span "inner" (fun _ -> ());
          Trace.with_span "inner" (fun _ -> ()));
      let spans = Trace.completed_spans c in
      check int_c "three spans" 3 (List.length spans);
      let outer = List.find (fun s -> s.Trace.name = "outer") spans in
      check int_c "outer at depth 0" 0 outer.Trace.depth;
      check bool_c "outer keeps its attr" true
        (outer.Trace.attrs = [ ("k", Trace.Str "v") ]);
      List.iter
        (fun s ->
          if s.Trace.name = "inner" then begin
            check int_c "inner at depth 1" 1 s.Trace.depth;
            check bool_c "inner within outer" true
              (s.Trace.start_ns >= outer.Trace.start_ns
              && s.Trace.stop_ns <= outer.Trace.stop_ns)
          end)
        spans)

let test_span_closes_on_exception () =
  with_collector (fun c ->
      (try
         Trace.with_span "raises" (fun _ -> failwith "boom")
       with Failure _ -> ());
      check int_c "span closed by the exception path" 1
        (List.length (Trace.completed_spans c)))

let test_uninstall_freezes () =
  let c = Trace.create () in
  Trace.install c;
  Trace.with_span "before" (fun _ -> ());
  Trace.uninstall ();
  Trace.with_span "after" (fun _ -> ());
  let names = List.map (fun s -> s.Trace.name) (Trace.completed_spans c) in
  check bool_c "only the traced span recorded" true (names = [ "before" ])

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let run_workload () =
  Trace.with_span "work" (fun _ ->
      Trace.with_span "step" ~attrs:[ ("i", Trace.Int 1) ] (fun _ -> ());
      Trace.with_span "step" ~attrs:[ ("i", Trace.Int 2) ] (fun _ -> ()))

let test_chrome_shape () =
  with_collector (fun c ->
      run_workload ();
      let json = Export.chrome c in
      let events =
        match Json.member "traceEvents" json with
        | Some (Json.Arr evs) -> evs
        | _ -> Alcotest.fail "no traceEvents array"
      in
      let phase ev =
        match Json.member "ph" ev with Some (Json.Str p) -> p | _ -> "?"
      in
      let begins = List.filter (fun e -> phase e = "B") events in
      let ends = List.filter (fun e -> phase e = "E") events in
      check int_c "three B" 3 (List.length begins);
      check int_c "balanced B/E" (List.length begins) (List.length ends);
      (* Timestamps are microseconds relative to the collector epoch,
         emitted in order within the single domain. *)
      let ts ev =
        match Json.member "ts" ev with Some (Json.Num t) -> t | _ -> nan
      in
      let tss = List.map ts events in
      check bool_c "chrome timestamps sorted" true
        (List.sort compare tss = tss))

let test_jsonl_lints_clean () =
  with_collector (fun c ->
      run_workload ();
      let text =
        String.concat "\n"
          (List.map Sink.line (Export.jsonl ~metrics:(Metrics.snapshot ()) c))
        ^ "\n"
      in
      match Noc_analysis.Trace_check.check ~path:"mem.trace" text with
      | [] -> ()
      | ds ->
          Alcotest.failf "exported stream should lint clean, got %d: %s"
            (List.length ds)
            (String.concat "; "
               (List.map
                  (fun (d : Noc_analysis.Diagnostic.t) ->
                    d.Noc_analysis.Diagnostic.message)
                  ds)))

let test_trace_check_catches_corruption () =
  with_collector (fun c ->
      run_workload ();
      let lines = List.map Sink.line (Export.jsonl c) in
      let has_code code ds =
        List.exists
          (fun (d : Noc_analysis.Diagnostic.t) ->
            d.Noc_analysis.Diagnostic.code.Noc_model.Diag_code.code = code)
          ds
      in
      let checks text = Noc_analysis.Trace_check.check ~path:"t" text in
      (* Dropping one span_end leaves a span open: NOC-TRC-002. *)
      let drop_last_end =
        String.concat "\n" (List.filteri (fun i _ -> i <> List.length lines - 1) lines)
      in
      check bool_c "truncation is unbalanced" true
        (has_code "NOC-TRC-002" (checks drop_last_end));
      (* A garbage line: NOC-TRC-001. *)
      check bool_c "garbage line unparsable" true
        (has_code "NOC-TRC-001"
           (checks (String.concat "\n" (List.hd lines :: [ "not json" ]))));
      (* Hand-built stream with a backwards timestamp: NOC-TRC-003. *)
      let backwards =
        String.concat "\n"
          [
            {|{"schema":"noc-trace/1","clock":"monotonic","epoch_ns":0}|};
            {|{"ts":10,"event":"span_begin","name":"a","domain":0}|};
            {|{"ts":5,"event":"span_end","name":"a","domain":0}|};
          ]
      in
      check bool_c "backwards time is non-monotonic" true
        (has_code "NOC-TRC-003" (checks backwards)))

let test_phase_totals () =
  with_collector (fun c ->
      run_workload ();
      let totals = Export.phase_totals_ms c in
      check bool_c "every span name attributed" true
        (List.map fst totals = [ "step"; "work" ]);
      let step = List.assoc "step" totals and work = List.assoc "work" totals in
      check bool_c "children within the parent" true (step <= work))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Random span programs: rose trees of named spans, run on one domain. *)
type prog = Node of string * prog list

let prog_gen =
  QCheck.Gen.(
    let name = oneofl [ "alpha"; "beta"; "gamma"; "delta" ] in
    sized_size (int_bound 20) (fix (fun self n ->
        if n <= 0 then map (fun s -> Node (s, [])) name
        else
          let* s = name in
          let* k = int_bound 3 in
          let* kids = list_size (return k) (self (n / (k + 1))) in
          return (Node (s, kids)))))

let rec prog_size (Node (_, kids)) =
  1 + List.fold_left (fun a k -> a + prog_size k) 0 kids

let rec run_prog (Node (name, kids)) =
  Trace.with_span name (fun _ -> List.iter run_prog kids)

let rec prog_print (Node (name, kids)) =
  if kids = [] then name
  else Printf.sprintf "%s(%s)" name (String.concat "," (List.map prog_print kids))

let arbitrary_prog = QCheck.make ~print:prog_print prog_gen

let prop_streams_well_parenthesized =
  (* Any program's per-domain event stream obeys stack discipline, and
     the matched span count equals the program size. *)
  QCheck.Test.make ~name:"span streams are well-parenthesized" ~count:100
    arbitrary_prog (fun prog ->
      with_collector (fun c ->
          run_prog prog;
          let balanced entries =
            let rec go stack = function
              | [] -> stack = []
              | Trace.Begin { name; _ } :: rest -> go (name :: stack) rest
              | Trace.End { name; _ } :: rest -> (
                  match stack with
                  | top :: stack' -> top = name && go stack' rest
                  | [] -> false)
            in
            go [] entries
          in
          List.for_all (fun (_, entries) -> balanced entries) (Trace.events c)
          && List.length (Trace.completed_spans c) = prog_size prog))

let prop_chrome_round_trips =
  (* Chrome export survives print + parse through Json.t unchanged. *)
  QCheck.Test.make ~name:"chrome export round-trips through Json" ~count:50
    arbitrary_prog (fun prog ->
      with_collector (fun c ->
          run_prog prog;
          let json = Export.chrome ~metrics:(Metrics.snapshot ()) c in
          match Json.of_string (Json.to_string json) with
          | Ok json' -> json' = json
          | Error _ -> false))

let prop_disabled_emits_nothing =
  (* With no collector installed, running any program records no event
     anywhere — in particular not into a collector created earlier. *)
  QCheck.Test.make ~name:"disabled tracer emits nothing" ~count:100
    arbitrary_prog (fun prog ->
      let c = Trace.create () in
      run_prog prog;
      Trace.events c = [] && Export.jsonl c = [ List.hd (Export.jsonl c) ])

(* ------------------------------------------------------------------ *)
(* Exposition and concurrency properties                               *)
(* ------------------------------------------------------------------ *)

module Expo = Noc_obs.Expo

(* Label values with every character the Prometheus text format must
   escape, plus the structural characters of the format itself. *)
let hostile_value_gen =
  QCheck.Gen.(
    string_size
      ~gen:(oneofl [ '\\'; '"'; '\n'; 'a'; 'z'; '0'; ' '; '{'; '}'; ','; '=' ])
      (int_bound 12))

let expo_metric_gen i =
  QCheck.Gen.(
    let* v = hostile_value_gen in
    let labels = [ ("i", string_of_int i); ("v", v) ] in
    let counter =
      let* value = int_bound 1000 in
      return (Metrics.Counter { name = "noc_prop_events_total"; labels; value })
    in
    let gauge =
      let* value = float_bound_inclusive 100. in
      return (Metrics.Gauge { name = "noc_prop_depth"; labels; value })
    in
    let histogram =
      let* c1 = int_bound 5 in
      let* c2 = int_bound 5 in
      let* overflow = int_bound 3 in
      let* sum = float_bound_inclusive 50. in
      return
        (Metrics.Histogram
           {
             name = "noc_prop_wait_ms";
             labels;
             buckets = [ (0.5, c1); (2.0, c2) ];
             overflow;
             count = c1 + c2 + overflow;
             sum;
           })
    in
    oneof [ counter; gauge; histogram ])

let expo_metrics_gen =
  QCheck.Gen.(
    let* n = int_range 1 8 in
    let rec build i acc =
      if i >= n then return (List.rev acc)
      else
        let* m = expo_metric_gen i in
        build (i + 1) (m :: acc)
    in
    build 0 [])

let prop_exposition_parses =
  (* Whatever label values a metric carries, the rendered exposition
     stays inside the strict grammar check_text accepts, and the JSON
     form decodes back to the same metrics. *)
  QCheck.Test.make ~name:"hostile label values survive exposition" ~count:200
    (QCheck.make ~print:Expo.text expo_metrics_gen)
    (fun ms ->
      (match Expo.check_text (Expo.text ms) with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)
      && Expo.metrics_of_json (Expo.json ms) = Ok ms)

let counter_total name =
  List.fold_left
    (fun acc m ->
      match m with
      | Metrics.Counter { name = n; value; _ } when n = name -> acc + value
      | _ -> acc)
    0 (Metrics.snapshot ())

let histogram_count name =
  List.fold_left
    (fun acc m ->
      match m with
      | Metrics.Histogram { name = n; count; _ } when n = name -> acc + count
      | _ -> acc)
    0 (Metrics.snapshot ())

let prop_concurrent_updates_lossless =
  (* N domains hammering the same counter and histogram lose nothing,
     and snapshots taken mid-flight never tear. *)
  QCheck.Test.make ~name:"concurrent domain updates are lossless" ~count:5
    QCheck.(pair (int_range 1 4) (int_range 100 2000))
    (fun (domains, iters) ->
      let c = Metrics.counter "noc_test_concurrent_total" in
      let h = Metrics.histogram "noc_test_concurrent_ms" in
      let c0 = counter_total "noc_test_concurrent_total" in
      let h0 = histogram_count "noc_test_concurrent_ms" in
      let workers =
        List.init domains (fun _ ->
            Domain.spawn (fun () ->
                for i = 1 to iters do
                  Metrics.incr c;
                  Metrics.observe h (float_of_int (i mod 7));
                  if i mod 256 = 0 then ignore (Metrics.snapshot ())
                done))
      in
      List.iter Domain.join workers;
      counter_total "noc_test_concurrent_total" - c0 = domains * iters
      && histogram_count "noc_test_concurrent_ms" - h0 = domains * iters)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_streams_well_parenthesized;
      prop_chrome_round_trips;
      prop_disabled_emits_nothing;
      prop_exposition_parses;
      prop_concurrent_updates_lossless;
    ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "obs"
    [
      ("clock", [ tc "monotone" `Quick test_clock_monotone ]);
      ( "metrics",
        [
          tc "counters, gauges, histograms" `Quick test_metrics_basics;
          tc "name hygiene" `Quick test_metrics_name_hygiene;
          tc "reset in place" `Quick test_metrics_reset;
          tc "snapshot sorted" `Quick test_metrics_snapshot_sorted;
        ] );
      ( "sinks",
        [
          tc "memory and tee" `Quick test_sink_memory_and_tee;
          tc "to_file is atomic" `Quick test_sink_to_file_atomic;
        ] );
      ( "tracer",
        [
          tc "disabled is a no-op" `Quick test_disabled_is_noop;
          tc "nesting and attributes" `Quick test_span_nesting;
          tc "closes on exception" `Quick test_span_closes_on_exception;
          tc "uninstall freezes the stream" `Quick test_uninstall_freezes;
        ] );
      ( "export",
        [
          tc "chrome shape" `Quick test_chrome_shape;
          tc "jsonl lints clean" `Quick test_jsonl_lints_clean;
          tc "trace lint catches corruption" `Quick
            test_trace_check_catches_corruption;
          tc "phase totals" `Quick test_phase_totals;
        ] );
      ("properties", qcheck_cases);
    ]
