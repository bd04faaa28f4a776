module Json = Noc_json.Json

let schema = "noc-trace/1"

let entry_ts = function
  | Trace.Begin { ts_ns; _ } | Trace.End { ts_ns; _ } -> ts_ns

(* All domains' events in one stream, ordered by timestamp.  The sort
   is stable over the per-domain concatenation, so each domain's
   (already monotone) order is preserved under ties. *)
let merged_events c =
  Trace.events c
  |> List.concat_map (fun (domain, entries) ->
         List.map (fun e -> (domain, e)) entries)
  |> List.stable_sort (fun (_, a) (_, b) -> Int64.compare (entry_ts a) (entry_ts b))

(* Chrome trace-event JSON ------------------------------------------ *)

let chrome ?(metrics = []) c =
  let epoch = Trace.epoch_ns c in
  let ts_us ts = Int64.to_float (Int64.sub ts epoch) /. 1e3 in
  let common ~domain ~ts =
    [
      ("ts", Json.Num (ts_us ts));
      ("pid", Json.Num 0.);
      ("tid", Json.Num (float_of_int domain));
    ]
  in
  let event (domain, entry) =
    match entry with
    | Trace.Begin { name; ts_ns } ->
        Json.Obj
          (("name", Json.Str name)
          :: ("ph", Json.Str "B")
          :: common ~domain ~ts:ts_ns)
    | Trace.End { name; ts_ns; attrs } ->
        Json.Obj
          (("name", Json.Str name)
          :: ("ph", Json.Str "E")
          :: common ~domain ~ts:ts_ns
          @
          match attrs with
          | [] -> []
          | attrs -> [ ("args", Trace.attrs_to_json attrs) ])
  in
  let other =
    ("source", Json.Str "noc_tool")
    :: List.map
         (fun m -> (Metrics.metric_name m, Json.Str (Json.to_string (Metrics.to_json m))))
         metrics
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.map event (merged_events c)));
      ("displayTimeUnit", Json.Str "ms");
      ("otherData", Json.Obj other);
    ]

(* noc-trace/1 JSONL ------------------------------------------------- *)

let jsonl ?(metrics = []) c =
  let epoch = Trace.epoch_ns c in
  let rel ts = Int64.to_float (Int64.sub ts epoch) in
  let header =
    Json.Obj
      [
        ("schema", Json.Str schema);
        ("clock", Json.Str "monotonic");
        ("epoch_ns", Json.Num (Int64.to_float epoch));
      ]
  in
  let events = merged_events c in
  let last_ts =
    List.fold_left (fun acc (_, e) -> max acc (rel (entry_ts e))) 0. events
  in
  let line (domain, entry) =
    match entry with
    | Trace.Begin { name; ts_ns } ->
        Json.Obj
          [
            ("ts", Json.Num (rel ts_ns));
            ("event", Json.Str "span_begin");
            ("name", Json.Str name);
            ("domain", Json.Num (float_of_int domain));
          ]
    | Trace.End { name; ts_ns; attrs } ->
        Json.Obj
          ([
             ("ts", Json.Num (rel ts_ns));
             ("event", Json.Str "span_end");
             ("name", Json.Str name);
             ("domain", Json.Num (float_of_int domain));
           ]
          @
          match attrs with
          | [] -> []
          | attrs -> [ ("attrs", Trace.attrs_to_json attrs) ])
  in
  let metric_line m =
    match Metrics.to_json m with
    | Json.Obj fields ->
        Json.Obj
          (("ts", Json.Num last_ts) :: ("event", Json.Str "metric") :: fields)
    | other -> other
  in
  (header :: List.map line events) @ List.map metric_line metrics

(* Write to a temporary file in the destination's directory and rename
   it into place: the rename is atomic on POSIX (same filesystem), so
   [path] holds either the whole stream or nothing. *)
let write_jsonl path lines =
  let tmp =
    Filename.temp_file ~temp_dir:(Filename.dirname path)
      (Filename.basename path) ".tmp"
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text tmp (fun oc ->
          List.iter
            (fun l ->
              output_string oc (Json.to_string l);
              output_char oc '\n')
            lines);
      Sys.rename tmp path)

(* Summary ----------------------------------------------------------- *)

let phase_totals_ms c =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.completed) ->
      let ms = Clock.ms_between ~start_ns:s.start_ns ~stop_ns:s.stop_ns in
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (prev +. ms))
    (Trace.completed_spans c);
  Hashtbl.fold (fun name ms acc -> (name, ms) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let pp_summary ?(metrics = []) ppf c =
  let spans = Trace.completed_spans c in
  match spans with
  | [] -> Format.fprintf ppf "trace: no completed spans@."
  | _ ->
      let wall_ms =
        let start =
          List.fold_left
            (fun acc (s : Trace.completed) -> min acc s.start_ns)
            Int64.max_int spans
        in
        let stop =
          List.fold_left
            (fun acc (s : Trace.completed) -> max acc s.stop_ns)
            Int64.min_int spans
        in
        Clock.ms_between ~start_ns:start ~stop_ns:stop
      in
      let counts = Hashtbl.create 16 in
      List.iter
        (fun (s : Trace.completed) ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt counts s.name) in
          Hashtbl.replace counts s.name (prev + 1))
        spans;
      Format.fprintf ppf "@[<v>%-28s %8s %12s %7s@," "span" "count" "total ms"
        "share";
      List.iter
        (fun (name, total) ->
          Format.fprintf ppf "%-28s %8d %12.3f %6.1f%%@," name
            (Hashtbl.find counts name) total
            (if wall_ms > 0. then 100. *. total /. wall_ms else 0.))
        (phase_totals_ms c);
      Format.fprintf ppf "traced wall interval: %.3f ms over %d span%s@]" wall_ms
        (List.length spans)
        (if List.length spans = 1 then "" else "s");
      if metrics <> [] then
        Format.fprintf ppf "@.@[<v>metrics:@,%a@]" Metrics.pp metrics
