(* Machine-readable removal-benchmark reports (BENCH_removal.json).

   The CI gate diffs a freshly measured report against the committed
   baseline.  Absolute wall times are machine-dependent, so the gate
   only compares quantities that are not:

   - [iterations] / [vcs_added] are deterministic outputs of the
     algorithm and must match the baseline exactly;
   - the per-entry speedup (rebuild over incremental, both arms
     measured on the same machine in the same process) is a ratio, so
     a regression of the incremental hot path shows up on any host. *)

module Json = Noc_json.Json

type entry = {
  benchmark : string;
  n_switches : int;
  iterations : int;
  vcs_added : int;
  incremental_ms : float;
  rebuild_ms : float;
  phases : (string * float) list;
      (* Per-span-name wall ms from one traced run of the incremental
         arm; [] when the producing harness did not trace (older
         reports).  Attribution only — the gate never compares it. *)
}

let schema = "bench-removal/1"

let speedup e =
  if e.incremental_ms > 0. then e.rebuild_ms /. e.incremental_ms else 0.

let aggregate_speedup entries =
  let inc = List.fold_left (fun a e -> a +. e.incremental_ms) 0. entries in
  let reb = List.fold_left (fun a e -> a +. e.rebuild_ms) 0. entries in
  if inc > 0. then reb /. inc else 0.

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let to_json entries =
  let entry e =
    Json.Obj
      ([
         ("benchmark", Json.Str e.benchmark);
         ("n_switches", Json.Num (float_of_int e.n_switches));
         ("iterations", Json.Num (float_of_int e.iterations));
         ("vcs_added", Json.Num (float_of_int e.vcs_added));
         ("incremental_ms", Json.Num e.incremental_ms);
         ("rebuild_ms", Json.Num e.rebuild_ms);
       ]
      @
      if e.phases = [] then []
      else
        [
          ( "phases",
            Json.Obj (List.map (fun (span, ms) -> (span, Json.Num ms)) e.phases)
          );
        ])
  in
  Json.to_string_pretty
    (Json.Obj
       [
         ("schema", Json.Str schema);
         ("entries", Json.Arr (List.map entry entries));
       ])
  ^ "\n"

let of_json text =
  let entry item =
    {
      benchmark = Json.to_str (Json.field "benchmark" item);
      n_switches = Json.to_int (Json.field "n_switches" item);
      iterations = Json.to_int (Json.field "iterations" item);
      vcs_added = Json.to_int (Json.field "vcs_added" item);
      incremental_ms = Json.to_num (Json.field "incremental_ms" item);
      rebuild_ms = Json.to_num (Json.field "rebuild_ms" item);
      (* Optional: absent in pre-tracing reports. *)
      phases =
        (match Json.member "phases" item with
        | None -> []
        | Some (Json.Obj ps) -> List.map (fun (k, v) -> (k, Json.to_num v)) ps
        | Some _ -> raise (Json.Parse_error "\"phases\" is not an object"));
    }
  in
  match Json.of_string text with
  | Error msg -> Error msg
  | Ok root -> (
      try
        let s = Json.to_str (Json.field "schema" root) in
        if s <> schema then
          Error (Printf.sprintf "unsupported schema %S (want %S)" s schema)
        else Ok (List.map entry (Json.to_list (Json.field "entries" root)))
      with Json.Parse_error msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* Baseline comparison (the CI gate)                                   *)
(* ------------------------------------------------------------------ *)

let compare_to_baseline ?(ratio_tolerance = 0.25) ?(min_aggregate_speedup = 4.0)
    ~baseline current =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let key e = (e.benchmark, e.n_switches) in
  List.iter
    (fun b ->
      match List.find_opt (fun c -> key c = key b) current with
      | None ->
          err "%s@%d: entry missing from current report" b.benchmark
            b.n_switches
      | Some c ->
          if c.iterations <> b.iterations then
            err "%s@%d: iterations changed %d -> %d (trajectory drift)"
              b.benchmark b.n_switches b.iterations c.iterations;
          if c.vcs_added <> b.vcs_added then
            err "%s@%d: vcs_added changed %d -> %d (trajectory drift)"
              b.benchmark b.n_switches b.vcs_added c.vcs_added;
          (* Machine-independent perf gate: the incremental/rebuild
             ratio must not regress by more than [ratio_tolerance]
             relative to the baseline ratio.  Entries whose rebuild arm
             is under a couple of milliseconds show ±30 % run-to-run
             ratio variance even with min-of-reps timing, so only the
             larger sweep points get a per-entry check — the aggregate
             floor below still covers the small ones. *)
          let min_stable_ms = 2.0 in
          if
            b.incremental_ms > 0. && c.incremental_ms > 0.
            && b.rebuild_ms >= min_stable_ms
            && c.rebuild_ms >= min_stable_ms
          then begin
            let b_speedup = speedup b and c_speedup = speedup c in
            if c_speedup < b_speedup *. (1. -. ratio_tolerance) then
              err
                "%s@%d: hot-path speedup regressed %.2fx -> %.2fx (> %.0f%% \
                 tolerance)"
                b.benchmark b.n_switches b_speedup c_speedup
                (100. *. ratio_tolerance)
          end)
    baseline;
  let d36 = List.filter (fun e -> e.benchmark = "D36_8") current in
  if d36 <> [] then begin
    let agg = aggregate_speedup d36 in
    if agg < min_aggregate_speedup then
      err "D36_8 sweep: aggregate incremental speedup %.2fx below the %.1fx floor"
        agg min_aggregate_speedup
  end;
  List.rev !errors

let pp ppf entries =
  Format.fprintf ppf "@[<v>%-10s %4s %6s %5s %12s %12s %8s" "benchmark" "n"
    "iters" "vcs" "incr (ms)" "rebuild (ms)" "speedup";
  List.iter
    (fun e ->
      Format.fprintf ppf "@,%-10s %4d %6d %5d %12.3f %12.3f %7.2fx" e.benchmark
        e.n_switches e.iterations e.vcs_added e.incremental_ms e.rebuild_ms
        (speedup e))
    entries;
  Format.fprintf ppf "@]"
