(* A campaign is a grid of Simulate jobs plus the machinery to run it
   at fleet scale: jobs flow through the ordinary batch engine (so the
   lint gate, the result cache and the batch.* trace spans all apply),
   warm results are served from the persistent store and fresh ones
   written back, and the finished cells are checked against the paper's
   behavioural claim — an acyclic CDG never deadlocks; an unprotected
   cyclic one does, with a certificate. *)

open Noc_service

type point = { benchmark : string; n_switches : int }

let default_prepares = [ Job.As_is; Job.Removal_first; Job.Ordering_first ]

let grid ?(max_degree = Job.default_max_degree)
    ?(prepares = default_prepares) ?(rates = []) ~points ~workloads () =
  let workload_variants w =
    match rates with
    | [] -> [ w ]
    | rates -> (
        match List.filter_map (Noc_benchmarks.Workloads.at_rate w) rates with
        | [] -> [ w ] (* kind has no rate parameter: one variant *)
        | variants -> variants)
  in
  List.concat_map
    (fun { benchmark; n_switches } ->
      List.concat_map
        (fun w ->
          List.concat_map
            (fun workload ->
              List.map
                (fun prepare ->
                  {
                    Job.design =
                      Job.Benchmark { name = benchmark; n_switches; max_degree };
                    method_ = Job.simulate ~prepare workload;
                  })
                prepares)
            (workload_variants w))
        workloads)
    points

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

type cell = { job : Job.t; outcome : Outcome.t; cached : bool }

type config = { domains : int; store : Store.t option; lint : bool }

let default_config = { domains = 1; store = None; lint = true }

(* SLO surface: per-cell wall time feeds the campaign_cell_p99_ms
   objective.  Warm cells observe their stored wall time — the SLO is
   about what a cell costs, however it was obtained.  Fresh cells are
   observed from the batch's worker domains, so the histogram is looked
   up per cell: the lookup is idempotent and mutex-guarded. *)
let observe_cell cell =
  Noc_obs.Metrics.observe
    (Noc_obs.Metrics.histogram "noc_campaign_cell_ms"
       ~buckets:[| 1.; 5.; 25.; 100.; 500.; 2_500.; 10_000.; 60_000. |])
    cell.outcome.Outcome.wall_ms

let run ?(on_cell = fun (_ : cell) -> ()) config jobs =
  if config.domains < 1 then invalid_arg "Campaign.run: domains < 1";
  let on_cell cell =
    observe_cell cell;
    on_cell cell
  in
  (* One hash per grid job, reused for the resume lookup, the
     write-back and the grid-order reassembly. *)
  let keyed = List.map (fun job -> (Job.hash job, job)) jobs in
  (* Serve what the store already knows (the resume path), then batch
     the rest and write fresh deterministic results back. *)
  let warm, cold =
    List.partition_map
      (fun (hash, job) ->
        match Option.bind config.store (fun s -> Store.find s hash) with
        | Some outcome -> Left (hash, { job; outcome; cached = true })
        | None -> Right (hash, job))
      keyed
  in
  List.iter (fun (_, cell) -> on_cell cell) warm;
  let results, _summary =
    Batch.run
      ~on_result:(fun (r : Batch.job_result) ->
        on_cell { job = r.Batch.job; outcome = r.Batch.outcome; cached = false })
      {
        Batch.domains = config.domains;
        cache = Some (Result_cache.create ~capacity:(max 1 (List.length jobs)));
        timeout_ms = None;
        fail_fast = false;
        lint = config.lint;
      }
      (List.map snd cold)
  in
  (* [results] is in submission order, one per cold job. *)
  let fresh =
    List.map2
      (fun (hash, _) (r : Batch.job_result) ->
        (match config.store with
        | Some s when Outcome.is_done r.Batch.outcome ->
            ignore (Store.store s hash r.Batch.outcome)
        | Some _ | None -> ());
        (hash, { job = r.Batch.job; outcome = r.Batch.outcome; cached = false }))
      cold results
  in
  Option.iter Store.flush config.store;
  (* Reassemble in grid order so reports are stable however the cells
     were obtained. *)
  let by_hash = Hashtbl.create (List.length jobs) in
  List.iter (fun (hash, cell) -> Hashtbl.replace by_hash hash cell) (warm @ fresh);
  List.filter_map (fun (hash, _) -> Hashtbl.find_opt by_hash hash) keyed

(* ------------------------------------------------------------------ *)
(* Cell accessors                                                      *)
(* ------------------------------------------------------------------ *)

let metric cell name =
  match Outcome.metric cell.outcome name with Some v -> v | None -> 0.

let flag cell name = metric cell name > 0.5
let deadlocked cell = flag cell "deadlocked"
let certified cell = flag cell "certified"
let cdg_cyclic cell = flag cell "cdg_cyclic"

let prepare_of cell =
  match cell.job.Job.method_ with
  | Job.Simulate { prepare; _ } -> Some prepare
  | Job.Removal _ | Job.Resource_ordering _ | Job.Sweep -> None

let workload_of cell =
  match cell.job.Job.method_ with
  | Job.Simulate { workload; _ } -> Some workload
  | Job.Removal _ | Job.Resource_ordering _ | Job.Sweep -> None

let design_label cell =
  match cell.job.Job.design with
  | Job.Benchmark { name; n_switches; _ } ->
      Printf.sprintf "%s@%d" name n_switches
  | Job.Inline _ -> "inline"

(* ------------------------------------------------------------------ *)
(* Invariant verification                                              *)
(* ------------------------------------------------------------------ *)

type verdict = {
  cells : int;
  warm : int;
  failed : int;
  deadlocks : int;
  cyclic_cells : int;
  cyclic_deadlocks : int;
  violations : string list;
}

let verify ?(expect_cyclic_deadlock = true) cells =
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  let failed = ref 0 and deadlocks = ref 0 in
  let cyclic = ref 0 and cyclic_deadlocks = ref 0 in
  let warm = List.length (List.filter (fun c -> c.cached) cells) in
  List.iter
    (fun cell ->
      let label = Job.label cell.job in
      if not (Outcome.is_done cell.outcome) then begin
        incr failed;
        violate "%s: did not finish (%s)" label
          (match cell.outcome.Outcome.status with
          | Outcome.Failed msg -> msg
          | Outcome.Timed_out -> "timed out"
          | Outcome.Cancelled -> "cancelled"
          | Outcome.Done -> assert false)
      end
      else begin
        if cdg_cyclic cell then incr cyclic;
        if deadlocked cell then begin
          incr deadlocks;
          if cdg_cyclic cell then incr cyclic_deadlocks;
          (* The paper's claim, cell by cell: only an unprotected
             cyclic CDG may deadlock, and a real deadlock always has a
             waits-for cycle certificate. *)
          (match prepare_of cell with
          | Some Job.Removal_first ->
              violate "%s: deadlock on a removal-protected design" label
          | Some Job.Ordering_first ->
              violate "%s: deadlock on a resource-ordered design" label
          | Some Job.As_is | None -> ());
          if not (cdg_cyclic cell) then
            violate "%s: deadlock despite an acyclic CDG" label;
          if not (certified cell) then
            violate "%s: deadlock without a waits-for cycle certificate" label
        end
      end)
    cells;
  if expect_cyclic_deadlock && !cyclic > 0 && !cyclic_deadlocks = 0 then
    violate
      "no deadlock observed on any of the %d unprotected cyclic-CDG cells \
       (workloads too gentle to witness the hazard?)"
      !cyclic;
  {
    cells = List.length cells;
    warm;
    failed = !failed;
    deadlocks = !deadlocks;
    cyclic_cells = !cyclic;
    cyclic_deadlocks = !cyclic_deadlocks;
    violations = List.rev !violations;
  }

let verdict_ok v = v.violations = []

let pp_verdict ppf v =
  Format.fprintf ppf
    "@[<v>%d cells (%d warm), %d deadlocks (%d on cyclic designs), %d failed"
    v.cells v.warm v.deadlocks v.cyclic_deadlocks v.failed;
  (match v.violations with
  | [] -> Format.fprintf ppf "@,invariants hold"
  | vs ->
      Format.fprintf ppf "@,%d violation%s:" (List.length vs)
        (if List.length vs = 1 then "" else "s");
      List.iter (fun m -> Format.fprintf ppf "@,  %s" m) vs);
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Markdown report                                                     *)
(* ------------------------------------------------------------------ *)

let outcome_word cell =
  if not (Outcome.is_done cell.outcome) then
    match cell.outcome.Outcome.status with
    | Outcome.Failed _ -> "failed"
    | Outcome.Timed_out -> "timed out"
    | Outcome.Cancelled -> "cancelled"
    | Outcome.Done -> assert false
  else if deadlocked cell then
    if certified cell then "DEADLOCK (certified)" else "DEADLOCK"
  else if flag cell "timed_out" then "timed out (sim)"
  else "completed"

let markdown_report cells verdict =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "# Simulation campaign";
  line "";
  line "- cells: %d (%d served warm from the store)" verdict.cells verdict.warm;
  line "- deadlocks: %d, all expected on unprotected cyclic-CDG designs: %s"
    verdict.deadlocks
    (if verdict_ok verdict then "yes" else "NO");
  line "- cyclic-CDG cells: %d (%d deadlocked)" verdict.cyclic_cells
    verdict.cyclic_deadlocks;
  (match verdict.violations with
  | [] -> line "- invariants: hold"
  | vs ->
      line "- violations:";
      List.iter (fun v -> line "  - %s" v) vs);
  line "";
  line "| design | workload | prepare | CDG | outcome | cycles | delivered | avg lat | p95 lat | thr (flits/cyc) | VCs added |";
  line "|---|---|---|---|---|---:|---:|---:|---:|---:|---:|";
  List.iter
    (fun cell ->
      let workload =
        match workload_of cell with
        | Some w -> Noc_benchmarks.Workloads.describe w
        | None -> "-"
      in
      let prepare =
        match prepare_of cell with
        | Some p -> Job.prepare_name p
        | None -> "-"
      in
      line "| %s | %s | %s | %s | %s | %.0f | %.0f/%.0f | %.1f | %.0f | %.2f | %.0f |"
        (design_label cell) workload prepare
        (if cdg_cyclic cell then "cyclic" else "acyclic")
        (outcome_word cell) (metric cell "cycles") (metric cell "delivered")
        (metric cell "packets") (metric cell "avg_latency")
        (metric cell "p95_latency") (metric cell "throughput")
        (metric cell "vcs_added"))
    cells;
  (* Load–latency curves: rate-parameterized cells grouped per design
     and preparation, in rate order. *)
  let rated =
    List.filter_map
      (fun cell ->
        match workload_of cell with
        | Some w -> (
            match Noc_benchmarks.Workloads.injection_rate w with
            | Some rate when Outcome.is_done cell.outcome ->
                Some (cell, Noc_benchmarks.Workloads.kind w, rate)
            | Some _ | None -> None)
        | None -> None)
      cells
  in
  if rated <> [] then begin
    line "";
    line "## Load–latency";
    line "";
    line "| design | workload | prepare | rate | outcome | avg lat | p95 lat | thr (flits/cyc) |";
    line "|---|---|---|---:|---|---:|---:|---:|";
    let sorted =
      List.sort
        (fun (a, ka, ra) (b, kb, rb) ->
          match compare (design_label a) (design_label b) with
          | 0 -> (
              match compare ka kb with
              | 0 -> (
                  match compare (prepare_of a) (prepare_of b) with
                  | 0 -> compare ra rb
                  | c -> c)
              | c -> c)
          | c -> c)
        rated
    in
    List.iter
      (fun (cell, kind, rate) ->
        let prepare =
          match prepare_of cell with
          | Some p -> Job.prepare_name p
          | None -> "-"
        in
        line "| %s | %s | %s | %.3f | %s | %.1f | %.0f | %.2f |"
          (design_label cell) kind prepare rate (outcome_word cell)
          (metric cell "avg_latency") (metric cell "p95_latency")
          (metric cell "throughput"))
      sorted
  end;
  Buffer.contents b
