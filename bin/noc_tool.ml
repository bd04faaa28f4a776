(* noc_tool: command-line front end for the deadlock-removal flow.

   Subcommands: list, synth, remove, ordering, updown, duato, optimal,
   analyze, lint, prove, dot, compare, simulate, campaign, batch, serve,
   submit, serve-stats, top, trace, example.  Every command works on a named
   benchmark synthesized at a chosen switch count — or on a design file
   via --input — so results are reproducible from the shell. *)

open Cmdliner
open Noc_model

let version = "1.0.0"

let setup_logs level =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

let logs_term = Term.(const setup_logs $ Logs_cli.level ())

(* Shared arguments ------------------------------------------------- *)

let benchmark_arg =
  let doc =
    Printf.sprintf "Benchmark name. One of: %s."
      (String.concat ", " Noc_benchmarks.Registry.names)
  in
  Arg.(value & opt string "D26_media" & info [ "b"; "benchmark" ] ~doc)

let switches_arg =
  let doc = "Number of switches to synthesize." in
  Arg.(value & opt int 14 & info [ "s"; "switches" ] ~doc)

let degree_arg =
  let doc = "Per-switch link budget for synthesis." in
  Arg.(value & opt int 4 & info [ "max-degree" ] ~doc)

let lookup_benchmark name =
  match Noc_benchmarks.Registry.find name with
  | Some s -> Ok s
  | None ->
      Error
        (Printf.sprintf "unknown benchmark %s (try: %s)" name
           (String.concat ", " Noc_benchmarks.Registry.names))

let synthesize name n_switches max_degree =
  Result.bind (lookup_benchmark name) (fun spec ->
      let traffic = spec.Noc_benchmarks.Spec.build () in
      if n_switches < 1 then Error "switch count must be at least 1"
      else if n_switches > Traffic.n_cores traffic then
        Error
          (Printf.sprintf "%s has %d cores; switch count must not exceed that"
             name (Traffic.n_cores traffic))
      else begin
        let options =
          {
            Noc_synth.Custom.default_options with
            Noc_synth.Custom.max_out_degree = max_degree;
            max_in_degree = max_degree;
          }
        in
        match Noc_synth.Custom.synthesize ~options traffic ~n_switches with
        | Ok net -> Ok (spec, net)
        | Error e -> Error e
      end)

let or_die = function
  | Ok v -> v
  | Error e ->
      Format.eprintf "error: %s@." e;
      exit 1

let input_arg =
  Arg.(value
       & opt (some string) None
       & info [ "i"; "input" ]
           ~doc:"Load the design from $(docv) (noc-design format) instead of \
                 synthesizing a benchmark."
           ~docv:"FILE")

let save_arg =
  Arg.(value
       & opt (some string) None
       & info [ "o"; "save" ]
           ~doc:"Write the resulting design to $(docv) in noc-design format."
           ~docv:"FILE")

(* A design either loaded from a file or synthesized from a benchmark. *)
let obtain_network ~input ~name ~n_switches ~degree =
  match input with
  | Some path -> Io.load_file path
  | None -> Result.map snd (synthesize name n_switches degree)

let maybe_save save net =
  match save with
  | None -> ()
  | Some path -> (
      match Io.save_file path net with
      | () -> Format.printf "design written to %s@." path
      | exception Sys_error e -> or_die (Error e))

(* Tracing ----------------------------------------------------------- *)

type trace_format = Chrome | Jsonl | Summary

let trace_format_arg =
  let doc =
    "Trace output format: $(b,chrome) (trace-event JSON, loadable in \
     Perfetto or chrome://tracing), $(b,jsonl) (the noc-trace/1 stream, \
     lintable with $(b,noc_tool lint)), or $(b,summary) (per-phase \
     wall-time table)."
  in
  Arg.(value
       & opt
           (enum [ ("chrome", Chrome); ("jsonl", Jsonl); ("summary", Summary) ])
           Chrome
       & info [ "format" ] ~docv:"FORMAT" ~doc)

let write_trace ~format ~output collector =
  let metrics = Noc_obs.Metrics.snapshot () in
  let with_out f =
    match output with
    | None -> f stdout
    | Some path -> (
        match open_out path with
        | oc -> Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)
        | exception Sys_error e -> or_die (Error e))
  in
  match format with
  | Jsonl -> (
      let lines = Noc_obs.Export.jsonl ~metrics collector in
      match output with
      | None ->
          List.iter
            (fun l ->
              output_string stdout (Noc_json.Json.to_string l);
              output_char stdout '\n')
            lines
      | Some path -> (
          try Noc_obs.Export.write_jsonl path lines
          with Sys_error e -> or_die (Error e)))
  | Summary ->
      with_out (fun oc ->
          let ppf = Format.formatter_of_out_channel oc in
          Format.fprintf ppf "%a@."
            (Noc_obs.Export.pp_summary ~metrics)
            collector)
  | Chrome ->
      with_out (fun oc ->
          output_string oc
            (Noc_json.Json.to_string_pretty
               (Noc_obs.Export.chrome ~metrics collector));
          output_char oc '\n')

let trace_file_arg =
  Arg.(value
       & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a span trace of this run and write it to $(docv) as \
                 a noc-trace/1 JSONL stream (lintable with \
                 $(b,noc_tool lint)).")

(* [--trace FILE] support for existing commands: collect spans around
   [f] and drop a noc-trace/1 stream at [path].  Metrics are reset so
   the stream describes this run alone. *)
let with_tracing trace f =
  match trace with
  | None -> f ()
  | Some path ->
      let collector = Noc_obs.Trace.create () in
      Noc_obs.Metrics.reset ();
      Noc_obs.Trace.install collector;
      let result = Fun.protect ~finally:Noc_obs.Trace.uninstall f in
      write_trace ~format:Jsonl ~output:(Some path) collector;
      Format.printf "trace written to %s@." path;
      result

(* Commands --------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun s -> Format.printf "%a@." Noc_benchmarks.Spec.pp s)
      Noc_benchmarks.Registry.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List available benchmarks")
    Term.(const run $ const ())

let synth_cmd =
  let run () name n_switches degree save =
    let _, net = or_die (synthesize name n_switches degree) in
    maybe_save save net;
    let topo = Network.topology net in
    Format.printf "%a@.@." Topology.pp topo;
    let cdg = Cdg.build net in
    Format.printf "CDG: %d channels, %d dependencies@."
      (Cdg.n_channels cdg)
      (Noc_graph.Digraph.n_edges (Cdg.graph cdg));
    match Cdg.smallest_cycle cdg with
    | None -> Format.printf "design is deadlock-free as synthesized@."
    | Some cycle ->
        Format.printf "smallest CDG cycle (%d channels): %a@."
          (List.length cycle)
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf " -> ")
             Channel.pp)
          cycle
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Synthesize a topology and report deadlock status")
    Term.(const run $ logs_term $ benchmark_arg $ switches_arg $ degree_arg
          $ save_arg)

let heuristic_arg =
  let choice =
    Arg.enum
      [
        ("smallest", Noc_deadlock.Removal.Smallest_cycle_first);
        ("any", Noc_deadlock.Removal.Any_cycle_first);
      ]
  in
  Arg.(value & opt choice Noc_deadlock.Removal.Smallest_cycle_first
       & info [ "heuristic" ] ~doc:"Cycle selection: $(b,smallest) or $(b,any).")

let directions_arg =
  let choice =
    Arg.enum
      [
        ("both", [ Noc_deadlock.Cost_table.Forward; Noc_deadlock.Cost_table.Backward ]);
        ("forward", [ Noc_deadlock.Cost_table.Forward ]);
        ("backward", [ Noc_deadlock.Cost_table.Backward ]);
      ]
  in
  Arg.(value
       & opt choice [ Noc_deadlock.Cost_table.Forward; Noc_deadlock.Cost_table.Backward ]
       & info [ "directions" ]
           ~doc:"Break directions to consider: $(b,both), $(b,forward) or $(b,backward).")

let resource_arg =
  let choice =
    Arg.enum
      [
        ("vc", Noc_deadlock.Break_cycle.Virtual_channel);
        ("link", Noc_deadlock.Break_cycle.Physical_link);
      ]
  in
  Arg.(value & opt choice Noc_deadlock.Break_cycle.Virtual_channel
       & info [ "resource" ]
           ~doc:"What a duplicated channel costs: a $(b,vc) on the same link \
                 (default) or a parallel physical $(b,link) for VC-less \
                 architectures.")

let reroute_first_arg =
  Arg.(value & flag
       & info [ "reroute-first" ]
           ~doc:"Try to break cycles by rerouting flows onto alternative \
                 physical paths before adding any VCs.")

let remove_cmd =
  let run () name n_switches degree heuristic directions resource reroute
      trace input save =
    let net = or_die (obtain_network ~input ~name ~n_switches ~degree) in
    if reroute then
      Format.printf "%a@.@." Noc_deadlock.Reroute.pp_report
        (Noc_deadlock.Reroute.run net);
    let report =
      with_tracing trace (fun () ->
          Noc_deadlock.Removal.run ~heuristic ~directions ~resource net)
    in
    Format.printf "%a@.@." Noc_deadlock.Removal.pp_report report;
    let cert = Noc_deadlock.Verify.certify net in
    Format.printf "%a@.@." Noc_deadlock.Verify.pp_certificate cert;
    Format.printf "%a@." Noc_power.Report.pp_summary
      (Noc_power.Report.of_network net);
    maybe_save save net
  in
  Cmd.v
    (Cmd.info "remove" ~doc:"Remove deadlocks from a design, verify, and price")
    Term.(const run $ logs_term $ benchmark_arg $ switches_arg $ degree_arg
          $ heuristic_arg $ directions_arg $ resource_arg $ reroute_first_arg
          $ trace_file_arg $ input_arg $ save_arg)

let optimal_cmd =
  let budget_arg =
    Arg.(value & opt int 30_000
         & info [ "budget" ] ~doc:"Branch-and-bound node budget.")
  in
  let run () name n_switches degree input budget =
    let net = or_die (obtain_network ~input ~name ~n_switches ~degree) in
    let heuristic = Noc_deadlock.Removal.run (Network.copy net) in
    let o = Noc_deadlock.Optimal.search ~node_budget:budget net in
    Format.printf "heuristic: +%d VC(s)@.%a@."
      heuristic.Noc_deadlock.Removal.vcs_added Noc_deadlock.Optimal.pp_result o
  in
  Cmd.v
    (Cmd.info "optimal"
       ~doc:"Exact minimum-VC removal (branch-and-bound oracle) vs the heuristic")
    Term.(const run $ logs_term $ benchmark_arg $ switches_arg $ degree_arg
          $ input_arg $ budget_arg)

let strategy_arg =
  let choice =
    Arg.enum
      [
        ("greedy", Noc_deadlock.Resource_ordering.Greedy_ordered);
        ("hop-index", Noc_deadlock.Resource_ordering.Hop_index);
      ]
  in
  Arg.(value & opt choice Noc_deadlock.Resource_ordering.Hop_index
       & info [ "strategy" ]
           ~doc:"Ordering strategy: $(b,hop-index) (paper baseline) or $(b,greedy).")

let ordering_cmd =
  let run () name n_switches degree strategy input save =
    let net = or_die (obtain_network ~input ~name ~n_switches ~degree) in
    let report = Noc_deadlock.Resource_ordering.apply ~strategy net in
    Format.printf "%a@.@." Noc_deadlock.Resource_ordering.pp_report report;
    Format.printf "%a@." Noc_power.Report.pp_summary
      (Noc_power.Report.of_network net);
    maybe_save save net
  in
  Cmd.v
    (Cmd.info "ordering" ~doc:"Apply the resource-ordering baseline")
    Term.(const run $ logs_term $ benchmark_arg $ switches_arg $ degree_arg
          $ strategy_arg $ input_arg $ save_arg)

let updown_cmd =
  let run () name n_switches degree input save =
    let net = or_die (obtain_network ~input ~name ~n_switches ~degree) in
    (match Noc_deadlock.Updown.apply net with
    | Ok report ->
        Format.printf "%a@.@." Noc_deadlock.Updown.pp_report report;
        Format.printf "%a@." Noc_power.Report.pp_summary
          (Noc_power.Report.of_network net);
        maybe_save save net
    | Error e ->
        Format.printf
          "up*/down* routing is infeasible on this design: %s@.(this is the \
           paper's argument for VC-based removal on custom topologies)@."
          e)
  in
  Cmd.v
    (Cmd.info "updown"
       ~doc:"Apply up*/down* turn-prohibition routing (literature baseline)")
    Term.(const run $ logs_term $ benchmark_arg $ switches_arg $ degree_arg
          $ input_arg $ save_arg)

let dot_cmd =
  let kind_arg =
    let choice = Arg.enum [ ("topology", `Topology); ("cdg", `Cdg) ] in
    Arg.(value & opt choice `Topology
         & info [ "kind" ] ~doc:"What to render: $(b,topology) or $(b,cdg).")
  in
  let run () name n_switches degree input kind =
    let net = or_die (obtain_network ~input ~name ~n_switches ~degree) in
    match kind with
    | `Topology -> print_string (Dot_export.topology net)
    | `Cdg -> print_string (Dot_export.cdg net)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit Graphviz for the topology or the CDG")
    Term.(const run $ logs_term $ benchmark_arg $ switches_arg $ degree_arg
          $ input_arg $ kind_arg)

let compare_cmd =
  let run () name n_switches =
    let spec = or_die (lookup_benchmark name) in
    let point = Noc_experiments.Sweep.evaluate spec ~n_switches in
    Format.printf "%a@." Noc_experiments.Sweep.pp_point point
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare removal vs ordering on one design point")
    Term.(const run $ logs_term $ benchmark_arg $ switches_arg)

let simulate_cmd =
  let fix_arg =
    Arg.(value & flag
         & info [ "remove-deadlocks" ] ~doc:"Run the removal pass before simulating.")
  in
  let packet_length_arg =
    Arg.(value & opt int 8 & info [ "packet-length" ] ~doc:"Flits per packet.")
  in
  let packets_arg =
    Arg.(value & opt int 2 & info [ "packets" ] ~doc:"Packets per flow.")
  in
  let workload_arg =
    Arg.(value
         & opt (some string) None
         & info [ "workload" ] ~docv:"KIND"
             ~doc:(Printf.sprintf
                     "Injection schedule to simulate, one of: %s. Defaults to \
                      the burst workload shaped by $(b,--packet-length) and \
                      $(b,--packets)."
                     (String.concat ", " Noc_benchmarks.Workloads.kinds)))
  in
  let run () name n_switches degree fix packet_length packets_per_flow workload
      =
    let _, net = or_die (synthesize name n_switches degree) in
    if fix then ignore (Noc_deadlock.Removal.run net);
    let workload =
      Option.map
        (fun kind ->
          match Noc_benchmarks.Workloads.of_kind kind with
          | Some w -> w
          | None ->
              or_die
                (Error
                   (Printf.sprintf "unknown workload %s (try: %s)" kind
                      (String.concat ", " Noc_benchmarks.Workloads.kinds))))
        workload
    in
    let result =
      Noc_experiments.Sim_check.check ~packet_length ~packets_per_flow
        ?workload
        ~label:(Printf.sprintf "%s@%d%s" name n_switches
                  (if fix then " (after removal)" else " (as synthesized)"))
        net
    in
    Format.printf "%a@." Noc_experiments.Sim_check.pp_result result
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the wormhole simulator on a design")
    Term.(const run $ logs_term $ benchmark_arg $ switches_arg $ degree_arg
          $ fix_arg $ packet_length_arg $ packets_arg $ workload_arg)

let analyze_cmd =
  let capacity_arg =
    Arg.(value & opt float 4000.
         & info [ "capacity" ] ~doc:"Link capacity in MB/s for the feasibility check.")
  in
  let run () name n_switches degree input capacity =
    let net = or_die (obtain_network ~input ~name ~n_switches ~degree) in
    Format.printf "%a@.@." Metrics.pp (Metrics.of_network net);
    Format.printf "%a@.@." Bandwidth.pp (Bandwidth.analyze ~capacity_mbps:capacity net);
    let deadlock_free = Noc_deadlock.Removal.is_deadlock_free net in
    Format.printf "deadlock-free as analyzed: %b@." deadlock_free
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Design health report: metrics, bandwidth feasibility, deadlock \
             verdict")
    Term.(const run $ logs_term $ benchmark_arg $ switches_arg $ degree_arg
          $ input_arg $ capacity_arg)

let duato_cmd =
  let function_arg =
    let choice = Arg.enum [ ("static", `Static); ("adaptive", `Adaptive) ] in
    Arg.(value & opt choice `Static
         & info [ "function" ]
             ~doc:"Routing function: $(b,static) (from installed routes) or \
                   $(b,adaptive) (fully adaptive minimal).")
  in
  let escape_arg =
    let choice = Arg.enum [ ("all", `All); ("vc0", `Vc0) ] in
    Arg.(value & opt choice `All
         & info [ "escape" ]
             ~doc:"Escape channel set: $(b,all) channels or $(b,vc0) only.")
  in
  let run () name n_switches degree input func escape =
    let net = or_die (obtain_network ~input ~name ~n_switches ~degree) in
    let rf =
      match func with
      | `Static -> Routing_function.of_static_routes net
      | `Adaptive -> Routing_function.minimal_adaptive net
    in
    let escape =
      match escape with
      | `All -> Noc_deadlock.Duato.escape_everything
      | `Vc0 -> fun c -> Channel.vc c = 0
    in
    Format.printf "%a@." Noc_deadlock.Duato.pp_verdict
      (Noc_deadlock.Duato.check net rf ~escape)
  in
  Cmd.v
    (Cmd.info "duato"
       ~doc:"Check Duato's deadlock-freedom condition for a routing function")
    Term.(const run $ logs_term $ benchmark_arg $ switches_arg $ degree_arg
          $ input_arg $ function_arg $ escape_arg)

let lint_cmd =
  let files_arg =
    Arg.(value & pos_all string []
         & info [] ~docv:"FILE"
             ~doc:"Inputs to lint: noc-design files, noc-jobs/1 job files \
                   and/or noc-trace/1 trace streams (classified by \
                   content).  With no $(docv), the benchmark named by \
                   $(b,--benchmark) is synthesized and linted.")
  in
  let format_arg =
    let choice = Arg.enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ] in
    Arg.(value & opt choice `Text
         & info [ "format" ]
             ~doc:"Output format: $(b,text), $(b,json) (noc-lint/1) or \
                   $(b,sarif) (SARIF 2.1.0).")
  in
  let fail_on_arg =
    let choice =
      Arg.enum
        [
          ("error", Diag_code.Error);
          ("warning", Diag_code.Warning);
          ("info", Diag_code.Info);
        ]
    in
    Arg.(value & opt choice Diag_code.Error
         & info [ "fail-on" ]
             ~doc:"Exit 2 when any finding at or above this severity exists: \
                   $(b,error) (default), $(b,warning) or $(b,info).")
  in
  let all_benchmarks_arg =
    Arg.(value & flag
         & info [ "all-benchmarks" ]
             ~doc:"Lint every registry benchmark (synthesized at the default \
                   switch count); ignores $(docv) and $(b,--benchmark).")
  in
  let capacity_arg =
    Arg.(value & opt float Noc_analysis.Passes.default_capacity_mbps
         & info [ "capacity" ]
             ~doc:"Link capacity in MB/s for the bandwidth pass.")
  in
  let suppress_arg =
    Arg.(value & opt (list string) []
         & info [ "suppress" ] ~docv:"CODE[,CODE]"
             ~doc:"Drop findings with these diagnostic codes (e.g. \
                   $(b,NOC-SIM-003)) before rendering and before the \
                   $(b,--fail-on) gate, so advisories can be muted without \
                   lowering the gate for every other code.  Unknown codes \
                   are an error.")
  in
  let jobs_arg =
    Arg.(value & opt int 0
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains for $(b,--all-benchmarks) (each benchmark \
                   is synthesized and analyzed independently; results are \
                   merged in registry order, so the output is identical at \
                   any $(docv)).  0 (default) picks the machine's \
                   recommended domain count.")
  in
  let output_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the report to $(docv) instead of stdout.")
  in
  let read_file path =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))
    with Sys_error e -> Error e
  in
  (* A design file's first significant line is its format tag; anything
     else is handed to the jobs pass (which reports unusable JSON with a
     stable code instead of a hard error). *)
  let is_design_text text =
    let lines = String.split_on_char '\n' text in
    let significant l =
      let l = String.trim l in
      l <> "" && not (String.length l > 0 && l.[0] = '#')
    in
    match List.find_opt significant lines with
    | Some l -> String.length (String.trim l) >= 10
                && String.sub (String.trim l) 0 10 = "noc-design"
    | None -> false
  in
  (* Trace streams announce themselves on the first line; a substring
     check (rather than a JSON parse) keeps corrupted trace files
     classified as traces, so the NOC-TRC pass gets to report them. *)
  let is_trace_text text =
    let first = match String.index_opt text '\n' with
      | Some i -> String.sub text 0 i
      | None -> text
    in
    let pat = "noc-trace/" in
    let n = String.length first and m = String.length pat in
    let rec scan i = i + m <= n && (String.sub first i m = pat || scan (i + 1)) in
    scan 0
  in
  let run () files format fail_on all_benchmarks name n_switches degree
      capacity suppress jobs output =
    let passes = Noc_service.Lint.all_passes ~capacity_mbps:capacity () in
    let suppress =
      List.map
        (fun code ->
          match Diag_code.find code with
          | Some _ -> code
          | None ->
              or_die
                (Error
                   (Printf.sprintf
                      "--suppress: unknown diagnostic code %s (see noc_tool \
                       lint --format json for the catalog)"
                      code)))
        suppress
    in
    let reports =
      if all_benchmarks then
        (* Per-benchmark synthesis + analysis is independent, so fan it
           out over a domain pool; Pool.run keeps registry order, so the
           merged output is byte-identical at any -j. *)
        let analyze_spec spec =
          let n = min 14 spec.Noc_benchmarks.Spec.n_cores in
          Result.map
            (fun (_, net) ->
              Noc_analysis.Engine.analyze ~passes
                ~label:(Printf.sprintf "%s@%d" spec.Noc_benchmarks.Spec.name n)
                (Noc_analysis.Pass.Design (Noc_analysis.Facts.of_network net)))
            (synthesize spec.Noc_benchmarks.Spec.name n degree)
        in
        let specs = Noc_benchmarks.Registry.all in
        let domains =
          let auto =
            min (List.length specs) (Domain.recommended_domain_count ())
          in
          if jobs <= 0 then max 1 auto else jobs
        in
        List.map or_die (Noc_pool.Pool.run ~domains analyze_spec specs)
      else
        let targets =
          if files = [] then
            let spec = or_die (lookup_benchmark name) in
            let _, net = or_die (synthesize name n_switches degree) in
            ignore spec;
            [
              ( Printf.sprintf "%s@%d" name n_switches,
                Noc_analysis.Pass.Design (Noc_analysis.Facts.of_network net) );
            ]
          else
            List.map
              (fun path ->
                let text =
                  or_die
                    (Result.map_error
                       (fun e -> Printf.sprintf "cannot read %s: %s" path e)
                       (read_file path))
                in
                if is_design_text text then
                  match Io.load text with
                  | Ok net ->
                      ( path,
                        Noc_analysis.Pass.Design
                          (Noc_analysis.Facts.of_network net) )
                  | Error e ->
                      or_die (Error (Printf.sprintf "%s: %s" path e))
                else if is_trace_text text then
                  (path, Noc_analysis.Pass.Trace_file { path; text })
                else (path, Noc_analysis.Pass.Job_file { path; text }))
              files
        in
        List.map
          (fun (label, target) ->
            Noc_analysis.Engine.analyze ~passes ~label target)
          targets
    in
    let reports =
      if suppress = [] then reports
      else
        List.map
          (fun (r : Noc_analysis.Engine.report) ->
            {
              r with
              Noc_analysis.Engine.diagnostics =
                List.filter
                  (fun (d : Noc_analysis.Diagnostic.t) ->
                    not
                      (List.mem d.Noc_analysis.Diagnostic.code.Diag_code.code
                         suppress))
                  r.Noc_analysis.Engine.diagnostics;
            })
          reports
    in
    let rendered =
      match format with
      | `Text -> Format.asprintf "%a" Noc_analysis.Render.text reports
      | `Json ->
          Noc_json.Json.to_string_pretty
            (Noc_analysis.Render.json ~version reports)
          ^ "\n"
      | `Sarif ->
          Noc_json.Json.to_string_pretty
            (Noc_analysis.Render.sarif ~version reports)
          ^ "\n"
    in
    (match output with
    | None -> print_string rendered
    | Some path -> (
        try
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc rendered)
        with Sys_error e -> or_die (Error e)));
    if Noc_analysis.Engine.count_at_least ~floor:fail_on reports > 0 then exit 2
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically analyze designs and job files (stable diagnostic codes)"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the multi-pass static analyzer over NoC designs and \
              noc-jobs/1 job files: route/topology well-formedness, dead \
              channels and VCs, CDG cycle witnesses, certificate rechecks, \
              Duato escape coverage, bandwidth feasibility and job-file \
              sanity.  Every finding carries a stable NOC-*-NNN code (see \
              docs/ANALYSIS.md).";
           `P
             "Exits 0 when no finding reaches the $(b,--fail-on) severity, \
              2 when one does, 1 on unusable inputs.  $(b,--suppress) drops \
              named codes before the gate, so e.g. NOC-SIM-003 saturation \
              advisories can be muted under $(b,--fail-on warning) without \
              also muting the NOC-DLF prover codes.";
         ])
    Term.(const run $ logs_term $ files_arg $ format_arg $ fail_on_arg
          $ all_benchmarks_arg $ benchmark_arg $ switches_arg $ degree_arg
          $ capacity_arg $ suppress_arg $ jobs_arg $ output_arg)

let prove_cmd =
  let all_benchmarks_arg =
    Arg.(value & flag
         & info [ "all-benchmarks" ]
             ~doc:"Prove every registry benchmark (synthesized at the \
                   default switch count); ignores $(b,--benchmark).")
  in
  let prepare_arg =
    let choice = Arg.enum [ ("as-is", `As_is); ("removal", `Removal) ] in
    Arg.(value & opt choice `As_is
         & info [ "prepare" ]
             ~doc:"Design preparation before proving: $(b,as-is) (default) \
                   or $(b,removal) (run the paper's removal algorithm first \
                   and report its VC cost against the static lower bound).")
  in
  let require_free_arg =
    Arg.(value & flag
         & info [ "require-free" ]
             ~doc:"Exit 2 unless every design is proven deadlock-free.")
  in
  let pp_order_head ppf order =
    let head = List.filteri (fun i _ -> i < 8) order in
    Format.fprintf ppf "%a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf " -> ")
         Channel.pp)
      head;
    let rest = List.length order - List.length head in
    if rest > 0 then Format.fprintf ppf " (+%d more)" rest
  in
  let run () name n_switches degree input prepare require_free all_benchmarks
      =
    let targets =
      if all_benchmarks then
        List.map
          (fun spec ->
            let n = min 14 spec.Noc_benchmarks.Spec.n_cores in
            let _, net =
              or_die (synthesize spec.Noc_benchmarks.Spec.name n degree)
            in
            (Printf.sprintf "%s@%d" spec.Noc_benchmarks.Spec.name n, net))
          Noc_benchmarks.Registry.all
      else
        let label =
          match input with
          | Some path -> path
          | None -> Printf.sprintf "%s@%d" name n_switches
        in
        [ (label, or_die (obtain_network ~input ~name ~n_switches ~degree)) ]
    in
    let disagreed = ref false and any_cyclic = ref false in
    List.iter
      (fun (label, net) ->
        (match prepare with
        | `As_is -> ()
        | `Removal ->
            let bound = Noc_analysis.Deadlock_freedom.vc_lower_bound net in
            let report = Noc_deadlock.Removal.run net in
            Format.printf
              "%s: removal added %d VC(s); static lower bound %d (gap %d)@."
              label report.Noc_deadlock.Removal.vcs_added
              bound.Noc_analysis.Deadlock_freedom.lower_bound
              (report.Noc_deadlock.Removal.vcs_added
              - bound.Noc_analysis.Deadlock_freedom.lower_bound));
        let v = Noc_analysis.Deadlock_freedom.analyze net in
        Format.printf "%s: %a@." label
          Noc_analysis.Deadlock_freedom.pp_verdict v;
        (match v.Noc_analysis.Deadlock_freedom.escape_order with
        | Some order ->
            Format.printf "%s: escape ordering: %a@." label pp_order_head
              order;
            if
              not (Noc_analysis.Deadlock_freedom.check_escape_order net order)
            then begin
              Format.printf
                "%s: DISAGREEMENT: escape ordering rejected by the \
                 independent replay@."
                label;
              disagreed := true
            end
        | None ->
            any_cyclic := true;
            if prepare = `As_is then begin
              let bound = Noc_analysis.Deadlock_freedom.vc_lower_bound net in
              Format.printf
                "%s: any duplication-based removal must add at least %d \
                 VC(s) (%d vertex-disjoint wait cycles)@."
                label bound.Noc_analysis.Deadlock_freedom.lower_bound
                (List.length
                   bound.Noc_analysis.Deadlock_freedom.disjoint_cycles)
            end);
        let cert = Noc_deadlock.Verify.certify net in
        let verdict_name free = if free then "deadlock-free" else "cyclic" in
        if
          Bool.equal cert.Noc_deadlock.Verify.acyclic
            v.Noc_analysis.Deadlock_freedom.deadlock_free
        then
          Format.printf "%s: agreement: certify and prover both say %s@."
            label
            (verdict_name v.Noc_analysis.Deadlock_freedom.deadlock_free)
        else begin
          Format.printf "%s: DISAGREEMENT: certify says %s, prover says %s@."
            label
            (verdict_name cert.Noc_deadlock.Verify.acyclic)
            (verdict_name v.Noc_analysis.Deadlock_freedom.deadlock_free);
          disagreed := true
        end)
      targets;
    if !disagreed || (require_free && !any_cyclic) then exit 2
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:"Decide deadlock freedom with the independent prover and print \
             its witness"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Re-decides deadlock freedom of the design's routing relation \
              with the escape-elimination prover (the Mendlovic\226\128\147Matias \
              necessary-and-sufficient condition specialized to static \
              single-path routing), which shares no code with the CDG \
              certifier, and prints the constructive witness: an escape \
              ordering when the design is deadlock-free, or a waiting knot \
              plus a concrete waits-for cycle when it is not.  On cyclic \
              designs it also reports the static lower bound on the VCs any \
              duplication-based removal must add; with $(b,--prepare \
              removal) it runs the paper's algorithm first and reports the \
              achieved VC cost against that bound.";
           `P
             "Every design is cross-checked against Verify.certify; any \
              disagreement between the two provers exits 2 (and is a bug in \
              one of them).  $(b,--require-free) additionally exits 2 when \
              a design is (agreed) cyclic, which makes the command a CI \
              gate for removal-prepared designs.";
         ])
    Term.(const run $ logs_term $ benchmark_arg $ switches_arg $ degree_arg
          $ input_arg $ prepare_arg $ require_free_arg $ all_benchmarks_arg)

(* One result line, shared between batch and submit so their outputs
   diff cleanly in the service-conformance CI job. *)
let print_job_line ~index ~label ~(outcome : Noc_service.Outcome.t) ~marker =
  let open Noc_service in
  let status, detail =
    match outcome.Outcome.status with
    | Outcome.Done ->
        let metric name =
          Option.map
            (fun v -> Printf.sprintf "%s %g" name v)
            (Outcome.metric outcome name)
        in
        ( "ok",
          String.concat ", "
            (List.filter_map metric
               [
                 (* removal/ordering/sweep columns *)
                 "vcs_added";
                 "iterations";
                 "power_mw";
                 (* simulate columns (absent on the other job types) *)
                 "deadlocked";
                 "cycles";
                 "avg_latency";
               ]) )
    | Outcome.Failed msg -> ("FAILED", msg)
    | Outcome.Timed_out -> ("TIMED OUT", "")
    | Outcome.Cancelled -> ("cancelled", "")
  in
  Format.printf "[%d] %-9s %-28s %8.1f ms%s%s@." index status label
    outcome.Outcome.wall_ms marker
    (if detail = "" then "" else "  " ^ detail)

let jobs_file_arg =
  Arg.(required
       & pos 0 (some string) None
       & info [] ~docv:"JOBS.json"
           ~doc:"Job file (schema noc-jobs/1; see docs/SERVICE.md).")

let read_whole_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with Sys_error e -> Error e

let load_jobs path =
  let open Noc_service in
  Result.bind
    (Result.map_error
       (fun e -> Printf.sprintf "cannot read job file: %s" e)
       (read_whole_file path))
    (fun text ->
      Result.map_error
        (fun e -> Printf.sprintf "%s: %s" path e)
        (Job.list_of_json text))

let batch_cmd =
  let domains_arg =
    Arg.(value & opt int 1
         & info [ "j"; "domains" ]
             ~doc:"Worker domains. 1 runs jobs inline; more spreads them \
                   over a domain pool without changing any result.")
  in
  let cache_arg =
    Arg.(value & opt int 1024
         & info [ "cache-size" ]
             ~doc:"Capacity of the content-addressed result cache; 0 disables \
                   caching.")
  in
  let timeout_arg =
    Arg.(value
         & opt (some float) None
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:"Per-job wall budget. Jobs over budget are reported as \
                   timed-out and their metrics withheld (running jobs are \
                   never interrupted mid-flight).")
  in
  let fail_fast_arg =
    Arg.(value & flag
         & info [ "fail-fast" ]
             ~doc:"After the first failure or timeout, cancel jobs that have \
                   not started yet.")
  in
  let no_lint_arg =
    Arg.(value & flag
         & info [ "no-lint" ]
             ~doc:"Skip the submission-time lint gate (jobs with error-level \
                   static findings are normally rejected before reaching a \
                   worker domain).")
  in
  let print_result (r : Noc_service.Batch.job_result) =
    print_job_line ~index:r.Noc_service.Batch.index
      ~label:(Noc_service.Job.label r.Noc_service.Batch.job)
      ~outcome:r.Noc_service.Batch.outcome
      ~marker:(if r.Noc_service.Batch.cache_hit then "  (cache hit)" else "")
  in
  let run () jobs_file domains cache_size timeout_ms fail_fast no_lint
      trace =
    let open Noc_service in
    if domains < 1 then or_die (Error "--domains must be at least 1");
    if cache_size < 0 then or_die (Error "--cache-size must be >= 0");
    let jobs = or_die (load_jobs jobs_file) in
    let config =
      {
        Batch.domains;
        cache =
          (if cache_size = 0 then None
           else Some (Result_cache.create ~capacity:cache_size));
        timeout_ms;
        fail_fast;
        lint = not no_lint;
      }
    in
    let _, summary =
      with_tracing trace (fun () ->
          Batch.run ~on_result:print_result config jobs)
    in
    Format.printf "@.%a@." Batch.pp_summary summary;
    if summary.Batch.succeeded <> summary.Batch.total then exit 2
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Run a job file through the multicore batch service"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Reads a noc-jobs/1 file, runs every job through a pool of \
              worker domains with a content-addressed result cache, streams \
              one line per job in submission order, and prints a summary. \
              Results are bit-identical for any $(b,--domains) setting.";
           `P "Exits 1 on an unusable job file, 2 when any job fails.";
         ])
    Term.(const run $ logs_term $ jobs_file_arg $ domains_arg $ cache_arg
          $ timeout_arg $ fail_fast_arg $ no_lint_arg $ trace_file_arg)

(* The persistent service ------------------------------------------- *)

let socket_arg =
  Arg.(value & opt string "noc-serve.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket the daemon listens on (created by \
                 $(b,serve), connected to by $(b,submit), \
                 $(b,serve-stats) and $(b,top)).")

(* Repeatable SLO threshold override, shared by serve / campaign / top:
   how CI injects an artificially tight objective to prove the gate
   actually burns. *)
let slo_arg =
  Arg.(value & opt_all string []
       & info [ "slo" ] ~docv:"NAME=VALUE"
           ~doc:"Override a declared SLO threshold (e.g. \
                 $(b,submit_p99_ms=0.001)). Repeatable. Known names: \
                 submit_p99_ms, queue_wait_p99_ms, store_hit_rate, \
                 dlf_agreement, campaign_cell_p99_ms.")

let apply_slo_overrides overrides =
  List.fold_left
    (fun slos spec -> or_die (Noc_obs.Slo.override slos spec))
    Noc_obs.Slo.defaults overrides

let serve_cmd =
  let tcp_arg =
    Arg.(value & opt (some int) None
         & info [ "tcp" ] ~docv:"PORT"
             ~doc:"Additionally listen on 127.0.0.1:$(docv) for clients \
                   that cannot speak AF_UNIX.")
  in
  let domains_arg =
    Arg.(value & opt int 2
         & info [ "j"; "domains" ] ~doc:"Worker domains executing jobs.")
  in
  let queue_arg =
    Arg.(value & opt int 64
         & info [ "queue-capacity" ]
             ~doc:"Bounded work-queue depth; submissions beyond it get a \
                   typed $(b,overloaded) response instead of blocking.")
  in
  let store_arg =
    Arg.(value & opt string ".noc-store"
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Root of the persistent content-addressed result store \
                   (sharded objects + LRU index); warm hits survive \
                   restarts.")
  in
  let no_store_arg =
    Arg.(value & flag
         & info [ "no-store" ]
             ~doc:"Serve without a result store (every job recomputes).")
  in
  let store_capacity_arg =
    Arg.(value & opt int 4096
         & info [ "store-capacity" ]
             ~doc:"Maximum objects kept on disk before LRU eviction.")
  in
  let no_lint_arg =
    Arg.(value & flag
         & info [ "no-lint" ]
             ~doc:"Disable the submission-time lint gate (error-level \
                   static findings normally reject a job before it \
                   reaches a worker).")
  in
  let metrics_addr_arg =
    Arg.(value & opt (some int) None
         & info [ "metrics-addr" ] ~docv:"PORT"
             ~doc:"Serve one-shot HTTP GET /metrics scrapes (Prometheus \
                   text format v0.0.4, including the noc_slo_ok verdict \
                   gauges) on 127.0.0.1:$(docv).")
  in
  let run () socket tcp metrics_addr domains queue store no_store
      store_capacity no_lint slo_overrides trace =
    let open Noc_service in
    if domains < 1 then or_die (Error "--domains must be at least 1");
    if queue < 1 then or_die (Error "--queue-capacity must be at least 1");
    if store_capacity < 1 then
      or_die (Error "--store-capacity must be at least 1");
    let store =
      if no_store then None
      else
        match Store.create ~root:store ~capacity:store_capacity with
        | s -> Some s
        | exception Sys_error e -> or_die (Error e)
        | exception Unix.Unix_error (e, _, arg) ->
            or_die
              (Error (Printf.sprintf "%s: %s" arg (Unix.error_message e)))
    in
    let config =
      {
        Server.socket_path = socket;
        tcp_port = tcp;
        metrics_addr;
        domains;
        queue_capacity = queue;
        store;
        lint = not no_lint;
        slos = apply_slo_overrides slo_overrides;
      }
    in
    let server = Server.create config in
    let request_stop _ = Server.stop server in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Format.printf "noc serve: listening on %s%s%s (%d domain%s, store: %s)@."
      socket
      (match tcp with
      | None -> ""
      | Some port -> Printf.sprintf " and 127.0.0.1:%d" port)
      (match metrics_addr with
      | None -> ""
      | Some port -> Printf.sprintf ", metrics on http://127.0.0.1:%d/metrics" port)
      domains
      (if domains = 1 then "" else "s")
      (match store with
      | None -> "disabled"
      | Some s -> Printf.sprintf "%s (%d warm)" (Store.root s)
                    (Store.stats s).Store.entries);
    Format.print_flush ();
    (try with_tracing trace (fun () -> Server.run server)
     with
    | Unix.Unix_error (e, _, arg) ->
        or_die (Error (Printf.sprintf "%s: %s" arg (Unix.error_message e)))
    | Failure e -> or_die (Error e));
    Format.printf "noc serve: drained cleanly@.";
    Format.print_flush ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent job daemon (noc-wire/1 over a Unix socket)"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Long-lived counterpart of $(b,noc_tool batch): accepts \
              noc-jobs/1 jobs over a length-prefixed-JSON wire protocol, \
              vets each through the static lint gate, serves repeats from \
              a disk-backed content-addressed store (warm across \
              restarts), runs misses on a domain pool with typed \
              backpressure, and streams results as they complete.";
           `P
             "SIGTERM or SIGINT drains gracefully: stop accepting, finish \
              in-flight jobs, flush the trace and the store index, \
              exit 0.  See docs/SERVICE.md for the wire protocol and \
              store layout, docs/OBSERVABILITY.md for the metrics \
              endpoint and SLOs.";
         ])
    Term.(const run $ logs_term $ socket_arg $ tcp_arg $ metrics_addr_arg
          $ domains_arg $ queue_arg $ store_arg $ no_store_arg
          $ store_capacity_arg $ no_lint_arg $ slo_arg
          $ trace_file_arg)

let submit_cmd =
  let corr_arg =
    Arg.(value
         & opt (some string) None
         & info [ "corr" ] ~docv:"PREFIX"
             ~doc:"Correlation-id prefix: job $(i,i) is submitted with \
                   correlation id $(docv)-$(i,i), which the daemon threads \
                   into its serve.submit and serve.job trace spans. \
                   Defaults to $(b,submit-<pid>).")
  in
  let run () jobs_file socket corr =
    let open Noc_service in
    let jobs = or_die (load_jobs jobs_file) in
    let corr_prefix =
      match corr with
      | Some p -> p
      | None -> Printf.sprintf "submit-%d" (Unix.getpid ())
    in
    let client = or_die (Client.connect ~socket) in
    let print_result index job (reply : Wire.response) =
      match reply with
      | Wire.Result { outcome; cached; _ } ->
          print_job_line ~index ~label:(Job.label job) ~outcome
            ~marker:(if cached then "  (warm)" else "")
      | Wire.Rejected { reason; _ } ->
          Format.printf "[%d] %-9s %-28s %s@." index "REJECTED" (Job.label job)
            reason
      | Wire.Overloaded { queue_depth; _ } ->
          Format.printf "[%d] %-9s %-28s queue full (depth %d)@." index
            "OVERLOADED" (Job.label job) queue_depth
      | Wire.Hello _ | Wire.Metrics_report _ | Wire.Pong | Wire.Error_msg _ ->
          ()
    in
    let replies =
      match Client.submit_all ~corr_prefix client jobs ~on_result:print_result
      with
      | Ok replies ->
          Client.close client;
          replies
      | Error e ->
          Client.close client;
          or_die (Error e)
    in
    let count p = List.length (List.filter p replies) in
    let ok =
      count (function
        | Wire.Result { outcome; _ } -> Outcome.is_done outcome
        | _ -> false)
    in
    let failed =
      count (function
        | Wire.Result { outcome; _ } -> not (Outcome.is_done outcome)
        | _ -> false)
    in
    let rejected = count (function Wire.Rejected _ -> true | _ -> false) in
    let overloaded = count (function Wire.Overloaded _ -> true | _ -> false) in
    let warm =
      count (function Wire.Result { cached = true; _ } -> true | _ -> false)
    in
    let total = List.length replies in
    Format.printf "@.%d job%s: %d ok, %d failed, %d rejected, %d overloaded, \
                   %d warm hit%s@."
      total
      (if total = 1 then "" else "s")
      ok failed rejected overloaded warm
      (if warm = 1 then "" else "s");
    if ok <> total then exit 2
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a job file to a running noc serve daemon"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Reads a noc-jobs/1 file, submits every job over the daemon's \
              socket, and streams one line per result in submission order \
              — same columns as $(b,noc_tool batch), with $(b,(warm)) \
              marking results served from the daemon's persistent store.";
           `P
             "Every job carries a correlation id ($(b,--corr) prefix plus \
              its index), so one submission is traceable across the wire \
              and the daemon's trace spans ($(b,serve --trace)).";
           `P
             "Exits 1 on an unusable job file or unreachable daemon, 2 \
              when any job fails, is rejected or is shed as overloaded.";
         ])
    Term.(const run $ logs_term $ jobs_file_arg $ socket_arg $ corr_arg)

(* Client-side rendering of the typed stats record.  The serve-smoke
   and store-persistence CI jobs grep these exact line shapes out of
   serve-stats output. *)
let render_wire_stats b (s : Noc_service.Wire.stats) =
  let open Noc_service in
  Printf.bprintf b "serve_uptime_seconds %.3f\n" s.Wire.uptime_s;
  Printf.bprintf b "serve_queue_depth %d\n" s.Wire.queue_depth;
  Printf.bprintf b "serve_inflight %d\n" s.Wire.inflight;
  Printf.bprintf b "serve_draining %d\n" (if s.Wire.draining then 1 else 0);
  match s.Wire.store with
  | None -> Printf.bprintf b "store_enabled 0\n"
  | Some st ->
      Printf.bprintf b "store_enabled 1\n";
      Printf.bprintf b "store_entries %d\n" st.Wire.entries;
      Printf.bprintf b "store_hits %d\n" st.Wire.hits;
      Printf.bprintf b "store_misses %d\n" st.Wire.misses;
      Printf.bprintf b "store_evictions %d\n" st.Wire.evictions;
      Printf.bprintf b "store_hit_rate %.6f\n" st.Wire.hit_rate

let render_wire_metric b m =
  match m with
  | Noc_obs.Metrics.Counter { value; _ } ->
      Printf.bprintf b "%s %d\n" (Noc_obs.Metrics.metric_name m) value
  | Noc_obs.Metrics.Gauge { value; _ } ->
      Printf.bprintf b "%s %g\n" (Noc_obs.Metrics.metric_name m) value
  | Noc_obs.Metrics.Histogram { buckets; overflow; count; sum; _ } ->
      let name = Noc_obs.Metrics.metric_name m in
      let cum = ref 0 in
      List.iter
        (fun (le, n) ->
          cum := !cum + n;
          Printf.bprintf b "%s_bucket{le=\"%g\"} %d\n" name le !cum)
        buckets;
      Printf.bprintf b "%s_bucket{le=\"+Inf\"} %d\n" name (!cum + overflow);
      Printf.bprintf b "%s_sum %g\n" name sum;
      Printf.bprintf b "%s_count %d\n" name count

let fetch_metrics_report socket =
  let open Noc_service in
  let client = or_die (Client.connect ~socket) in
  match Client.metrics client with
  | Ok report ->
      Client.close client;
      report
  | Error e ->
      Client.close client;
      or_die (Error e)

let serve_stats_cmd =
  let run () socket =
    let open Noc_service in
    let report = fetch_metrics_report socket in
    let b = Buffer.create 1024 in
    Printf.bprintf b "# noc serve metrics (%s)\n" Wire.protocol;
    render_wire_stats b report.Wire.mr_stats;
    (match Noc_obs.Expo.metrics_of_json report.Wire.mr_metrics with
    | Ok metrics -> List.iter (render_wire_metric b) metrics
    | Error e ->
        or_die (Error (Printf.sprintf "malformed metrics payload: %s" e)));
    print_string (Buffer.contents b)
  in
  Cmd.v
    (Cmd.info "serve-stats"
       ~doc:"Print a running daemon's live /metrics-style report"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Asks the daemon for its typed metrics report and renders it \
              as text: uptime, queue depth, in-flight jobs, store \
              entries/hit-rate/evictions, then every counter, gauge and \
              histogram in the noc_obs registry (including the \
              noc_slo_ok verdict gauges), one plain-text line each.";
           `P
             "For the Prometheus exposition format, scrape the daemon's \
              $(b,--metrics-addr) HTTP endpoint or use $(b,noc_tool top \
              --raw) instead.";
         ])
    Term.(const run $ logs_term $ socket_arg)

(* noc_tool top ----------------------------------------------------- *)

(* One-shot HTTP/1.0 GET against the daemon's --metrics-addr listener:
   connect, send the request, read to EOF, strip the header block. *)
let http_scrape ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally (fun () ->
      match
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
      with
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "cannot connect to 127.0.0.1:%d: %s" port
               (Unix.error_message e))
      | () -> (
          let req = "GET /metrics HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n" in
          let rec write_all off =
            if off < String.length req then
              write_all
                (off + Unix.write_substring fd req off (String.length req - off))
          in
          let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
          let rec read_all () =
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                read_all ()
          in
          try
            write_all 0;
            read_all ();
            let response = Buffer.contents buf in
            let header_end =
              match String.index_opt response '\r' with
              | _ -> (
                  let rec find i =
                    if i + 3 >= String.length response then None
                    else if String.sub response i 4 = "\r\n\r\n" then Some i
                    else find (i + 1)
                  in
                  find 0)
            in
            match header_end with
            | None -> Error "malformed HTTP response (no header terminator)"
            | Some i ->
                let status = String.sub response 0 (String.index response '\r') in
                if
                  String.length status >= 12
                  && String.sub status 9 3 = "200"
                then
                  Ok
                    (String.sub response (i + 4)
                       (String.length response - i - 4))
                else Error (Printf.sprintf "scrape failed: %s" status)
          with Unix.Unix_error (e, _, _) ->
            Error (Printf.sprintf "scrape failed: %s" (Unix.error_message e))))

let top_cmd =
  let addr_arg =
    Arg.(value & opt (some int) None
         & info [ "addr" ] ~docv:"PORT"
             ~doc:"Scrape the daemon's HTTP metrics listener on \
                   127.0.0.1:$(docv) instead of speaking the wire protocol \
                   (implies $(b,--raw)).")
  in
  let interval_arg =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"SECONDS"
             ~doc:"Seconds between refreshes.")
  in
  let iterations_arg =
    Arg.(value & opt int 0
         & info [ "iterations" ] ~docv:"N"
             ~doc:"Stop after $(docv) refreshes; 0 runs until interrupted.")
  in
  let once_arg =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Print a single frame and exit (no screen clearing); \
                   shorthand for $(b,--iterations 1).")
  in
  let raw_arg =
    Arg.(value & flag
         & info [ "raw" ]
             ~doc:"Print one validated Prometheus text exposition instead \
                   of the dashboard (repeat with $(b,--iterations)). The \
                   document is checked against the format parser first, \
                   so a malformed scrape fails loudly.")
  in
  (* Dashboard helpers: all lookups go through the decoded snapshot so
     wire mode and tests share one path. *)
  let gauge_value metrics name =
    List.find_map
      (function
        | Noc_obs.Metrics.Gauge { name = n; labels = []; value } when n = name
          ->
            Some value
        | _ -> None)
      metrics
  in
  let counter_value metrics name =
    List.find_map
      (function
        | Noc_obs.Metrics.Counter { name = n; labels = []; value } when n = name
          ->
            Some value
        | _ -> None)
      metrics
  in
  let render_dashboard ~socket ~interval ~prev
      (report : Noc_service.Wire.metrics_report) metrics verdicts =
    let open Noc_service in
    let b = Buffer.create 2048 in
    let s = report.Wire.mr_stats in
    let now = Unix.gettimeofday () in
    Printf.bprintf b "noc top — %s   uptime %.1fs   refresh %.1fs\n" socket
      s.Wire.uptime_s interval;
    let workers = gauge_value metrics "noc_pool_workers"
    and busy = gauge_value metrics "noc_pool_busy_workers" in
    Printf.bprintf b "queue %d   inflight %d   draining %s   workers %s\n"
      s.Wire.queue_depth s.Wire.inflight
      (if s.Wire.draining then "yes" else "no")
      (match (workers, busy) with
      | Some w, Some u -> Printf.sprintf "%.0f (%.0f busy)" w u
      | Some w, None -> Printf.sprintf "%.0f" w
      | None, _ -> "-");
    (match s.Wire.store with
    | None -> Printf.bprintf b "store: disabled\n"
    | Some st ->
        Printf.bprintf b
          "store: %d entries, %d hits / %d misses (hit rate %.1f%%), %d \
           evictions\n"
          st.Wire.entries st.Wire.hits st.Wire.misses
          (100. *. st.Wire.hit_rate) st.Wire.evictions);
    Printf.bprintf b "jobs %s   rejected %s   overloaded %s   warm hits %s\n"
      (match counter_value metrics "noc_serve_jobs_total" with
      | Some v -> string_of_int v
      | None -> "-")
      (match counter_value metrics "noc_serve_rejected_total" with
      | Some v -> string_of_int v
      | None -> "-")
      (match counter_value metrics "noc_serve_overloaded_total" with
      | Some v -> string_of_int v
      | None -> "-")
      (match counter_value metrics "noc_serve_warm_hits_total" with
      | Some v -> string_of_int v
      | None -> "-");
    (* Per-method latency table; rates are client-side deltas between
       refreshes, so the first frame shows "-". *)
    Printf.bprintf b "\n%-10s %9s %9s %9s %9s\n" "method" "req/s" "p50 ms"
      "p99 ms" "count";
    let methods =
      List.filter_map
        (fun m ->
          match m with
          | Noc_obs.Metrics.Histogram { name = "noc_serve_request_ms"; labels;
                                        count; _ } ->
              Option.map
                (fun meth -> (meth, m, count))
                (List.assoc_opt "method" labels)
          | _ -> None)
        metrics
    in
    List.iter
      (fun (meth, m, count) ->
        let quant q =
          match Noc_obs.Metrics.quantile ~q m with
          | Some v -> Printf.sprintf "%9.2f" v
          | None -> Printf.sprintf "%9s" "-"
        in
        let rate =
          match !prev with
          | Some (t0, counts) -> (
              match List.assoc_opt meth counts with
              | Some c0 when now > t0 ->
                  Printf.sprintf "%9.2f" (float_of_int (count - c0) /. (now -. t0))
              | _ -> Printf.sprintf "%9s" "-")
          | None -> Printf.sprintf "%9s" "-"
        in
        Printf.bprintf b "%-10s %s %s %s %9d\n" meth rate (quant 0.5)
          (quant 0.99) count)
      (List.sort compare methods);
    prev := Some (now, List.map (fun (meth, _, c) -> (meth, c)) methods);
    (match
       List.find_map
         (fun m ->
           match m with
           | Noc_obs.Metrics.Histogram
               { name = "noc_serve_submit_to_result_ms"; _ } ->
               Noc_obs.Metrics.quantile ~q:0.99 m
           | _ -> None)
         metrics
     with
    | Some p99 -> Printf.bprintf b "\nsubmit-to-result p99: %.2f ms\n" p99
    | None -> ());
    if verdicts <> [] then begin
      Printf.bprintf b "\nSLOs:\n";
      List.iter
        (fun v ->
          Printf.bprintf b "  %s\n"
            (Format.asprintf "%a" Noc_obs.Slo.pp_verdict v))
        verdicts
    end;
    Buffer.contents b
  in
  let run () socket addr interval iterations once raw =
    let open Noc_service in
    if interval <= 0. then or_die (Error "--interval must be positive");
    let raw = raw || addr <> None in
    let iterations =
      (* Raw dumps are one-shot unless a repeat count is asked for;
         the dashboard refreshes until interrupted. *)
      if once then 1 else if raw && iterations = 0 then 1 else iterations
    in
    let prev = ref None in
    let frame () =
      if raw then begin
        let text =
          match addr with
          | Some port -> or_die (http_scrape ~port)
          | None ->
              let report = fetch_metrics_report socket in
              let metrics =
                match Noc_obs.Expo.metrics_of_json report.Wire.mr_metrics with
                | Ok ms -> ms
                | Error e ->
                    or_die
                      (Error (Printf.sprintf "malformed metrics payload: %s" e))
              in
              Noc_obs.Expo.text metrics
        in
        (match Noc_obs.Expo.check_text text with
        | Ok () -> ()
        | Error e ->
            or_die (Error (Printf.sprintf "malformed exposition: %s" e)));
        print_string text
      end
      else begin
        let report = fetch_metrics_report socket in
        let metrics =
          match Noc_obs.Expo.metrics_of_json report.Wire.mr_metrics with
          | Ok ms -> ms
          | Error e ->
              or_die (Error (Printf.sprintf "malformed metrics payload: %s" e))
        in
        let verdicts =
          match report.Wire.mr_slo with
          | Noc_json.Json.Null -> []
          | v -> (
              match Noc_obs.Slo.verdicts_of_json v with
              | Ok vs -> vs
              | Error e ->
                  or_die (Error (Printf.sprintf "malformed slo payload: %s" e)))
        in
        if iterations <> 1 then print_string "\027[H\027[2J";
        print_string
          (render_dashboard ~socket ~interval ~prev report metrics verdicts)
      end;
      flush stdout
    in
    let rec loop i =
      if iterations = 0 || i < iterations then begin
        frame ();
        if iterations = 0 || i + 1 < iterations then Unix.sleepf interval;
        loop (i + 1)
      end
    in
    loop 0
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live dashboard over a running noc serve daemon"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Polls the daemon's typed metrics report over the wire and \
              renders a refreshing dashboard: per-method request rates \
              (client-side deltas between refreshes), p50/p99 latency \
              quantiles interpolated from histogram buckets, queue depth, \
              worker utilization, store hit rate, and the declared SLOs \
              with their burn status.";
           `P
             "$(b,--raw) prints the Prometheus text exposition instead \
              (validated against the format checker); with $(b,--addr) \
              the document is scraped from the daemon's HTTP listener, \
              exactly as a Prometheus server would see it.";
         ])
    Term.(const run $ logs_term $ socket_arg $ addr_arg $ interval_arg
          $ iterations_arg $ once_arg $ raw_arg)

let campaign_cmd =
  let benchmarks_arg =
    Arg.(value
         & opt (list string) [ "D26_media"; "D36_8" ]
         & info [ "benchmarks" ] ~docv:"NAMES"
             ~doc:(Printf.sprintf
                     "Comma-separated benchmark names to sweep. Available: %s."
                     (String.concat ", " Noc_benchmarks.Registry.names)))
  in
  let switch_counts_arg =
    Arg.(value & opt (list int) [ 14 ]
         & info [ "switch-counts" ] ~docv:"NS"
             ~doc:"Comma-separated switch counts to synthesize each benchmark \
                   at.")
  in
  let workloads_arg =
    Arg.(value
         & opt (list string) [ "burst"; "uniform"; "hotspot"; "transpose" ]
         & info [ "workloads" ] ~docv:"KINDS"
             ~doc:(Printf.sprintf
                     "Comma-separated workload kinds, from: %s."
                     (String.concat ", " Noc_benchmarks.Workloads.kinds)))
  in
  let rates_arg =
    Arg.(value & opt (list float) []
         & info [ "rates" ] ~docv:"RATES"
             ~doc:"Comma-separated injection rates (flits/cycle/flow). Each \
                   rate-parameterized workload (uniform, hotspot) is swept \
                   once per rate, which is what fills the load-latency \
                   section of the report; other kinds ignore this.")
  in
  let prepares_arg =
    Arg.(value
         & opt (list string) [ "as-is"; "removal"; "ordering" ]
         & info [ "prepares" ] ~docv:"PREPARES"
             ~doc:"Comma-separated design preparations to compare, from: \
                   as-is, removal, ordering.")
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"PRNG seed applied to every seeded workload.")
  in
  let domains_arg =
    Arg.(value & opt int 1
         & info [ "j"; "domains" ]
             ~doc:"Worker domains for the batch engine. Results are \
                   bit-identical for any setting.")
  in
  let campaign_store_arg =
    Arg.(value
         & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Persistent result store. Cells already in the store are \
                   served warm (this is how an interrupted campaign resumes); \
                   fresh results are written back for the next run.")
  in
  let store_capacity_arg =
    Arg.(value & opt int 4096
         & info [ "store-capacity" ]
             ~doc:"Maximum objects kept on disk before LRU eviction.")
  in
  let out_arg =
    Arg.(value
         & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the machine-readable bench-sim/1 report (the \
                   BENCH_sim.json the CI gate checks) to $(docv).")
  in
  let report_arg =
    Arg.(value
         & opt (some string) None
         & info [ "report" ] ~docv:"FILE"
             ~doc:"Render the campaign as a Markdown document (summary, \
                   per-cell table, load-latency curves) to $(docv).")
  in
  let no_lint_arg =
    Arg.(value & flag
         & info [ "no-lint" ]
             ~doc:"Skip the submission-time lint gate.")
  in
  let no_expect_arg =
    Arg.(value & flag
         & info [ "no-expect-deadlock" ]
             ~doc:"Do not require that at least one unprotected cyclic-CDG \
                   cell deadlocks. Useful for campaigns over acyclic designs \
                   only.")
  in
  let write_file path contents =
    match
      try
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc contents);
        Ok ()
      with Sys_error e -> Error e
    with
    | Ok () -> Format.printf "wrote %s@." path
    | Error e -> or_die (Error e)
  in
  let run () benchmarks switch_counts degree workload_kinds rates seed
      prepare_names domains store_dir store_capacity out report_path no_lint
      no_expect slo_overrides trace =
    let open Noc_service in
    if domains < 1 then or_die (Error "--domains must be at least 1");
    if store_capacity < 1 then
      or_die (Error "--store-capacity must be at least 1");
    (* Validate overrides before any cell runs. *)
    let slos = apply_slo_overrides slo_overrides in
    List.iter (fun b -> ignore (or_die (lookup_benchmark b))) benchmarks;
    let workloads =
      List.map
        (fun kind ->
          match Noc_benchmarks.Workloads.of_kind kind with
          | Some w -> Noc_benchmarks.Workloads.with_seed w seed
          | None ->
              or_die
                (Error
                   (Printf.sprintf "unknown workload %s (try: %s)" kind
                      (String.concat ", " Noc_benchmarks.Workloads.kinds))))
        workload_kinds
    in
    let prepares =
      List.map (fun name -> or_die (Job.prepare_of_name name)) prepare_names
    in
    let points =
      List.concat_map
        (fun benchmark ->
          List.map
            (fun n_switches -> { Noc_campaign.Campaign.benchmark; n_switches })
            switch_counts)
        benchmarks
    in
    let jobs =
      Noc_campaign.Campaign.grid ~max_degree:degree ~prepares ~rates ~points
        ~workloads ()
    in
    let store =
      match store_dir with
      | None -> None
      | Some root -> (
          match Store.create ~root ~capacity:store_capacity with
          | s -> Some s
          | exception Sys_error e -> or_die (Error e)
          | exception Unix.Unix_error (e, _, arg) ->
              or_die
                (Error (Printf.sprintf "%s: %s" arg (Unix.error_message e))))
    in
    Format.printf "campaign: %d cells (%d designs x %d workload variants x %d \
                   preparations)@."
      (List.length jobs) (List.length points)
      (List.length jobs
      / max 1 (List.length points * List.length prepares))
      (List.length prepares);
    (* One deterministic line per cell: no wall times, so the output is
       stable enough for cram tests and diffing between runs. *)
    let index = ref 0 in
    let print_cell (cell : Noc_campaign.Campaign.cell) =
      let word =
        if not (Outcome.is_done cell.Noc_campaign.Campaign.outcome) then
          "FAILED"
        else if Noc_campaign.Campaign.deadlocked cell then
          if Noc_campaign.Campaign.certified cell then "deadlock (certified)"
          else "deadlock"
        else "completed"
      in
      incr index;
      Format.printf "[%d] %-21s %s%s@." !index word
        (Job.label cell.Noc_campaign.Campaign.job)
        (if cell.Noc_campaign.Campaign.cached then "  (warm)" else "")
    in
    let cells =
      with_tracing trace (fun () ->
          Noc_campaign.Campaign.run ~on_cell:print_cell
            { Noc_campaign.Campaign.domains; store; lint = not no_lint }
            jobs)
    in
    let verdict =
      Noc_campaign.Campaign.verify ~expect_cyclic_deadlock:(not no_expect)
        cells
    in
    Format.printf "@.%a@." Noc_campaign.Campaign.pp_verdict verdict;
    (* SLO gate: the campaign's own objectives (per-cell wall time,
       prover agreement, …) evaluated over the in-process registry the
       run just populated. *)
    let slo_verdicts =
      Noc_obs.Slo.evaluate slos (Noc_obs.Metrics.snapshot ())
    in
    let burned = Noc_obs.Slo.burned slo_verdicts in
    (* Green verdicts print as one deterministic line (the measured
       values are wall times, which would churn the cram pins); burned
       ones print in full — that output precedes a non-zero exit. *)
    (match burned with
    | [] ->
        Format.printf "slo: %d objective%s green@."
          (List.length slo_verdicts)
          (if List.length slo_verdicts = 1 then "" else "s")
    | bs ->
        Format.printf "%d SLO%s burned:@." (List.length bs)
          (if List.length bs = 1 then "" else "s");
        List.iter (fun v -> Format.printf "  %a@." Noc_obs.Slo.pp_verdict v) bs);
    Option.iter
      (fun path ->
        write_file path
          (Noc_campaign.Sim_report.to_json
             (Noc_campaign.Sim_report.of_cells ~slo:slo_verdicts cells)))
      out;
    Option.iter
      (fun path ->
        write_file path (Noc_campaign.Campaign.markdown_report cells verdict))
      report_path;
    if not (Noc_campaign.Campaign.verdict_ok verdict) || burned <> [] then
      exit 2
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Sweep a simulation campaign and check the deadlock invariants"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Builds the full grid (benchmark x switch count x workload x \
              injection rate x preparation) of Simulate jobs, runs it \
              through the multicore batch engine behind the lint gate, and \
              checks every finished cell against the paper's behavioural \
              claim: designs prepared by VC-based removal or resource \
              ordering never deadlock, and every deadlock on an unprotected \
              cyclic-CDG design carries a waits-for cycle certificate.";
           `P
             "With $(b,--store), finished cells persist on disk and a rerun \
              of the same campaign serves them warm, so an interrupted \
              sweep resumes where it stopped.  $(b,--out) emits the \
              bench-sim/1 JSON consumed by the CI regression gate; \
              $(b,--report) renders the Markdown table with load-latency \
              curves.";
           `P
             "After the behavioural invariants, the declared SLOs \
              (per-cell p99 wall time, prover/certify agreement, …) are \
              evaluated over the run's metrics registry and recorded in \
              the report's $(b,slo) section; $(b,--slo NAME=VALUE) \
              overrides a threshold, which is how CI injects a violation \
              to prove the gate burns.";
           `P "Exits 2 when any invariant is violated or any SLO is burned.";
         ])
    Term.(const run $ logs_term $ benchmarks_arg $ switch_counts_arg
          $ degree_arg $ workloads_arg $ rates_arg $ seed_arg $ prepares_arg
          $ domains_arg $ campaign_store_arg $ store_capacity_arg $ out_arg
          $ report_arg $ no_lint_arg $ no_expect_arg $ slo_arg
          $ trace_file_arg)

let trace_cmd =
  let output_arg =
    Arg.(value
         & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the trace to $(docv) instead of stdout.")
  in
  let run () name n_switches degree format output input =
    let net = or_die (obtain_network ~input ~name ~n_switches ~degree) in
    let collector = Noc_obs.Trace.create () in
    Noc_obs.Metrics.reset ();
    Noc_obs.Trace.install collector;
    let report =
      Fun.protect ~finally:Noc_obs.Trace.uninstall (fun () ->
          Noc_deadlock.Removal.run net)
    in
    write_trace ~format ~output collector;
    match output with
    | Some path ->
        Format.printf "trace written to %s (%d iterations, %d VCs added)@."
          path report.Noc_deadlock.Removal.iterations
          report.Noc_deadlock.Removal.vcs_added
    | None -> ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run deadlock removal under the span tracer and export the trace"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Synthesizes (or loads) a design, runs the removal algorithm \
              with tracing enabled, and exports the spans: one \
              $(b,removal.iteration) span per broken cycle, carrying its \
              cycle length, candidate-edge count, chosen direction, cost \
              and VCs added, with the cycle search, cost tables, break and \
              CDG update nested underneath.";
           `P
             "$(b,--format chrome) loads directly into Perfetto \
              (ui.perfetto.dev) or chrome://tracing; $(b,--format jsonl) \
              emits the noc-trace/1 stream checked by the NOC-TRC lint \
              pass; $(b,--format summary) prints a per-phase wall-time \
              table.";
         ])
    Term.(const run $ logs_term $ benchmark_arg $ switches_arg $ degree_arg
          $ trace_format_arg $ output_arg $ input_arg)

let example_cmd =
  let run () = Format.printf "%t@." Noc_experiments.Ring_example.narrate in
  Cmd.v
    (Cmd.info "example" ~doc:"Walk through the paper's ring example (Table 1)")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "noc_tool" ~version
      ~doc:"Deadlock removal for wormhole NoCs (DATE 2010 reproduction)"
  in
  let group =
    Cmd.group info
      [
        list_cmd; synth_cmd; remove_cmd; ordering_cmd; updown_cmd; dot_cmd;
        analyze_cmd; lint_cmd; prove_cmd; duato_cmd; optimal_cmd;
        compare_cmd; simulate_cmd; campaign_cmd; batch_cmd; serve_cmd;
        submit_cmd; serve_stats_cmd; top_cmd; trace_cmd; example_cmd;
      ]
  in
  exit (Cmd.eval group)
