open Noc_experiments

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Series                                                              *)
(* ------------------------------------------------------------------ *)

let test_series_render () =
  let t = Series.create ~header:[ "a"; "bb" ] in
  Series.add_row t [ "1"; "2" ];
  Series.add_row t [ "10"; "200" ];
  let s = Format.asprintf "%a" Series.pp t in
  check bool_c "header present" true (String.length s > 0);
  check int_c "three lines"
    3
    (List.length (String.split_on_char '\n' s))

let test_series_arity () =
  let t = Series.create ~header:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Series.add_row: arity mismatch")
    (fun () -> Series.add_row t [ "only one" ])

(* ------------------------------------------------------------------ *)
(* Ring example                                                        *)
(* ------------------------------------------------------------------ *)

let test_ring_example_structure () =
  let t = Ring_example.build () in
  let cdg = Noc_model.Cdg.build t.Ring_example.net in
  check bool_c "cyclic as designed" false (Noc_model.Cdg.is_deadlock_free cdg);
  check int_c "4 links" 4 (Array.length t.Ring_example.links);
  check int_c "cycle of 4" 4 (List.length (Ring_example.cycle t))

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let test_ring_example_narration_mentions_table1 () =
  let s = Format.asprintf "%t" Ring_example.narrate in
  check bool_c "narrates Table 1" true (contains ~needle:"Table 1" s);
  check bool_c "shows the break" true (contains ~needle:"break forward" s);
  check bool_c "reaches the acyclic CDG" true (contains ~needle:"acyclic=true" s)

(* ------------------------------------------------------------------ *)
(* Sweep                                                               *)
(* ------------------------------------------------------------------ *)

let spec name =
  match Noc_benchmarks.Registry.find name with
  | Some s -> s
  | None -> Alcotest.failf "missing %s" name

let test_sweep_point_consistency () =
  let p = Sweep.evaluate (spec "D36_8") ~n_switches:14 in
  check bool_c "baseline has no added VCs" true (p.Sweep.baseline.Sweep.vcs_added = 0);
  check bool_c "removal total = baseline + added" true
    (p.Sweep.removal.Sweep.total_vcs
    = p.Sweep.baseline.Sweep.total_vcs + p.Sweep.removal.Sweep.vcs_added);
  check bool_c "ordering total consistent" true
    (p.Sweep.ordering.Sweep.total_vcs
    = p.Sweep.baseline.Sweep.total_vcs + p.Sweep.ordering.Sweep.vcs_added);
  check bool_c "initially cyclic here" false p.Sweep.initially_deadlock_free;
  check bool_c "removal did work" true (p.Sweep.removal_iterations > 0)

let test_sweep_removal_beats_ordering () =
  let p = Sweep.evaluate (spec "D36_8") ~n_switches:14 in
  check bool_c "fewer VCs than greedy ordering" true
    (p.Sweep.removal.Sweep.vcs_added <= p.Sweep.ordering.Sweep.vcs_added);
  check bool_c "far fewer than hop-index" true
    (p.Sweep.removal.Sweep.vcs_added < p.Sweep.ordering_hop.Sweep.vcs_added);
  check bool_c "cheaper power than hop-index" true
    (p.Sweep.removal.Sweep.power_mw < p.Sweep.ordering_hop.Sweep.power_mw);
  check bool_c "smaller area than hop-index" true
    (p.Sweep.removal.Sweep.area_mm2 < p.Sweep.ordering_hop.Sweep.area_mm2)

let test_sweep_deterministic () =
  let a = Sweep.evaluate (spec "D26_media") ~n_switches:11 in
  let b = Sweep.evaluate (spec "D26_media") ~n_switches:11 in
  check bool_c "identical points" true (a = b)

(* ------------------------------------------------------------------ *)
(* Figures (the reproduction's acceptance tests)                       *)
(* ------------------------------------------------------------------ *)

let test_fig8_shape () =
  (* Figure 8's qualitative content: removal needs (near) zero VCs on
     D26_media at every switch count; resource ordering pays more and
     grows with the switch count. *)
  let rows = Figures.fig8 () in
  check int_c "eight sweep points" 8 (List.length rows);
  List.iter
    (fun r ->
      check bool_c
        (Printf.sprintf "removal <= ordering at %d" r.Figures.n_switches)
        true
        (r.Figures.removal_vcs <= r.Figures.ordering_vcs))
    rows;
  let zero_points =
    List.length (List.filter (fun r -> r.Figures.removal_vcs = 0) rows)
  in
  check bool_c "removal is zero for most switch counts" true (zero_points >= 6);
  let first = List.hd rows and last = List.nth rows (List.length rows - 1) in
  check bool_c "ordering grows with switch count" true
    (last.Figures.ordering_vcs > first.Figures.ordering_vcs)

let test_fig9_shape () =
  (* Figure 9: on the dense D36_8, removal needs some VCs but far fewer
     than resource ordering at every point. *)
  let rows = Figures.fig9 () in
  check int_c "seven sweep points" 7 (List.length rows);
  List.iter
    (fun r ->
      check bool_c
        (Printf.sprintf "removal strictly cheaper at %d" r.Figures.n_switches)
        true
        (r.Figures.removal_vcs < r.Figures.ordering_vcs))
    rows;
  let total_removal = List.fold_left (fun a r -> a + r.Figures.removal_vcs) 0 rows in
  let total_ordering = List.fold_left (fun a r -> a + r.Figures.ordering_vcs) 0 rows in
  check bool_c "at least 5x cheaper overall" true
    (total_ordering >= 5 * max 1 total_removal)

let test_fig10_shape () =
  (* Figure 10: ordering consumes more power than removal on every
     benchmark; removal's own overhead stays below the paper's 5 %. *)
  let rows = Figures.fig10 () in
  check int_c "six benchmarks" 6 (List.length rows);
  List.iter
    (fun r ->
      check bool_c (r.Figures.benchmark ^ ": ordering >= 1.0") true
        (r.Figures.ordering_power_norm >= 1.0);
      check bool_c (r.Figures.benchmark ^ ": overhead < 5%") true
        (r.Figures.removal_overhead_vs_none < 0.05);
      check bool_c (r.Figures.benchmark ^ ": area saving >= 0") true
        (r.Figures.area_saving >= 0.))
    rows;
  (* At least half the benchmarks show a clearly visible (>5 %) gap. *)
  let visible =
    List.length (List.filter (fun r -> r.Figures.ordering_power_norm > 1.05) rows)
  in
  check bool_c "gap visible on most benchmarks" true (visible >= 3)

let test_ablation_rows () =
  let rows = Figures.ablation () in
  check int_c "ten configurations" 10 (List.length rows);
  (* The reroute-first pre-pass must never leave removal worse off. *)
  let vcs prefix =
    (List.find
       (fun r ->
         String.length r.Figures.configuration >= String.length prefix
         && String.sub r.Figures.configuration 0 (String.length prefix) = prefix)
       rows)
      .Figures.vcs_added
  in
  check bool_c "reroute-first never worse" true
    (vcs "reroute-first" <= vcs "removal: smallest cycle, fwd+bwd");
  let find prefix =
    List.find
      (fun r ->
        String.length r.Figures.configuration >= String.length prefix
        && String.sub r.Figures.configuration 0 (String.length prefix) = prefix)
      rows
  in
  let removal = find "removal: smallest cycle, fwd+bwd" in
  let hop = find "resource ordering: hop-index" in
  check bool_c "removal cheaper than the paper baseline" true
    (removal.Figures.vcs_added < hop.Figures.vcs_added);
  (* The paper's argument against turn prohibition, quantified: on the
     design as synthesized, up*/down* is infeasible. *)
  let updown_raw = find "up*/down* routing (as synthesized)" in
  check bool_c "up*/down* infeasible on custom topology" true
    (updown_raw.Figures.note = "INFEASIBLE (unidirectional links)");
  let updown_bidir = find "up*/down* routing (bidirectionalized)" in
  check bool_c "bidirectionalizing costs links" true
    (contains ~needle:"links" updown_bidir.Figures.note)

(* Golden values: the whole pipeline is deterministic, so the exact
   figure series are pinned.  A change here is a change to the
   reproduction's results and must be deliberate (update EXPERIMENTS.md
   alongside). *)
let test_fig8_golden () =
  let rows =
    List.map
      (fun r -> (r.Figures.n_switches, r.Figures.removal_vcs, r.Figures.ordering_vcs))
      (Figures.fig8 ())
  in
  check
    Alcotest.(list (triple int int int))
    "figure 8 exact series"
    [
      (5, 0, 0); (8, 0, 1); (11, 0, 2); (14, 0, 5); (17, 0, 14); (20, 0, 19);
      (23, 0, 20); (25, 2, 38);
    ]
    rows

let test_fig9_golden () =
  let rows =
    List.map
      (fun r -> (r.Figures.n_switches, r.Figures.removal_vcs, r.Figures.ordering_vcs))
      (Figures.fig9 ())
  in
  check
    Alcotest.(list (triple int int int))
    "figure 9 exact series"
    [
      (10, 1, 25); (14, 3, 54); (18, 9, 86); (22, 6, 105); (26, 17, 152);
      (30, 5, 162); (35, 19, 215);
    ]
    rows

(* One digest over every rendered paper artefact, laid out as
   bench/main.exe prints them: Table 1's narration, Figures 8-10, the
   aggregate claims, the ablation table (X2) and the simulator demos
   (X1).  It pins every number and every line of layout at once. *)
let test_paper_outputs_golden () =
  let b = Buffer.create 16384 in
  let ppf = Format.formatter_of_buffer b in
  Format.fprintf ppf "%t@." Ring_example.narrate;
  Figures.pp_vc_rows ~title:"Figure 8 (D26_media)" ppf (Figures.fig8 ());
  Format.fprintf ppf "@.";
  Figures.pp_vc_rows ~title:"Figure 9 (D36_8)" ppf (Figures.fig9 ());
  Format.fprintf ppf "@.";
  Figures.pp_power_rows ppf (Figures.fig10 ());
  Format.fprintf ppf "@.";
  Figures.pp_summary ppf (Figures.summary ());
  Format.fprintf ppf "@.";
  Figures.pp_ablation ppf (Figures.ablation ());
  Format.fprintf ppf "@.";
  List.iter
    (fun (before, after) ->
      Format.fprintf ppf "%a@.@.%a@.@." Sim_check.pp_result before
        Sim_check.pp_result after)
    [ Sim_check.ring_demo (); Sim_check.benchmark_demo () ];
  check Alcotest.string "paper outputs digest"
    "2a16fbcb8da42e20e8d9c61bfafd1299"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let test_every_benchmark_every_scale () =
  (* Safety net across the whole matrix: every benchmark, several
     switch counts — synthesis must produce a valid design and removal
     must reach deadlock freedom while preserving physical routes. *)
  List.iter
    (fun s ->
      List.iter
        (fun n ->
          if n <= s.Noc_benchmarks.Spec.n_cores then begin
            let traffic = s.Noc_benchmarks.Spec.build () in
            let net = Noc_synth.Custom.synthesize_exn traffic ~n_switches:n in
            let before = Noc_model.Network.copy net in
            let r = Noc_deadlock.Removal.run net in
            let label = Printf.sprintf "%s@%d" s.Noc_benchmarks.Spec.name n in
            check bool_c (label ^ " free") true r.Noc_deadlock.Removal.deadlock_free;
            check bool_c (label ^ " valid") true (Noc_model.Validate.is_valid net);
            check bool_c (label ^ " routes preserved") true
              (Noc_model.Validate.routes_equivalent ~before ~after:net)
          end)
        [ 4; 6; 10; 14; 19; 24; 30; 36 ])
    Noc_benchmarks.Registry.all

(* ------------------------------------------------------------------ *)
(* Sim check                                                           *)
(* ------------------------------------------------------------------ *)

let test_sim_check_ring_demo () =
  let before, after = Sim_check.ring_demo () in
  check bool_c "before cyclic" true before.Sim_check.cdg_cyclic;
  check bool_c "after acyclic" false after.Sim_check.cdg_cyclic;
  (match before.Sim_check.outcome with
  | Noc_sim.Engine.Deadlocked _ -> ()
  | Noc_sim.Engine.Completed _ | Noc_sim.Engine.Timed_out _ ->
      Alcotest.fail "ring must deadlock before removal");
  match after.Sim_check.outcome with
  | Noc_sim.Engine.Completed _ -> ()
  | Noc_sim.Engine.Deadlocked _ | Noc_sim.Engine.Timed_out _ ->
      Alcotest.fail "ring must complete after removal"

(* ------------------------------------------------------------------ *)
(* Bench report                                                        *)
(* ------------------------------------------------------------------ *)

(* The layout of the committed baselines (one entry per line, six
   decimals), which must keep parsing. *)
let committed_layout =
  {|{
  "schema": "bench-removal/1",
  "entries": [
    {"benchmark": "D36_8", "n_switches": 26, "iterations": 17, "vcs_added": 17, "incremental_ms": 1.100063, "rebuild_ms": 5.922079},
    {"benchmark": "D36_8", "n_switches": 35, "iterations": 19, "vcs_added": 19, "incremental_ms": 1.578093, "rebuild_ms": 9.633064, "phases": {"cdg.build": 0.120000, "removal.run": 1.400000}}
  ]
}
|}

let test_bench_report_json () =
  let entries =
    match Bench_report.of_json committed_layout with
    | Ok es -> es
    | Error e -> Alcotest.failf "committed layout rejected: %s" e
  in
  check int_c "two entries" 2 (List.length entries);
  let e = List.nth entries 1 in
  check int_c "iterations" 19 e.Bench_report.iterations;
  check bool_c "phases kept" true
    (e.Bench_report.phases = [ ("cdg.build", 0.12); ("removal.run", 1.4) ]);
  check bool_c "to_json/of_json round-trip" true
    (Bench_report.of_json (Bench_report.to_json entries) = Ok entries);
  check bool_c "a report passes against itself" true
    (Bench_report.compare_to_baseline ~baseline:entries entries = []);
  let drifted =
    List.map (fun e -> { e with Bench_report.vcs_added = 0 }) entries
  in
  check int_c "vcs drift is caught per entry" 2
    (List.length (Bench_report.compare_to_baseline ~baseline:entries drifted));
  check bool_c "wrong schema rejected" true
    (Result.is_error (Bench_report.of_json {|{"schema": "bench-removal/9"}|}))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "noc_experiments"
    [
      ( "series",
        [ tc "render" test_series_render; tc "arity" test_series_arity ] );
      ( "ring_example",
        [
          tc "structure" test_ring_example_structure;
          tc "narration" test_ring_example_narration_mentions_table1;
        ] );
      ( "sweep",
        [
          tc "consistency" test_sweep_point_consistency;
          tc "removal beats ordering" test_sweep_removal_beats_ordering;
          tc "deterministic" test_sweep_deterministic;
        ] );
      ( "figures",
        [
          slow "figure 8 shape" test_fig8_shape;
          slow "figure 9 shape" test_fig9_shape;
          slow "figure 8 golden values" test_fig8_golden;
          slow "figure 9 golden values" test_fig9_golden;
          slow "figure 10 shape" test_fig10_shape;
          tc "ablation" test_ablation_rows;
          slow "paper outputs golden digest" test_paper_outputs_golden;
        ] );
      ( "full_matrix",
        [ slow "every benchmark at every scale" test_every_benchmark_every_scale ] );
      ("sim_check", [ tc "ring demo" test_sim_check_ring_demo ]);
      ("bench_report", [ tc "json" test_bench_report_json ]);
    ]
