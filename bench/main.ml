(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation section and reports paper-vs-measured side by side.

    - Fig. 5: hotspot speedups of all five generated designs per
      benchmark, plus the informed Auto-Selected result;
    - Table I: added lines of code per generated design;
    - Fig. 6: relative FPGA-vs-GPU cost across resource price ratios and
      the crossover points;
    - Table II: qualitative comparison of design approaches;
    - an ablation of the PSA strategy's X threshold;
    - bechamel micro-benchmarks (one [Test.make] per experiment, timing
      the regeneration of each table from the profiled features, plus
      toolchain micro-benchmarks).

    Usage: [main.exe] runs everything; [main.exe fig5|table1|fig6|table2|
    ablation|strategies|energy|micro] runs one part.  Every measured
    number comes from {!Benchmarks.Evaluation}, the collector that
    [psaflow report] renders too.

    Perf-history plumbing (see [scripts/perf_gate.sh]):
    [main.exe history-append [--quick]] appends the current
    [BENCH_psaflow.json] numbers as one commit-keyed datapoint to
    [BENCH_history.jsonl]; [main.exe gate-history [--quick]] gates
    them against the rolling median of the recent comparable
    history (exit 1 on regression). *)

(* ------------------------------------------------------------------ *)
(* Data collection: one uninformed flow per benchmark                  *)
(* ------------------------------------------------------------------ *)

module Evaluation = Benchmarks.Evaluation

let evaluation : Evaluation.t list Lazy.t = lazy (Evaluation.collect ())

(* ------------------------------------------------------------------ *)
(* Fig. 5                                                              *)
(* ------------------------------------------------------------------ *)

let opt_x = function Some v -> Printf.sprintf "%.1f" v | None -> "n/a"

let fig5_rows () =
  List.map
    (fun (e : Evaluation.t) ->
      ( e,
        Option.map
          (fun (r : Devices.Simulate.result) -> r.speedup)
          (Evaluation.auto_selected e)
        :: List.map (Evaluation.speedup e) Evaluation.design_names ))
    (Lazy.force evaluation)

let print_fig5 () =
  print_endline "";
  print_endline
    "== Fig. 5: hotspot speedups vs single-thread CPU (measured | paper) ==";
  Printf.printf "%-13s %13s %13s %13s %13s %13s %13s\n" "benchmark" "Auto"
    "OMP" "HIP 1080Ti" "HIP 2080Ti" "oneAPI A10" "oneAPI S10";
  List.iter
    (fun ((c : Evaluation.t), cells) ->
      let paper =
        List.find
          (fun (r : Paper_data.fig5_row) -> r.bench = c.app.id)
          Paper_data.fig5
      in
      let paper_auto =
        (* the paper's Auto bar equals the best bar of the winning family *)
        List.fold_left
          (fun acc v -> match v with Some x -> Float.max acc x | None -> acc)
          0.0
          [ paper.omp; paper.hip_1080; paper.hip_2080; paper.oneapi_a10;
            paper.oneapi_s10 ]
      in
      let cell measured paper =
        Printf.sprintf "%s|%s" (opt_x measured) (Paper_data.opt_str paper)
      in
      match cells with
      | [ auto; omp; g1; g2; a10; s10 ] ->
          Printf.printf "%-13s %13s %13s %13s %13s %13s %13s\n" c.app.id
            (cell auto (Some paper_auto))
            (cell omp paper.omp) (cell g1 paper.hip_1080)
            (cell g2 paper.hip_2080) (cell a10 paper.oneapi_a10)
            (cell s10 paper.oneapi_s10)
      | _ -> ())
    (fig5_rows ());
  (* the paper's headline claim: the informed strategy picks the winner *)
  print_endline "";
  List.iter
    (fun ((c : Evaluation.t), _) ->
      let best = Psa.Report.best c.results in
      let auto = Evaluation.auto_selected c in
      let ok =
        match (best, auto) with
        | Some b, Some a -> b.design.target = a.design.target
        | _ -> false
      in
      Printf.printf "  %-13s informed strategy -> %-16s %s\n" c.app.id
        (Psa.Strategy.decision_to_string c.decision.decision)
        (if ok then "(= best target; matches the paper)"
         else "(MISMATCH with the best uninformed design!)"))
    (fig5_rows ())

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)
(* ------------------------------------------------------------------ *)

(* the paper's Table I has one HIP column (the 1080 Ti design) but
   totals all five designs *)
let table1_cells (e : Evaluation.t) =
  let delta = Evaluation.loc_delta e in
  let cells = List.map delta Evaluation.design_names in
  let total =
    if List.mem None cells then None
    else Some (List.fold_left (fun acc v -> acc +. Option.get v) 0.0 cells)
  in
  ( delta "omp_epyc7543",
    delta "hip_gtx1080ti",
    delta "oneapi_arria10",
    delta "oneapi_stratix10",
    total )

let print_table1 () =
  print_endline "";
  print_endline
    "== Table I: added LOC per design, % of reference (measured | paper) ==";
  Printf.printf "%-13s %6s %14s %14s %14s %14s %16s\n" "benchmark" "ref" "OMP"
    "HIP" "oneAPI A10" "oneAPI S10" "total (5)";
  List.iter
    (fun (c : Evaluation.t) ->
      let omp, hip, a10, s10, total = table1_cells c in
      let paper =
        List.find
          (fun (r : Paper_data.table1_row) -> r.t1_bench = c.app.id)
          Paper_data.table1
      in
      let cell m p =
        Printf.sprintf "%s|%s"
          (match m with Some v -> Printf.sprintf "+%.0f%%" v | None -> "n/a")
          (match p with Some v -> Printf.sprintf "+%.0f%%" v | None -> "n/a")
      in
      Printf.printf "%-13s %6d %14s %14s %14s %14s %16s\n" c.app.id
        (Minic.Loc_count.count_program c.reference)
        (cell omp paper.t1_omp) (cell hip paper.t1_hip)
        (cell a10 paper.t1_a10) (cell s10 paper.t1_s10)
        (cell total paper.t1_total))
    (Lazy.force evaluation)

(* ------------------------------------------------------------------ *)
(* Fig. 6                                                              *)
(* ------------------------------------------------------------------ *)

let print_fig6 () =
  print_endline "";
  print_endline
    "== Fig. 6: relative cost, Stratix10 CPU+FPGA vs 2080 Ti CPU+GPU ==";
  print_endline
    "   (cost ratio = FPGA cost / GPU cost; < 1 means the FPGA platform is";
  print_endline "    more cost effective at that price ratio)";
  Printf.printf "%-13s" "FPGA$/GPU$:";
  List.iter (fun r -> Printf.printf "%9.2f" r) Evaluation.fig6_ratios;
  Printf.printf "%12s %s\n" "crossover" "(paper)";
  List.iter
    (fun (id, t_f, t_g) ->
      match (t_f, t_g) with
      | Some t_f, Some t_g ->
          Printf.printf "%-13s" id;
          List.iter
            (fun pr ->
              Printf.printf "%9.2f"
                (Psa.Cost.relative_cost ~price_ratio:pr ~seconds_a:t_f
                   ~seconds_b:t_g))
            Evaluation.fig6_ratios;
          let crossover =
            Psa.Cost.breakeven_ratio ~seconds_a:t_f ~seconds_b:t_g
          in
          Printf.printf "%12.2f %s\n" crossover
            (match List.assoc_opt id Paper_data.fig6_crossovers with
            | Some p -> Printf.sprintf "(%.1f)" p
            | None -> "(not in the paper)")
      | _ -> Printf.printf "%-13s (FPGA design not available)\n" id)
    (Evaluation.fig6_times (Lazy.force evaluation))

(* ------------------------------------------------------------------ *)
(* Ablation: the X threshold of the Fig. 3 strategy                    *)
(* ------------------------------------------------------------------ *)

let print_ablation () =
  print_endline "";
  print_endline
    "== Ablation: PSA strategy decisions as the FLOPs/B threshold X sweeps ==";
  let xs = [ 0.5; 1.0; 2.0; 4.0; 8.0; 16.0 ] in
  Printf.printf "%-13s %10s" "benchmark" "FLOPs/B";
  List.iter (fun x -> Printf.printf "  X=%-7.1f" x) xs;
  print_newline ();
  List.iter
    (fun (c : Evaluation.t) ->
      Printf.printf "%-13s %10.2f" c.app.id
        (Analysis.Features.offload_intensity c.features);
      List.iter
        (fun x ->
          let ctx =
            {
              (Benchmarks.Bench_app.context c.app) with
              Psa.Context.features = Some c.features;
              eval_features = Some c.features;
              x_threshold = x;
            }
          in
          let e = Psa.Strategy.fig3_explain ctx in
          let short =
            match e.Psa.Strategy.decision with
            | Psa.Strategy.Cpu_path -> "cpu"
            | Psa.Strategy.Gpu_path -> "gpu"
            | Psa.Strategy.Fpga_path -> "fpga"
            | Psa.Strategy.No_offload _ -> "stop"
          in
          Printf.printf "  %-9s" short)
        xs;
      print_newline ())
    (Lazy.force evaluation)

(* ------------------------------------------------------------------ *)
(* Strategy comparison: Fig. 3 heuristic vs model-based PSA            *)
(* ------------------------------------------------------------------ *)

let print_strategies () =
  print_endline "";
  print_endline
    "== Branch-point A strategies: Fig. 3 heuristic vs model-based PSA ==";
  Printf.printf "%-13s %12s %16s %16s %16s\n" "benchmark" "fig3"
    "model(perf)" "model(cost)" "model(energy)";
  List.iter
    (fun (c : Evaluation.t) ->
      let base =
        {
          (Benchmarks.Bench_app.context c.app) with
          Psa.Context.features = Some c.features;
          eval_features = Some c.features;
          kernel = Some c.features.Analysis.Features.kernel;
        }
      in
      let show sel =
        match sel with
        | Psa.Flow.Paths [ p ] -> p
        | Psa.Flow.Paths ps -> String.concat "+" ps
        | Psa.Flow.All -> "all"
        | Psa.Flow.Stop _ -> "stop"
      in
      (* the model-based probes need the extracted program; reuse the
         features-only context (the probes read features, not source) *)
      Printf.printf "%-13s %12s %16s %16s %16s\n" c.app.id
        (show (Psa.Strategy.fig3 base))
        (show (Psa.Strategy.model_based ~objective:Psa.Strategy.Performance base))
        (show (Psa.Strategy.model_based ~objective:Psa.Strategy.Monetary_cost base))
        (show (Psa.Strategy.model_based ~objective:Psa.Strategy.Energy base)))
    (Lazy.force evaluation)

(* ------------------------------------------------------------------ *)
(* Energy (Section IV-D's suggested extension)                         *)
(* ------------------------------------------------------------------ *)

let print_energy () =
  print_endline "";
  print_endline
    "== Energy: joules per run and the most energy-efficient platform ==";
  Printf.printf "%-13s %12s %12s %12s %12s %12s %16s\n" "benchmark" "OMP"
    "HIP 1080Ti" "HIP 2080Ti" "oneAPI A10" "oneAPI S10" "most efficient";
  List.iter
    (fun (c : Evaluation.t) ->
      let cells =
        List.map
          (fun n ->
            ( n,
              Option.map Psa.Cost.energy_of_result
                (Evaluation.feasible c n) ))
          Evaluation.design_names
      in
      let best =
        List.fold_left
          (fun acc (n, j) ->
            match (acc, j) with
            | Some (_, bj), Some v when v >= bj -> acc
            | _, Some v -> Some (n, v)
            | _, None -> acc)
          None cells
      in
      let fmt = function
        | Some j when j >= 1.0 -> Printf.sprintf "%.3g J" j
        | Some j -> Printf.sprintf "%.3g mJ" (1000.0 *. j)
        | None -> "n/a"
      in
      Printf.printf "%-13s %12s %12s %12s %12s %12s %16s\n" c.app.id
        (fmt (snd (List.nth cells 0)))
        (fmt (snd (List.nth cells 1)))
        (fmt (snd (List.nth cells 2)))
        (fmt (snd (List.nth cells 3)))
        (fmt (snd (List.nth cells 4)))
        (match best with Some (n, _) -> n | None -> "n/a"))
    (Lazy.force evaluation)

(* ------------------------------------------------------------------ *)
(* Table II                                                            *)
(* ------------------------------------------------------------------ *)

let print_table2 () =
  print_endline "";
  print_endline "== Table II: comparison of design approaches ==";
  Format.printf "%a" Psa.Report.pp_table2 ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let data = Lazy.force evaluation in
  let find id =
    List.find (fun (e : Evaluation.t) -> e.app.id = id) data
  in
  let nbody = find "nbody" and kmeans = find "kmeans" in
  let src = nbody.app.source ~n:64 in
  let parsed = Minic.Parser.parse_program src in
  let gpu_design = Option.get (Evaluation.result nbody "hip_rtx2080ti") in
  let fpga_design = Option.get (Evaluation.result kmeans "oneapi_stratix10") in
  [
    (* one Test.make per table/figure: time regenerating it from the
       profiled features *)
    Test.make ~name:"fig5_regenerate"
      (Staged.stage (fun () ->
           List.iter
             (fun (c : Evaluation.t) ->
               List.iter
                 (fun (r : Devices.Simulate.result) ->
                   ignore (Devices.Simulate.run r.design c.features))
                 c.results)
             data));
    Test.make ~name:"table1_regenerate"
      (Staged.stage (fun () ->
           List.iter
             (fun (c : Evaluation.t) ->
               List.iter
                 (fun (r : Devices.Simulate.result) ->
                   ignore
                     (Codegen.Design.loc_delta ~reference:c.reference r.design))
                 c.results)
             data));
    Test.make ~name:"fig6_regenerate"
      (Staged.stage (fun () ->
           List.iter
             (fun pr ->
               ignore
                 (Psa.Cost.relative_cost ~price_ratio:pr ~seconds_a:1.0
                    ~seconds_b:2.0))
             [ 0.25; 0.5; 1.0; 2.0; 4.0 ]));
    Test.make ~name:"table2_regenerate"
      (Staged.stage (fun () ->
           ignore (Format.asprintf "%a" Psa.Report.pp_table2 ())));
    (* toolchain micro-benchmarks *)
    Test.make ~name:"minic_parse_nbody"
      (Staged.stage (fun () -> ignore (Minic.Parser.parse_program src)));
    Test.make ~name:"minic_pretty_nbody"
      (Staged.stage (fun () -> ignore (Minic.Pretty.program_to_string parsed)));
    Test.make ~name:"query_outermost_loops"
      (Staged.stage (fun () ->
           ignore
             Artisan.Query.(stmts ~where:(is_for &&& is_outermost_loop) parsed)));
    Test.make ~name:"dependence_analysis"
      (Staged.stage (fun () ->
           ignore (Analysis.Dependence.analyze_function parsed "main")));
    Test.make ~name:"gpu_model_eval"
      (Staged.stage (fun () ->
           ignore
             (Devices.Gpu_model.time Devices.Spec.rtx2080ti gpu_design.design
                nbody.features)));
    Test.make ~name:"fpga_model_eval"
      (Staged.stage (fun () ->
           ignore
             (Devices.Fpga_model.time Devices.Spec.stratix10 fpga_design.design
                kmeans.features)));
    Test.make ~name:"blocksize_dse"
      (Staged.stage (fun () ->
           ignore (Dse.Blocksize_dse.run gpu_design.design nbody.features)));
    Test.make ~name:"unroll_dse"
      (Staged.stage (fun () ->
           ignore (Dse.Unroll_dse.run fpga_design.design kmeans.features)));
  ]

let run_bechamel () =
  print_endline "";
  print_endline "== bechamel micro-benchmarks (ns per run, OLS estimate) ==";
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let est = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ t ] -> Printf.printf "  %-24s %12.1f ns/run\n" name t
          | _ -> Printf.printf "  %-24s (no estimate)\n" name)
        est)
    (List.map
       (fun t -> Test.make_grouped ~name:"" ~fmt:"%s%s" [ t ])
       (bechamel_tests ()))

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  (match what with
  | "fig5" -> print_fig5 ()
  | "table1" -> print_table1 ()
  | "fig6" -> print_fig6 ()
  | "table2" -> print_table2 ()
  | "ablation" -> print_ablation ()
  | "energy" -> print_energy ()
  | "strategies" -> print_strategies ()
  | "micro" -> run_bechamel ()
  | "perf" ->
      Perf.run
        ~quick:(Array.exists (fun a -> a = "--quick") Sys.argv)
        ()
  | "history-append" ->
      let quick = Array.exists (fun a -> a = "--quick") Sys.argv in
      let d = Report_file.history_append ~quick () in
      Printf.printf "history: appended %d metrics at commit %s (%s) to %s\n"
        (List.length d.Flow_service.Perf_history.metrics)
        d.Flow_service.Perf_history.commit
        (if quick then "quick" else "full")
        Report_file.history_path
  | "gate-history" ->
      let quick = Array.exists (fun a -> a = "--quick") Sys.argv in
      if not (Report_file.history_gate ~quick ()) then exit 1
  | "all" ->
      print_fig5 ();
      print_table1 ();
      print_fig6 ();
      print_table2 ();
      print_ablation ();
      print_strategies ();
      print_energy ();
      run_bechamel ()
  | other ->
      Printf.eprintf "bench: unknown command %s\n" other;
      exit 2);
  print_endline ""
