(** Tests for the PSA core: flow combinators, branch points, the Fig. 3
    strategy, cost/budget evaluation, and the standard flow end-to-end on
    small programs. *)

let parse = Minic.Parser.parse_program

(* small fast application for end-to-end flow runs: a compute-bound
   parallel hotspot that the Fig. 3 strategy sends to the GPU *)
let app_src n =
  Printf.sprintf
    {|
int main() {
  int n = %d;
  double a[n];
  double b[n];
  for (int i = 0; i < n; i++) { a[i] = rand01(); }
  for (int i = 0; i < n; i++) {
    double t = a[i];
    double acc = 0.0;
    for (int r = 0; r < 32; r++) {
      acc = acc + t * t + sqrt(t + (double)r) + exp(t * 0.1);
    }
    b[i] = acc;
  }
  double s = 0.0;
  for (int i = 0; i < n; i++) { s += b[i]; }
  print_float(s);
  return 0;
}
|}
    n

let ctx ?x_threshold ?budget () =
  Psa.Context.make ~benchmark:"testapp" ~profile_n:32
    ~secondary:(64, parse (app_src 64))
    ~eval_n:100000 ?x_threshold ?budget (parse (app_src 32))

(* ------------------------------------------------------------------ *)
(* Flow combinators                                                    *)
(* ------------------------------------------------------------------ *)

let mark name =
  Psa.Task.make name Psa.Task.Transform (fun c -> Psa.Context.log name c)

let flow_tests =
  [
    Alcotest.test_case "seq threads the context" `Quick (fun () ->
        let f = Psa.Flow.seq [ Psa.Flow.task (mark "a"); Psa.Flow.task (mark "b") ] in
        match Psa.Flow.run f (ctx ()) with
        | [ c ] ->
            let ev = Psa.Context.events c in
            Alcotest.(check bool) "a then b" true
              (List.mem "a" ev && List.mem "b" ev)
        | _ -> Alcotest.fail "expected one context");
    Alcotest.test_case "uninformed branch fans out" `Quick (fun () ->
        let f =
          Psa.Flow.branch "X" ~select:Psa.Flow.select_all
            [ ("p", Psa.Flow.task (mark "p")); ("q", Psa.Flow.task (mark "q")) ]
        in
        Alcotest.(check int) "two leaves" 2
          (List.length (Psa.Flow.run f (ctx ()))));
    Alcotest.test_case "informed branch takes one path" `Quick (fun () ->
        let f =
          Psa.Flow.branch "X"
            ~select:(fun _ -> Psa.Flow.Paths [ "q" ])
            [ ("p", Psa.Flow.task (mark "p")); ("q", Psa.Flow.task (mark "q")) ]
        in
        match Psa.Flow.run f (ctx ()) with
        | [ c ] ->
            Alcotest.(check bool) "took q" true
              (List.mem "q" (Psa.Context.events c))
        | _ -> Alcotest.fail "expected one context");
    Alcotest.test_case "stop terminates without running paths" `Quick
      (fun () ->
        let f =
          Psa.Flow.branch "X"
            ~select:(fun _ -> Psa.Flow.Stop "nothing profits")
            [ ("p", Psa.Flow.task (mark "p")) ]
        in
        match Psa.Flow.run f (ctx ()) with
        | [ c ] ->
            Alcotest.(check bool) "p not run" false
              (List.mem "p" (Psa.Context.events c))
        | _ -> Alcotest.fail "expected one context");
    Alcotest.test_case "unknown path raises" `Quick (fun () ->
        let f =
          Psa.Flow.branch "X"
            ~select:(fun _ -> Psa.Flow.Paths [ "nope" ])
            [ ("p", Psa.Flow.task (mark "p")) ]
        in
        match Psa.Flow.run f (ctx ()) with
        | exception Psa.Flow.Unknown_path ("X", "nope") -> ()
        | _ -> Alcotest.fail "expected Unknown_path");
    Alcotest.test_case "override_selection rewires a named branch" `Quick
      (fun () ->
        let f =
          Psa.Flow.branch "X" ~select:Psa.Flow.select_all
            [ ("p", Psa.Flow.task (mark "p")); ("q", Psa.Flow.task (mark "q")) ]
        in
        let f' =
          Psa.Flow.override_selection ~name:"X"
            ~select:(fun _ -> Psa.Flow.Paths [ "p" ])
            f
        in
        Alcotest.(check int) "one leaf now" 1
          (List.length (Psa.Flow.run f' (ctx ()))));
    Alcotest.test_case "tasks lists the whole repository" `Quick (fun () ->
        let names =
          List.map (fun (t : Psa.Task.t) -> t.name)
            (Psa.Flow.tasks (Psa.Std_flow.flow ()))
        in
        List.iter
          (fun expected ->
            Alcotest.(check bool) expected true (List.mem expected names))
          [
            "Identify Hotspot Loops";
            "Generate HIP Design";
            "Generate oneAPI Design";
            "Generate OpenMP Design";
            "Zero-Copy Data Transfer";
            "OMP Num. Threads DSE";
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Strategy                                                            *)
(* ------------------------------------------------------------------ *)

let strategy_ctx f =
  {
    (ctx ()) with
    Psa.Context.eval_features = Some f;
    features = Some f;
    kernel = Some "k";
  }

let il ~unrollable ~trip =
  {
    Analysis.Features.il_sid = 1;
    il_static_trip = (if unrollable then Some trip else None);
    il_mean_trip = float_of_int trip;
    il_iters_per_outer = float_of_int trip;
    il_innermost = true;
    il_parallel = false;
    il_has_reduction = true;
    il_fully_unrollable = unrollable;
  }

let decision f =
  (Psa.Strategy.fig3_explain (strategy_ctx f)).Psa.Strategy.decision

let strategy_tests =
  [
    Alcotest.test_case "memory-bound parallel -> CPU" `Quick (fun () ->
        let f =
          Feat_fixtures.make ~flops_per_iter:5.0 ~bytes_in_per_iter:100.0 ()
        in
        Alcotest.(check bool) "cpu" true (decision f = Psa.Strategy.Cpu_path));
    Alcotest.test_case "memory-bound sequential -> no offload" `Quick
      (fun () ->
        let f =
          Feat_fixtures.make ~flops_per_iter:5.0 ~bytes_in_per_iter:100.0
            ~outer_parallel:false ()
        in
        match decision f with
        | Psa.Strategy.No_offload _ -> ()
        | d ->
            Alcotest.failf "expected no offload, got %s"
              (Psa.Strategy.decision_to_string d));
    Alcotest.test_case "compute-bound parallel, no inner deps -> GPU" `Quick
      (fun () ->
        let f = Feat_fixtures.make ~flops_per_iter:500.0 () in
        Alcotest.(check bool) "gpu" true (decision f = Psa.Strategy.Gpu_path));
    Alcotest.test_case
      "compute-bound with fully unrollable dependent inner loops -> FPGA"
      `Quick (fun () ->
        let f =
          Feat_fixtures.make ~flops_per_iter:500.0
            ~inner_loops:[ il ~unrollable:true ~trip:16 ]
            ()
        in
        Alcotest.(check bool) "fpga" true (decision f = Psa.Strategy.Fpga_path));
    Alcotest.test_case
      "compute-bound with non-unrollable inner loops -> GPU" `Quick (fun () ->
        let f =
          Feat_fixtures.make ~flops_per_iter:500.0
            ~inner_loops:[ il ~unrollable:false ~trip:1000 ]
            ()
        in
        Alcotest.(check bool) "gpu" true (decision f = Psa.Strategy.Gpu_path));
    Alcotest.test_case "sequential compute-bound -> FPGA" `Quick (fun () ->
        let f =
          Feat_fixtures.make ~flops_per_iter:500.0 ~outer_parallel:false ()
        in
        Alcotest.(check bool) "fpga" true (decision f = Psa.Strategy.Fpga_path));
    Alcotest.test_case "transfer domination forces CPU" `Quick (fun () ->
        (* flop-rich per transferred byte, but so little work per call that
           transfer time exceeds CPU time *)
        let f =
          Feat_fixtures.make ~flops_per_iter:500.0 ~cpu_cycles_per_iter:1.0
            ~bytes_in_per_iter:2000.0 ()
        in
        let e = Psa.Strategy.fig3_explain (strategy_ctx f) in
        Alcotest.(check bool) "transfer dominates" true e.transfer_dominates;
        Alcotest.(check bool) "cpu" true (e.decision = Psa.Strategy.Cpu_path));
    Alcotest.test_case "threshold X is honoured" `Quick (fun () ->
        let f =
          Feat_fixtures.make ~flops_per_iter:50.0 ~bytes_in_per_iter:8.0
            ~bytes_out_per_iter:2.0 ()
        in
        (* intensity = 5 *)
        let low = { (strategy_ctx f) with Psa.Context.x_threshold = 2.0 } in
        let high = { (strategy_ctx f) with Psa.Context.x_threshold = 20.0 } in
        Alcotest.(check bool) "above X: offload" true
          ((Psa.Strategy.fig3_explain low).decision = Psa.Strategy.Gpu_path);
        Alcotest.(check bool) "below X: cpu" true
          ((Psa.Strategy.fig3_explain high).decision = Psa.Strategy.Cpu_path));
  ]

(* ------------------------------------------------------------------ *)
(* Cost                                                                *)
(* ------------------------------------------------------------------ *)

let cost_tests =
  [
    Alcotest.test_case "cost = price * seconds" `Quick (fun () ->
        let f = Feat_fixtures.make () in
        let r = Devices.Simulate.run (Feat_fixtures.design ()) f in
        let c = Psa.Cost.of_result r in
        Alcotest.(check (float 1e-12)) "price model"
          (Psa.Cost.price_per_second "rtx2080ti" *. r.seconds)
          c);
    Alcotest.test_case "breakeven ratio matches relative cost" `Quick
      (fun () ->
        let seconds_a = 2.0 and seconds_b = 5.0 in
        let ratio = Psa.Cost.breakeven_ratio ~seconds_a ~seconds_b in
        Alcotest.(check (float 1e-9)) "2.5" 2.5 ratio;
        Alcotest.(check (float 1e-9)) "equal cost at breakeven" 1.0
          (Psa.Cost.relative_cost ~price_ratio:ratio ~seconds_a ~seconds_b));
    Alcotest.test_case "budget verdicts" `Quick (fun () ->
        let f = Feat_fixtures.make () in
        let r = Devices.Simulate.run (Feat_fixtures.design ()) f in
        let c = { (ctx ()) with Psa.Context.budget = Some 1e9 } in
        (match Psa.Cost.check_budget c r with
        | Psa.Cost.Within_budget _ -> ()
        | _ -> Alcotest.fail "expected within budget");
        let c = { (ctx ()) with Psa.Context.budget = Some 1e-18 } in
        match Psa.Cost.check_budget c r with
        | Psa.Cost.Over_budget _ -> ()
        | _ -> Alcotest.fail "expected over budget");
    Alcotest.test_case "table II: this work covers P, M, O, multi-target"
      `Quick (fun () ->
        let this =
          List.find
            (fun (r : Psa.Report.approach_row) -> r.approach = "This Work")
            Psa.Report.table2
        in
        Alcotest.(check bool) "P" true this.partition;
        Alcotest.(check bool) "M" true this.map;
        Alcotest.(check bool) "O" true this.optimise;
        Alcotest.(check bool) "multi" true this.multiple_targets;
        Alcotest.(check string) "scope" "Full App." this.scope);
  ]

(* ------------------------------------------------------------------ *)
(* End-to-end standard flow                                            *)
(* ------------------------------------------------------------------ *)

let std_flow_tests =
  [
    Alcotest.test_case "features without a detected hotspot" `Quick
      (fun () ->
        (* a context holding only [prepare_kernel]'s program and kernel
           gets the features of one holding its hotspot too *)
        let c = ctx () in
        let program, kernel, h = Psa.Std_flow.prepare_kernel c.program in
        let bare = { c with program; kernel = Some kernel } in
        let with_h = { bare with hotspot = Some h } in
        let feats c =
          let c = Psa.Std_flow.ensure_features c in
          (c.features, c.eval_features)
        in
        Alcotest.(check bool) "same features" true
          (feats bare = feats with_h));
    Alcotest.test_case "uninformed flow emits all five designs" `Slow
      (fun () ->
        let o = Psa.Std_flow.run_uninformed (ctx ()) in
        let names =
          List.map (fun (r : Devices.Simulate.result) -> r.design.name)
            o.results
        in
        List.iter
          (fun d -> Alcotest.(check bool) d true (List.mem d names))
          [
            "omp_epyc7543"; "hip_gtx1080ti"; "hip_rtx2080ti";
            "oneapi_arria10"; "oneapi_stratix10";
          ]);
    Alcotest.test_case "informed flow selects one target family" `Slow
      (fun () ->
        let o = Psa.Std_flow.run_informed (ctx ()) in
        let targets =
          List.sort_uniq compare
            (List.map
               (fun (r : Devices.Simulate.result) -> r.design.target)
               o.results)
        in
        Alcotest.(check int) "one family" 1 (List.length targets));
    Alcotest.test_case "generated designs carry applied-task flags" `Slow
      (fun () ->
        let o = Psa.Std_flow.run_uninformed (ctx ()) in
        List.iter
          (fun (r : Devices.Simulate.result) ->
            match r.design.target with
            | Codegen.Design.Gpu_hip ->
                Alcotest.(check bool) "pinned" true r.design.pinned_memory;
                Alcotest.(check bool) "sp" true r.design.single_precision
            | Codegen.Design.Fpga_oneapi ->
                Alcotest.(check bool) "sp" true r.design.single_precision;
                if r.design.device_id = "stratix10" then
                  Alcotest.(check bool) "zero copy" true r.design.zero_copy
            | Codegen.Design.Cpu_openmp ->
                Alcotest.(check bool) "threads chosen" true
                  (r.design.num_threads > 1))
          o.results);
    Alcotest.test_case "budget feedback falls back to a cheaper target" `Slow
      (fun () ->
        (* informed choice is the GPU; an impossibly small budget forces
           the feedback edge to revise the decision *)
        let o = Psa.Std_flow.run_informed ~budget:1e-15 (ctx ()) in
        Alcotest.(check bool) "feedback logged" true
          (List.exists
             (fun l ->
               Astring_contains.contains l "budget feedback")
             o.log));
    Alcotest.test_case "every design's source exports and reparses" `Slow
      (fun () ->
        let o = Psa.Std_flow.run_uninformed (ctx ()) in
        List.iter
          (fun (r : Devices.Simulate.result) ->
            let s = Codegen.Design.export r.design in
            ignore (Minic.Parser.parse_program s))
          o.results);
    (* jacobi's sweep carries a dependence: the OpenMP generator's
       refusal must surface as a flow error naming it, not escape as
       [Not_parallel] *)
    Alcotest.test_case "uninformed jacobi is a flow error" `Slow (fun () ->
        let ctx =
          Benchmarks.Bench_app.context (Benchmarks.Registry.find "jacobi")
        in
        match Psa.Std_flow.run_uninformed ctx with
        | _ -> Alcotest.fail "uninformed jacobi produced designs"
        | exception Psa.Std_flow.Flow_error m ->
            Alcotest.(check bool)
              "names the carried dependence" true
              (Astring_contains.contains m "carries dependences")
        | exception Transforms.Omp_pragmas.Not_parallel m ->
            Alcotest.failf "Not_parallel escaped the flow: %s" m);
  ]

(* ------------------------------------------------------------------ *)
(* Model-based strategy                                                *)
(* ------------------------------------------------------------------ *)

let model_tests =
  [
    Alcotest.test_case "probes cover feasible targets" `Quick (fun () ->
        let f = Feat_fixtures.make ~flops_per_iter:500.0 () in
        let probes = Psa.Strategy.probe_targets (strategy_ctx f) in
        let paths = List.map fst probes in
        List.iter
          (fun p ->
            Alcotest.(check bool) (p ^ " probed") true (List.mem p paths))
          [ "cpu"; "gpu"; "fpga" ]);
    Alcotest.test_case "performance objective picks the fastest probe" `Quick
      (fun () ->
        let f = Feat_fixtures.make ~flops_per_iter:500.0 () in
        let ctx = strategy_ctx f in
        let probes = Psa.Strategy.probe_targets ctx in
        let fastest =
          List.fold_left
            (fun (bp, bs) (p, (r : Devices.Simulate.result)) ->
              if r.seconds < bs then (p, r.seconds) else (bp, bs))
            ("", infinity) probes
          |> fst
        in
        match Psa.Strategy.model_based ctx with
        | Psa.Flow.Paths [ p ] -> Alcotest.(check string) "fastest" fastest p
        | _ -> Alcotest.fail "expected one path");
    Alcotest.test_case "objectives can disagree" `Quick (fun () ->
        (* scoring the same result differs across objectives *)
        let f = Feat_fixtures.make () in
        let r = Devices.Simulate.run (Feat_fixtures.design ()) f in
        let perf = Psa.Strategy.score Psa.Strategy.Performance r in
        let cost = Psa.Strategy.score Psa.Strategy.Monetary_cost r in
        let energy = Psa.Strategy.score Psa.Strategy.Energy r in
        Alcotest.(check (float 1e-12)) "cost = price * s"
          (Psa.Cost.of_result r) cost;
        Alcotest.(check (float 1e-12)) "energy = watts * s"
          (Devices.Spec.board_watts_of_id "rtx2080ti" *. perf)
          energy);
    Alcotest.test_case "agrees with Fig. 3 on the five benchmarks" `Slow
      (fun () ->
        (* the paper's heuristic matches model-based performance selection
           on all five benchmark feature vectors *)
        List.iter
          (fun (app : Benchmarks.Bench_app.t) ->
            let base = Benchmarks.Bench_app.context app in
            let ctxs = Psa.Flow.run Psa.Std_flow.target_independent base in
            let c = List.hd ctxs in
            let fig3 = Psa.Strategy.fig3 c in
            let model = Psa.Strategy.model_based c in
            Alcotest.(check bool)
              (app.id ^ ": strategies agree")
              true (fig3 = model))
          Benchmarks.Registry.all);
  ]

(* ------------------------------------------------------------------ *)
(* Flow visualisation                                                  *)
(* ------------------------------------------------------------------ *)

let report_tests =
  [
    Alcotest.test_case "ascii rendering shows tasks and branches" `Quick
      (fun () ->
        let s = Psa.Report.flow_to_ascii (Psa.Std_flow.flow ()) in
        List.iter
          (fun needle ->
            Alcotest.(check bool) needle true
              (Astring_contains.contains s needle))
          [
            "<branch A>"; "<branch B>"; "<branch C>";
            "[A*] Identify Hotspot Loops"; "[CG] Generate HIP Design";
            "[O] RTX 2080 Blocksize DSE"; "fpga:"; "cpu:"; "gpu:";
          ]);
    Alcotest.test_case "dot rendering is a digraph with branch diamonds"
      `Quick (fun () ->
        let s = Psa.Report.flow_to_dot (Psa.Std_flow.flow ()) in
        Alcotest.(check bool) "digraph" true
          (Astring_contains.contains s "digraph psa_flow {");
        Alcotest.(check bool) "diamond" true
          (Astring_contains.contains s "shape=diamond");
        Alcotest.(check bool) "closed" true
          (Astring_contains.contains s "}"));
    Alcotest.test_case "extra app jacobi hits the terminate leaf" `Slow
      (fun () ->
        let app = Benchmarks.Registry.find "jacobi" in
        let o = Psa.Std_flow.run_informed (Benchmarks.Bench_app.context app) in
        Alcotest.(check int) "no designs" 0 (List.length o.results);
        Alcotest.(check bool) "stop logged" true
          (List.exists
             (fun l -> Astring_contains.contains l "branch A: stop")
             o.log));
  ]

let () =
  Alcotest.run "psa"
    [
      ("flow", flow_tests);
      ("strategy", strategy_tests);
      ("model_based", model_tests);
      ("cost", cost_tests);
      ("report", report_tests);
      ("std_flow", std_flow_tests);
    ]
