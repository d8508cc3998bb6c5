(** Tests for the five benchmark applications: every source parses,
    type-checks and runs deterministically at both profiling sizes, the
    analyses classify each the way the paper describes, and the informed
    PSA-flow picks the paper's winning target. *)

open Benchmarks

let all = Registry.all

let parse_run_tests =
  List.concat_map
    (fun (b : Bench_app.t) ->
      [
        Alcotest.test_case (b.id ^ ": parses and typechecks") `Quick (fun () ->
            List.iter
              (fun n ->
                let p = Bench_app.program b ~n in
                Minic.Typecheck.check_program p;
                Alcotest.(check bool) "unique ids" false
                  (Minic.Ast.has_duplicate_ids p))
              [ b.profile_n; b.secondary_n ]);
        Alcotest.test_case (b.id ^ ": runs to a finite checksum") `Slow
          (fun () ->
            let r = Minic_interp.Eval.run (Bench_app.program b ~n:b.profile_n) in
            match String.split_on_char '\n' r.output with
            | line :: _ ->
                Alcotest.(check bool) "finite checksum" true
                  (Float.is_finite (float_of_string line))
            | [] -> Alcotest.fail "no output");
        Alcotest.test_case (b.id ^ ": deterministic") `Slow (fun () ->
            let p = Bench_app.program b ~n:b.profile_n in
            let r1 = Minic_interp.Eval.run p in
            let r2 = Minic_interp.Eval.run p in
            Alcotest.(check string) "same output" r1.output r2.output);
      ])
    all

let registry_tests =
  [
    Alcotest.test_case "five benchmarks registered" `Quick (fun () ->
        Alcotest.(check int) "5" 5 (List.length all));
    Alcotest.test_case "find by id" `Quick (fun () ->
        Alcotest.(check string) "nbody" "N-Body Simulation"
          (Registry.find "nbody").name);
    Alcotest.test_case "unknown id raises" `Quick (fun () ->
        match Registry.find "linpack" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "profile sizes are tractable, eval sizes are not"
      `Quick (fun () ->
        List.iter
          (fun (b : Bench_app.t) ->
            Alcotest.(check bool) "profile < secondary" true
              (b.profile_n < b.secondary_n);
            Alcotest.(check bool) "secondary < eval" true
              (b.secondary_n < b.eval_n))
          all);
  ]

(* full informed flow per benchmark: checks the paper's Auto-Selected
   winners (Fig. 5) *)
let expected_winner = function
  | "rush_larsen" | "nbody" | "bezier" -> Codegen.Design.Gpu_hip
  | "adpredictor" -> Codegen.Design.Fpga_oneapi
  | "kmeans" -> Codegen.Design.Cpu_openmp
  | id -> Alcotest.failf "unknown benchmark %s" id

(* one uninformed flow per benchmark, shared by the tests below *)
let evaluation =
  let memo = Hashtbl.create 5 in
  fun id ->
    match Hashtbl.find_opt memo id with
    | Some e -> e
    | None ->
        let e = Evaluation.collect_one (Registry.find id) in
        Hashtbl.add memo id e;
        e

let winner_tests =
  List.map
    (fun (b : Bench_app.t) ->
      Alcotest.test_case
        (Printf.sprintf "%s: informed flow selects the paper's target" b.id)
        `Slow
        (fun () ->
          let o = Psa.Std_flow.run_informed (Bench_app.context b) in
          match
            (Psa.Report.best o.results, Evaluation.auto_selected (evaluation b.id))
          with
          | Some best, Some auto ->
              Alcotest.(check string) "winning target"
                (Codegen.Design.target_to_string (expected_winner b.id))
                (Codegen.Design.target_to_string best.design.target);
              (* the Fig. 5 Auto-Selected bar is the informed flow's pick *)
              Alcotest.(check string) "Auto bar design" best.design.name
                auto.design.name;
              Alcotest.(check int64) "Auto bar seconds, bit for bit"
                (Int64.bits_of_float best.seconds)
                (Int64.bits_of_float auto.seconds)
          | None, _ -> Alcotest.fail "no feasible design"
          | _, None -> Alcotest.fail "no Auto-Selected bar"))
    all

let characterization_tests =
  [
    Alcotest.test_case "rush larsen: FPGA designs are unsynthesizable" `Slow
      (fun () ->
        List.iter
          (fun (r : Devices.Simulate.result) ->
            if r.design.target = Codegen.Design.Fpga_oneapi then
              Alcotest.(check bool) "infeasible" false r.feasible)
          (evaluation "rush_larsen").results);
    Alcotest.test_case "kmeans: OMP wins even among all five designs" `Slow
      (fun () ->
        match Psa.Report.best (evaluation "kmeans").results with
        | Some best ->
            Alcotest.(check string) "omp wins" "omp_epyc7543" best.design.name
        | None -> Alcotest.fail "no result");
    Alcotest.test_case "adpredictor: stratix10 wins among all five" `Slow
      (fun () ->
        match Psa.Report.best (evaluation "adpredictor").results with
        | Some best ->
            Alcotest.(check string) "s10 wins" "oneapi_stratix10"
              best.design.name
        | None -> Alcotest.fail "no result");
    Alcotest.test_case "nbody: 2080 Ti dominates and FPGAs barely matter"
      `Slow (fun () ->
        let speedup name =
          Option.value ~default:0.0 (Evaluation.speedup (evaluation "nbody") name)
        in
        Alcotest.(check bool) "2080 > 300x" true
          (speedup "hip_rtx2080ti" > 300.0);
        Alcotest.(check bool) "2080 > 1080" true
          (speedup "hip_rtx2080ti" > speedup "hip_gtx1080ti");
        Alcotest.(check bool) "A10 around 1x" true
          (speedup "oneapi_arria10" < 5.0));
  ]

let () =
  Alcotest.run "benchmarks"
    [
      ("registry", registry_tests);
      ("programs", parse_run_tests);
      ("winners", winner_tests);
      ("characterization", characterization_tests);
    ]
