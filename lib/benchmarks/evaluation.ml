(** The paper's evaluation data: Fig. 5 (hotspot speedups and the
    Auto-Selected bar), Table I (added LOC) and Fig. 6 (relative
    platform cost), collected by one uninformed flow per benchmark.

    [psaflow report] and [bench/main.exe] both render from this module,
    so every rule that decides one of those numbers is written once
    here; the renderers only choose columns and formats. *)

type t = {
  app : Bench_app.t;
  reference : Minic.Ast.program;  (** Table I's LOC baseline *)
  features : Analysis.Features.t;  (** at evaluation scale *)
  results : Devices.Simulate.result list;  (** all five designs, timed *)
  decision : Psa.Strategy.explanation;  (** branch point A, informed *)
}

(** One uninformed flow on [app]'s standard workloads: all five designs,
    plus the informed Fig. 3 decision on the same context. *)
let collect_one (app : Bench_app.t) : t =
  let ctx = Bench_app.context app in
  let outcome = Psa.Std_flow.run_uninformed ctx in
  let c0 =
    match outcome.contexts with
    | c :: _ -> c
    | [] -> failwith "flow produced no context"
  in
  {
    app;
    reference = ctx.Psa.Context.reference;
    features = Psa.Context.eval_features_exn c0;
    results = outcome.results;
    decision = Psa.Strategy.fig3_explain c0;
  }

(** The five paper benchmarks, in registry order, collected on the
    domain pool. *)
let collect () = Flow_par.Pool.map collect_one Registry.all

(** The five Fig. 5 design columns, in order. *)
let design_names =
  [
    "omp_epyc7543";
    "hip_gtx1080ti";
    "hip_rtx2080ti";
    "oneapi_arria10";
    "oneapi_stratix10";
  ]

(** The design named [name], feasible or not. *)
let result (e : t) name =
  List.find_opt
    (fun (r : Devices.Simulate.result) -> r.design.name = name)
    e.results

(** Fig. 5 and Fig. 6 read feasible designs only; an infeasible one is
    "n/a". *)
let feasible e name =
  match result e name with Some r when r.feasible -> Some r | _ -> None

let speedup e name =
  Option.map (fun (r : Devices.Simulate.result) -> r.speedup) (feasible e name)

let seconds e name =
  Option.map (fun (r : Devices.Simulate.result) -> r.seconds) (feasible e name)

(** The Auto-Selected bar: the fastest design of the family that the
    informed Fig. 3 decision targets. *)
let auto_selected (e : t) : Devices.Simulate.result option =
  let target =
    match e.decision.decision with
    | Psa.Strategy.Cpu_path -> Some Codegen.Design.Cpu_openmp
    | Psa.Strategy.Gpu_path -> Some Codegen.Design.Gpu_hip
    | Psa.Strategy.Fpga_path -> Some Codegen.Design.Fpga_oneapi
    | Psa.Strategy.No_offload _ -> None
  in
  Option.bind target (fun t ->
      Psa.Report.best
        (List.filter
           (fun (r : Devices.Simulate.result) -> r.design.target = t)
           e.results))

(** Table I cell: added LOC in percent of the reference, for
    synthesizable designs only. *)
let loc_delta e name =
  match result e name with
  | Some r when r.design.synthesizable ->
      Some (Codegen.Design.loc_delta_percent ~reference:e.reference r.design)
  | _ -> None

(** Fig. 6 compares the Stratix10 CPU+FPGA platform with the 2080 Ti
    CPU+GPU platform on these apps, across these FPGA$/GPU$ price
    ratios. *)
let fig6_apps = [ "adpredictor"; "bezier"; "kmeans" ]

let fig6_ratios = [ 0.25; 1.0 /. 3.0; 0.5; 1.0; 2.0; 3.0; 4.0 ]

(** [(id, fpga_seconds, gpu_seconds)] for each Fig. 6 app present in
    [data]. *)
let fig6_times data =
  List.filter_map
    (fun id ->
      List.find_opt (fun e -> e.app.Bench_app.id = id) data
      |> Option.map (fun e ->
             (id, seconds e "oneapi_stratix10", seconds e "hip_rtx2080ti")))
    fig6_apps
