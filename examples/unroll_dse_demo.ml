(** The unroll-until-overmap meta-program of the paper's Fig. 2, end to
    end.

    Run with: [dune exec examples/unroll_dse_demo.exe]

    The figure's pseudocode: query the AST for the kernel's outermost
    loops, insert [#pragma unroll n], ask the FPGA toolchain for a
    resource report, double [n] until LUT utilisation exceeds 90%, and
    export the last fitting design.  Here the resource model stands in
    for the vendor report; everything else is literal, including the
    exported, still-readable source. *)

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

let () =
  (* AdPredictor is the paper's unrolling champion: fixed, fully
     unrollable inner loops with II=1, outer loop unrolled until the
     device fills up *)
  let app = Benchmarks.Registry.find "adpredictor" in
  let ctx = Benchmarks.Bench_app.context app in

  (* run the flow up to and including the FPGA-path tasks, stopping
     before device-specific DSE, by driving the pieces directly *)
  let program, kernel, hotspot =
    Psa.Std_flow.prepare_kernel ctx.Psa.Context.program
  in
  let ctx =
    { ctx with Psa.Context.program; kernel = Some kernel; hotspot = Some hotspot }
  in
  let ctx = Psa.Std_flow.ensure_features ctx in
  let features = Psa.Context.eval_features_exn ctx in
  let data = Psa.Std_flow.data_of_features (Psa.Context.features_exn ctx) in

  let design = Codegen.Oneapi_gen.generate ~data program ~kernel in
  let design = Codegen.Oneapi_gen.unroll_fixed_loops design in
  let design = Codegen.Oneapi_gen.employ_single_precision design in

  List.iter
    (fun device_id ->
      Printf.printf "\n=== unroll_until_overmap on the %s ===\n"
        (Devices.Spec.name (Devices.Spec.find device_id));
      let d = { design with Codegen.Design.device_id } in
      let result = Dse.Unroll_dse.run d features in
      Printf.printf "%8s %14s %10s %10s\n" "factor" "utilisation" "ALM" "DSP";
      List.iter
        (fun (s : Dse.Unroll_dse.step) ->
          Printf.printf "%8d %13.1f%% %9.1f%% %9.1f%%  %s\n" s.factor
            (100.0 *. s.utilization)
            (100.0 *. s.alm_util)
            (100.0 *. s.dsp_util)
            (if s.overmapped then "<- overmapped, stop" else ""))
        result.steps;
      if result.synthesizable then (
        Printf.printf "chosen factor: %d\n" result.chosen_factor;
        (* the exported design still carries the pragma, human-readable *)
        let src = Codegen.Design.export result.design in
        String.split_on_char '\n' src
        |> List.filter (fun l ->
               contains_sub l "#pragma unroll"
               || contains_sub l "void hotspot_kernel_fpga")
        |> List.iter (fun l -> print_endline ("  | " ^ String.trim l)))
      else print_endline "design overmaps the device even at factor 1")
    [ "arria10"; "stratix10" ];

  (* contrast: Rush Larsen's huge kernel cannot fit at all — the paper's
     "no CPU+FPGA results" outcome *)
  print_endline "\n=== the Rush Larsen outcome ===";
  let rl = Benchmarks.Registry.find "rush_larsen" in
  let rl_ctx = Benchmarks.Bench_app.context rl in
  let rl_prog, rl_kernel, rl_hotspot =
    Psa.Std_flow.prepare_kernel rl_ctx.Psa.Context.program
  in
  let rl_ctx =
    {
      rl_ctx with
      Psa.Context.program = rl_prog;
      kernel = Some rl_kernel;
      hotspot = Some rl_hotspot;
    }
  in
  let rl_ctx = Psa.Std_flow.ensure_features rl_ctx in
  let rl_features = Psa.Context.eval_features_exn rl_ctx in
  let rl_design =
    Codegen.Oneapi_gen.generate
      ~data:(Psa.Std_flow.data_of_features (Psa.Context.features_exn rl_ctx))
      rl_prog ~kernel:rl_kernel
    |> Codegen.Oneapi_gen.employ_single_precision
  in
  List.iter
    (fun device_id ->
      let d = { rl_design with Codegen.Design.device_id } in
      let r = Dse.Unroll_dse.run d rl_features in
      let first = List.hd r.steps in
      Printf.printf "  %-12s factor 1 already at %.0f%% utilisation -> %s\n"
        device_id
        (100.0 *. first.utilization)
        (if r.synthesizable then "ships without unroll"
         else "not synthesizable (matches the paper)"))
    [ "arria10"; "stratix10" ]
