(** Tests for the code generators: the OpenMP, HIP and oneAPI designs must
    be structurally complete, lenient-well-typed, re-parseable, and carry
    the right knobs/flags; Table I's LOC deltas must behave. *)

open Codegen

let parse = Minic.Parser.parse_program

(** Extracted-kernel fixture shared by the generator tests. *)
let fixture () =
  let p = parse Helpers.vec_scale_src in
  let h = Option.get (Analysis.Hotspot.detect p) in
  let ex = Transforms.Extract.hotspot p ~loop_sid:h.loop_sid in
  (p, ex.program, ex.kernel_name)

let data_for p kernel = Helpers.data_inout p ~kernel

let well_formed (d : Design.t) =
  (* lenient typing (management calls are unknown) and re-parse *)
  Minic.Typecheck.check_program ~allow_unknown_calls:true d.program;
  let s = Design.export d in
  let p2 = Minic.Parser.parse_program s in
  Alcotest.(check int) "function count survives reparse"
    (List.length d.program.funcs)
    (List.length p2.funcs)

let openmp_tests =
  [
    Alcotest.test_case "design is well-formed" `Quick (fun () ->
        let _, ex, kernel = fixture () in
        well_formed (Openmp_gen.generate ex ~kernel));
    Alcotest.test_case "pragma present and runtime setup inserted" `Quick
      (fun () ->
        let _, ex, kernel = fixture () in
        let d = Openmp_gen.generate ex ~kernel in
        let s = Design.export d in
        Alcotest.(check bool) "parallel for" true
          (Astring_contains.contains s "#pragma omp parallel for");
        Alcotest.(check bool) "omp_set_dynamic" true
          (Astring_contains.contains s "omp_set_dynamic"));
    Alcotest.test_case "omp design adds very few lines (Table I)" `Quick
      (fun () ->
        let reference, ex, kernel = fixture () in
        let d = Openmp_gen.generate ex ~kernel in
        let pct = Design.loc_delta_percent ~reference d in
        Alcotest.(check bool) "positive" true (pct > 0.0);
        Alcotest.(check bool) "small (< 30%)" true (pct < 30.0));
    Alcotest.test_case "set_num_threads updates knob and source" `Quick
      (fun () ->
        let _, ex, kernel = fixture () in
        let d = Openmp_gen.set_num_threads (Openmp_gen.generate ex ~kernel) 32 in
        Alcotest.(check int) "knob" 32 d.num_threads;
        Alcotest.(check bool) "clause in source" true
          (Astring_contains.contains (Design.export d) "num_threads(32)"));
  ]

let hip_tests =
  [
    Alcotest.test_case "design is well-formed" `Quick (fun () ->
        let _, ex, kernel = fixture () in
        well_formed (Hip_gen.generate ~data:(data_for ex kernel) ex ~kernel));
    Alcotest.test_case "device kernel and wrapper structure" `Quick (fun () ->
        let _, ex, kernel = fixture () in
        let d = Hip_gen.generate ~data:(data_for ex kernel) ex ~kernel in
        Alcotest.(check string) "device kernel name" (kernel ^ "_gpu")
          d.device_kernel;
        let s = Design.export d in
        Alcotest.(check bool) "thread id" true
          (Astring_contains.contains s "hip_global_thread_id()");
        Alcotest.(check bool) "malloc" true
          (Astring_contains.contains s "hipMalloc");
        Alcotest.(check bool) "launch" true
          (Astring_contains.contains s "hipLaunchKernelGGL_");
        Alcotest.(check bool) "sync" true
          (Astring_contains.contains s "hipDeviceSynchronize");
        Alcotest.(check bool) "free" true
          (Astring_contains.contains s "hipFree"));
    Alcotest.test_case "transfers follow data analysis" `Quick (fun () ->
        (* a: read-only -> HtoD only; b: write-only -> DtoH only *)
        let _, ex, kernel = fixture () in
        let d = Hip_gen.generate ~data:(data_for ex kernel) ex ~kernel in
        let s = Design.export d in
        Alcotest.(check bool) "copies in a" true
          (Astring_contains.contains s "hipMemcpyHtoD(d_a, a");
        Alcotest.(check bool) "does not copy in b" false
          (Astring_contains.contains s "hipMemcpyHtoD(d_b, b");
        Alcotest.(check bool) "copies out b" true
          (Astring_contains.contains s "hipMemcpyDtoH(b, d_b");
        Alcotest.(check bool) "does not copy out a" false
          (Astring_contains.contains s "hipMemcpyDtoH(a, d_a"));
    Alcotest.test_case "main is untouched (wrapper keeps the name)" `Quick
      (fun () ->
        let _, ex, kernel = fixture () in
        let d = Hip_gen.generate ~data:(data_for ex kernel) ex ~kernel in
        Alcotest.(check bool) "main still calls the kernel name" true
          (List.mem kernel (Artisan.Query.callees d.program "main")));
    Alcotest.test_case "pinned memory task adds registration" `Quick (fun () ->
        let _, ex, kernel = fixture () in
        let d = Hip_gen.generate ~data:(data_for ex kernel) ex ~kernel in
        let d' = Hip_gen.employ_pinned_memory d in
        Alcotest.(check bool) "flag" true d'.pinned_memory;
        let s = Design.export d' in
        Alcotest.(check bool) "register" true
          (Astring_contains.contains s "hipHostRegister");
        Alcotest.(check bool) "unregister" true
          (Astring_contains.contains s "hipHostUnregister"));
    Alcotest.test_case "shared-mem staging targets broadcast arrays" `Quick
      (fun () ->
        (* kernel reading a table with a non-thread index gets staged *)
        let src =
          {|
void k(double* out, double* w, int n) {
  for (int i = 0; i < n; i++) {
    double s = 0.0;
    for (int j = 0; j < 8; j++) {
      s += w[j];
    }
    out[i] = s;
  }
}
int main() {
  double out[16]; double w[8];
  for (int j = 0; j < 8; j++) { w[j] = rand01(); }
  k(out, w, 16);
  print_float(out[0]);
  return 0;
}
|}
        in
        let p = parse src in
        let d = Hip_gen.generate ~data:(data_for p "k") p ~kernel:"k" in
        let d' = Hip_gen.introduce_shared_mem d in
        Alcotest.(check bool) "flag" true d'.shared_mem;
        let s = Design.export d' in
        Alcotest.(check bool) "smem buffer" true
          (Astring_contains.contains s "__smem_w");
        Alcotest.(check bool) "syncthreads" true
          (Astring_contains.contains s "hip_syncthreads"));
    Alcotest.test_case "no staging when every read is thread-indexed" `Quick
      (fun () ->
        let _, ex, kernel = fixture () in
        let d = Hip_gen.generate ~data:(data_for ex kernel) ex ~kernel in
        let d' = Hip_gen.introduce_shared_mem d in
        Alcotest.(check bool) "no smem" false d'.shared_mem);
    Alcotest.test_case "atomics for annotated array reductions" `Quick
      (fun () ->
        let p = parse Helpers.histogram_src in
        let p, _ =
          Transforms.Reduction.remove_array_dependencies p ~kernel:"hist"
        in
        let d = Hip_gen.generate ~data:(data_for p "hist") p ~kernel:"hist" in
        Alcotest.(check bool) "flag" true d.reductions_removed;
        Alcotest.(check bool) "atomic add call" true
          (Astring_contains.contains (Design.export d) "hip_atomic_add(bins"));
    Alcotest.test_case "set_blocksize rewrites the constant" `Quick (fun () ->
        let _, ex, kernel = fixture () in
        let d = Hip_gen.generate ~data:(data_for ex kernel) ex ~kernel in
        let d' = Hip_gen.set_blocksize d 512 in
        Alcotest.(check int) "knob" 512 d'.blocksize;
        Alcotest.(check bool) "source updated" true
          (Astring_contains.contains (Design.export d') "__blocksize = 512"));
    Alcotest.test_case "sp + intrinsics pipeline on device kernel" `Quick
      (fun () ->
        let p = parse Helpers.kernel_src in
        let d = Hip_gen.generate ~data:(data_for p "work") p ~kernel:"work" in
        let d = Hip_gen.employ_single_precision d in
        let d = Hip_gen.employ_intrinsics d in
        Alcotest.(check bool) "sp flag" true d.single_precision;
        Alcotest.(check bool) "intrinsics flag" true d.gpu_intrinsics;
        Alcotest.(check bool) "__expf used" true
          (Astring_contains.contains (Design.export d) "__expf("));
  ]

let oneapi_tests =
  [
    Alcotest.test_case "design is well-formed" `Quick (fun () ->
        let _, ex, kernel = fixture () in
        well_formed (Oneapi_gen.generate ~data:(data_for ex kernel) ex ~kernel));
    Alcotest.test_case "queue, buffers, submit, teardown" `Quick (fun () ->
        let _, ex, kernel = fixture () in
        let d = Oneapi_gen.generate ~data:(data_for ex kernel) ex ~kernel in
        let s = Design.export d in
        List.iter
          (fun needle ->
            Alcotest.(check bool) needle true
              (Astring_contains.contains s needle))
          [
            "sycl_fpga_queue_create";
            "sycl_buffer_create";
            "sycl_submit_";
            "sycl_event_wait";
            "sycl_buffer_copy_back";
            "sycl_buffer_destroy";
            "sycl_queue_destroy";
          ]);
    Alcotest.test_case "fpga kernel keeps the pipelined loop" `Quick (fun () ->
        let _, ex, kernel = fixture () in
        let d = Oneapi_gen.generate ~data:(data_for ex kernel) ex ~kernel in
        let s = Design.export d in
        Alcotest.(check bool) "pipeline pragma" true
          (Astring_contains.contains s "#pragma fpga pipeline");
        let f = Minic.Ast.find_func d.program d.device_kernel in
        match f.fbody with
        | [ { snode = Minic.Ast.For _; _ } ] -> ()
        | _ -> Alcotest.fail "kernel loop not preserved");
    Alcotest.test_case "zero-copy swaps buffers for USM" `Quick (fun () ->
        let _, ex, kernel = fixture () in
        let d = Oneapi_gen.generate ~data:(data_for ex kernel) ex ~kernel in
        let d' = Oneapi_gen.employ_zero_copy ~data:(data_for ex kernel) d in
        Alcotest.(check bool) "flag" true d'.zero_copy;
        let s = Design.export d' in
        Alcotest.(check bool) "usm register" true
          (Astring_contains.contains s "sycl_usm_host_register");
        Alcotest.(check bool) "no buffer copies" false
          (Astring_contains.contains s "sycl_buffer_copy_back"));
    Alcotest.test_case "set_unroll_factor annotates kernel loop" `Quick
      (fun () ->
        let _, ex, kernel = fixture () in
        let d = Oneapi_gen.generate ~data:(data_for ex kernel) ex ~kernel in
        let d' = Oneapi_gen.set_unroll_factor d 16 in
        Alcotest.(check int) "knob" 16 d'.unroll_factor;
        Alcotest.(check bool) "pragma in source" true
          (Astring_contains.contains (Design.export d') "#pragma unroll 16"));
    Alcotest.test_case "unroll-fixed-loops task annotates inner loops" `Quick
      (fun () ->
        let src =
          {|
void k(double* out, double* w, int n) {
  for (int i = 0; i < n; i++) {
    double s = 0.0;
    for (int j = 0; j < 4; j++) { s += w[j]; }
    out[i] = s;
  }
}
int main() { double out[8]; double w[4]; k(out, w, 8); return 0; }
|}
        in
        let p = parse src in
        let d = Oneapi_gen.generate ~data:(data_for p "k") p ~kernel:"k" in
        let d' = Oneapi_gen.unroll_fixed_loops d in
        (* the inner loop survives in source, carrying a full-unroll pragma *)
        let inner =
          Artisan.Query.(
            stmts_in
              ~where:(is_for &&& not_ is_outermost_loop)
              d'.program d'.device_kernel)
        in
        match inner with
        | [ m ] ->
            Alcotest.(check bool) "pragma unroll attached" true
              (List.exists
                 (fun (pr : Minic.Ast.pragma) -> pr.pname = "unroll")
                 m.Artisan.Query.stmt.pragmas)
        | _ -> Alcotest.fail "expected the inner loop to survive");
    Alcotest.test_case "oneapi adds more LOC than hip (Table I shape)" `Quick
      (fun () ->
        let reference, ex, kernel = fixture () in
        let data = data_for ex kernel in
        let omp = Openmp_gen.generate ex ~kernel in
        let hip = Hip_gen.generate ~data ex ~kernel in
        let one = Oneapi_gen.generate ~data ex ~kernel in
        let pct d = Design.loc_delta_percent ~reference d in
        Alcotest.(check bool) "omp < hip" true (pct omp < pct hip);
        Alcotest.(check bool) "hip <= oneapi" true (pct hip <= pct one));
  ]

let design_tests =
  [
    Alcotest.test_case "notes accumulate" `Quick (fun () ->
        let _, ex, kernel = fixture () in
        let d = Openmp_gen.generate ex ~kernel |> Design.note "extra" in
        Alcotest.(check bool) "note recorded" true
          (List.mem "extra" d.notes));
    Alcotest.test_case "target naming" `Quick (fun () ->
        Alcotest.(check string) "omp" "OpenMP"
          (Design.target_framework Design.Cpu_openmp);
        Alcotest.(check string) "hip" "HIP"
          (Design.target_framework Design.Gpu_hip);
        Alcotest.(check string) "oneapi" "oneAPI"
          (Design.target_framework Design.Fpga_oneapi));
  ]

(* Every design the five paper benchmarks' uninformed flows generate is
   well-formed, the zero-copy Stratix10 one included: its host wrapper
   keeps the host signature while the device kernel is demoted to single
   precision. *)
let flow_designs_well_formed () =
  let zero_copy =
    List.fold_left
      (fun n (app : Benchmarks.Bench_app.t) ->
        let o = Psa.Std_flow.run_uninformed (Benchmarks.Bench_app.context app) in
        List.fold_left
          (fun n (r : Devices.Simulate.result) ->
            well_formed r.design;
            if r.design.zero_copy then n + 1 else n)
          n o.results)
      0 Benchmarks.Registry.all
  in
  Alcotest.(check int) "zero-copy designs" 5 zero_copy

let () =
  Alcotest.run "codegen"
    [
      ("openmp", openmp_tests);
      ("hip", hip_tests);
      ("oneapi", oneapi_tests);
      ( "design",
        design_tests
        @ [
            Alcotest.test_case "uninformed flow designs are well-formed" `Quick
              flow_designs_well_formed;
          ] );
    ]
