(** Tests for the analysis tasks: hotspot detection (including the
    descend-into-parallel-work heuristic), dependence classification,
    trip counts, intensity, data movement, aliasing, the feature vector
    and workload extrapolation. *)

open Analysis

let parse = Minic.Parser.parse_program

let hotspot_tests =
  [
    Alcotest.test_case "picks the dominant loop" `Quick (fun () ->
        let p = parse Helpers.vec_scale_src in
        match Hotspot.detect p with
        | None -> Alcotest.fail "no hotspot"
        | Some h ->
            (* the sqrt loop dominates the init and sum loops *)
            Alcotest.(check bool) "majority share" true (h.share > 0.4);
            Alcotest.(check string) "in main" "main" h.func_name);
    Alcotest.test_case "no loops -> none" `Quick (fun () ->
        let p = parse "int main() { return 0; }" in
        Alcotest.(check bool) "none" true (Hotspot.detect p = None));
    Alcotest.test_case "descends through a sequential driver loop" `Quick
      (fun () ->
        let src =
          {|
int main() {
  int n = 64;
  double a[n];
  double b[n];
  for (int i = 0; i < n; i++) { a[i] = rand01(); }
  for (int t = 0; t < 5; t++) {
    for (int i = 0; i < n; i++) {
      b[i] = sqrt(a[i]) + (double)t;
    }
    b[0] = 0.0;
  }
  print_float(b[1]);
  return 0;
}
|}
        in
        let p = parse src in
        match Hotspot.detect p with
        | None -> Alcotest.fail "no hotspot"
        | Some h ->
            Alcotest.(check int) "descended once" 1
              (List.length h.descended_from);
            (* the chosen loop must be parallel *)
            let chosen =
              List.find
                (fun (m : Artisan.Query.match_ctx) -> m.stmt.sid = h.loop_sid)
                (Artisan.Query.stmts p ~where:Artisan.Query.is_for)
            in
            let info = Dependence.analyze_loop chosen.stmt in
            Alcotest.(check bool) "parallel" true info.parallel_with_reductions);
    Alcotest.test_case "stays on a parallel outermost loop" `Quick (fun () ->
        let p = parse Helpers.vec_scale_src in
        match Hotspot.detect p with
        | Some h -> Alcotest.(check int) "no descent" 0 (List.length h.descended_from)
        | None -> Alcotest.fail "no hotspot");
    Alcotest.test_case "instrumentation does not change behaviour" `Quick
      (fun () ->
        let p = parse Helpers.vec_scale_src in
        let r0 = Minic_interp.Eval.run p in
        let r1 = Minic_interp.Eval.run (Hotspot.instrument p) in
        Alcotest.(check string) "same output" r0.output r1.output);
  ]

(* ------------------------------------------------------------------ *)
(* Dependence                                                          *)
(* ------------------------------------------------------------------ *)

let loop_info_of src fname =
  let p = parse src in
  match Dependence.outermost p fname with
  | Some i -> i
  | None -> Alcotest.fail "no outermost loop"

let dependence_tests =
  [
    Alcotest.test_case "independent map loop is parallel" `Quick (fun () ->
        let i = loop_info_of Helpers.kernel_src "work" in
        Alcotest.(check bool) "parallel" true i.parallel;
        Alcotest.(check int) "no deps" 0 (List.length i.carried));
    Alcotest.test_case "prefix sum carries a dependence" `Quick (fun () ->
        let i = loop_info_of Helpers.prefix_src "prefix" in
        Alcotest.(check bool) "not parallel" false i.parallel_with_reductions;
        Alcotest.(check bool) "carried dep on a" true
          (List.exists (fun (d : Dependence.dep) -> d.var = "a") i.carried));
    Alcotest.test_case "histogram write is an array reduction" `Quick (fun () ->
        let i = loop_info_of Helpers.histogram_src "hist" in
        Alcotest.(check bool) "parallel with reductions" true
          i.parallel_with_reductions;
        Alcotest.(check bool) "not plainly parallel" false i.parallel;
        match i.reductions with
        | [ { kind = Dependence.Array_reduction Minic.Ast.AddEq; var = "bins"; _ } ] -> ()
        | _ -> Alcotest.fail "expected bins array reduction");
    Alcotest.test_case "scalar accumulation is a scalar reduction" `Quick
      (fun () ->
        let src =
          {|
void total(double* s, double* a, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; i++) {
    acc += a[i];
  }
  s[0] = acc;
}
int main() { double s[1]; double a[4]; total(s, a, 4); return 0; }
|}
        in
        let i = loop_info_of src "total" in
        match i.reductions with
        | [ { kind = Dependence.Scalar_reduction Minic.Ast.AddEq; var = "acc"; _ } ] ->
            Alcotest.(check bool) "parallel with reductions" true
              i.parallel_with_reductions
        | _ -> Alcotest.fail "expected acc scalar reduction");
    Alcotest.test_case "locals declared inside are private" `Quick (fun () ->
        let src =
          {|
void f(double* b, double* a, int n) {
  for (int i = 0; i < n; i++) {
    double t = a[i] * 2.0;
    t = t + 1.0;
    b[i] = t;
  }
}
int main() { double a[4]; double b[4]; f(b, a, 4); return 0; }
|}
        in
        let i = loop_info_of src "f" in
        Alcotest.(check bool) "parallel" true i.parallel);
    Alcotest.test_case "scalar overwritten each iteration is carried" `Quick
      (fun () ->
        let src =
          {|
void f(double* b, double* a, int n) {
  double last = 0.0;
  for (int i = 0; i < n; i++) {
    b[i] = last;
    last = a[i];
  }
}
int main() { double a[4]; double b[4]; f(b, a, 4); return 0; }
|}
        in
        let i = loop_info_of src "f" in
        Alcotest.(check bool) "not parallel" false i.parallel_with_reductions);
    Alcotest.test_case "read and write at different indices is carried" `Quick
      (fun () ->
        let src =
          {|
void stencil(double* a, int n) {
  for (int i = 0; i < n - 1; i++) {
    a[i] = a[i + 1] * 0.5;
  }
}
int main() { double a[8]; stencil(a, 8); return 0; }
|}
        in
        let i = loop_info_of src "stencil" in
        Alcotest.(check bool) "not parallel" false i.parallel_with_reductions);
    Alcotest.test_case "strided linearised write stays parallel" `Quick
      (fun () ->
        let src =
          {|
void f(double* a, int n) {
  for (int i = 0; i < n; i++) {
    for (int d = 0; d < 3; d++) {
      a[i * 3 + d] = (double)(i + d);
    }
  }
}
int main() { double a[24]; f(a, 8); return 0; }
|}
        in
        let i = loop_info_of src "f" in
        Alcotest.(check bool) "parallel" true i.parallel);
    Alcotest.test_case "affine coefficient extraction" `Quick (fun () ->
        let coeff s =
          Dependence.affine_coeff "i" (Minic.Parser.parse_expr_string s)
        in
        Alcotest.(check (option int)) "i" (Some 1) (coeff "i");
        Alcotest.(check (option int)) "3*i+2" (Some 3) (coeff "3 * i + 2");
        Alcotest.(check (option int)) "i*4-j" (Some 4) (coeff "i * 4 - j");
        Alcotest.(check (option int)) "j" (Some 0) (coeff "j");
        Alcotest.(check (option int)) "i*i" None (coeff "i * i");
        Alcotest.(check (option int)) "a[i]" None (coeff "a[i]"));
    Alcotest.test_case "inner loops listed separately" `Quick (fun () ->
        let p = parse Helpers.histogram_src in
        Alcotest.(check int) "hist has no inner loops" 0
          (List.length (Dependence.inner_loops p "hist")));
  ]

(* ------------------------------------------------------------------ *)
(* Trip counts / intensity / data / alias                              *)
(* ------------------------------------------------------------------ *)

let tripcount_tests =
  [
    Alcotest.test_case "fixed trips are fixed" `Quick (fun () ->
        let p = parse Helpers.kernel_src in
        let t = Trip_count.analyze p in
        let loop = (List.hd Artisan.Query.(stmts_in ~where:is_for p "work")).stmt in
        match Trip_count.find t loop.sid with
        | Some s ->
            Alcotest.(check bool) "fixed" true s.fixed;
            Alcotest.(check int) "trips" 32 s.max_trip
        | None -> Alcotest.fail "no stats");
    Alcotest.test_case "variable trips are not fixed" `Quick (fun () ->
        let src =
          {|
int main() {
  double a[10];
  for (int i = 0; i < 10; i++) {
    for (int j = 0; j < i; j++) {
      a[j] = 1.0;
    }
  }
  return 0;
}
|}
        in
        let p = parse src in
        let t = Trip_count.analyze p in
        let inner =
          (List.hd
             Artisan.Query.(
               stmts_in ~where:(is_for &&& is_innermost_loop) p "main"))
            .stmt
        in
        match Trip_count.find t inner.sid with
        | Some s ->
            Alcotest.(check bool) "not fixed" false s.fixed;
            Alcotest.(check int) "min 0" 0 s.min_trip;
            Alcotest.(check int) "max 9" 9 s.max_trip;
            Alcotest.(check int) "invocations" 10 s.invocations
        | None -> Alcotest.fail "no stats");
  ]

let intensity_tests =
  [
    Alcotest.test_case "math-heavy kernel beats copy kernel" `Quick (fun () ->
        let copy_src =
          {|
void copy(double* b, double* a, int n) {
  for (int i = 0; i < n; i++) { b[i] = a[i]; }
}
int main() { double a[4]; double b[4]; copy(b, a, 4); return 0; }
|}
        in
        let math = Intensity.analyze (parse Helpers.kernel_src) "work" in
        let copy = Intensity.analyze (parse copy_src) "copy" in
        Alcotest.(check bool) "math > copy" true
          (math.flops_per_byte > copy.flops_per_byte));
    Alcotest.test_case "fixed inner loops multiply work" `Quick (fun () ->
        let one =
          Intensity.analyze
            (parse
               "void f(double* a) { for (int i = 0; i < 1; i++) { a[0] += 1.0; } }\nint main() { double a[1]; f(a); return 0; }")
            "f"
        in
        let many =
          Intensity.analyze
            (parse
               "void f(double* a) { for (int i = 0; i < 64; i++) { a[0] += 1.0; } }\nint main() { double a[1]; f(a); return 0; }")
            "f"
        in
        Alcotest.(check bool) "64x flops" true (many.flops > one.flops *. 32.0));
  ]

let data_alias_tests =
  [
    Alcotest.test_case "data in/out totals" `Quick (fun () ->
        let d = Helpers.data_inout (parse Helpers.kernel_src) ~kernel:"work" in
        Alcotest.(check int) "in" (32 * 8) d.total_in;
        Alcotest.(check int) "out" (32 * 8) d.total_out;
        Alcotest.(check int) "calls" 1 d.calls);
    Alcotest.test_case "no alias for distinct arrays" `Quick (fun () ->
        let a = Helpers.alias (parse Helpers.kernel_src) ~kernel:"work" in
        Alcotest.(check bool) "no alias" true a.no_alias);
    Alcotest.test_case "aliasing detected when same array passed twice" `Quick
      (fun () ->
        let src =
          {|
void f(double* a, double* b, int n) {
  for (int i = 0; i < n; i++) { b[i] = a[i] + 1.0; }
}
int main() {
  double x[8];
  f(x, x, 8);
  return 0;
}
|}
        in
        let a = Helpers.alias (parse src) ~kernel:"f" in
        Alcotest.(check bool) "alias" false a.no_alias;
        Alcotest.(check bool) "overlap recorded" true (a.overlaps <> []));
    Alcotest.test_case "disjoint halves of one array do not alias" `Quick
      (fun () ->
        let src =
          {|
void f(double* a, double* b, int n) {
  for (int i = 0; i < n; i++) { b[i] = a[i] + 1.0; }
}
int main() {
  double x[8];
  double y[8];
  f(x, y, 8);
  return 0;
}
|}
        in
        let a = Helpers.alias (parse src) ~kernel:"f" in
        Alcotest.(check bool) "no alias" true a.no_alias);
  ]

(* ------------------------------------------------------------------ *)
(* Features + extrapolation                                            *)
(* ------------------------------------------------------------------ *)

let features_tests =
  [
    Alcotest.test_case "feature vector of a simple kernel" `Quick (fun () ->
        let f = Helpers.features (parse Helpers.kernel_src) ~kernel:"work" in
        Alcotest.(check int) "calls" 1 f.calls;
        Alcotest.(check (float 0.01)) "outer trip" 32.0 f.outer_trip;
        Alcotest.(check bool) "parallel" true f.outer_parallel;
        Alcotest.(check bool) "no gathers" true (f.gather_fraction = 0.0);
        Alcotest.(check int) "two pointer args" 2 (List.length f.args);
        Alcotest.(check bool) "flops positive" true (f.flops_per_call > 0.0));
    Alcotest.test_case "register estimate grows with locals" `Quick (fun () ->
        let small = Helpers.features (parse Helpers.kernel_src) ~kernel:"work" in
        let big_src =
          {|
void work(double* a, double* b, int n) {
  for (int i = 0; i < n; i++) {
    double t1 = a[i] + 1.0;
    double t2 = t1 * 2.0;
    double t3 = exp(t2);
    double t4 = t3 - t1;
    double t5 = t4 * t4;
    double t6 = sqrt(t5 + 1.0);
    double t7 = t6 / (t2 + 0.1);
    double t8 = t7 + t3;
    b[i] = t8;
  }
}
int main() {
  double a[8]; double b[8];
  work(a, b, 8);
  return 0;
}
|}
        in
        let big = Helpers.features (parse big_src) ~kernel:"work" in
        Alcotest.(check bool) "more regs" true
          (big.regs_estimate > small.regs_estimate));
    Alcotest.test_case "gathers detected through index arrays" `Quick (fun () ->
        let src =
          {|
void g(double* out, double* table, int* idx, int n) {
  for (int i = 0; i < n; i++) {
    out[i] = table[idx[i]];
  }
}
int main() {
  double out[8]; double table[16]; int idx[8];
  for (int i = 0; i < 8; i++) { idx[i] = rand_int(16); }
  g(out, table, idx, 8);
  return 0;
}
|}
        in
        let f = Helpers.features (parse src) ~kernel:"g" in
        Alcotest.(check bool) "gather fraction positive" true
          (f.gather_fraction > 0.0);
        Alcotest.(check (list string)) "gathered args" [ "table" ]
          f.gathered_args);
    Alcotest.test_case "inner loop features" `Quick (fun () ->
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
  k(out, w, 16);
  return 0;
}
|}
        in
        let f = Helpers.features (parse src) ~kernel:"k" in
        match f.inner_loops with
        | [ il ] ->
            Alcotest.(check (option int)) "static trip" (Some 8) il.il_static_trip;
            Alcotest.(check bool) "innermost" true il.il_innermost;
            Alcotest.(check bool) "has reduction" true il.il_has_reduction;
            Alcotest.(check bool) "fully unrollable" true il.il_fully_unrollable;
            Alcotest.(check (float 0.01)) "iters per outer" 8.0
              il.il_iters_per_outer;
            Alcotest.(check bool) "w is an inner-read table" true
              (f.inner_read_bytes = 64)
        | _ -> Alcotest.fail "expected one inner loop");
    Alcotest.test_case "offload intensity" `Quick (fun () ->
        let f = Helpers.features (parse Helpers.kernel_src) ~kernel:"work" in
        let expected = f.flops_per_call /. (f.bytes_in_per_call +. f.bytes_out_per_call) in
        Alcotest.(check (float 1e-9)) "ratio" expected
          (Features.offload_intensity f));
  ]

let extrapolate_tests =
  [
    Alcotest.test_case "exponent fitting" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "linear" 1.0
          (Extrapolate.fit_exponent ~n1:10 ~n2:20 10.0 20.0);
        Alcotest.(check (float 1e-9)) "quadratic" 2.0
          (Extrapolate.fit_exponent ~n1:10 ~n2:20 100.0 400.0);
        Alcotest.(check (float 1e-9)) "constant" 0.0
          (Extrapolate.fit_exponent ~n1:10 ~n2:20 7.0 7.0));
    Alcotest.test_case "scaling evaluates the power law" `Quick (fun () ->
        Alcotest.(check (float 1e-6)) "linear to 40" 40.0
          (Extrapolate.scale ~n1:10 ~n2:20 ~n:40 10.0 20.0);
        Alcotest.(check (float 1e-6)) "quadratic to 40" 1600.0
          (Extrapolate.scale ~n1:10 ~n2:20 ~n:40 100.0 400.0));
    Helpers.qtest ~count:50 "scale interpolates endpoints"
      QCheck.(pair (float_range 1.0 100.0) (float_range 1.0 100.0))
      (fun (v1, v2) ->
        let at n = Extrapolate.scale ~n1:8 ~n2:16 ~n v1 v2 in
        Float.abs (at 8 -. v1) < 1e-6 *. v1
        && Float.abs (at 16 -. v2) < 1e-6 *. v2);
    Alcotest.test_case "feature extrapolation matches a direct profile" `Quick
      (fun () ->
        (* profile the same kernel at two sizes, extrapolate to a third,
           compare against directly profiling the third *)
        let src n =
          Printf.sprintf
            {|
void work(double* a, double* b, int n) {
  for (int i = 0; i < n; i++) {
    b[i] = sqrt(a[i]) + 2.0;
  }
}
int main() {
  int n = %d;
  double a[n]; double b[n];
  for (int i = 0; i < n; i++) { a[i] = rand01(); }
  work(a, b, n);
  return 0;
}
|}
            n
        in
        let feat n = Helpers.features (parse (src n)) ~kernel:"work" in
        let f8 = feat 8 and f16 = feat 16 and f64 = feat 64 in
        let fx = Extrapolate.features ~n1:8 f8 ~n2:16 f16 ~n:64 in
        let close a b = Float.abs (a -. b) <= 0.02 *. Float.max a b +. 1e-9 in
        Alcotest.(check bool) "outer trip" true (close fx.outer_trip f64.outer_trip);
        Alcotest.(check bool) "flops" true
          (close fx.flops_per_call f64.flops_per_call);
        Alcotest.(check bool) "bytes in" true
          (close fx.bytes_in_per_call f64.bytes_in_per_call);
        Alcotest.(check bool) "cpu cycles" true
          (close fx.cpu_cycles_per_call f64.cpu_cycles_per_call));
  ]

let () =
  Alcotest.run "analysis"
    [
      ("hotspot", hotspot_tests);
      ("dependence", dependence_tests);
      ("trip_count", tripcount_tests);
      ("intensity", intensity_tests);
      ("data_alias", data_alias_tests);
      ("features", features_tests);
      ("extrapolate", extrapolate_tests);
    ]
