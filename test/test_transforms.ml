(** Tests for the source-to-source transforms: hotspot extraction,
    reduction-dependency removal, single-precision conversion, unrolling
    and OpenMP parallelisation. *)

open Transforms

let parse = Minic.Parser.parse_program

let extract_fixture () =
  let p = parse Helpers.vec_scale_src in
  let h = Option.get (Analysis.Hotspot.detect p) in
  (p, Extract.hotspot p ~loop_sid:h.loop_sid)

let extract_tests =
  [
    Alcotest.test_case "kernel function created with call site" `Quick
      (fun () ->
        let _, ex = extract_fixture () in
        Alcotest.(check string) "name" Extract.default_kernel_name
          ex.kernel_name;
        Alcotest.(check bool) "kernel exists" true
          (Minic.Ast.find_func_opt ex.program ex.kernel_name <> None);
        Alcotest.(check bool) "main calls it" true
          (List.mem ex.kernel_name (Artisan.Query.callees ex.program "main")));
    Alcotest.test_case "free variables become parameters" `Quick (fun () ->
        let _, ex = extract_fixture () in
        let names = List.map snd ex.params in
        Alcotest.(check bool) "n passed" true (List.mem "n" names);
        Alcotest.(check bool) "a passed" true (List.mem "a" names);
        Alcotest.(check bool) "b passed" true (List.mem "b" names);
        Alcotest.(check bool) "i private" false (List.mem "i" names));
    Alcotest.test_case "arrays become pointer parameters" `Quick (fun () ->
        let _, ex = extract_fixture () in
        let ty name = fst (List.find (fun (_, v) -> v = name) ex.params) in
        Alcotest.(check bool) "a is double*" true
          (ty "a" = Minic.Ast.Tptr Minic.Ast.Tdouble);
        Alcotest.(check bool) "n is int" true (ty "n" = Minic.Ast.Tint));
    Alcotest.test_case "extraction preserves behaviour" `Quick (fun () ->
        let p, ex = extract_fixture () in
        let r0 = Minic_interp.Eval.run p in
        let r1 = Minic_interp.Eval.run ex.program in
        Alcotest.(check string) "same output" r0.output r1.output);
    Alcotest.test_case "extraction preserves typing" `Quick (fun () ->
        let _, ex = extract_fixture () in
        Minic.Typecheck.check_program ex.program);
    Alcotest.test_case "loop keeps its node id inside the kernel" `Quick
      (fun () ->
        let _, ex = extract_fixture () in
        let ids = Minic.Ast.all_stmt_ids ex.program in
        Alcotest.(check bool) "hotspot id survives" true
          (List.mem ex.loop_sid ids);
        Alcotest.(check bool) "ids unique" false
          (Minic.Ast.has_duplicate_ids ex.program));
    Alcotest.test_case "refuses loops writing free scalars" `Quick (fun () ->
        let src =
          {|
int main() {
  double s = 0.0;
  double a[8];
  for (int i = 0; i < 8; i++) {
    s += a[i];
  }
  print_float(s);
  return 0;
}
|}
        in
        let p = parse src in
        let loop =
          (List.hd Artisan.Query.(stmts_in ~where:is_for p "main")).stmt
        in
        match Extract.hotspot p ~loop_sid:loop.sid with
        | exception Extract.Not_extractable _ -> ()
        | _ -> Alcotest.fail "expected Not_extractable");
    Alcotest.test_case "kernel calls repeat per driver iteration" `Quick
      (fun () ->
        let src =
          {|
int main() {
  int n = 16;
  double a[n];
  for (int i = 0; i < n; i++) { a[i] = rand01(); }
  for (int t = 0; t < 4; t++) {
    for (int i = 0; i < n; i++) {
      a[i] = sqrt(a[i]) + 0.01;
    }
    a[0] = 0.5;
  }
  print_float(a[1]);
  return 0;
}
|}
        in
        let p = parse src in
        let h = Option.get (Analysis.Hotspot.detect p) in
        let ex = Extract.hotspot p ~loop_sid:h.loop_sid in
        (* the extracted kernel runs once per invocation of the loop it
           replaced; the original program's tracked run counts those *)
        let ptrs =
          List.filter_map
            (function Minic.Ast.Tptr _, v -> Some v | _ -> None)
            ex.params
        in
        let r =
          Minic_interp.Eval.run ~track:[ (h.loop_sid, ptrs) ] ex.program
        in
        let fp = Analysis.Hotspot.fused ~loop_sid:h.loop_sid p in
        match
          ( Minic_interp.Profile.kernel_obs r.profile h.loop_sid,
            Minic_interp.Fused_profile.kernel_obs fp ~loop_sid:h.loop_sid )
        with
        | Some k, Some k' ->
            Alcotest.(check int) "4 calls" 4 k.calls;
            Alcotest.(check int) "4 loop invocations" 4 k'.calls
        | _ -> Alcotest.fail "no kernel obs");
  ]

let reduction_tests =
  [
    Alcotest.test_case "histogram loop gets annotated" `Quick (fun () ->
        let p = parse Helpers.histogram_src in
        let p', count = Reduction.remove_array_dependencies p ~kernel:"hist" in
        Alcotest.(check int) "one loop annotated" 1 count;
        let loop =
          (List.hd Artisan.Query.(stmts_in ~where:is_for p' "hist")).stmt
        in
        Alcotest.(check (list string)) "clause" [ "+:bins[]" ]
          (Reduction.clauses_of loop));
    Alcotest.test_case "independent loop untouched" `Quick (fun () ->
        let p = parse Helpers.kernel_src in
        let _, count = Reduction.remove_array_dependencies p ~kernel:"work" in
        Alcotest.(check int) "nothing annotated" 0 count);
    Alcotest.test_case "annotation preserves behaviour" `Quick (fun () ->
        let p = parse Helpers.histogram_src in
        let p', _ = Reduction.remove_array_dependencies p ~kernel:"hist" in
        Alcotest.(check string) "same output"
          (Minic_interp.Eval.run p).output
          (Minic_interp.Eval.run p').output);
    Alcotest.test_case "scalar reduction clause spelling" `Quick (fun () ->
        let d =
          {
            Analysis.Dependence.var = "acc";
            kind = Analysis.Dependence.Scalar_reduction Minic.Ast.MulEq;
            sid = 0;
          }
        in
        Alcotest.(check string) "clause" "*:acc" (Reduction.clause d));
  ]

let sp_tests =
  [
    Alcotest.test_case "sp math renames calls in kernel only" `Quick (fun () ->
        let p = parse Helpers.kernel_src in
        let p' = Sp_math.employ_sp_math p ~kernel:"work" in
        let work =
          Minic.Pretty.program_to_string
            { p' with Minic.Ast.funcs = [ Minic.Ast.find_func p' "work" ] }
        in
        Alcotest.(check bool) "expf in kernel" true
          (Astring_contains.contains work "expf("));
    Alcotest.test_case "sp literals get f suffix" `Quick (fun () ->
        let p = parse Helpers.kernel_src in
        let p' = Sp_math.employ_sp_literals p ~kernel:"work" in
        let s = Minic.Pretty.program_to_string p' in
        Alcotest.(check bool) "0.5f present" true
          (Astring_contains.contains s "0.5f"));
    Alcotest.test_case "type demotion rewrites params and decls" `Quick
      (fun () ->
        let p = parse Helpers.kernel_src in
        let p' = Sp_math.demote_kernel_types p ~kernel:"work" in
        let f = Minic.Ast.find_func p' "work" in
        Alcotest.(check bool) "param float*" true
          ((List.hd f.fparams).ptyp = Minic.Ast.Tptr Minic.Ast.Tfloat));
    (* the conversion demotes [work]'s parameters to [float*] while
       [main] still passes [double*] arrays: the converted fixture is
       ill-typed, so the reference walker runs both *)
    Alcotest.test_case "full sp conversion is numerically faithful" `Quick
      (fun () ->
        let p = parse Helpers.kernel_src in
        let p' = Sp_math.to_single_precision p ~kernel:"work" in
        let walk p = Minic_interp.(Eval.run_ir (Resolve.compile p)).output in
        Alcotest.(check string) "same output" (walk p) (walk p'));
    Alcotest.test_case "gpu intrinsics rewrite sp math calls" `Quick (fun () ->
        let p = parse Helpers.kernel_src in
        let p' = Sp_math.employ_sp_math p ~kernel:"work" in
        let p'', n = Sp_math.employ_gpu_intrinsics p' ~kernel:"work" in
        Alcotest.(check int) "one call specialised" 1 n;
        Alcotest.(check bool) "__expf present" true
          (Astring_contains.contains
             (Minic.Pretty.program_to_string p'')
             "__expf("));
    Alcotest.test_case "intrinsics do not apply to double math" `Quick
      (fun () ->
        let p = parse Helpers.kernel_src in
        let _, n = Sp_math.employ_gpu_intrinsics p ~kernel:"work" in
        Alcotest.(check int) "nothing specialised" 0 n);
  ]

let unroll_tests =
  [
    Alcotest.test_case "full unroll replicates the body" `Quick (fun () ->
        let src =
          {|
void k(double* a) {
  for (int i = 0; i < 16; i++) {
    for (int j = 0; j < 4; j++) {
      a[j] += 1.0;
    }
  }
}
int main() { double a[4]; k(a); print_float(a[0]); return 0; }
|}
        in
        let p = parse src in
        let p', n = Unroll.unroll_fixed_inner_loops p ~kernel:"k" in
        Alcotest.(check int) "one loop unrolled" 1 n;
        Alcotest.(check int) "only outer remains" 1
          (List.length Artisan.Query.(stmts_in ~where:is_for p' "k"));
        Alcotest.(check string) "same behaviour"
          (Minic_interp.Eval.run p).output
          (Minic_interp.Eval.run p').output;
        Alcotest.(check bool) "ids unique" false
          (Minic.Ast.has_duplicate_ids p'));
    Alcotest.test_case "unroll substitutes the index constant" `Quick
      (fun () ->
        let src =
          {|
void k(double* a) {
  for (int i = 0; i < 8; i++) {
    for (int j = 0; j < 3; j++) {
      a[j] = (double)j;
    }
  }
}
int main() { double a[3]; k(a); print_float(a[2]); return 0; }
|}
        in
        let p = parse src in
        let p', _ = Unroll.unroll_fixed_inner_loops p ~kernel:"k" in
        let s = Minic.Pretty.program_to_string p' in
        Alcotest.(check bool) "a[2] literal present" true
          (Astring_contains.contains s "a[2]");
        Alcotest.(check (float 1e-9)) "value" 2.0
          (float_of_string
             (List.hd
                (String.split_on_char '\n' (Minic_interp.Eval.run p').output))));
    Alcotest.test_case "runtime bounds are not unrolled" `Quick (fun () ->
        let src =
          {|
void k(double* a, int m) {
  for (int i = 0; i < 8; i++) {
    for (int j = 0; j < m; j++) {
      a[j] += 1.0;
    }
  }
}
int main() { double a[4]; k(a, 4); return 0; }
|}
        in
        let p = parse src in
        let _, n = Unroll.unroll_fixed_inner_loops p ~kernel:"k" in
        Alcotest.(check int) "nothing unrolled" 0 n);
    Alcotest.test_case "threshold respected" `Quick (fun () ->
        let src =
          {|
void k(double* a) {
  for (int i = 0; i < 4; i++) {
    for (int j = 0; j < 100; j++) {
      a[0] += 1.0;
    }
  }
}
int main() { double a[1]; k(a); return 0; }
|}
        in
        let p = parse src in
        let _, n =
          Unroll.unroll_fixed_inner_loops ~threshold:64 p ~kernel:"k"
        in
        Alcotest.(check int) "too big to unroll" 0 n);
    Alcotest.test_case "annotate and read back factor" `Quick (fun () ->
        let p = parse Helpers.kernel_src in
        let loop =
          (List.hd Artisan.Query.(stmts_in ~where:is_for p "work")).stmt
        in
        let p' = Unroll.annotate_unroll ~target:loop.sid ~factor:8 p in
        Alcotest.(check int) "factor read back" 8
          (Unroll.kernel_unroll_factor p' ~kernel:"work");
        let p'' = Unroll.annotate_unroll ~target:loop.sid ~factor:16 p' in
        Alcotest.(check int) "updated" 16
          (Unroll.kernel_unroll_factor p'' ~kernel:"work"));
  ]

let omp_tests =
  [
    Alcotest.test_case "parallel loop gets the pragma" `Quick (fun () ->
        let p = parse Helpers.kernel_src in
        let p' = Omp_pragmas.parallelize_kernel_loop p ~kernel:"work" in
        let s = Minic.Pretty.program_to_string p' in
        Alcotest.(check bool) "pragma present" true
          (Astring_contains.contains s "#pragma omp parallel for"));
    Alcotest.test_case "num_threads clause set and read back" `Quick (fun () ->
        let p = parse Helpers.kernel_src in
        let p' =
          Omp_pragmas.parallelize_kernel_loop ~num_threads:16 p ~kernel:"work"
        in
        Alcotest.(check (option int)) "16 threads" (Some 16)
          (Omp_pragmas.annotated_num_threads p' ~kernel:"work"));
    Alcotest.test_case "reduction clauses derived from annotation" `Quick
      (fun () ->
        let p = parse Helpers.histogram_src in
        let p, _ = Reduction.remove_array_dependencies p ~kernel:"hist" in
        let p' = Omp_pragmas.parallelize_kernel_loop p ~kernel:"hist" in
        let s = Minic.Pretty.program_to_string p' in
        Alcotest.(check bool) "array-section reduction" true
          (Astring_contains.contains s "reduction(+:bins[:])"));
    Alcotest.test_case "sequential loop rejected" `Quick (fun () ->
        let p = parse Helpers.prefix_src in
        match Omp_pragmas.parallelize_kernel_loop p ~kernel:"prefix" with
        | exception Omp_pragmas.Not_parallel _ -> ()
        | _ -> Alcotest.fail "expected Not_parallel");
    Alcotest.test_case "pragma does not change behaviour" `Quick (fun () ->
        let p = parse Helpers.kernel_src in
        let p' = Omp_pragmas.parallelize_kernel_loop p ~kernel:"work" in
        Alcotest.(check string) "same output"
          (Minic_interp.Eval.run p).output
          (Minic_interp.Eval.run p').output);
  ]

(* ------------------------------------------------------------------ *)
(* Observational equivalence of the unroll and reduction transforms    *)
(* ------------------------------------------------------------------ *)

(* Random kernels with one fixed-trip inner loop (unroll fodder) and an
   indirect array accumulation (reduction-annotation fodder). *)
let transform_program_gen =
  let open QCheck.Gen in
  let rec fexpr leaves depth =
    if depth = 0 then oneofl leaves
    else
      frequency
        [
          (2, oneofl leaves);
          ( 3,
            let* x = fexpr leaves (depth - 1)
            and* y = fexpr leaves (depth - 1)
            and* op = oneofl [ "+"; "-"; "*" ] in
            return (Printf.sprintf "(%s %s %s)" x op y) );
          ( 1,
            let* x = fexpr leaves (depth - 1) in
            return (Printf.sprintf "sqrt(fabs(%s))" x) );
          ( 1,
            let* x = fexpr leaves (depth - 1) in
            return (Printf.sprintf "(%s / 1.25)" x) );
        ]
  in
  let inner_leaves = [ "a[i]"; "a[j]"; "t"; "0.25"; "1.5"; "(double)j" ] in
  let outer_leaves = [ "a[i]"; "t"; "0.5"; "(double)i" ] in
  let* bound = int_range 2 6
  and* e_inner = fexpr inner_leaves 2
  and* e_outer = fexpr outer_leaves 2 in
  return
    (Printf.sprintf
       {|
void work(double* a, int* b, double* out, int n) {
  for (int i = 0; i < n; i++) {
    double t = 0.0;
    for (int j = 0; j < %d; j++) {
      t += %s;
    }
    out[b[i]] += 0.125 * (%s);
    a[i] = 0.5 * t + 0.25;
  }
}

int main() {
  int n = 32;
  double a[n];
  int b[n];
  double out[n];
  for (int s = 0; s < n; s++) {
    a[s] = rand01();
    b[s] = (s * 5) %% 8;
    out[s] = 0.0;
  }
  work(a, b, out, n);
  double acc = 0.0;
  for (int s = 0; s < n; s++) {
    acc += out[s] + a[s];
  }
  print_float(acc);
  return 0;
}
|}
       bound e_inner e_outer)

let transform_arb = QCheck.make ~print:Fun.id transform_program_gen

(* What "observationally equivalent" means here: identical interpreter
   output and an identical data in/out set for the kernel — per-argument
   bytes moved and call count.  The kernel-cycle estimate is excluded:
   unrolling removes loop bookkeeping, so its cycles legitimately
   change. *)
let observables p ~kernel =
  let dio = Helpers.data_inout p ~kernel in
  ( (Minic_interp.Eval.run p).output,
    (dio.Analysis.Data_inout.kernel, dio.calls, dio.args, dio.total_in,
     dio.total_out) )

let unroll_equivalence_prop =
  QCheck.Test.make ~count:25
    ~name:"unroll: transformed = original (output + data in/out)"
    transform_arb (fun src ->
      let p = parse src in
      let before = observables p ~kernel:"work" in
      let p', n = Unroll.unroll_fixed_inner_loops p ~kernel:"work" in
      if n < 1 then QCheck.Test.fail_report "fixed inner loop not unrolled";
      Minic.Typecheck.check_program p';
      observables p' ~kernel:"work" = before)

let reduction_equivalence_prop =
  QCheck.Test.make ~count:25
    ~name:"reduction: annotated = original (output + data in/out)"
    transform_arb (fun src ->
      let p = parse src in
      let before = observables p ~kernel:"work" in
      let p', _ = Reduction.remove_array_dependencies p ~kernel:"work" in
      Minic.Typecheck.check_program p';
      observables p' ~kernel:"work" = before)

(* The same obligation on the five paper benchmarks' extracted kernels. *)
let check_bench_equivalence (b : Benchmarks.Bench_app.t) () =
  let p = Benchmarks.Bench_app.program b ~n:b.profile_n in
  let ex, kernel, _ = Psa.Std_flow.prepare_kernel p in
  let before = observables ex ~kernel in
  let unrolled, _ = Unroll.unroll_fixed_inner_loops ex ~kernel in
  Alcotest.(check bool)
    "unrolled kernel observationally equivalent" true
    (observables unrolled ~kernel = before);
  let annotated, _ = Reduction.remove_array_dependencies ex ~kernel in
  Alcotest.(check bool)
    "reduction-annotated kernel observationally equivalent" true
    (observables annotated ~kernel = before)

let equivalence_tests =
  [
    QCheck_alcotest.to_alcotest unroll_equivalence_prop;
    QCheck_alcotest.to_alcotest reduction_equivalence_prop;
  ]
  @ List.map
      (fun (b : Benchmarks.Bench_app.t) ->
        Alcotest.test_case b.id `Slow (check_bench_equivalence b))
      Benchmarks.Registry.all

(* ------------------------------------------------------------------ *)
(* Node ids: a function of the program and the transforms applied      *)
(* ------------------------------------------------------------------ *)

(* Every id with a summary of its node (statement or expression, its
   constructor and source location), in the pre-order of
   [Ast.iter_program]. *)
let id_nodes (p : Minic.Ast.program) =
  let acc = ref [] in
  let stmt (s : Minic.Ast.stmt) =
    let kind =
      match s.snode with
      | Decl _ -> "decl"
      | Assign _ -> "assign"
      | Expr_stmt _ -> "expr"
      | If _ -> "if"
      | For _ -> "for"
      | While _ -> "while"
      | Return _ -> "return"
      | Block _ -> "block"
    in
    acc := (s.sid, ("s" ^ kind, s.sloc)) :: !acc
  in
  let expr (e : Minic.Ast.expr) =
    let kind =
      match e.enode with
      | Int_lit _ -> "int"
      | Float_lit _ -> "float"
      | Bool_lit _ -> "bool"
      | Var _ -> "var"
      | Unop _ -> "unop"
      | Binop _ -> "binop"
      | Index _ -> "index"
      | Call _ -> "call"
      | Cast _ -> "cast"
    in
    acc := (e.eid, ("e" ^ kind, e.eloc)) :: !acc
  in
  Minic.Ast.iter_program ~fs:stmt ~fe:expr p;
  List.rev !acc

let check_parse_ids what p =
  let ids = List.map fst (id_nodes p) in
  Alcotest.(check (list int))
    (what ^ ": parse ids are 1..n in pre-order")
    (List.init (List.length ids) (fun i -> i + 1))
    ids

(* [after] is [before] transformed: no placeholder or duplicate id, every
   node [before] had still under its id unless the transform removed it
   ([removes]), and every new id above all of [before]'s. *)
let check_transform ?(removes = false) what before after =
  let b = id_nodes before and a = id_nodes after in
  let top = List.fold_left (fun m (id, _) -> max m id) 0 b in
  let msg m = Printf.sprintf "%s: %s" what m in
  Alcotest.(check bool) (msg "no placeholder ids") false
    (List.mem_assoc Minic.Ast.placeholder_id a);
  Alcotest.(check bool) (msg "no duplicate ids") false
    (Minic.Ast.has_duplicate_ids after);
  List.iter
    (fun (id, node) ->
      match List.assoc_opt id a with
      | Some node' ->
          if node' <> node then
            Alcotest.failf "%s: node #%d changed kind or location" what id
      | None ->
          if not removes then Alcotest.failf "%s: node #%d lost its id" what id)
    b;
  List.iter
    (fun (id, _) ->
      if (not (List.mem_assoc id b)) && id <= top then
        Alcotest.failf "%s: new node #%d reuses an id at or below %d" what id
          top)
    a

(* Extract, reduce, unroll, single precision and OpenMP pragmas, in flow
   order, each checked against its input; then timer instrumentation of
   the original. *)
let check_transform_chain what p ~func ~loop_sid =
  let ex = Extract.hotspot p ~func ~loop_sid in
  check_transform (what ^ " extract") p ex.program;
  let kernel = ex.kernel_name in
  let red, _ = Reduction.remove_array_dependencies ex.program ~kernel in
  check_transform (what ^ " reduce") ex.program red;
  let unr, _ = Unroll.unroll_fixed_inner_loops red ~kernel in
  check_transform ~removes:true (what ^ " unroll") red unr;
  let sp = Sp_math.to_single_precision unr ~kernel in
  check_transform (what ^ " sp_math") unr sp;
  (match Omp_pragmas.parallelize_kernel_loop ~num_threads:8 red ~kernel with
  | omp -> check_transform (what ^ " omp") red omp
  | exception Omp_pragmas.Not_parallel _ -> ());
  check_transform (what ^ " instrument") p (Analysis.Hotspot.instrument ~func p)

let check_bench_ids (b : Benchmarks.Bench_app.t) () =
  let p = Minic.Parser.parse_program (b.source ~n:b.profile_n) in
  check_parse_ids b.id p;
  let h = Option.get (Analysis.Hotspot.detect p) in
  check_transform_chain b.id p ~func:h.func_name ~loop_sid:h.loop_sid;
  (* the secondary-size parse carries the hotspot under the same id, and
     extracting it there gives what fresh detection gives *)
  let p2 = Minic.Parser.parse_program (b.source ~n:b.secondary_n) in
  Alcotest.(check bool) "secondary parse has the hotspot loop" true
    (List.exists
       (fun (m : Artisan.Query.match_ctx) -> m.stmt.sid = h.loop_sid)
       (Analysis.Hotspot.candidates ~func:h.func_name p2));
  let transferred, _, _ = Psa.Std_flow.prepare_kernel ~hotspot:h p2 in
  let fresh, _, h2 = Psa.Std_flow.prepare_kernel p2 in
  Alcotest.(check int) "fresh detection picks the same loop" h.loop_sid
    h2.loop_sid;
  Alcotest.(check bool) "same kernel as fresh detection" true
    (transferred = fresh)

let ids_prop =
  QCheck.Test.make ~count:25 ~name:"generated programs: ids invariants"
    transform_arb (fun src ->
      let p = parse src in
      check_parse_ids "generated" p;
      let outer =
        List.hd
          (Artisan.Query.(stmts_in ~where:(is_for &&& is_outermost_loop)) p
             "work")
      in
      check_transform_chain "generated" p ~func:"work"
        ~loop_sid:outer.stmt.sid;
      true)

let id_tests =
  QCheck_alcotest.to_alcotest ids_prop
  :: List.map
       (fun (b : Benchmarks.Bench_app.t) ->
         Alcotest.test_case b.id `Slow (check_bench_ids b))
       (Benchmarks.Registry.all @ Benchmarks.Registry.extras)

let () =
  Alcotest.run "transforms"
    [
      ("extract", extract_tests);
      ("reduction", reduction_tests);
      ("single_precision", sp_tests);
      ("unroll", unroll_tests);
      ("omp", omp_tests);
      ("equivalence", equivalence_tests);
      ("ids", id_tests);
    ]
