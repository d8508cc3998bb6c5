(** Shared fixtures and generators for the test suites. *)

let parse = Minic.Parser.parse_program

(** Small self-contained program with one clear hotspot loop and a
    kernel-shaped structure (used across meta/analysis/transform tests). *)
let vec_scale_src =
  {|
int main() {
  int n = 64;
  double a[n];
  double b[n];
  for (int i = 0; i < n; i++) {
    a[i] = rand01();
  }
  for (int i = 0; i < n; i++) {
    b[i] = sqrt(a[i]) * 2.0 + 1.0;
  }
  double s = 0.0;
  for (int i = 0; i < n; i++) {
    s += b[i];
  }
  print_float(s);
  return 0;
}
|}

(** Program with an already-extracted kernel function. *)
let kernel_src =
  {|
void work(double* a, double* b, int n) {
  for (int i = 0; i < n; i++) {
    b[i] = exp(a[i]) + 0.5;
  }
}

int main() {
  int n = 32;
  double a[n];
  double b[n];
  for (int i = 0; i < n; i++) {
    a[i] = rand01();
  }
  work(a, b, n);
  double s = 0.0;
  for (int i = 0; i < n; i++) {
    s += b[i];
  }
  print_float(s);
  return 0;
}
|}

(** Kernel with an array-reduction dependence (histogram pattern). *)
let histogram_src =
  {|
void hist(int* bins, double* x, int n) {
  for (int i = 0; i < n; i++) {
    int b = (int)(x[i] * 8.0);
    bins[b] += 1;
  }
}

int main() {
  int n = 128;
  double x[n];
  int bins[8];
  for (int i = 0; i < n; i++) {
    x[i] = 0.99 * rand01();
  }
  for (int b = 0; b < 8; b++) {
    bins[b] = 0;
  }
  hist(bins, x, n);
  int total = 0;
  for (int b = 0; b < 8; b++) {
    total += bins[b];
  }
  print_int(total);
  return 0;
}
|}

(** Kernel whose loop carries a true dependence (prefix sum). *)
let prefix_src =
  {|
void prefix(double* a, int n) {
  for (int i = 1; i < n; i++) {
    a[i] = a[i] + a[i - 1];
  }
}

int main() {
  int n = 16;
  double a[n];
  for (int i = 0; i < n; i++) {
    a[i] = 1.0;
  }
  prefix(a, n);
  print_float(a[15]);
  return 0;
}
|}

let run_ok src =
  let p = parse src in
  Minic.Typecheck.check_program p;
  Minic_interp.Eval.run p

(** First line of the program's printed output. *)
let first_output src =
  let r = run_ok src in
  match String.split_on_char '\n' r.output with
  | line :: _ -> line
  | [] -> ""

let float_output src = float_of_string (first_output src)

(* ------------------------------------------------------------------ *)
(* QCheck generators                                                    *)
(* ------------------------------------------------------------------ *)

(** Generator of random well-formed arithmetic expressions over variables
    [x] (double) and [k] (int), used for parser/printer round-trips. *)
let rec gen_expr_depth fuel =
  let open QCheck.Gen in
  if fuel = 0 then
    oneof
      [
        map (fun n -> Minic.Builder.int (abs n mod 1000)) int;
        map
          (fun f -> Minic.Builder.flt (Float.abs (Float.of_int (int_of_float (f *. 100.0))) /. 100.0))
          (float_bound_inclusive 10.0);
        return (Minic.Builder.var "x");
      ]
  else
    frequency
      [
        (2, gen_expr_depth 0);
        ( 3,
          map2
            (fun op (a, b) -> Minic.Builder.binop op a b)
            (oneofl Minic.Ast.[ Add; Sub; Mul ])
            (pair (gen_expr_depth (fuel - 1)) (gen_expr_depth (fuel - 1))) );
        ( 1,
          map
            (fun a -> Minic.Builder.call "sqrt" [ a ])
            (gen_expr_depth (fuel - 1)) );
        (1, map Minic.Builder.neg (gen_expr_depth (fuel - 1)));
      ]

let arb_expr =
  QCheck.make ~print:Minic.Pretty.expr_to_string
    (QCheck.Gen.sized_size (QCheck.Gen.int_bound 4) gen_expr_depth)

(** Wrap an expression into a complete program that evaluates it. *)
let program_of_expr e =
  let open Minic.Builder in
  program
    [
      func "main" ~ret:Minic.Ast.Tint []
        [
          decl Minic.Ast.Tdouble "x" ~init:(flt 1.5);
          decl Minic.Ast.Tdouble "r" ~init:e;
          call_stmt "print_float" [ var "r" ];
          return_ (int 0);
        ];
    ]

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

(* ------------------------------------------------------------------ *)
(* Kernel-function fixtures                                             *)
(* ------------------------------------------------------------------ *)

(** Node id of the outermost loop of function [f]: the loop a
    hand-written or extracted kernel function wraps. *)
let kernel_loop (p : Minic.Ast.program) f =
  (List.hd Artisan.Query.(stmts_in ~where:(is_for &&& is_outermost_loop) p f))
    .stmt
    .sid

(** The feature vector of kernel function [kernel] of [p], from the
    profiling run of [p] tracking the kernel's loop. *)
let features p ~kernel =
  Analysis.Features.analyze ~source:p ~loop_sid:(kernel_loop p kernel) p
    ~kernel

(** Data in/out and alias records of kernel function [kernel] of [p],
    projected from the profiling run of [p] tracking the kernel's loop. *)
let data_inout p ~kernel =
  let loop_sid = kernel_loop p kernel in
  Analysis.Data_inout.of_fused (Analysis.Hotspot.fused ~loop_sid p) ~loop_sid
    ~kernel

let alias p ~kernel =
  let loop_sid = kernel_loop p kernel in
  Analysis.Alias.of_fused (Analysis.Hotspot.fused ~loop_sid p) ~loop_sid ~kernel

(* ------------------------------------------------------------------ *)
(* A fixed variant schedule                                            *)
(* ------------------------------------------------------------------ *)

(** Three cold inline kernels, each submitted once with default
    parameters (phase A of the schedule [test_memo] pins exactly). *)
let variant_colds =
  List.init 3 (fun i ->
      Flow_service.Protocol.submission
        (Flow_service.Protocol.Inline
           (Flow_load.Workload.kernel_source (3_000_000 + i))))

(** Every {!Flow_load.Workload.variant_params} entry for each of the
    three kernels, source by source (phase B): 36 distinct store keys
    that share each source's stage-memo keys. *)
let variant_batch =
  List.concat_map
    (fun (cold : Flow_service.Protocol.submission) ->
      List.map
        (fun (mode, strategy, x_threshold, budget) ->
          Flow_service.Protocol.submission ~mode ~strategy ~x_threshold
            ?budget cold.source)
        Flow_load.Workload.variant_params)
    variant_colds

(** Report and data-JSON bytes of one sequential execution. *)
let exec_bytes sub =
  match Flow_service.Flow_exec.resolve sub with
  | Error e -> failwith (Flow_service.Protocol.error_message e)
  | Ok r ->
      let res = r.run ~request_id:None () in
      ( res.Flow_service.Protocol.report,
        Flow_service.Json.to_string res.Flow_service.Protocol.data )

(** [exec_bytes] with the stage memo switched off: the reference a
    memoized result must equal byte for byte. *)
let memo_off_bytes sub =
  Flow_memo.set_globally_enabled false;
  Fun.protect ~finally:(fun () -> Flow_memo.set_globally_enabled true)
  @@ fun () -> exec_bytes sub
