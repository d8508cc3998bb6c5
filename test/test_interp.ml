(** Tests for the MiniC interpreter/profiler: evaluation semantics, the
    virtual-cycle cost model, loop statistics, timers, loop-tracking
    observations and determinism. *)

open Minic_interp

let eval_main body = Helpers.float_output ("int main() {" ^ body ^ "}")

let eval_int body =
  int_of_string (Helpers.first_output ("int main() {" ^ body ^ "}"))

let semantics_tests =
  [
    Alcotest.test_case "integer arithmetic" `Quick (fun () ->
        Alcotest.(check int) "17" 17
          (eval_int "print_int(2 + 3 * 5); return 0;"));
    Alcotest.test_case "float arithmetic" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "2.5" 2.5
          (eval_main "print_float(10.0 / 4.0); return 0;"));
    Alcotest.test_case "modulo" `Quick (fun () ->
        Alcotest.(check int) "2" 2 (eval_int "print_int(17 % 5); return 0;"));
    Alcotest.test_case "comparison and logic" `Quick (fun () ->
        Alcotest.(check int) "1" 1
          (eval_int
             "if (1 < 2 && !(3 <= 2)) { print_int(1); } else { print_int(0); } return 0;"));
    Alcotest.test_case "short-circuit && skips rhs" `Quick (fun () ->
        Alcotest.(check int) "0" 0
          (eval_int
             "int z = 0; if (false && 1 / z == 0) { print_int(1); } else { print_int(0); } return 0;"));
    Alcotest.test_case "short-circuit || skips rhs" `Quick (fun () ->
        Alcotest.(check int) "1" 1
          (eval_int
             "int z = 0; if (true || 1 / z == 0) { print_int(1); } else { print_int(0); } return 0;"));
    Alcotest.test_case "while loop" `Quick (fun () ->
        Alcotest.(check int) "10" 10
          (eval_int "int i = 0; while (i < 10) { i++; } print_int(i); return 0;"));
    Alcotest.test_case "for loop with step" `Quick (fun () ->
        Alcotest.(check int) "20" 20
          (eval_int
             "int s = 0; for (int i = 0; i < 10; i += 2) { s += i; } print_int(s); return 0;"));
    Alcotest.test_case "inclusive for bound" `Quick (fun () ->
        Alcotest.(check int) "55" 55
          (eval_int
             "int s = 0; for (int i = 1; i <= 10; i++) { s += i; } print_int(s); return 0;"));
    Alcotest.test_case "arrays store and load" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "6.0" 6.0
          (eval_main
             "double a[3]; a[0] = 1.0; a[1] = 2.0; a[2] = 3.0; print_float(a[0] + a[1] + a[2]); return 0;"));
    Alcotest.test_case "compound array assignment" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "7.0" 7.0
          (eval_main
             "double a[1]; a[0] = 3.0; a[0] += 4.0; print_float(a[0]); return 0;"));
    Alcotest.test_case "pointer passing mutates caller array" `Quick (fun () ->
        let src =
          {|
void fill(double* a, int n) {
  for (int i = 0; i < n; i++) { a[i] = (double)i; }
}
int main() {
  double a[4];
  fill(a, 4);
  print_float(a[3]);
  return 0;
}
|}
        in
        Alcotest.(check (float 1e-9)) "3.0" 3.0 (Helpers.float_output src));
    Alcotest.test_case "recursion" `Quick (fun () ->
        let src =
          {|
int fact(int n) {
  if (n <= 1) { return 1; }
  return n * fact(n - 1);
}
int main() { print_int(fact(6)); return 0; }
|}
        in
        Alcotest.(check string) "720" "720" (Helpers.first_output src));
    Alcotest.test_case "math builtins" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "3.0" 3.0
          (eval_main "print_float(sqrt(9.0)); return 0;");
        Alcotest.(check (float 1e-6)) "exp(0)=1" 1.0
          (eval_main "print_float(exp(0.0)); return 0;");
        Alcotest.(check (float 1e-9)) "fmax" 4.0
          (eval_main "print_float(fmax(2.0, 4.0)); return 0;"));
    Alcotest.test_case "single-precision variants evaluate" `Quick (fun () ->
        Alcotest.(check (float 1e-6)) "sqrtf" 2.0
          (eval_main "print_float(sqrtf(4.0f)); return 0;"));
    Alcotest.test_case "gpu intrinsics evaluate" `Quick (fun () ->
        Alcotest.(check (float 1e-5)) "__expf(1)" (Float.exp 1.0)
          (eval_main "print_float(__expf(1.0f)); return 0;"));
    Alcotest.test_case "casts" `Quick (fun () ->
        Alcotest.(check int) "3" 3 (eval_int "print_int((int)3.9); return 0;"));
    Alcotest.test_case "globals visible in functions" `Quick (fun () ->
        let src =
          "double g = 2.0;\nvoid bump() { g += 1.0; }\nint main() { bump(); bump(); print_float(g); return 0; }"
        in
        Alcotest.(check (float 1e-9)) "4.0" 4.0 (Helpers.float_output src));
  ]

(* Assignment, parameter binding and [return] convert the value to the
   declared type, as in C: a scalar [=] or compound assignment to an
   int, a compound store into an int array, a float argument bound to
   an int parameter and a float returned from an int function.  Both
   engines: the reference walker and the production VM.  [decls] come
   before [main]. *)
let conversion_case ?(decls = "") (name, body, expected) =
  Alcotest.test_case name `Quick (fun () ->
      let p = Helpers.parse (decls ^ "int main() {" ^ body ^ " return 0; }") in
      Minic.Typecheck.check_program p;
      Alcotest.(check string)
        "walker" expected
        (Eval.run_ir (Resolve.compile p)).output;
      Alcotest.(check string) "vm" expected (Eval.run p).output)

let conversion_tests =
  List.map conversion_case
    [
      ( "= converts a float to an int target",
        "int x = 1; x = 0.5; print_float((double)x);",
        "0\n" );
      ( "+= converts a float result to an int target",
        "int x = 1; x += 0.5; print_float((double)x);",
        "1\n" );
      ( "/= converts a float result to an int element",
        "int b[1]; b[0] = 3; b[0] /= 2.5; print_float((double)b[0]);",
        "1\n" );
    ]
  @ [
      conversion_case ~decls:"double f(int x) { return (double)x; }\n"
        ("a float argument converts to an int parameter",
         "print_float(f(0.5));", "0\n");
      conversion_case ~decls:"int g() { return 0.5; }\n"
        ("return converts a float to an int result", "print_float(g());",
         "0\n");
    ]

let error_tests =
  [
    Alcotest.test_case "out-of-bounds read raises" `Quick (fun () ->
        match
          Helpers.run_ok
            "int main() { double a[2]; print_float(a[5]); return 0; }"
        with
        | exception Value.Runtime_error _ -> ()
        | _ -> Alcotest.fail "expected runtime error");
    Alcotest.test_case "out-of-bounds write raises" `Quick (fun () ->
        match
          Helpers.run_ok "int main() { double a[2]; a[2] = 1.0; return 0; }"
        with
        | exception Value.Runtime_error _ -> ()
        | _ -> Alcotest.fail "expected runtime error");
    Alcotest.test_case "negative index raises" `Quick (fun () ->
        match
          Helpers.run_ok
            "int main() { double a[2]; int i = 0 - 1; a[i] = 1.0; return 0; }"
        with
        | exception Value.Runtime_error _ -> ()
        | _ -> Alcotest.fail "expected runtime error");
    Alcotest.test_case "integer division by zero raises" `Quick (fun () ->
        match
          Helpers.run_ok "int main() { int z = 0; print_int(1 / z); return 0; }"
        with
        | exception Value.Runtime_error _ -> ()
        | _ -> Alcotest.fail "expected runtime error");
    Alcotest.test_case "float division by zero yields inf (C semantics)" `Quick
      (fun () ->
        Alcotest.(check string) "inf" "inf"
          (Helpers.first_output
             "int main() { double z = 0.0; print_float(1.0 / z); return 0; }"));
    Alcotest.test_case "fuel guards against infinite loops" `Quick (fun () ->
        let p =
          Minic.Parser.parse_program
            "int main() { while (true) { } return 0; }"
        in
        match Eval.run ~fuel:10_000 p with
        | exception Value.Runtime_error _ -> ()
        | _ -> Alcotest.fail "expected fuel exhaustion");
    Alcotest.test_case "missing main raises" `Quick (fun () ->
        let p = Minic.Parser.parse_program "void f() { return; }" in
        match Eval.run p with
        | exception Value.Runtime_error _ -> ()
        | _ -> Alcotest.fail "expected runtime error");
    Alcotest.test_case "timer stop without start raises" `Quick (fun () ->
        match Helpers.run_ok "int main() { __timer_stop(1); return 0; }" with
        | exception Value.Runtime_error _ -> ()
        | _ -> Alcotest.fail "expected runtime error");
  ]

let profile_tests =
  [
    Alcotest.test_case "cycles are monotone in work" `Quick (fun () ->
        let cycles body =
          (Helpers.run_ok ("int main() {" ^ body ^ "return 0; }")).profile
            .cycles
        in
        let small =
          cycles
            "double s = 0.0; for (int i = 0; i < 10; i++) { s += sqrt((double)i); }"
        in
        let large =
          cycles
            "double s = 0.0; for (int i = 0; i < 100; i++) { s += sqrt((double)i); }"
        in
        Alcotest.(check bool) "more work costs more" true (large > small *. 5.0));
    Alcotest.test_case "flop counting" `Quick (fun () ->
        let r =
          Helpers.run_ok
            "int main() { double x = 1.5 + 2.5; double y = x * 2.0; return 0; }"
        in
        Alcotest.(check int) "2 flops" 2 r.profile.flops);
    Alcotest.test_case "sfu ops counted for math calls" `Quick (fun () ->
        let r =
          Helpers.run_ok
            "int main() { double x = sqrt(2.0) + exp(1.0); return 0; }"
        in
        Alcotest.(check int) "2 sfu ops" 2 r.profile.sfu_ops);
    Alcotest.test_case "byte accounting by element type" `Quick (fun () ->
        let r =
          Helpers.run_ok
            "int main() { double a[2]; int b[2]; a[0] = 1.0; b[0] = 1; double x = a[0]; int y = b[0]; return 0; }"
        in
        Alcotest.(check int) "writes: 8 + 4" 12 r.profile.bytes_written;
        Alcotest.(check int) "reads: 8 + 4" 12 r.profile.bytes_read);
    Alcotest.test_case "loop stats: trips and invocations" `Quick (fun () ->
        let p =
          Minic.Parser.parse_program
            {|
int main() {
  for (int i = 0; i < 3; i++) {
    for (int j = 0; j < 5; j++) {
      int x = i * j;
    }
  }
  return 0;
}
|}
        in
        let r = Eval.run p in
        let stats =
          Hashtbl.fold (fun _ s acc -> s :: acc) r.profile.loops []
          |> List.sort (fun (a : Profile.loop_stat) b ->
                 compare a.iterations b.iterations)
        in
        match stats with
        | [ outer; inner ] ->
            Alcotest.(check int) "outer iterations" 3 outer.iterations;
            Alcotest.(check int) "outer invocations" 1 outer.invocations;
            Alcotest.(check int) "inner iterations" 15 inner.iterations;
            Alcotest.(check int) "inner invocations" 3 inner.invocations;
            Alcotest.(check int) "inner min trip" 5 inner.min_trip;
            Alcotest.(check int) "inner max trip" 5 inner.max_trip
        | _ -> Alcotest.fail "expected two loops");
    Alcotest.test_case "timers bracket the timed region" `Quick (fun () ->
        let src =
          {|
int main() {
  __timer_start(7);
  double s = 0.0;
  for (int i = 0; i < 50; i++) { s += sqrt((double)i); }
  __timer_stop(7);
  return 0;
}
|}
        in
        let r = Helpers.run_ok src in
        let t = Profile.timer_total r.profile 7 in
        Alcotest.(check bool) "timer > 0" true (t > 0.0);
        Alcotest.(check bool) "timer <= total" true (t <= r.profile.cycles));
    Alcotest.test_case "timers_by_cost sorts descending" `Quick (fun () ->
        let src =
          {|
int main() {
  __timer_start(1);
  for (int i = 0; i < 5; i++) { double x = sqrt((double)i); }
  __timer_stop(1);
  __timer_start(2);
  for (int i = 0; i < 500; i++) { double x = sqrt((double)i); }
  __timer_stop(2);
  return 0;
}
|}
        in
        let r = Helpers.run_ok src in
        match Profile.timers_by_cost r.profile with
        | (2, _) :: (1, _) :: _ -> ()
        | _ -> Alcotest.fail "expected timer 2 first");
    Alcotest.test_case "determinism: identical runs, identical profiles" `Quick
      (fun () ->
        let r1 = Helpers.run_ok Helpers.vec_scale_src in
        let r2 = Helpers.run_ok Helpers.vec_scale_src in
        Alcotest.(check string) "same output" r1.output r2.output;
        Alcotest.(check (float 0.0)) "same cycles" r1.profile.cycles
          r2.profile.cycles);
    Alcotest.test_case "rand01 stays in [0,1)" `Quick (fun () ->
        let src =
          {|
int main() {
  double mn = 1.0;
  double mx = 0.0;
  for (int i = 0; i < 1000; i++) {
    double r = rand01();
    mn = fmin(mn, r);
    mx = fmax(mx, r);
  }
  print_float(mn);
  print_float(mx);
  return 0;
}
|}
        in
        let r = Helpers.run_ok src in
        match String.split_on_char '\n' r.output with
        | mn :: mx :: _ ->
            Alcotest.(check bool) "min >= 0" true (float_of_string mn >= 0.0);
            Alcotest.(check bool) "max < 1" true (float_of_string mx < 1.0)
        | _ -> Alcotest.fail "expected two outputs");
  ]

(* Loop tracking: [loop_obs ~index ~args src] runs [src] tracking the
   first loop of [main] over index [index], with [args] as the pointer
   arguments of the kernel extraction would make of it, and returns the
   run and that loop's observations. *)
let loop_obs ~index ~args src =
  let p = Helpers.parse src in
  Minic.Typecheck.check_program p;
  let sid =
    (List.find
       (fun (m : Artisan.Query.match_ctx) ->
         match m.stmt.snode with
         | Minic.Ast.For (h, _) -> h.index = index
         | _ -> false)
       (Artisan.Query.stmts_in p "main"))
      .stmt
      .sid
  in
  let r = Minic_interp.Eval.run ~track:[ (sid, args) ] p in
  (r, Minic_interp.Profile.kernel_obs r.profile sid)

(* [Helpers.kernel_src] with the kernel's loop inlined into [main]. *)
let inline_kernel_src =
  {|
int main() {
  int n = 32;
  double a[n];
  double b[n];
  for (int i = 0; i < n; i++) {
    a[i] = rand01();
  }
  for (int k = 0; k < n; k++) {
    b[k] = exp(a[k]) + 0.5;
  }
  double s = 0.0;
  for (int i = 0; i < n; i++) {
    s += b[i];
  }
  print_float(s);
  return 0;
}
|}

let focus_tests =
  [
    Alcotest.test_case "kernel observations collected" `Quick (fun () ->
        let r, k = loop_obs ~index:"k" ~args:[ "a"; "b" ] inline_kernel_src in
        match k with
        | None -> Alcotest.fail "no kernel obs"
        | Some k ->
            Alcotest.(check int) "one call" 1 k.calls;
            Alcotest.(check bool) "kernel cycles positive" true
              (k.k_cycles > 0.0);
            Alcotest.(check bool) "kernel cycles below total" true
              (k.k_cycles < r.profile.cycles));
    Alcotest.test_case "data in/out classification" `Quick (fun () ->
        match snd (loop_obs ~index:"k" ~args:[ "a"; "b" ] inline_kernel_src) with
        | Some k ->
            let a = k.args.(0) and b = k.args.(1) in
            Alcotest.(check string) "arg a" "a" a.arg_name;
            Alcotest.(check int) "a bytes in" (32 * 8) a.bytes_in;
            Alcotest.(check int) "a bytes out" 0 a.bytes_out;
            Alcotest.(check int) "b bytes in" 0 b.bytes_in;
            Alcotest.(check int) "b bytes out" (32 * 8) b.bytes_out
        | None -> Alcotest.fail "no kernel obs");
    Alcotest.test_case "read-modify-write counts as in and out" `Quick
      (fun () ->
        let src =
          {|
int main() {
  double a[8];
  for (int i = 0; i < 8; i++) { a[i] += 1.0; }
  print_float(a[0]);
  return 0;
}
|}
        in
        match snd (loop_obs ~index:"i" ~args:[ "a" ] src) with
        | Some k ->
            Alcotest.(check int) "in" 64 k.args.(0).bytes_in;
            Alcotest.(check int) "out" 64 k.args.(0).bytes_out
        | None -> Alcotest.fail "no kernel obs");
    Alcotest.test_case "write-before-read is out-only" `Quick (fun () ->
        let src =
          {|
int main() {
  double a[8];
  for (int i = 0; i < 8; i++) {
    a[i] = 2.0;
    double x = a[i];
  }
  return 0;
}
|}
        in
        match snd (loop_obs ~index:"i" ~args:[ "a" ] src) with
        | Some k ->
            Alcotest.(check int) "no transfer in" 0 k.args.(0).bytes_in;
            Alcotest.(check int) "out" 64 k.args.(0).bytes_out
        | None -> Alcotest.fail "no kernel obs");
    Alcotest.test_case "per-call accumulation across invocations" `Quick
      (fun () ->
        let src =
          {|
int main() {
  double a[4];
  for (int t = 0; t < 3; t++) {
    for (int i = 0; i < 4; i++) { double x = a[i]; }
  }
  return 0;
}
|}
        in
        match snd (loop_obs ~index:"i" ~args:[ "a" ] src) with
        | Some k ->
            Alcotest.(check int) "3 calls" 3 k.calls;
            Alcotest.(check int) "in accumulates per call" (3 * 32)
              k.args.(0).bytes_in
        | None -> Alcotest.fail "no kernel obs");
    Alcotest.test_case "touched ranges recorded" `Quick (fun () ->
        let src =
          {|
int main() {
  double a[10];
  for (int i = 2; i < 5; i++) { a[i] = 1.0; }
  return 0;
}
|}
        in
        match snd (loop_obs ~index:"i" ~args:[ "a" ] src) with
        | Some k -> (
            match k.args.(0).regions_touched with
            | [ (_, lo, hi) ] ->
                Alcotest.(check int) "lo" 2 lo;
                Alcotest.(check int) "hi" 4 hi
            | _ -> Alcotest.fail "expected one region")
        | None -> Alcotest.fail "no kernel obs");
    Alcotest.test_case "aliased arguments share first-access state" `Quick
      (fun () ->
        (* one array tracked under two argument names: its transfers
           attribute to the first, its touched range to both *)
        let src =
          {|
int main() {
  double a[6];
  for (int i = 0; i < 6; i++) { a[i] = a[i] * 2.0; }
  return 0;
}
|}
        in
        match snd (loop_obs ~index:"i" ~args:[ "a"; "a" ] src) with
        | Some k ->
            Alcotest.(check int) "first in" 48 k.args.(0).bytes_in;
            Alcotest.(check int) "first out" 48 k.args.(0).bytes_out;
            Alcotest.(check int) "second in" 0 k.args.(1).bytes_in;
            Alcotest.(check int) "second out" 0 k.args.(1).bytes_out;
            Alcotest.(check bool) "same range" true
              (k.args.(0).regions_touched = k.args.(1).regions_touched)
        | None -> Alcotest.fail "no kernel obs");
    Alcotest.test_case "regions allocated inside the loop are not tracked"
      `Quick (fun () ->
        let src =
          {|
int main() {
  double a[4];
  for (int i = 0; i < 4; i++) {
    double tmp[2];
    tmp[0] = a[i];
    a[i] = tmp[0] + 1.0;
  }
  return 0;
}
|}
        in
        match snd (loop_obs ~index:"i" ~args:[ "a" ] src) with
        | Some k ->
            Alcotest.(check int) "in" 32 k.args.(0).bytes_in;
            Alcotest.(check int) "out" 32 k.args.(0).bytes_out;
            Alcotest.(check int) "one region" 1
              (List.length k.args.(0).regions_touched);
            Alcotest.(check int) "loop bytes count every access"
              ((4 * 8) + (4 * 8) + (4 * 8) + (4 * 8))
              (k.k_bytes_read + k.k_bytes_written)
        | None -> Alcotest.fail "no kernel obs");
    Alcotest.test_case "a tracked loop inside another is not observed" `Quick
      (fun () ->
        (* tracked loops must not nest: the inner one, entered while the
           outer is active, gets no record, and the outer's record is
           the one it gets tracked alone *)
        let src =
          {|
int main() {
  double a[4];
  for (int t = 0; t < 3; t++) {
    for (int i = 0; i < 4; i++) { a[i] = a[i] + 1.0; }
  }
  return 0;
}
|}
        in
        let p = Helpers.parse src in
        let sid index =
          (List.find
             (fun (m : Artisan.Query.match_ctx) ->
               match m.stmt.snode with
               | Minic.Ast.For (h, _) -> h.index = index
               | _ -> false)
             (Artisan.Query.stmts_in p "main"))
            .stmt
            .sid
        in
        let outer = (sid "t", [ "a" ]) and inner = (sid "i", [ "a" ]) in
        let both = Eval.run ~track:[ outer; inner ] p in
        let alone = Eval.run ~track:[ outer ] p in
        Alcotest.(check bool) "inner not observed" true
          (Profile.kernel_obs both.profile (sid "i") = None);
        Alcotest.(check bool) "outer as if tracked alone" true
          (Profile.kernel_obs both.profile (sid "t")
          = Profile.kernel_obs alone.profile (sid "t")));
  ]

(* Tracked fused kernels: with a specialized loop tracked, the VM's
   observations equal the reference walker's — the loop's kernel record
   (calls, cycles, counters, each argument's touched ranges and
   transfers) and its loop window — and [interp_bulk_cycles] says which
   path ran: the fused micro-program charges the loop in bulk, a kernel
   that declines runs the generic loop and charges nothing in bulk.
   [index] names the loop of function [func]; [args] are its pointer
   arguments.  Other loops of the program that lower to kernels (the
   [rand01] init loops) charge their windows in bulk too, and are
   subtracted.  A tracked loop can also hold kernels ([Inner]): then
   every one of its invocations tracks a series of kernel runs, each
   against the first-access state the runs and generic accesses before
   it left, and the run charges some cycles in bulk. *)
type kpath = Fused | Declined | Inner

let bulk_cycles () =
  match
    Flow_obs.Metrics.histogram_summary Flow_obs.Metrics.global
      "interp_bulk_cycles"
  with
  | Some s -> (s.s_count, s.s_sum)
  | None -> (0, 0.0)

let tracked_kernel_case (name, func, index, args, path, src) =
  Alcotest.test_case name `Quick (fun () ->
      let p = Helpers.parse src in
      Minic.Typecheck.check_program p;
      let sid =
        (List.find
           (fun (m : Artisan.Query.match_ctx) ->
             match m.stmt.snode with
             | Minic.Ast.For (h, _) -> h.index = index
             | _ -> false)
           (Artisan.Query.stmts_in p func))
          .stmt
          .sid
      in
      let track = [ (sid, args) ] in
      let n0, c0 = bulk_cycles () in
      let vm = Eval.run ~track p in
      let n1, c1 = bulk_cycles () in
      let walker = Eval.run_ir ~track (Resolve.compile p) in
      let obs (r : Eval.run) = Profile.kernel_obs r.profile sid in
      let stat (r : Eval.run) = Profile.loop_stat_opt r.profile sid in
      (* the windows of the other loops that lower to kernels *)
      let others =
        Array.fold_left
          (fun acc (l, d) ->
            match (d, Profile.loop_stat_opt vm.profile l) with
            | None, Some s when l <> sid -> acc +. s.Profile.cycles
            | _ -> acc)
          0.0
          (Bytecode.lower (Resolve.compile p)).Bytecode.bc_decisions
      in
      Alcotest.(check bool) "kernel record = walker's" true (obs vm = obs walker);
      Alcotest.(check bool) "loop stat = walker's" true (stat vm = stat walker);
      (match (obs vm, stat vm) with
      | Some k, Some s ->
          Alcotest.(check int) "calls = invocations" s.invocations k.calls;
          Alcotest.(check (float 0.0)) "kernel cycles = loop window" s.cycles
            k.k_cycles;
          (match path with
          | Fused ->
              Alcotest.(check int) "fused: one bulk-charged run" (n0 + 1) n1;
              Alcotest.(check (float 1e-6)) "fused: the loop charged in bulk"
                k.k_cycles (c1 -. c0 -. others)
          | Inner ->
              Alcotest.(check int) "inner kernels: one bulk-charged run" (n0 + 1)
                n1
          | Declined ->
              Alcotest.(check (float 1e-6)) "declined: nothing charged in bulk"
                0.0 (c1 -. c0 -. others))
      | _ -> Alcotest.fail "loop not observed");
      Alcotest.(check string) "output" walker.output vm.output)

let tracked_kernel_tests =
  List.map tracked_kernel_case
    [
      ( "read-only sites sharing a region",
        "main",
        "k",
        [ "x"; "y" ],
        Fused,
        {|
int main() {
  int n = 16;
  double x[n];
  double y[n];
  for (int i = 0; i < n; i++) { x[i] = rand01(); }
  for (int k = 0; k < n - 1; k++) { y[k] = x[k] + 0.5 * x[k + 1]; }
  print_float(y[3]);
  return 0;
}
|} );
      ( "zero-stride accumulator",
        "main",
        "k",
        [ "a"; "s" ],
        Fused,
        {|
int main() {
  int n = 16;
  double a[n];
  double s[1];
  for (int i = 0; i < n; i++) { a[i] = rand01(); }
  for (int k = 0; k < n; k++) { s[0] += a[k]; }
  print_float(s[0]);
  return 0;
}
|} );
      ( "aliased pointer arguments",
        "f",
        "k",
        [ "p"; "q"; "r" ],
        Fused,
        {|
void f(double* p, double* q, double* r, int n) {
  for (int k = 0; k < n; k++) { r[k] = p[k] * q[k]; }
}
int main() {
  int n = 16;
  double a[n];
  double b[n];
  for (int i = 0; i < n; i++) { a[i] = rand01(); }
  f(a, a, b, n);
  f(b, b, a, n - 4);
  print_float(a[3] + b[5]);
  return 0;
}
|} );
      ( "empty kernel",
        "main",
        "k",
        [ "a"; "b" ],
        Declined,
        {|
int main() {
  int n = 8;
  int m = 0;
  double a[n];
  double b[n];
  for (int i = 0; i < n; i++) { a[i] = rand01(); }
  for (int k = 0; k < m; k++) { b[k] = 2.0 * a[k]; }
  print_float(b[0]);
  return 0;
}
|} );
      ( "two store sites on one region decline",
        "main",
        "k",
        [ "a"; "b" ],
        Declined,
        {|
int main() {
  int n = 16;
  double a[n];
  double b[n + 1];
  for (int i = 0; i < n; i++) { a[i] = rand01(); }
  for (int k = 0; k < n; k++) {
    b[k + 1] = 2.0 * a[k];
    b[k] = a[k] + 1.0;
  }
  print_float(b[7]);
  return 0;
}
|} );
      ( "a load and a store at different offsets of one region decline",
        "main",
        "k",
        [ "a"; "b" ],
        Declined,
        {|
int main() {
  int n = 16;
  double a[n];
  double b[n + 1];
  for (int i = 0; i < n; i++) { a[i] = rand01(); }
  for (int k = 0; k < n; k++) { b[k + 1] = b[k] * 0.5 + a[k]; }
  print_float(b[7]);
  return 0;
}
|} );
      ( "load and store of one element, one tracking site",
        "main",
        "k",
        [ "a"; "b" ],
        Fused,
        {|
int main() {
  int n = 16;
  double a[n];
  double b[n];
  for (int i = 0; i < n; i++) { a[i] = rand01(); b[i] = rand01(); }
  for (int k = 0; k < n; k++) { a[k] = a[k] * 2.0 + b[k]; }
  print_float(a[3]);
  return 0;
}
|} );
      ( "overlapping kernel ranges on one region",
        "main",
        "t",
        [ "a"; "b" ],
        Inner,
        {|
int main() {
  int n = 24;
  double a[n];
  double b[n];
  for (int i = 0; i < n; i++) { a[i] = rand01(); }
  for (int t = 0; t < 5; t++) {
    for (int k = 2 * t; k < 2 * t + 6; k++) { b[k] = a[k] * 0.5 + a[k + 1]; }
  }
  print_float(b[3] + b[9]);
  return 0;
}
|} );
      ( "adjacent and disjoint kernel ranges on one region",
        "main",
        "t",
        [ "a"; "b" ],
        Inner,
        {|
int main() {
  int n = 48;
  double a[n];
  double b[n];
  for (int i = 0; i < n; i++) { a[i] = rand01(); }
  for (int t = 0; t < 4; t++) {
    for (int k = 4 * t; k < 4 * t + 4; k++) { b[k] += a[k]; }
    for (int k = 9 * t + 10; k < 9 * t + 13; k++) { b[k] = a[k] - 1.0; }
  }
  print_float(b[3] + b[12] + b[40]);
  return 0;
}
|} );
      ( "reversed kernel ranges (stride -1)",
        "main",
        "t",
        [ "a"; "b" ],
        Inner,
        {|
int main() {
  int n = 24;
  double a[n];
  double b[n];
  for (int i = 0; i < n; i++) { a[i] = rand01(); }
  for (int t = 0; t < 4; t++) {
    for (int k = t; k < t + 7; k++) { b[n - 1 - k] = a[n - 2 - k] * 2.0; }
    for (int k = 0; k < 5; k++) { b[12 - k] += a[k + t]; }
  }
  print_float(b[3] + b[20]);
  return 0;
}
|} );
      ( "stride-2 and stride-0 sites",
        "main",
        "t",
        [ "a"; "b"; "s" ],
        Inner,
        {|
int main() {
  int n = 32;
  double a[n];
  double b[n];
  double s[2];
  for (int i = 0; i < n; i++) { a[i] = rand01(); }
  for (int t = 0; t < 4; t++) {
    for (int k = t; k < t + 6; k++) {
      b[2 * k] = a[2 * k + 1] + a[t];
      s[1] += a[k];
    }
  }
  print_float(b[4] + s[1]);
  return 0;
}
|} );
      ( "per-access generic accesses between kernel runs",
        "main",
        "t",
        [ "a"; "b"; "c" ],
        Inner,
        {|
int main() {
  int n = 24;
  double a[n];
  double b[n];
  double c[n];
  for (int i = 0; i < n; i++) { a[i] = rand01(); }
  for (int t = 0; t < 5; t++) {
    b[3 * t] = a[t + 2] + 1.0;
    for (int k = t; k < t + 6; k++) { b[k] += a[k] * 0.5; }
    c[t] = b[t + 4] + a[t + 9];
    a[t + 1] = c[t];
  }
  print_float(b[5] + c[2] + a[3]);
  return 0;
}
|} );
      ( "stores after reads, and written ranges one element apart",
        "main",
        "t",
        [ "a"; "b"; "c"; "d" ],
        Inner,
        {|
int main() {
  int n = 24;
  double a[n];
  double b[n];
  double c[n];
  double d[n];
  for (int i = 0; i < n; i++) { a[i] = rand01(); b[i] = rand01(); }
  for (int t = 0; t < 4; t++) {
    for (int k = 4 * t; k < 4 * t + 6; k++) { d[k] = b[k] * 0.5; }
    for (int k = 4 * t; k < 4 * t + 3; k++) { b[k] = a[k] + 1.0; }
    for (int k = 3 * t; k < 3 * t + 2; k++) { c[k] = a[k] * 2.0; }
    for (int k = t; k < t + 2; k++) { c[k] = a[k] - 1.0; }
  }
  print_float(b[2] + c[2] + d[7]);
  return 0;
}
|} );
      ( "two pointer arguments aliasing one region across kernel runs",
        "f",
        "t",
        [ "p"; "q"; "r" ],
        Inner,
        {|
void f(double* p, double* q, double* r, int n) {
  for (int t = 0; t < 3; t++) {
    for (int k = t; k < n - 3; k++) { r[k] = p[k] * q[k + t]; }
  }
}
int main() {
  int n = 16;
  double a[n];
  double b[n];
  for (int i = 0; i < n; i++) { a[i] = rand01(); }
  f(a, a, b, n);
  f(b, b, a, n - 2);
  print_float(a[3] + b[5]);
  return 0;
}
|} );
    ]

let () =
  Alcotest.run "interp"
    [
      ("semantics", semantics_tests);
      ("convert", conversion_tests);
      ("errors", error_tests);
      ("profile", profile_tests);
      ("focus", focus_tests);
      ("tracking", tracked_kernel_tests);
    ]
