(** Tests for the Artisan-analog meta-programming layer: the query engine,
    instrumentation by node id, and the rewriting primitives. *)

open Artisan
open Minic

let parse = Minic.Parser.parse_program

let nested_src =
  {|
void knl(double* a, int n) {
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < 4; j++) {
      a[i] += (double)j;
    }
  }
}

int main() {
  double a[8];
  for (int i = 0; i < 8; i++) {
    a[i] = 0.0;
  }
  knl(a, 8);
  while (a[0] < 0.0) {
    a[0] += 1.0;
  }
  return 0;
}
|}

let query_tests =
  [
    Alcotest.test_case "all for loops found" `Quick (fun () ->
        let p = parse nested_src in
        Alcotest.(check int) "3 for loops" 3
          (List.length Query.(stmts ~where:is_for p)));
    Alcotest.test_case "while loops found" `Quick (fun () ->
        let p = parse nested_src in
        Alcotest.(check int) "1 while" 1
          (List.length Query.(stmts ~where:is_while p)));
    Alcotest.test_case "the paper's Fig. 2 query: outermost loops of a kernel"
      `Quick (fun () ->
        let p = parse nested_src in
        let ms =
          Query.(
            stmts
              ~where:(is_for &&& in_function "knl" &&& is_outermost_loop)
              p)
        in
        Alcotest.(check int) "exactly the i loop" 1 (List.length ms);
        match (List.hd ms).stmt.snode with
        | Ast.For (h, _) -> Alcotest.(check string) "index" "i" h.index
        | _ -> Alcotest.fail "not a for");
    Alcotest.test_case "innermost loop predicate" `Quick (fun () ->
        let p = parse nested_src in
        let ms =
          Query.(stmts_in ~where:(is_for &&& is_innermost_loop) p "knl")
        in
        Alcotest.(check int) "only the j loop" 1 (List.length ms);
        match (List.hd ms).stmt.snode with
        | Ast.For (h, _) -> Alcotest.(check string) "index" "j" h.index
        | _ -> Alcotest.fail "not a for");
    Alcotest.test_case "loop depth and enclosure" `Quick (fun () ->
        let p = parse nested_src in
        let inner =
          List.hd Query.(stmts_in ~where:(is_for &&& is_innermost_loop) p "knl")
        in
        Alcotest.(check int) "depth 1" 1 (Query.loop_depth inner);
        Alcotest.(check bool) "enclosed" true (Query.enclosed_by_loop inner));
    Alcotest.test_case "combinators: not and or" `Quick (fun () ->
        let p = parse nested_src in
        let loops = Query.(stmts ~where:is_loop p) in
        let fors = Query.(stmts ~where:is_for p) in
        let whiles = Query.(stmts ~where:is_while p) in
        Alcotest.(check int) "for + while = loop"
          (List.length loops)
          (List.length fors + List.length whiles);
        let not_loops = Query.(stmts ~where:(not_ is_loop) p) in
        let all = Query.stmts p in
        Alcotest.(check int) "complement"
          (List.length all)
          (List.length loops + List.length not_loops));
    Alcotest.test_case "fixed bound predicate" `Quick (fun () ->
        let p = parse nested_src in
        let fixed = Query.(stmts_in ~where:has_fixed_bound p "knl") in
        Alcotest.(check int) "only j loop is fixed" 1 (List.length fixed));
    Alcotest.test_case "expression query: calls" `Quick (fun () ->
        let p = parse Helpers.kernel_src in
        let calls = Query.exprs ~where:(Query.is_call ~name:"exp") p in
        Alcotest.(check int) "one exp call" 1 (List.length calls));
    Alcotest.test_case "callees of main" `Quick (fun () ->
        let p = parse Helpers.kernel_src in
        let cs = Query.callees p "main" in
        Alcotest.(check bool) "calls work" true (List.mem "work" cs);
        Alcotest.(check bool) "calls rand01" true (List.mem "rand01" cs));
    Alcotest.test_case "double literal query" `Quick (fun () ->
        let p = parse "int main() { float x = 1.5f; double y = 2.5; return 0; }" in
        Alcotest.(check int) "one double literal" 1
          (List.length (Query.exprs ~where:Query.is_double_literal p)));
  ]

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

let first_loop p fname =
  (List.hd Query.(stmts_in ~where:is_for p fname)).Query.stmt

let instrument_tests =
  [
    Alcotest.test_case "insert_before places statement" `Quick (fun () ->
        let p = parse Helpers.kernel_src in
        let loop = first_loop p "work" in
        let marker = Builder.call_stmt "print_int" [ Builder.int 42 ] in
        let p' = Instrument.insert_before ~target:loop.sid marker p in
        let f = Ast.find_func p' "work" in
        (match f.fbody with
        | { snode = Ast.Expr_stmt _; _ } :: { snode = Ast.For _; _ } :: _ -> ()
        | _ -> Alcotest.fail "marker not before loop");
        Alcotest.(check bool) "ids still unique" false
          (Ast.has_duplicate_ids p'));
    Alcotest.test_case "insert_after places statement" `Quick (fun () ->
        let p = parse Helpers.kernel_src in
        let loop = first_loop p "work" in
        let marker = Builder.call_stmt "print_int" [ Builder.int 42 ] in
        let p' = Instrument.insert_after ~target:loop.sid marker p in
        let f = Ast.find_func p' "work" in
        match List.rev f.fbody with
        | { snode = Ast.Expr_stmt _; _ } :: _ -> ()
        | _ -> Alcotest.fail "marker not after loop");
    Alcotest.test_case "replace deletes with empty list" `Quick (fun () ->
        let p = parse Helpers.kernel_src in
        let loop = first_loop p "work" in
        let p' = Instrument.replace ~target:loop.sid [] p in
        Alcotest.(check int) "work body empty" 0
          (List.length (Ast.find_func p' "work").fbody));
    Alcotest.test_case "unknown target raises" `Quick (fun () ->
        let p = parse Helpers.kernel_src in
        Alcotest.check_raises "not found" (Instrument.Not_found_id 999999)
          (fun () ->
            ignore
              (Instrument.insert_before ~target:999999
                 (Builder.return_void) p)));
    Alcotest.test_case "add_pragma like Fig. 2's unroll insertion" `Quick
      (fun () ->
        let p = parse Helpers.kernel_src in
        let loop = first_loop p "work" in
        let p' =
          Instrument.add_pragma ~target:loop.sid
            (Builder.pragma "unroll" ~args:[ "4" ])
            p
        in
        let s = Instrument.export p' in
        Alcotest.(check bool) "pragma in source" true
          (Astring_contains.contains s "#pragma unroll 4"));
    Alcotest.test_case "set_pragma replaces same-name pragma" `Quick (fun () ->
        let p = parse Helpers.kernel_src in
        let loop = first_loop p "work" in
        let p' =
          Instrument.set_pragma ~target:loop.sid
            (Builder.pragma "unroll" ~args:[ "2" ]) p
        in
        let p'' =
          Instrument.set_pragma ~target:loop.sid
            (Builder.pragma "unroll" ~args:[ "8" ]) p'
        in
        let s = Instrument.export p'' in
        Alcotest.(check bool) "updated" true
          (Astring_contains.contains s "#pragma unroll 8");
        Alcotest.(check bool) "old factor gone" false
          (Astring_contains.contains s "#pragma unroll 2"));
    Alcotest.test_case "wrap_with_timer is observable" `Quick (fun () ->
        let p = parse Helpers.kernel_src in
        let loop = first_loop p "work" in
        let p' = Instrument.wrap_with_timer ~target:loop.sid ~key:5 p in
        let r = Minic_interp.Eval.run p' in
        Alcotest.(check bool) "timer recorded" true
          (Minic_interp.Profile.timer_total r.profile 5 > 0.0));
    Alcotest.test_case "instrumentation preserves program behaviour" `Quick
      (fun () ->
        let p = parse Helpers.kernel_src in
        let loop = first_loop p "work" in
        let p' = Instrument.wrap_with_timer ~target:loop.sid ~key:1 p in
        let r = Minic_interp.Eval.run p in
        let r' = Minic_interp.Eval.run p' in
        Alcotest.(check string) "same output" r.output r'.output);
    Alcotest.test_case "rename_func updates calls" `Quick (fun () ->
        let p = parse Helpers.kernel_src in
        let p' = Instrument.rename_func ~from:"work" ~into:"kernel0" p in
        Alcotest.(check bool) "new function exists" true
          (Ast.find_func_opt p' "kernel0" <> None);
        Alcotest.(check bool) "old name gone" true
          (Ast.find_func_opt p' "work" = None);
        (* still runs correctly *)
        let r = Minic_interp.Eval.run p' in
        let r0 = Minic_interp.Eval.run p in
        Alcotest.(check string) "same output" r0.output r.output);
    Alcotest.test_case "add_func makes function callable" `Quick (fun () ->
        let p = parse "int main() { helper(); return 0; }" in
        let helper =
          Builder.func "helper" [] [ Builder.call_stmt "print_int" [ Builder.int 9 ] ]
        in
        let p' = Instrument.add_func helper p in
        let r = Minic_interp.Eval.run p' in
        Alcotest.(check string) "prints 9" "9\n" r.output);
  ]

(* ------------------------------------------------------------------ *)
(* Rewriting                                                           *)
(* ------------------------------------------------------------------ *)

let rewrite_tests =
  [
    Alcotest.test_case "map_exprs preserves untouched node ids" `Quick
      (fun () ->
        let p = parse Helpers.kernel_src in
        let ids_before = Ast.all_stmt_ids p in
        let p' = Rewrite.map_exprs (fun e -> e) p in
        Alcotest.(check (list int)) "stmt ids unchanged" ids_before
          (Ast.all_stmt_ids p'));
    Alcotest.test_case "map_exprs rewrites calls" `Quick (fun () ->
        let p = parse Helpers.kernel_src in
        let p' =
          Rewrite.map_exprs
            (fun e ->
              match e.Ast.enode with
              | Ast.Call ("exp", args) -> { e with Ast.enode = Ast.Call ("expf", args) }
              | _ -> e)
            p
        in
        let s = Minic.Pretty.program_to_string p' in
        Alcotest.(check bool) "expf present" true
          (Astring_contains.contains s "expf(");
        Alcotest.(check bool) "exp( gone" false
          (Astring_contains.contains s " exp("));
    Alcotest.test_case "map_exprs_in limits scope to one function" `Quick
      (fun () ->
        let src =
          "void f() { double x = exp(1.0); }\nvoid g() { double y = exp(2.0); }\nint main() { return 0; }"
        in
        let p = parse src in
        let p' =
          Rewrite.map_exprs_in
            (fun e ->
              match e.Ast.enode with
              | Ast.Call ("exp", args) ->
                  { e with Ast.enode = Ast.Call ("expf", args) }
              | _ -> e)
            "f" p
        in
        let f_src = Minic.Pretty.program_to_string { p' with Ast.funcs = [ Ast.find_func p' "f" ] } in
        let g_src = Minic.Pretty.program_to_string { p' with Ast.funcs = [ Ast.find_func p' "g" ] } in
        Alcotest.(check bool) "f rewritten" true
          (Astring_contains.contains f_src "expf(");
        Alcotest.(check bool) "g untouched" false
          (Astring_contains.contains g_src "expf("));
    Alcotest.test_case "map_exprs numbers spliced expressions" `Quick
      (fun () ->
        let p = parse "int main() { int x = 2; print_int(x * 3); return 0; }" in
        let all_ids p =
          let ids = ref [] in
          Ast.iter_program
            ~fs:(fun s -> ids := s.Ast.sid :: !ids)
            ~fe:(fun e -> ids := e.Ast.eid :: !ids)
            p;
          !ids
        in
        let top = List.fold_left max 0 (all_ids p) in
        let p' =
          Rewrite.map_exprs
            (fun e ->
              match e.Ast.enode with
              | Ast.Int_lit 3 -> Parser.parse_expr_string "x + 1"
              | _ -> e)
            p
        in
        let ids = all_ids p' in
        Alcotest.(check bool) "no placeholder" false
          (List.mem Ast.placeholder_id ids);
        Alcotest.(check bool) "no duplicate ids" false (Ast.has_duplicate_ids p');
        Alcotest.(check int) "three new ids above the old" 3
          (List.length (List.filter (fun id -> id > top) ids));
        let r = Minic_interp.Eval.run p' in
        Alcotest.(check string) "prints 2 * (2 + 1)" "6\n" r.output);
    Alcotest.test_case "edit_stmts can duplicate with fresh ids" `Quick
      (fun () ->
        let p = parse "int main() { print_int(1); return 0; }" in
        let p' =
          Rewrite.edit_stmts
            (fun s ->
              match s.Ast.snode with
              | Ast.Expr_stmt _ -> [ s; Rewrite.refresh_stmt s ]
              | _ -> [ s ])
            p
        in
        Alcotest.(check bool) "no duplicate ids" false (Ast.has_duplicate_ids p');
        let r = Minic_interp.Eval.run p' in
        Alcotest.(check string) "prints twice" "1\n1\n" r.output);
    Alcotest.test_case "refresh_stmt gives fresh ids, same meaning" `Quick
      (fun () ->
        let p = parse Helpers.kernel_src in
        let loop = first_loop p "work" in
        let copy = Rewrite.refresh_stmt loop in
        Alcotest.(check bool) "different id" true (copy.sid <> loop.sid);
        Alcotest.(check string) "same source"
          (Minic.Pretty.stmt_to_string loop)
          (Minic.Pretty.stmt_to_string copy));
    Alcotest.test_case "subst_var substitutes everywhere" `Quick (fun () ->
        let e = Minic.Parser.parse_expr_string "x * x + x" in
        let e' =
          Rewrite.subst_var ~name:"x" ~by:(Builder.int 3) e
        in
        Alcotest.(check string) "substituted" "3 * 3 + 3"
          (Minic.Pretty.expr_to_string e'));
    Alcotest.test_case "subst_var leaves other variables" `Quick (fun () ->
        let e = Minic.Parser.parse_expr_string "x + y" in
        let e' = Rewrite.subst_var ~name:"x" ~by:(Builder.int 1) e in
        Alcotest.(check string) "only x" "1 + y" (Minic.Pretty.expr_to_string e'));
    Helpers.qtest ~count:60 "random exprs: identity map preserves printing"
      Helpers.arb_expr (fun e ->
        Minic.Pretty.expr_to_string (Rewrite.map_expr (fun x -> x) e)
        = Minic.Pretty.expr_to_string e);
    Helpers.qtest ~count:60 "random exprs: refresh preserves printing"
      Helpers.arb_expr (fun e ->
        Minic.Pretty.expr_to_string (Rewrite.refresh_expr e)
        = Minic.Pretty.expr_to_string e);
  ]

let () =
  Alcotest.run "meta"
    [
      ("query", query_tests);
      ("instrument", instrument_tests);
      ("rewrite", rewrite_tests);
    ]
