(** Tests for the MiniC language substrate: lexer, parser, pretty-printer
    round-trips, type checker, builtins and LOC accounting. *)

open Minic

let check_tokens src expected () =
  let toks = Lexer.tokenize src |> List.map fst in
  Alcotest.(check int) "token count" (List.length expected) (List.length toks);
  List.iter2
    (fun a b -> Alcotest.(check bool) (Token.describe a) true (a = b))
    expected toks

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let lexer_tests =
  [
    Alcotest.test_case "keywords and idents" `Quick
      (check_tokens "int foo while"
         Token.[ KW_INT; IDENT "foo"; KW_WHILE; EOF ]);
    Alcotest.test_case "integer literal" `Quick
      (check_tokens "42" Token.[ INT_LIT 42; EOF ]);
    Alcotest.test_case "double literal" `Quick
      (check_tokens "3.25" Token.[ FLOAT_LIT (3.25, Ast.Double); EOF ]);
    Alcotest.test_case "single-precision literal" `Quick
      (check_tokens "3.25f" Token.[ FLOAT_LIT (3.25, Ast.Single); EOF ]);
    Alcotest.test_case "scientific literal" `Quick
      (check_tokens "1.5e3" Token.[ FLOAT_LIT (1500.0, Ast.Double); EOF ]);
    Alcotest.test_case "compound operators" `Quick
      (check_tokens "+= -= *= /= ++ -- == != <= >= && ||"
         Token.[
           PLUS_EQ; MINUS_EQ; STAR_EQ; SLASH_EQ; PLUS_PLUS; MINUS_MINUS;
           EQ_EQ; NE; LE; GE; AMP_AMP; BAR_BAR; EOF ]);
    Alcotest.test_case "line comments skipped" `Quick
      (check_tokens "1 // comment here\n2" Token.[ INT_LIT 1; INT_LIT 2; EOF ]);
    Alcotest.test_case "block comments skipped" `Quick
      (check_tokens "1 /* a \n b */ 2" Token.[ INT_LIT 1; INT_LIT 2; EOF ]);
    Alcotest.test_case "pragma captured as one token" `Quick
      (check_tokens "#pragma omp parallel for\nint"
         Token.[ PRAGMA [ "omp"; "parallel"; "for" ]; KW_INT; EOF ]);
    Alcotest.test_case "locations track lines" `Quick (fun () ->
        let toks = Lexer.tokenize "int\nfoo" in
        let _, loc2 = List.nth toks 1 in
        Alcotest.(check int) "line of foo" 2 loc2.Loc.line);
    Alcotest.test_case "unterminated comment raises" `Quick (fun () ->
        match Lexer.tokenize "1 /* oops" with
        | exception Lexer.Lex_error (msg, _) ->
            Alcotest.(check string) "message" "unterminated block comment" msg
        | _ -> Alcotest.fail "expected a lex error");
    Alcotest.test_case "unexpected character raises" `Quick (fun () ->
        match Lexer.tokenize "a $ b" with
        | exception Lexer.Lex_error _ -> ()
        | _ -> Alcotest.fail "expected a lex error");
  ]
  @ List.map
      (fun (lit, msg) ->
        (* each used to escape as [Failure] from the stdlib conversion *)
        Alcotest.test_case ("malformed literal " ^ lit ^ " raises") `Quick
          (fun () ->
            match
              Parser.parse_program
                ("int main() {\n  double x = " ^ lit ^ ";\n  return 0;\n}")
            with
            | exception Lexer.Lex_error (m, loc) ->
                Alcotest.(check string) "message" msg m;
                Alcotest.(check (pair int int))
                  "at the literal" (2, 13) (loc.Loc.line, loc.Loc.col)
            | _ -> Alcotest.fail "expected a lex error"))
      [
        ("1e", "malformed exponent in number literal '1e'");
        ("1.5e+", "malformed exponent in number literal '1.5e+'");
        ("2.0ef", "malformed exponent in number literal '2.0e'");
        ( "9223372036854775808",
          "integer literal out of range '9223372036854775808'" );
      ]

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let parse_main_body src =
  let p = Parser.parse_program ("int main() {" ^ src ^ "}") in
  (Ast.find_func p "main").fbody

(* The text a parse error names the offending token with, for every
   token the lexer makes: a literal, an identifier, each keyword and
   punctuation token, a pragma line and the end of input.  A token that
   cannot start a top-level declaration fails there; a type keyword
   fails after a global's name. *)
let parse_error_texts () =
  let top = "expected a type at top level (found " in
  let global = "expected ';' after global declaration (found " in
  let cases =
    [
      ("42", top ^ "integer literal 42)");
      ("1.5", top ^ "float literal 1.5)");
      ("2.5f", top ^ "float literal 2.5)");
      ("foo", top ^ "identifier 'foo')");
      ("#pragma omp parallel for\n", top ^ "#pragma omp parallel for)");
      ("int", "expected a top-level name (found end of input)");
      ("int main() { int x = 1;", "unexpected end of input in block (found end of input)");
      ("int main() { int x = 1 }", "expected ';' after declaration (found RBRACE)");
    ]
    @ List.map
        (fun (src, name) -> ("int x " ^ src, global ^ name ^ ")"))
        [
          ("void", "KW_VOID");
          ("bool", "KW_BOOL");
          ("int", "KW_INT");
          ("float", "KW_FLOAT");
          ("double", "KW_DOUBLE");
        ]
    @ List.map
        (fun (src, name) -> (src, top ^ name ^ ")"))
        [
          ("if", "KW_IF");
          ("else", "KW_ELSE");
          ("for", "KW_FOR");
          ("while", "KW_WHILE");
          ("return", "KW_RETURN");
          ("true", "KW_TRUE");
          ("false", "KW_FALSE");
          ("(", "LPAREN");
          (")", "RPAREN");
          ("{", "LBRACE");
          ("}", "RBRACE");
          ("[", "LBRACKET");
          ("]", "RBRACKET");
          (";", "SEMI");
          (",", "COMMA");
          ("*", "STAR");
          ("+", "PLUS");
          ("-", "MINUS");
          ("/", "SLASH");
          ("%", "PERCENT");
          ("=", "ASSIGN");
          ("+=", "PLUS_EQ");
          ("-=", "MINUS_EQ");
          ("*=", "STAR_EQ");
          ("/=", "SLASH_EQ");
          ("++", "PLUS_PLUS");
          ("--", "MINUS_MINUS");
          ("<", "LT");
          ("<=", "LE");
          (">", "GT");
          (">=", "GE");
          ("==", "EQ_EQ");
          ("!=", "NE");
          ("&&", "AMP_AMP");
          ("||", "BAR_BAR");
          ("!", "BANG");
        ]
  in
  List.iter
    (fun (src, expected) ->
      match Parser.parse_program src with
      | exception Parser.Parse_error (msg, _) ->
          Alcotest.(check string) (String.escaped src) expected msg
      | _ -> Alcotest.failf "%S: expected a parse error" src)
    cases

let parser_tests =
  [
    Alcotest.test_case "empty program" `Quick (fun () ->
        let p = Parser.parse_program "" in
        Alcotest.(check int) "funcs" 0 (List.length p.funcs));
    Alcotest.test_case "function with params" `Quick (fun () ->
        let p = Parser.parse_program "void f(double* a, int n) { return; }" in
        let f = Ast.find_func p "f" in
        Alcotest.(check int) "params" 2 (List.length f.fparams);
        Alcotest.(check bool) "ptr type" true
          ((List.hd f.fparams).ptyp = Ast.Tptr Ast.Tdouble));
    Alcotest.test_case "global declaration" `Quick (fun () ->
        let p = Parser.parse_program "double g = 1.0;" in
        Alcotest.(check int) "globals" 1 (List.length p.globals));
    Alcotest.test_case "node ids are 1..n in pre-order" `Quick (fun () ->
        let p =
          Parser.parse_program
            "double g = 1.5;\nint h[4];\nint main() { int x = 2;\n\
             for (int i = 0; i < 4; i++) { h[i] = x * i; }\n\
             return x; }"
        in
        let ids = ref [] in
        Ast.iter_program
          ~fs:(fun s -> ids := s.sid :: !ids)
          ~fe:(fun e -> ids := e.eid :: !ids)
          p;
        let n = List.length !ids in
        Alcotest.(check (list int))
          "globals first, each node before its children"
          (List.init n (fun i -> i + 1))
          (List.rev !ids));
    Alcotest.test_case "precedence: mul over add" `Quick (fun () ->
        match parse_main_body "int x = 1 + 2 * 3;" with
        | [ { snode = Ast.Decl { dinit = Some e; _ }; _ } ] ->
            Alcotest.(check string) "expr" "1 + 2 * 3"
              (Pretty.expr_to_string e);
            (* structure: Add(1, Mul(2,3)) *)
            (match e.enode with
            | Ast.Binop (Ast.Add, _, { enode = Ast.Binop (Ast.Mul, _, _); _ })
              -> ()
            | _ -> Alcotest.fail "wrong precedence structure")
        | _ -> Alcotest.fail "unexpected body");
    Alcotest.test_case "parens override precedence" `Quick (fun () ->
        match parse_main_body "int x = (1 + 2) * 3;" with
        | [ { snode = Ast.Decl { dinit = Some e; _ }; _ } ] -> (
            match e.enode with
            | Ast.Binop (Ast.Mul, { enode = Ast.Binop (Ast.Add, _, _); _ }, _)
              -> ()
            | _ -> Alcotest.fail "wrong structure")
        | _ -> Alcotest.fail "unexpected body");
    Alcotest.test_case "canonical for loop" `Quick (fun () ->
        match parse_main_body "for (int i = 0; i < 10; i++) { }" with
        | [ { snode = Ast.For (h, _); _ } ] ->
            Alcotest.(check string) "index" "i" h.index;
            Alcotest.(check bool) "exclusive" false h.inclusive
        | _ -> Alcotest.fail "expected a for loop");
    Alcotest.test_case "for with += step" `Quick (fun () ->
        match parse_main_body "for (int i = 0; i <= 10; i += 2) { }" with
        | [ { snode = Ast.For (h, _); _ } ] ->
            Alcotest.(check bool) "inclusive" true h.inclusive;
            Alcotest.(check string) "step" "2" (Pretty.expr_to_string h.step)
        | _ -> Alcotest.fail "expected a for loop");
    Alcotest.test_case "for with i = i + e step" `Quick (fun () ->
        match parse_main_body "for (int i = 0; i < 10; i = i + 3) { }" with
        | [ { snode = Ast.For (h, _); _ } ] ->
            Alcotest.(check string) "step" "3" (Pretty.expr_to_string h.step)
        | _ -> Alcotest.fail "expected a for loop");
    Alcotest.test_case "non-canonical for rejected" `Quick (fun () ->
        match parse_main_body "for (int i = 0; j < 10; i++) { }" with
        | exception Parser.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected a parse error");
    Alcotest.test_case "if/else" `Quick (fun () ->
        match parse_main_body "if (1 < 2) { return 1; } else { return 0; }" with
        | [ { snode = Ast.If (_, _, Some _); _ } ] -> ()
        | _ -> Alcotest.fail "expected if/else");
    Alcotest.test_case "dangling else binds inner" `Quick (fun () ->
        match
          parse_main_body "if (true) if (false) return 1; else return 2;"
        with
        | [ { snode = Ast.If (_, [ inner ], None); _ } ] -> (
            match inner.snode with
            | Ast.If (_, _, Some _) -> ()
            | _ -> Alcotest.fail "else should bind to inner if")
        | _ -> Alcotest.fail "unexpected structure");
    Alcotest.test_case "pragma attaches to next statement" `Quick (fun () ->
        match parse_main_body "#pragma unroll 4\nfor (int i = 0; i < 4; i++) { }" with
        | [ { snode = Ast.For _; pragmas = [ p ]; _ } ] ->
            Alcotest.(check string) "name" "unroll" p.pname;
            Alcotest.(check (list string)) "args" [ "4" ] p.pargs
        | _ -> Alcotest.fail "pragma not attached");
    Alcotest.test_case "array declaration" `Quick (fun () ->
        match parse_main_body "double a[10];" with
        | [ { snode = Ast.Decl { dsize = Some _; dtyp = Ast.Tdouble; _ }; _ } ] -> ()
        | _ -> Alcotest.fail "expected array decl");
    Alcotest.test_case "x++ desugars to += 1" `Quick (fun () ->
        match parse_main_body "int x = 0; x++;" with
        | [ _; { snode = Ast.Assign (Ast.Lvar "x", Ast.AddEq, e); _ } ] ->
            Alcotest.(check string) "one" "1" (Pretty.expr_to_string e)
        | _ -> Alcotest.fail "expected desugared increment");
    Alcotest.test_case "cast expression" `Quick (fun () ->
        match parse_main_body "double x = (double)3;" with
        | [ { snode = Ast.Decl { dinit = Some { enode = Ast.Cast (Ast.Tdouble, _); _ }; _ }; _ } ]
          -> ()
        | _ -> Alcotest.fail "expected a cast");
    Alcotest.test_case "missing semicolon is an error" `Quick (fun () ->
        match Parser.parse_program "int main() { int x = 1 }" with
        | exception Parser.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected parse error");
    Alcotest.test_case "node ids are unique" `Quick (fun () ->
        let p = Parser.parse_program Helpers.vec_scale_src in
        Alcotest.(check bool) "no duplicate ids" false (Ast.has_duplicate_ids p));
    Alcotest.test_case "parse-error text for every token class" `Quick
      parse_error_texts;
  ]

(* ------------------------------------------------------------------ *)
(* Pretty-printer round trips                                          *)
(* ------------------------------------------------------------------ *)

let strip_ws s =
  String.to_seq s
  |> Seq.filter (fun c -> c <> ' ' && c <> '\n' && c <> '\t')
  |> String.of_seq

let roundtrip_stable src () =
  let p1 = Parser.parse_program src in
  let s1 = Pretty.program_to_string p1 in
  let p2 = Parser.parse_program s1 in
  let s2 = Pretty.program_to_string p2 in
  Alcotest.(check string) "print . parse . print is stable" s1 s2

let pretty_tests =
  [
    Alcotest.test_case "vec_scale round trip" `Quick
      (roundtrip_stable Helpers.vec_scale_src);
    Alcotest.test_case "kernel round trip" `Quick
      (roundtrip_stable Helpers.kernel_src);
    Alcotest.test_case "histogram round trip" `Quick
      (roundtrip_stable Helpers.histogram_src);
    Alcotest.test_case "single literal keeps f suffix" `Quick (fun () ->
        let p = Parser.parse_program "int main() { float x = 2.5f; return 0; }" in
        let s = Pretty.program_to_string p in
        Alcotest.(check bool) "has 2.5f" true
          (Astring_contains.contains s "2.5f"));
    Alcotest.test_case "pragmas survive round trip" `Quick (fun () ->
        let src = "int main() {\n#pragma omp parallel for\nfor (int i = 0; i < 4; i++) { }\nreturn 0; }" in
        let s = Pretty.program_to_string (Parser.parse_program src) in
        Alcotest.(check bool) "pragma printed" true
          (Astring_contains.contains s "#pragma omp parallel for"));
    Helpers.qtest "random exprs: print/parse round trip" Helpers.arb_expr
      (fun e ->
        let s = Pretty.expr_to_string e in
        let e2 = Parser.parse_expr_string s in
        strip_ws (Pretty.expr_to_string e2) = strip_ws s);
    Helpers.qtest ~count:50
      "random exprs: round trip preserves evaluated value" Helpers.arb_expr
      (fun e ->
        let p1 = Helpers.program_of_expr e in
        let p2 =
          Parser.parse_program (Pretty.program_to_string p1)
        in
        let r1 = Minic_interp.Eval.run p1 in
        let r2 = Minic_interp.Eval.run p2 in
        r1.output = r2.output);
  ]

(* ------------------------------------------------------------------ *)
(* Type checker                                                        *)
(* ------------------------------------------------------------------ *)

let well_typed src = Typecheck.is_well_typed (Parser.parse_program src)

(* [src] is rejected with a message containing [needle]. *)
let rejected_with needle src () =
  match Typecheck.check_program (Parser.parse_program src) with
  | () -> Alcotest.failf "accepted: %s" src
  | exception Typecheck.Type_error (m, _) ->
      if not (Astring_contains.contains m needle) then
        Alcotest.failf "message %S lacks %S" m needle

let accepted src () =
  Alcotest.(check bool) "well typed" true (well_typed src)

(* One type per name: the redeclaration rule. *)
let redeclaration_tests =
  [
    Alcotest.test_case "local redeclared with another type" `Quick
      (rejected_with "'x' is redeclared as double (declared int)"
         "int main() { int x = 1; if (x > 0) { double x = 2.0; } return 0; }");
    Alcotest.test_case "global redeclared" `Quick
      (rejected_with "global 'g' is declared twice"
         "int g = 1; int g = 1; int main() { return g; }");
    Alcotest.test_case "parameter redeclared as another type" `Quick
      (rejected_with "'q' is redeclared as double (declared int)"
         "int f(int q) { double q = 1.5; return 0; } int main() { return f(1); }");
    Alcotest.test_case "for index also declared double" `Quick
      (rejected_with "'i' is redeclared as int (declared double)"
         "int main() { double i = 0.5; for (int i = 0; i < 3; i++) { } return 0; }");
    Alcotest.test_case "same type in sibling loops accepted" `Quick
      (accepted
         {|
int main() {
  double s = 0.0;
  for (int i = 0; i < 3; i++) { double t = 1.0; s += t; }
  for (int i = 0; i < 2; i++) { double t = 2.0; s += t; }
  return 0;
}
|});
    Alcotest.test_case "local shadowing a global of another type accepted" `Quick
      (accepted "double g = 1.5; int main() { int g = 2; return g; }");
    (* the shadowing local is the name throughout the function, as the
       interpreter resolves it: [g = a] assigns the [double] local *)
    Alcotest.test_case "a use before the shadowing declaration is the local"
      `Quick
      (rejected_with "assignment: expected double, got int*"
         "int g[4]; int main() { int a[4]; g = a; double g = 0.5; return 0; }");
  ]

let typecheck_tests =
  [
    Alcotest.test_case "benchmark fixtures are well-typed" `Quick (fun () ->
        List.iter
          (fun src -> Alcotest.(check bool) "well typed" true (well_typed src))
          [ Helpers.vec_scale_src; Helpers.kernel_src; Helpers.histogram_src ]);
    Alcotest.test_case "undeclared variable rejected" `Quick (fun () ->
        Alcotest.(check bool) "ill typed" false
          (well_typed "int main() { return x; }"));
    Alcotest.test_case "indexing a scalar rejected" `Quick (fun () ->
        Alcotest.(check bool) "ill typed" false
          (well_typed "int main() { int x = 0; return x[0]; }"));
    Alcotest.test_case "float index rejected" `Quick (fun () ->
        Alcotest.(check bool) "ill typed" false
          (well_typed "int main() { double a[4]; return (int)a[1.5]; }"));
    Alcotest.test_case "wrong arity rejected" `Quick (fun () ->
        Alcotest.(check bool) "ill typed" false
          (well_typed "int main() { double x = sqrt(1.0, 2.0); return 0; }"));
    Alcotest.test_case "unknown call rejected by default" `Quick (fun () ->
        Alcotest.(check bool) "ill typed" false
          (well_typed "int main() { frobnicate(); return 0; }"));
    Alcotest.test_case "unknown call allowed in lenient mode" `Quick (fun () ->
        let p = Parser.parse_program "int main() { frobnicate(); return 0; }" in
        Alcotest.(check bool) "lenient ok" true
          (Typecheck.is_well_typed ~allow_unknown_calls:true p));
    Alcotest.test_case "modulo requires ints" `Quick (fun () ->
        Alcotest.(check bool) "ill typed" false
          (well_typed "int main() { double x = 1.5 % 2.0; return 0; }"));
    Alcotest.test_case "numeric widening accepted" `Quick (fun () ->
        Alcotest.(check bool) "well typed" true
          (well_typed "int main() { double x = 1 + 2.5; return 0; }"));
    Alcotest.test_case "return type mismatch rejected" `Quick (fun () ->
        Alcotest.(check bool) "ill typed" false
          (well_typed "double* f() { return 1.0; } int main() { return 0; }"));
    Alcotest.test_case "condition must be boolean" `Quick (fun () ->
        Alcotest.(check bool) "ill typed" false
          (well_typed
             "int main() { double a[2]; if (a) { return 1; } return 0; }"));
  ]

(* ------------------------------------------------------------------ *)
(* Builtins and LOC                                                    *)
(* ------------------------------------------------------------------ *)

let misc_tests =
  [
    Alcotest.test_case "sp variant mapping" `Quick (fun () ->
        Alcotest.(check (option string)) "sqrt -> sqrtf" (Some "sqrtf")
          (Builtins.to_single_variant "sqrt");
        Alcotest.(check (option string)) "rand01 has none" None
          (Builtins.to_single_variant "rand01"));
    Alcotest.test_case "gpu intrinsic mapping" `Quick (fun () ->
        Alcotest.(check (option string)) "expf -> __expf" (Some "__expf")
          (Builtins.to_gpu_intrinsic "expf");
        Alcotest.(check (option string)) "powf has no intrinsic" None
          (Builtins.to_gpu_intrinsic "powf"));
    Alcotest.test_case "cost classes" `Quick (fun () ->
        Alcotest.(check bool) "exp classed" true
          (Builtins.cost_class "exp" = Some Builtins.Exp_log);
        Alcotest.(check bool) "expf classed like exp" true
          (Builtins.cost_class "expf" = Some Builtins.Exp_log);
        Alcotest.(check bool) "print has no class" true
          (Builtins.cost_class "print_int" = None));
    Alcotest.test_case "LOC ignores blanks and comments" `Quick (fun () ->
        Alcotest.(check int) "counted" 2
          (Loc_count.count_source "int x;\n\n// comment\n  \nint y;\n"));
    Alcotest.test_case "LOC of canonical form is format-insensitive" `Quick
      (fun () ->
        let a = Parser.parse_program "int main() { return 0; }" in
        let b = Parser.parse_program "int   main( )  {\n\n return 0;\n }" in
        Alcotest.(check int) "same LOC"
          (Loc_count.count_program a) (Loc_count.count_program b));
    Alcotest.test_case "LOC delta positive when code is added" `Quick (fun () ->
        let reference = Parser.parse_program Helpers.kernel_src in
        let bigger =
          Parser.parse_program
            (Helpers.kernel_src ^ "\nvoid extra() { print_int(1); }\n")
        in
        Alcotest.(check bool) "delta > 0" true
          (Loc_count.delta ~reference ~design:bigger > 0));
    Alcotest.test_case "sizeof" `Quick (fun () ->
        Alcotest.(check int) "double" 8 (Ast.sizeof Ast.Tdouble);
        Alcotest.(check int) "float" 4 (Ast.sizeof Ast.Tfloat);
        Alcotest.(check int) "ptr" 8 (Ast.sizeof (Ast.Tptr Ast.Tint)));
    Alcotest.test_case "static trip count" `Quick (fun () ->
        let body = parse_main_body "for (int i = 2; i <= 10; i += 2) { }" in
        match body with
        | [ s ] ->
            Alcotest.(check (option int)) "trips" (Some 5)
              (Artisan.Query.static_trip_count s)
        | _ -> Alcotest.fail "expected one stmt");
  ]

let () =
  Alcotest.run "minic"
    [
      ("lexer", lexer_tests);
      ("parser", parser_tests);
      ("pretty", pretty_tests);
      ("typecheck", typecheck_tests);
      ("redecl", redeclaration_tests);
      ("misc", misc_tests);
    ]
