(** Recursive-descent parser for MiniC.

    The grammar is a small C subset; [for] loops must be in canonical
    counted form ([for (int i = e0; i < e1; i++ | i += e2 | i = i + e2)]),
    which is what the loop analyses reason about.  Pragma lines bind to
    the next statement. *)

(** Raised on syntax errors, with a message and location. *)
exception Parse_error of string * Loc.t

(** Parse MiniC source text into a program.  Statements and
    expressions are numbered pre-order from 1 ({!Ast.number}).
    @raise Lexer.Lex_error on lexical errors
    @raise Parse_error on syntax errors *)
val parse_program : string -> Ast.program

(** Parse a single expression (tests and textual transform inputs).
    Its nodes carry {!Ast.placeholder_id} until the program it is
    spliced into is numbered. *)
val parse_expr_string : string -> Ast.expr
