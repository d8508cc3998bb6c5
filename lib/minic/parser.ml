(** Recursive-descent parser for MiniC.

    The grammar is a small C subset.  [for] loops must be in canonical
    counted form

    {v for (int i = e0; i < e1; i++ | i += e2 | i = i + e2) { ... } v}

    which is the form all five benchmark applications use and the form the
    loop analyses reason about.  Pragma lines bind to the next statement. *)

exception Parse_error of string * Loc.t

type state = { mutable toks : (Token.t * Loc.t) list }

let make toks = { toks }

let peek st =
  match st.toks with [] -> (Token.EOF, Loc.none) | t :: _ -> t

let peek_tok st = fst (peek st)

let peek2_tok st =
  match st.toks with _ :: (t, _) :: _ -> t | _ -> Token.EOF

let advance st = match st.toks with [] -> () | _ :: r -> st.toks <- r

let error st msg =
  let tok, l = peek st in
  raise
    (Parse_error
       (Printf.sprintf "%s (found %s)" msg (Token.describe tok), l))

let expect st tok msg =
  if peek_tok st = tok then advance st else error st msg

let expect_ident st msg =
  match peek st with
  | Token.IDENT s, _ ->
      advance st;
      s
  | _ -> error st msg

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let base_typ_of_tok = function
  | Token.KW_VOID -> Some Ast.Tvoid
  | Token.KW_BOOL -> Some Ast.Tbool
  | Token.KW_INT -> Some Ast.Tint
  | Token.KW_FLOAT -> Some Ast.Tfloat
  | Token.KW_DOUBLE -> Some Ast.Tdouble
  | _ -> None

let starts_typ st = base_typ_of_tok (peek_tok st) <> None

(** Parse a type: base type followed by zero or more ['*']. *)
let parse_typ st =
  match base_typ_of_tok (peek_tok st) with
  | None -> error st "expected a type"
  | Some base ->
      advance st;
      let rec stars t =
        if peek_tok st = Token.STAR then (
          advance st;
          stars (Ast.Tptr t))
        else t
      in
      stars base

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec parse_expr st = parse_lor st

and parse_lor st =
  let rec go lhs =
    match peek st with
    | Token.BAR_BAR, loc ->
        advance st;
        let rhs = parse_land st in
        go (Ast.mk_expr ~loc (Ast.Binop (Ast.LOr, lhs, rhs)))
    | _ -> lhs
  in
  go (parse_land st)

and parse_land st =
  let rec go lhs =
    match peek st with
    | Token.AMP_AMP, loc ->
        advance st;
        let rhs = parse_equality st in
        go (Ast.mk_expr ~loc (Ast.Binop (Ast.LAnd, lhs, rhs)))
    | _ -> lhs
  in
  go (parse_equality st)

and parse_equality st =
  let rec go lhs =
    match peek st with
    | Token.EQ_EQ, loc ->
        advance st;
        go (Ast.mk_expr ~loc (Ast.Binop (Ast.Eq, lhs, parse_rel st)))
    | Token.NE, loc ->
        advance st;
        go (Ast.mk_expr ~loc (Ast.Binop (Ast.Ne, lhs, parse_rel st)))
    | _ -> lhs
  in
  go (parse_rel st)

and parse_rel st =
  let rec go lhs =
    match peek st with
    | Token.LT, loc ->
        advance st;
        go (Ast.mk_expr ~loc (Ast.Binop (Ast.Lt, lhs, parse_additive st)))
    | Token.LE, loc ->
        advance st;
        go (Ast.mk_expr ~loc (Ast.Binop (Ast.Le, lhs, parse_additive st)))
    | Token.GT, loc ->
        advance st;
        go (Ast.mk_expr ~loc (Ast.Binop (Ast.Gt, lhs, parse_additive st)))
    | Token.GE, loc ->
        advance st;
        go (Ast.mk_expr ~loc (Ast.Binop (Ast.Ge, lhs, parse_additive st)))
    | _ -> lhs
  in
  go (parse_additive st)

and parse_additive st =
  let rec go lhs =
    match peek st with
    | Token.PLUS, loc ->
        advance st;
        go (Ast.mk_expr ~loc (Ast.Binop (Ast.Add, lhs, parse_mul st)))
    | Token.MINUS, loc ->
        advance st;
        go (Ast.mk_expr ~loc (Ast.Binop (Ast.Sub, lhs, parse_mul st)))
    | _ -> lhs
  in
  go (parse_mul st)

and parse_mul st =
  let rec go lhs =
    match peek st with
    | Token.STAR, loc ->
        advance st;
        go (Ast.mk_expr ~loc (Ast.Binop (Ast.Mul, lhs, parse_unary st)))
    | Token.SLASH, loc ->
        advance st;
        go (Ast.mk_expr ~loc (Ast.Binop (Ast.Div, lhs, parse_unary st)))
    | Token.PERCENT, loc ->
        advance st;
        go (Ast.mk_expr ~loc (Ast.Binop (Ast.Mod, lhs, parse_unary st)))
    | _ -> lhs
  in
  go (parse_unary st)

and parse_unary st =
  match peek st with
  | Token.MINUS, loc ->
      advance st;
      Ast.mk_expr ~loc (Ast.Unop (Ast.Neg, parse_unary st))
  | Token.BANG, loc ->
      advance st;
      Ast.mk_expr ~loc (Ast.Unop (Ast.Not, parse_unary st))
  | Token.LPAREN, loc when starts_typ_after_lparen st ->
      (* cast: '(' typ ')' unary *)
      advance st;
      let t = parse_typ st in
      expect st Token.RPAREN "expected ')' after cast type";
      Ast.mk_expr ~loc (Ast.Cast (t, parse_unary st))
  | _ -> parse_postfix st

and starts_typ_after_lparen st =
  peek_tok st = Token.LPAREN
  && base_typ_of_tok (peek2_tok st) <> None

and parse_postfix st =
  let rec go e =
    match peek st with
    | Token.LBRACKET, loc ->
        advance st;
        let idx = parse_expr st in
        expect st Token.RBRACKET "expected ']'";
        go (Ast.mk_expr ~loc (Ast.Index (e, idx)))
    | _ -> e
  in
  go (parse_primary st)

and parse_primary st =
  match peek st with
  | Token.INT_LIT n, loc ->
      advance st;
      Ast.mk_expr ~loc (Ast.Int_lit n)
  | Token.FLOAT_LIT (f, k), loc ->
      advance st;
      Ast.mk_expr ~loc (Ast.Float_lit (f, k))
  | Token.KW_TRUE, loc ->
      advance st;
      Ast.mk_expr ~loc (Ast.Bool_lit true)
  | Token.KW_FALSE, loc ->
      advance st;
      Ast.mk_expr ~loc (Ast.Bool_lit false)
  | Token.IDENT name, loc ->
      advance st;
      if peek_tok st = Token.LPAREN then (
        advance st;
        let args =
          if peek_tok st = Token.RPAREN then []
          else
            let rec go acc =
              let a = parse_expr st in
              if peek_tok st = Token.COMMA then (
                advance st;
                go (a :: acc))
              else List.rev (a :: acc)
            in
            go []
        in
        expect st Token.RPAREN "expected ')' after call arguments";
        Ast.mk_expr ~loc (Ast.Call (name, args)))
      else Ast.mk_expr ~loc (Ast.Var name)
  | Token.LPAREN, _ ->
      advance st;
      let e = parse_expr st in
      expect st Token.RPAREN "expected ')'";
      e
  | _ -> error st "expected an expression"

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let parse_pragmas st =
  let rec go acc =
    match peek st with
    | Token.PRAGMA words, _ -> (
        advance st;
        match words with
        | [] -> go acc
        | name :: args -> go ({ Ast.pname = name; pargs = args } :: acc))
    | _ -> List.rev acc
  in
  go []

let lvalue_of_expr st (e : Ast.expr) =
  match e.enode with
  | Ast.Var v -> Ast.Lvar v
  | Ast.Index (a, i) -> Ast.Lindex (a, i)
  | _ -> error st "expected an assignable expression"

let rec parse_stmt st : Ast.stmt =
  let pragmas = parse_pragmas st in
  let s = parse_core_stmt st in
  { s with pragmas = pragmas @ s.pragmas }

and parse_core_stmt st : Ast.stmt =
  match peek st with
  | Token.LBRACE, loc ->
      let b = parse_block st in
      Ast.mk_stmt ~loc (Ast.Block b)
  | Token.KW_IF, loc ->
      advance st;
      expect st Token.LPAREN "expected '(' after if";
      let c = parse_expr st in
      expect st Token.RPAREN "expected ')' after if condition";
      let then_b = parse_stmt_as_block st in
      let else_b =
        match peek_tok st with
        | Token.KW_ELSE ->
            advance st;
            Some (parse_stmt_as_block st)
        | _ -> None
      in
      Ast.mk_stmt ~loc (Ast.If (c, then_b, else_b))
  | Token.KW_WHILE, loc ->
      advance st;
      expect st Token.LPAREN "expected '(' after while";
      let c = parse_expr st in
      expect st Token.RPAREN "expected ')' after while condition";
      let b = parse_stmt_as_block st in
      Ast.mk_stmt ~loc (Ast.While (c, b))
  | Token.KW_FOR, loc ->
      advance st;
      let header = parse_for_header st in
      let b = parse_stmt_as_block st in
      Ast.mk_stmt ~loc (Ast.For (header, b))
  | Token.KW_RETURN, loc ->
      advance st;
      if peek_tok st = Token.SEMI then (
        advance st;
        Ast.mk_stmt ~loc (Ast.Return None))
      else
        let e = parse_expr st in
        expect st Token.SEMI "expected ';' after return";
        Ast.mk_stmt ~loc (Ast.Return (Some e))
  | _, loc when starts_typ st ->
      let d = parse_decl st in
      expect st Token.SEMI "expected ';' after declaration";
      Ast.mk_stmt ~loc (Ast.Decl d)
  | _, loc ->
      let s = parse_assign_or_expr st in
      expect st Token.SEMI "expected ';' after statement";
      { s with sloc = loc }

(** A declaration [typ name([size])? (= init)?], without the ';'. *)
and parse_decl st : Ast.decl =
  let dtyp = parse_typ st in
  let dname = expect_ident st "expected a name in declaration" in
  let dsize =
    if peek_tok st = Token.LBRACKET then (
      advance st;
      let e = parse_expr st in
      expect st Token.RBRACKET "expected ']' in array declaration";
      Some e)
    else None
  in
  let dinit =
    if peek_tok st = Token.ASSIGN then (
      advance st;
      Some (parse_expr st))
    else None
  in
  { Ast.dtyp; dname; dsize; dinit }

and parse_assign_or_expr st : Ast.stmt =
  let loc = snd (peek st) in
  let e = parse_expr st in
  let mk_assign op =
    advance st;
    let rhs = parse_expr st in
    Ast.mk_stmt ~loc (Ast.Assign (lvalue_of_expr st e, op, rhs))
  in
  match peek_tok st with
  | Token.ASSIGN -> mk_assign Ast.Set
  | Token.PLUS_EQ -> mk_assign Ast.AddEq
  | Token.MINUS_EQ -> mk_assign Ast.SubEq
  | Token.STAR_EQ -> mk_assign Ast.MulEq
  | Token.SLASH_EQ -> mk_assign Ast.DivEq
  | Token.PLUS_PLUS ->
      advance st;
      let one = Ast.mk_expr (Ast.Int_lit 1) in
      Ast.mk_stmt ~loc (Ast.Assign (lvalue_of_expr st e, Ast.AddEq, one))
  | Token.MINUS_MINUS ->
      advance st;
      let one = Ast.mk_expr (Ast.Int_lit 1) in
      Ast.mk_stmt ~loc (Ast.Assign (lvalue_of_expr st e, Ast.SubEq, one))
  | _ -> Ast.mk_stmt ~loc (Ast.Expr_stmt e)

(** Canonical for header: [( int? i = e; i <|<= e; i++ | i += e | i = i + e )]. *)
and parse_for_header st : Ast.for_header =
  expect st Token.LPAREN "expected '(' after for";
  (match peek_tok st with
  | Token.KW_INT -> advance st
  | _ -> ());
  let index = expect_ident st "expected loop index variable" in
  expect st Token.ASSIGN "expected '=' in for initialiser";
  let init = parse_expr st in
  expect st Token.SEMI "expected ';' after for initialiser";
  let index2 = expect_ident st "expected loop index in for condition" in
  if index2 <> index then
    error st
      (Printf.sprintf "for condition must test loop index '%s'" index);
  let inclusive =
    match peek_tok st with
    | Token.LT ->
        advance st;
        false
    | Token.LE ->
        advance st;
        true
    | _ -> error st "expected '<' or '<=' in for condition"
  in
  let bound = parse_expr st in
  expect st Token.SEMI "expected ';' after for condition";
  let index3 = expect_ident st "expected loop index in for step" in
  if index3 <> index then
    error st (Printf.sprintf "for step must update loop index '%s'" index);
  let step =
    match peek_tok st with
    | Token.PLUS_PLUS ->
        advance st;
        Ast.mk_expr (Ast.Int_lit 1)
    | Token.PLUS_EQ ->
        advance st;
        parse_expr st
    | Token.ASSIGN -> (
        advance st;
        (* i = i + e *)
        let e = parse_expr st in
        match e.enode with
        | Ast.Binop (Ast.Add, { enode = Ast.Var v; _ }, rhs) when v = index ->
            rhs
        | Ast.Binop (Ast.Add, lhs, { enode = Ast.Var v; _ }) when v = index ->
            lhs
        | _ -> error st "for step must be of the form i = i + e")
    | _ -> error st "expected '++', '+=' or '=' in for step"
  in
  expect st Token.RPAREN "expected ')' after for header";
  { Ast.index; init; bound; inclusive; step }

and parse_stmt_as_block st : Ast.block =
  if peek_tok st = Token.LBRACE then parse_block st
  else [ parse_stmt st ]

and parse_block st : Ast.block =
  expect st Token.LBRACE "expected '{'";
  let rec go acc =
    if peek_tok st = Token.RBRACE then (
      advance st;
      List.rev acc)
    else if peek_tok st = Token.EOF then
      error st "unexpected end of input in block"
    else go (parse_stmt st :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let parse_params st =
  expect st Token.LPAREN "expected '(' in function definition";
  if peek_tok st = Token.RPAREN then (
    advance st;
    [])
  else
    let rec go acc =
      let ptyp = parse_typ st in
      let pname_ = expect_ident st "expected parameter name" in
      let acc = { Ast.ptyp; pname_ } :: acc in
      if peek_tok st = Token.COMMA then (
        advance st;
        go acc)
      else (
        expect st Token.RPAREN "expected ')' after parameters";
        List.rev acc)
    in
    go []

(** Parse a full translation unit. *)
let parse_program_tokens toks : Ast.program =
  let st = make toks in
  let globals = ref [] in
  let funcs = ref [] in
  let rec go () =
    match peek st with
    | Token.EOF, _ -> ()
    | _, loc when starts_typ st ->
        let t = parse_typ st in
        let name = expect_ident st "expected a top-level name" in
        if peek_tok st = Token.LPAREN then (
          let fparams = parse_params st in
          let fbody = parse_block st in
          funcs :=
            { Ast.fname = name; fret = t; fparams; fbody; floc = loc }
            :: !funcs;
          go ())
        else
          let dsize =
            if peek_tok st = Token.LBRACKET then (
              advance st;
              let e = parse_expr st in
              expect st Token.RBRACKET "expected ']'";
              Some e)
            else None
          in
          let dinit =
            if peek_tok st = Token.ASSIGN then (
              advance st;
              Some (parse_expr st))
            else None
          in
          expect st Token.SEMI "expected ';' after global declaration";
          globals :=
            Ast.mk_stmt ~loc
              (Ast.Decl { Ast.dtyp = t; dname = name; dsize; dinit })
            :: !globals;
          go ()
    | _ -> error st "expected a type at top level"
  in
  go ();
  { Ast.globals = List.rev !globals; funcs = List.rev !funcs }

(** Parse MiniC source text into a program, its nodes numbered
    pre-order from 1.
    @raise Lexer.Lex_error on lexical errors
    @raise Parse_error on syntax errors *)
let parse_program src = Ast.number (parse_program_tokens (Lexer.tokenize src))

(** Parse a single expression (used by tests and by transforms that build
    small expressions from text).  Its nodes carry placeholder ids until
    the program it is spliced into is numbered. *)
let parse_expr_string src =
  let st = make (Lexer.tokenize src) in
  let e = parse_expr st in
  expect st Token.EOF "trailing input after expression";
  e
