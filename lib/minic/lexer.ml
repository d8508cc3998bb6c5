(** Hand-written lexer for MiniC.

    Supports C-style line ([//]) and block ([/* */]) comments, [#pragma]
    lines (lexed as a single token carrying the pragma words), decimal
    integer literals, and floating literals with an optional [f] suffix
    marking single precision. *)

exception Lex_error of string * Loc.t

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (** offset of beginning of current line *)
}

let make src = { src; pos = 0; line = 1; bol = 0 }

let loc st = Loc.make ~line:st.line ~col:(st.pos - st.bol)

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
  | _ -> ());
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let rec skip_ws_and_comments st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      skip_ws_and_comments st
  | Some '/' when peek2 st = Some '/' ->
      let rec to_eol () =
        match peek st with
        | Some '\n' | None -> ()
        | Some _ ->
            advance st;
            to_eol ()
      in
      to_eol ();
      skip_ws_and_comments st
  | Some '/' when peek2 st = Some '*' ->
      advance st;
      advance st;
      let rec to_close () =
        match (peek st, peek2 st) with
        | Some '*', Some '/' ->
            advance st;
            advance st
        | None, _ -> raise (Lex_error ("unterminated block comment", loc st))
        | Some _, _ ->
            advance st;
            to_close ()
      in
      to_close ();
      skip_ws_and_comments st
  | _ -> ()

(* A number literal starting at [l].  Malformed or out-of-range text is
   a [Lex_error] at the literal, never an exception from the stdlib
   conversions. *)
let lex_number st l =
  let start = st.pos in
  let fail what =
    raise
      (Lex_error
         ( Printf.sprintf "%s '%s'" what (String.sub st.src start (st.pos - start)),
           l ))
  in
  let consume_digits () =
    while (match peek st with Some c -> is_digit c | None -> false) do
      advance st
    done
  in
  consume_digits ();
  let is_float = ref false in
  (match peek st with
  | Some '.' ->
      is_float := true;
      advance st;
      consume_digits ()
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
      is_float := true;
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      let digits = st.pos in
      consume_digits ();
      if st.pos = digits then fail "malformed exponent in number literal"
  | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  let float prec =
    match float_of_string_opt text with
    | Some f -> Token.FLOAT_LIT (f, prec)
    | None -> fail "malformed number literal"
  in
  match peek st with
  | Some ('f' | 'F') ->
      advance st;
      float Ast.Single
  | _ -> (
      if !is_float then float Ast.Double
      else
        match int_of_string_opt text with
        | Some n -> Token.INT_LIT n
        | None -> fail "integer literal out of range")

let lex_ident st =
  let start = st.pos in
  while (match peek st with Some c -> is_ident_char c | None -> false) do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  match text with
  | "void" -> Token.KW_VOID
  | "bool" -> Token.KW_BOOL
  | "int" -> Token.KW_INT
  | "float" -> Token.KW_FLOAT
  | "double" -> Token.KW_DOUBLE
  | "if" -> Token.KW_IF
  | "else" -> Token.KW_ELSE
  | "for" -> Token.KW_FOR
  | "while" -> Token.KW_WHILE
  | "return" -> Token.KW_RETURN
  | "true" -> Token.KW_TRUE
  | "false" -> Token.KW_FALSE
  | _ -> Token.IDENT text

(** Lex a [#pragma ...] line into its whitespace-separated words. *)
let lex_pragma st =
  (* at '#' *)
  let start = st.pos in
  let rec to_eol () =
    match peek st with
    | Some '\n' | None -> ()
    | Some _ ->
        advance st;
        to_eol ()
  in
  to_eol ();
  let text = String.sub st.src start (st.pos - start) in
  let words =
    String.split_on_char ' ' text
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | "#pragma" :: rest -> Token.PRAGMA rest
  | _ -> raise (Lex_error ("malformed directive: " ^ text, loc st))

(** Produce the next token together with its starting location. *)
let next st : Token.t * Loc.t =
  skip_ws_and_comments st;
  let l = loc st in
  match peek st with
  | None -> (Token.EOF, l)
  | Some c -> (
      match c with
      | '#' -> (lex_pragma st, l)
      | c when is_digit c -> (lex_number st l, l)
      | c when is_ident_start c -> (lex_ident st, l)
      | '(' -> advance st; (Token.LPAREN, l)
      | ')' -> advance st; (Token.RPAREN, l)
      | '{' -> advance st; (Token.LBRACE, l)
      | '}' -> advance st; (Token.RBRACE, l)
      | '[' -> advance st; (Token.LBRACKET, l)
      | ']' -> advance st; (Token.RBRACKET, l)
      | ';' -> advance st; (Token.SEMI, l)
      | ',' -> advance st; (Token.COMMA, l)
      | '%' -> advance st; (Token.PERCENT, l)
      | '+' ->
          advance st;
          (match peek st with
          | Some '=' -> advance st; (Token.PLUS_EQ, l)
          | Some '+' -> advance st; (Token.PLUS_PLUS, l)
          | _ -> (Token.PLUS, l))
      | '-' ->
          advance st;
          (match peek st with
          | Some '=' -> advance st; (Token.MINUS_EQ, l)
          | Some '-' -> advance st; (Token.MINUS_MINUS, l)
          | _ -> (Token.MINUS, l))
      | '*' ->
          advance st;
          (match peek st with
          | Some '=' -> advance st; (Token.STAR_EQ, l)
          | _ -> (Token.STAR, l))
      | '/' ->
          advance st;
          (match peek st with
          | Some '=' -> advance st; (Token.SLASH_EQ, l)
          | _ -> (Token.SLASH, l))
      | '=' ->
          advance st;
          (match peek st with
          | Some '=' -> advance st; (Token.EQ_EQ, l)
          | _ -> (Token.ASSIGN, l))
      | '<' ->
          advance st;
          (match peek st with
          | Some '=' -> advance st; (Token.LE, l)
          | _ -> (Token.LT, l))
      | '>' ->
          advance st;
          (match peek st with
          | Some '=' -> advance st; (Token.GE, l)
          | _ -> (Token.GT, l))
      | '!' ->
          advance st;
          (match peek st with
          | Some '=' -> advance st; (Token.NE, l)
          | _ -> (Token.BANG, l))
      | '&' ->
          advance st;
          (match peek st with
          | Some '&' -> advance st; (Token.AMP_AMP, l)
          | _ -> raise (Lex_error ("unexpected '&'", l)))
      | '|' ->
          advance st;
          (match peek st with
          | Some '|' -> advance st; (Token.BAR_BAR, l)
          | _ -> raise (Lex_error ("unexpected '|'", l)))
      | c -> raise (Lex_error (Printf.sprintf "unexpected character '%c'" c, l)))

(** Lex an entire source string into a token list (including final EOF). *)
let tokenize src =
  let st = make src in
  let rec go acc =
    let t, l = next st in
    if t = Token.EOF then List.rev ((t, l) :: acc) else go ((t, l) :: acc)
  in
  go []
