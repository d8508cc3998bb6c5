(** Tokens produced by the MiniC lexer. *)

type t =
  | INT_LIT of int
  | FLOAT_LIT of float * Ast.fkind
  | IDENT of string
  | KW_VOID
  | KW_BOOL
  | KW_INT
  | KW_FLOAT
  | KW_DOUBLE
  | KW_IF
  | KW_ELSE
  | KW_FOR
  | KW_WHILE
  | KW_RETURN
  | KW_TRUE
  | KW_FALSE
  | PRAGMA of string list  (** [#pragma w1 w2 ...], one token per line *)
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | SEMI
  | COMMA
  | STAR
  | PLUS
  | MINUS
  | SLASH
  | PERCENT
  | ASSIGN
  | PLUS_EQ
  | MINUS_EQ
  | STAR_EQ
  | SLASH_EQ
  | PLUS_PLUS
  | MINUS_MINUS
  | LT
  | LE
  | GT
  | GE
  | EQ_EQ
  | NE
  | AMP_AMP
  | BAR_BAR
  | BANG
  | EOF

(** Human-readable token name for parse-error messages: literals,
    identifiers and pragmas with their text, every other token by its
    constructor name. *)
let describe = function
  | INT_LIT n -> Printf.sprintf "integer literal %d" n
  | FLOAT_LIT (f, _) -> Printf.sprintf "float literal %g" f
  | IDENT s -> Printf.sprintf "identifier '%s'" s
  | PRAGMA ws -> Printf.sprintf "#pragma %s" (String.concat " " ws)
  | EOF -> "end of input"
  | KW_VOID -> "KW_VOID"
  | KW_BOOL -> "KW_BOOL"
  | KW_INT -> "KW_INT"
  | KW_FLOAT -> "KW_FLOAT"
  | KW_DOUBLE -> "KW_DOUBLE"
  | KW_IF -> "KW_IF"
  | KW_ELSE -> "KW_ELSE"
  | KW_FOR -> "KW_FOR"
  | KW_WHILE -> "KW_WHILE"
  | KW_RETURN -> "KW_RETURN"
  | KW_TRUE -> "KW_TRUE"
  | KW_FALSE -> "KW_FALSE"
  | LPAREN -> "LPAREN"
  | RPAREN -> "RPAREN"
  | LBRACE -> "LBRACE"
  | RBRACE -> "RBRACE"
  | LBRACKET -> "LBRACKET"
  | RBRACKET -> "RBRACKET"
  | SEMI -> "SEMI"
  | COMMA -> "COMMA"
  | STAR -> "STAR"
  | PLUS -> "PLUS"
  | MINUS -> "MINUS"
  | SLASH -> "SLASH"
  | PERCENT -> "PERCENT"
  | ASSIGN -> "ASSIGN"
  | PLUS_EQ -> "PLUS_EQ"
  | MINUS_EQ -> "MINUS_EQ"
  | STAR_EQ -> "STAR_EQ"
  | SLASH_EQ -> "SLASH_EQ"
  | PLUS_PLUS -> "PLUS_PLUS"
  | MINUS_MINUS -> "MINUS_MINUS"
  | LT -> "LT"
  | LE -> "LE"
  | GT -> "GT"
  | GE -> "GE"
  | EQ_EQ -> "EQ_EQ"
  | NE -> "NE"
  | AMP_AMP -> "AMP_AMP"
  | BAR_BAR -> "BAR_BAR"
  | BANG -> "BANG"
