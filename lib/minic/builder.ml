(** Convenience constructors for building MiniC fragments programmatically.

    Used by the transform and code-generation tasks, which synthesise new
    statements (kernel wrappers, management code) to splice into programs. *)

open Ast

let int n = mk_expr (Int_lit n)
let flt ?(kind = Double) f = mk_expr (Float_lit (f, kind))
let var v = mk_expr (Var v)
let call f args = mk_expr (Call (f, args))
let idx a i = mk_expr (Index (a, i))
let cast t e = mk_expr (Cast (t, e))
let neg e = mk_expr (Unop (Neg, e))
let binop op a b = mk_expr (Binop (op, a, b))
let ( +: ) a b = binop Add a b
let ( -: ) a b = binop Sub a b
let ( *: ) a b = binop Mul a b
let ( /: ) a b = binop Div a b
let ( <: ) a b = binop Lt a b
let ( <=: ) a b = binop Le a b

let decl ?size ?init typ name =
  mk_stmt (Decl { dtyp = typ; dname = name; dsize = size; dinit = init })

let assign ?(op = Set) lv e = mk_stmt (Assign (lv, op, e))
let set v e = assign (Lvar v) e
let set_idx a i e = assign (Lindex (a, i)) e
let expr_stmt e = mk_stmt (Expr_stmt e)
let call_stmt f args = expr_stmt (call f args)
let return_ e = mk_stmt (Return (Some e))
let return_void = mk_stmt (Return None)
let if_ c b1 b2 = mk_stmt (If (c, b1, b2))
let block b = mk_stmt (Block b)

let pragma ?(args = []) name = { pname = name; pargs = args }

(** Attach extra pragmas to an existing statement (keeps its id). *)
let with_pragmas ps (s : stmt) = { s with pragmas = s.pragmas @ ps }

let func ?(ret = Tvoid) name params body =
  {
    fname = name;
    fret = ret;
    fparams = List.map (fun (t, n) -> { ptyp = t; pname_ = n }) params;
    fbody = body;
    floc = Loc.none;
  }

let program ?(globals = []) funcs = { globals; funcs }
