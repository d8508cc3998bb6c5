(** Generic AST rewriting with stable node identities.

    All transforms are built on two primitives:

    - {!edit_stmts}: a statement editor [stmt -> stmt list] applied
      top-down; returning [[s]] keeps the statement, [[]] deletes it, and
      any other list replaces it (insertion = returning the new statement
      alongside the original).  Children of whatever the editor returns
      are then edited recursively.
    - {!map_exprs}: a bottom-up expression map.

    Both preserve the node ids of untouched nodes, so analysis results
    keyed by id stay valid across passes — the property the paper's
    design-flows rely on when analyses and transforms interleave.  Nodes
    a transform synthesizes (through {!Minic.Builder}, {!refresh_stmt}
    or [Parser.parse_expr_string]) carry placeholder ids; when one
    lands in the program, the program-level entry points ({!edit_stmts},
    {!edit_stmts_in}, {!map_exprs}, {!map_exprs_in}) finish with
    {!Minic.Ast.number}, so it takes the next unused id. *)

open Minic

(** Rebuild a statement with its sub-blocks passed through [f], keeping
    its id, pragmas, and location. *)
let map_stmt_blocks f (s : Ast.stmt) : Ast.stmt =
  let snode =
    match s.snode with
    | Ast.If (c, b1, b2) -> Ast.If (c, f b1, Option.map f b2)
    | Ast.For (h, b) -> Ast.For (h, f b)
    | Ast.While (c, b) -> Ast.While (c, f b)
    | Ast.Block b -> Ast.Block (f b)
    | (Ast.Decl _ | Ast.Assign _ | Ast.Expr_stmt _ | Ast.Return _) as n -> n
  in
  { s with snode }

(** Apply editor [f] to every statement, top-down.  [f] maps one statement
    to its replacement list; children of the replacements are edited in
    turn. *)
let rec edit_stmt f (s : Ast.stmt) : Ast.stmt list =
  f s |> List.map (map_stmt_blocks (edit_block f))

and edit_block f (b : Ast.block) : Ast.block = List.concat_map (edit_stmt f) b

let edit_func f (fn : Ast.func) = { fn with fbody = edit_block f fn.fbody }

(* [watch_stmts]/[watch_exprs] wrap the caller's function and set
   [fresh] when it returns a node it built that holds a placeholder id
   (a statement returned as is or re-annotated brings none in), so only
   such edits pay for numbering the whole program. *)
let brings_placeholder (s : Ast.stmt) (r : Ast.stmt) =
  r != s
  && not (r.snode == s.snode && r.sid = s.sid)
  && Ast.stmt_holds_placeholder r

let watch_stmts fresh f (s : Ast.stmt) =
  let out = f s in
  (if not !fresh then
     match out with
     | [ r ] -> fresh := brings_placeholder s r
     | _ -> fresh := List.exists (brings_placeholder s) out);
  out

let watch_exprs fresh f (e : Ast.expr) =
  let r = f e in
  if (not !fresh) && r != e && Ast.expr_holds_placeholder r then fresh := true;
  r

(* Apply [edit] (given the watched function) to the functions [pick]
   selects, then number the program if the watch saw new nodes. *)
let in_funcs watch pick edit f (p : Ast.program) : Ast.program =
  let fresh = ref false in
  let f = watch fresh f in
  let p =
    { p with funcs = List.map (fun fn -> if pick fn then edit f fn else fn) p.funcs }
  in
  if !fresh then Ast.number p else p

(** Edit every statement of every function (globals are left alone: they
    are declarations only). *)
let edit_stmts f p = in_funcs watch_stmts (fun _ -> true) edit_func f p

(** Edit statements of one function only. *)
let edit_stmts_in f fname p =
  in_funcs watch_stmts (fun fn -> fn.Ast.fname = fname) edit_func f p

(* ------------------------------------------------------------------ *)
(* Expression rewriting                                                *)
(* ------------------------------------------------------------------ *)

(** Bottom-up expression map: children first, then [f] on the rebuilt
    node.  The rebuilt node keeps its original id. *)
let rec map_expr f (e : Ast.expr) : Ast.expr =
  let rebuilt =
    match e.enode with
    | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _ | Ast.Var _ -> e
    | Ast.Unop (op, a) -> { e with enode = Ast.Unop (op, map_expr f a) }
    | Ast.Binop (op, a, b) ->
        { e with enode = Ast.Binop (op, map_expr f a, map_expr f b) }
    | Ast.Index (a, i) ->
        { e with enode = Ast.Index (map_expr f a, map_expr f i) }
    | Ast.Call (name, args) ->
        { e with enode = Ast.Call (name, List.map (map_expr f) args) }
    | Ast.Cast (t, a) -> { e with enode = Ast.Cast (t, map_expr f a) }
  in
  f rebuilt

let map_lvalue f = function
  | Ast.Lvar v -> Ast.Lvar v
  | Ast.Lindex (a, i) -> Ast.Lindex (map_expr f a, map_expr f i)

(** Map every expression of a statement (including nested statements). *)
let rec map_stmt_exprs f (s : Ast.stmt) : Ast.stmt =
  let snode =
    match s.snode with
    | Ast.Decl d ->
        Ast.Decl
          {
            d with
            dsize = Option.map (map_expr f) d.dsize;
            dinit = Option.map (map_expr f) d.dinit;
          }
    | Ast.Assign (lv, op, e) -> Ast.Assign (map_lvalue f lv, op, map_expr f e)
    | Ast.Expr_stmt e -> Ast.Expr_stmt (map_expr f e)
    | Ast.If (c, b1, b2) ->
        Ast.If
          ( map_expr f c,
            List.map (map_stmt_exprs f) b1,
            Option.map (List.map (map_stmt_exprs f)) b2 )
    | Ast.For (h, b) ->
        Ast.For
          ( {
              h with
              init = map_expr f h.init;
              bound = map_expr f h.bound;
              step = map_expr f h.step;
            },
            List.map (map_stmt_exprs f) b )
    | Ast.While (c, b) -> Ast.While (map_expr f c, List.map (map_stmt_exprs f) b)
    | Ast.Return eo -> Ast.Return (Option.map (map_expr f) eo)
    | Ast.Block b -> Ast.Block (List.map (map_stmt_exprs f) b)
  in
  { s with snode }

let map_func f (fn : Ast.func) =
  { fn with fbody = List.map (map_stmt_exprs f) fn.fbody }

(** Map every expression of every function body. *)
let map_exprs f p = in_funcs watch_exprs (fun _ -> true) map_func f p

(** Map expressions within one function only. *)
let map_exprs_in f fname p =
  in_funcs watch_exprs (fun fn -> fn.Ast.fname = fname) map_func f p

(* ------------------------------------------------------------------ *)
(* Fresh copies                                                        *)
(* ------------------------------------------------------------------ *)

(** Deep-copy an expression with placeholder ids (used when a transform
    duplicates code, e.g. loop unrolling); the copy is numbered when it
    is spliced into a program. *)
let refresh_expr = Ast.map_ids_expr (fun _ -> Ast.placeholder_id)

(** Deep-copy a statement with placeholder ids throughout. *)
let refresh_stmt = Ast.map_ids_stmt (fun _ -> Ast.placeholder_id)

let replace_var ~name ~by (e : Ast.expr) =
  match e.enode with Ast.Var v when v = name -> refresh_expr by | _ -> e

(** Substitute variable [name] by expression [by] (placeholder-id
    copies) throughout an expression. *)
let subst_var ~name ~by = map_expr (replace_var ~name ~by)

(** Substitute a variable in a whole statement, rebuilding in place
    (ids preserved except where [by] is spliced in). *)
let subst_var_stmt ~name ~by = map_stmt_exprs (replace_var ~name ~by)
