(** AST query engine — the analogue of Artisan's [query] mechanism.

    The paper's meta-programs select nodes with predicate queries such as

    {v query(∀loop,fn ∈ ast: loop.isForStmt ∧ fn.name = kernel_name
             ∧ fn.encloses(loop) ∧ loop.is_outermost) v}

    Here a query is a predicate over a {!match_ctx}, which packages a
    statement (or expression) together with its enclosing function and the
    stack of enclosing statements, so predicates like [is_outermost_loop]
    or [enclosed_by_loop] are directly expressible.  Predicates compose
    with {!(&&&)}, {!(|||)} and {!not_}. *)

open Minic

(** A statement match: the matched statement, its enclosing function, and
    the statements enclosing it (innermost first). *)
type match_ctx = {
  func : Ast.func;
  path : Ast.stmt list;  (** enclosing statements, innermost first *)
  stmt : Ast.stmt;
}

type pred = match_ctx -> bool

let ( &&& ) p q ctx = p ctx && q ctx
let ( ||| ) p q ctx = p ctx || q ctx
let not_ p ctx = not (p ctx)
let always _ = true

(* ------------------------------------------------------------------ *)
(* Statement predicates                                                *)
(* ------------------------------------------------------------------ *)

let is_for ctx =
  match ctx.stmt.snode with Ast.For _ -> true | _ -> false

let is_while ctx =
  match ctx.stmt.snode with Ast.While _ -> true | _ -> false

let is_loop = is_for ||| is_while

let is_stmt_loop (s : Ast.stmt) =
  match s.snode with Ast.For _ | Ast.While _ -> true | _ -> false

(** The matched node is in the function named [name]. *)
let in_function name ctx = ctx.func.fname = name

(** No enclosing statement (within the same function) is a loop. *)
let is_outermost_loop ctx =
  is_loop ctx && not (List.exists is_stmt_loop ctx.path)

(** Matched loop contains no nested loop. *)
let is_innermost_loop ctx =
  is_loop ctx
  &&
  let nested = ref false in
  List.iter
    (fun b ->
      Ast.iter_block (fun s -> if is_stmt_loop s then nested := true) b)
    (Ast.stmt_blocks ctx.stmt);
  not !nested

(** Some enclosing statement is a loop. *)
let enclosed_by_loop ctx = List.exists is_stmt_loop ctx.path

(** Loop nesting depth of the matched statement (0 = not inside a loop). *)
let loop_depth ctx =
  List.length (List.filter is_stmt_loop ctx.path)

let has_pragma name ctx =
  List.exists (fun (p : Ast.pragma) -> p.pname = name) ctx.stmt.pragmas

(** For-loop whose bound is a compile-time integer literal ("fixed"),
    the precondition of the FPGA "unroll fixed loops" transform. *)
let has_fixed_bound ctx =
  match ctx.stmt.snode with
  | Ast.For (h, _) -> (
      (match h.bound.enode with Ast.Int_lit _ -> true | _ -> false)
      && match h.init.enode with Ast.Int_lit _ -> true | _ -> false)
  | _ -> false

(** Trip count of a fixed-bound canonical loop, when statically known. *)
let static_trip_count (s : Ast.stmt) =
  match s.snode with
  | Ast.For (h, _) -> (
      match (h.init.enode, h.bound.enode, h.step.enode) with
      | Ast.Int_lit i0, Ast.Int_lit b, Ast.Int_lit st when st > 0 ->
          let span = if h.inclusive then b - i0 + 1 else b - i0 in
          Some (max 0 ((span + st - 1) / st))
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Running statement queries                                           *)
(* ------------------------------------------------------------------ *)

(** All statement matches of [pred] in [p], pre-order within each
    function. *)
let stmts ?(where = always) (p : Ast.program) : match_ctx list =
  let results = ref [] in
  let rec walk func path (s : Ast.stmt) =
    let ctx = { func; path; stmt = s } in
    if where ctx then results := ctx :: !results;
    List.iter
      (fun b -> List.iter (walk func (s :: path)) b)
      (Ast.stmt_blocks s)
  in
  List.iter (fun f -> List.iter (walk f []) f.fbody) p.funcs;
  List.rev !results

(** First match of [pred], if any. *)
let first ?where p = match stmts ?where p with [] -> None | m :: _ -> Some m

(** Matches restricted to one function. *)
let stmts_in ?(where = always) p fname =
  stmts ~where:(in_function fname &&& where) p

(* ------------------------------------------------------------------ *)
(* Expression queries                                                  *)
(* ------------------------------------------------------------------ *)

(** An expression match: the expression plus the statement and function
    containing it. *)
type expr_ctx = { efunc : Ast.func; estmt : Ast.stmt; expr : Ast.expr }

type epred = expr_ctx -> bool

let is_call ?name ctx =
  match ctx.expr.enode with
  | Ast.Call (f, _) -> ( match name with None -> true | Some n -> n = f)
  | _ -> false

let is_float_literal ctx =
  match ctx.expr.enode with Ast.Float_lit _ -> true | _ -> false

let is_double_literal ctx =
  match ctx.expr.enode with
  | Ast.Float_lit (_, Ast.Double) -> true
  | _ -> false

(** All expression matches in [p]. *)
let exprs ?(where = fun (_ : expr_ctx) -> true) (p : Ast.program) :
    expr_ctx list =
  let results = ref [] in
  let walk_func (f : Ast.func) =
    Ast.iter_func
      (fun s ->
        List.iter
          (fun root ->
            Ast.iter_expr
              (fun e ->
                let ctx = { efunc = f; estmt = s; expr = e } in
                if where ctx then results := ctx :: !results)
              root)
          (Ast.stmt_exprs s))
      f
  in
  List.iter walk_func p.funcs;
  List.rev !results

(** Expression matches within one function. *)
let exprs_in ?(where = fun (_ : expr_ctx) -> true) p fname =
  exprs ~where:(fun ctx -> ctx.efunc.fname = fname && where ctx) p

(** Names of all functions called within function [fname]. *)
let callees p fname =
  exprs_in p fname
    ~where:(fun ctx ->
      match ctx.expr.enode with Ast.Call _ -> true | _ -> false)
  |> List.filter_map (fun ctx ->
         match ctx.expr.enode with Ast.Call (f, _) -> Some f | _ -> None)
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Kernel parameters of a loop                                         *)
(* ------------------------------------------------------------------ *)

(** Variables used by [stmt] but not declared within it (nor a loop index
    of a loop inside it), in first-use order. *)
let free_vars (stmt : Ast.stmt) : string list =
  let declared = Hashtbl.create 16 in
  let order = ref [] in
  let seen = Hashtbl.create 16 in
  let use v =
    if (not (Hashtbl.mem declared v)) && not (Hashtbl.mem seen v) then (
      Hashtbl.replace seen v ();
      order := v :: !order)
  in
  let use_expr e =
    Ast.iter_expr
      (fun sub -> match sub.Ast.enode with Ast.Var v -> use v | _ -> ())
      e
  in
  let rec walk (s : Ast.stmt) =
    (* declarations bind for the remainder of the body: visit uses of a
       statement before registering its binder only for initialisers *)
    (match s.snode with
    | Ast.Decl d ->
        Option.iter use_expr d.dsize;
        Option.iter use_expr d.dinit;
        Hashtbl.replace declared d.dname ()
    | Ast.For (h, _) ->
        use_expr h.init;
        use_expr h.bound;
        use_expr h.step;
        Hashtbl.replace declared h.index ()
    | Ast.Assign (lv, _, e) ->
        (match lv with
        | Ast.Lvar v -> use v
        | Ast.Lindex (a, i) ->
            use_expr a;
            use_expr i);
        use_expr e
    | _ -> List.iter use_expr (Ast.stmt_exprs s));
    List.iter (fun b -> List.iter walk b) (Ast.stmt_blocks s)
  in
  walk stmt;
  List.rev !order

(* ------------------------------------------------------------------ *)
(* Type environment of the enclosing function                          *)
(* ------------------------------------------------------------------ *)

let var_types (p : Ast.program) (f : Ast.func) =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (g : Ast.stmt) ->
      match g.snode with
      | Ast.Decl d ->
          Hashtbl.replace tbl d.dname
            (match d.dsize with Some _ -> Ast.Tptr d.dtyp | None -> d.dtyp)
      | _ -> ())
    p.globals;
  List.iter
    (fun (pr : Ast.param) -> Hashtbl.replace tbl pr.pname_ pr.ptyp)
    f.fparams;
  Ast.iter_func
    (fun s ->
      match s.Ast.snode with
      | Ast.Decl d ->
          Hashtbl.replace tbl d.dname
            (match d.dsize with Some _ -> Ast.Tptr d.dtyp | None -> d.dtyp)
      | Ast.For (h, _) -> Hashtbl.replace tbl h.index Ast.Tint
      | _ -> ())
    f;
  tbl

(** The parameters of the kernel extracted from [loop] of [f]: its free
    variables that are not builtins, in first-use order, typed in [f]
    (arrays as pointers).  [Error v] names the first free variable with
    no type.  Hotspot extraction builds the kernel's signature from it,
    and the profiling run tracks the loop's pointer arguments in the same
    order. *)
let kernel_params (p : Ast.program) (f : Ast.func) (loop : Ast.stmt) =
  let types = var_types p f in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | v :: rest when Minic.Builtins.is_builtin v -> go acc rest
    | v :: rest -> (
        match Hashtbl.find_opt types v with
        | Some t -> go ((t, v) :: acc) rest
        | None -> Error v)
  in
  go [] (free_vars loop)
