(** Static type checker for MiniC programs.

    Checks that every reference program and every generated design is
    well-typed: variables are declared before use, array indexing applies
    to pointers, call arities match, conditions are boolean/integer, and
    arithmetic only combines numeric operands (with the usual C widening
    int -> float -> double).

    One name has one type.  A function may not declare a name twice
    with different types, and the globals may not declare a name twice;
    parameters and [for] indexes count as declarations, and a global
    block holds declarations only.  A local may shadow a global of
    another type: as in the interpreter's resolver, it is that local
    throughout the function, before its declaration too.  So each
    interpreter slot has one declared type, the type of every value it
    holds, and the bytecode lowering types slots from declarations
    alone.

    Generated designs contain calls to target-runtime management functions
    (e.g. [hipMemcpy]) that MiniC does not model; pass
    [~allow_unknown_calls:true] when checking those. *)

open Ast

exception Type_error of string * Loc.t

type env = {
  vars : (string, typ) Hashtbl.t;
  funcs : (string, typ list * typ) Hashtbl.t;
  allow_unknown_calls : bool;
  ret : typ;
  decls : (string, typ) Hashtbl.t;
      (** the names the function (or the global block) has declared *)
  global : bool;  (** checking the global block *)
}

let err loc fmt = Printf.ksprintf (fun m -> raise (Type_error (m, loc))) fmt

let is_numeric = function Tint | Tfloat | Tdouble -> true | _ -> false

(** C-style usual arithmetic conversion. *)
let join loc a b =
  if not (is_numeric a && is_numeric b) then
    err loc "cannot combine %s and %s" (string_of_typ a) (string_of_typ b)
  else if a = Tdouble || b = Tdouble then Tdouble
  else if a = Tfloat || b = Tfloat then Tfloat
  else Tint

(** [b] is assignable to a location of type [a]. *)
let assignable a b =
  a = b || (is_numeric a && is_numeric b)
  || (match (a, b) with Tbool, Tint -> true | _ -> false)

let rec type_expr env (e : expr) : typ =
  match e.enode with
  | Int_lit _ -> Tint
  | Float_lit (_, Single) -> Tfloat
  | Float_lit (_, Double) -> Tdouble
  | Bool_lit _ -> Tbool
  | Var v -> (
      match Hashtbl.find_opt env.vars v with
      | Some t -> t
      | None -> err e.eloc "undeclared variable '%s'" v)
  | Unop (Neg, a) ->
      let t = type_expr env a in
      if is_numeric t then t else err e.eloc "negation of non-numeric value"
  | Unop (Not, a) ->
      let t = type_expr env a in
      if t = Tbool || t = Tint then Tbool
      else err e.eloc "logical not of non-boolean value"
  | Binop (op, a, b) -> (
      let ta = type_expr env a and tb = type_expr env b in
      match op with
      | Add | Sub | Mul | Div ->
          if is_numeric ta && is_numeric tb then join e.eloc ta tb
          else err e.eloc "arithmetic on non-numeric operands"
      | Mod ->
          if ta = Tint && tb = Tint then Tint
          else err e.eloc "'%%' requires integer operands"
      | Lt | Le | Gt | Ge ->
          if is_numeric ta && is_numeric tb then Tbool
          else err e.eloc "comparison of non-numeric operands"
      | Eq | Ne ->
          if (is_numeric ta && is_numeric tb) || ta = tb then Tbool
          else err e.eloc "equality between incompatible types"
      | LAnd | LOr ->
          let ok t = t = Tbool || t = Tint in
          if ok ta && ok tb then Tbool
          else err e.eloc "logical operator on non-boolean operands")
  | Index (a, i) -> (
      let ta = type_expr env a and ti = type_expr env i in
      if ti <> Tint then err e.eloc "array index must be an int";
      match ta with
      | Tptr t -> t
      | t -> err e.eloc "indexing a non-pointer value of type %s" (string_of_typ t))
  | Cast (t, a) ->
      let ta = type_expr env a in
      if is_numeric t && is_numeric ta then t
      else if t = ta then t
      else err e.eloc "invalid cast from %s to %s" (string_of_typ ta) (string_of_typ t)
  | Call (f, args) -> (
      let arg_types = List.map (type_expr env) args in
      match Hashtbl.find_opt env.funcs f with
      | Some (params, ret) ->
          if List.length params <> List.length args then
            err e.eloc "call to '%s' with %d arguments, expected %d" f
              (List.length args) (List.length params);
          List.iteri
            (fun k (expected, got) ->
              if not (assignable expected got) then
                err e.eloc "argument %d of '%s': expected %s, got %s" (k + 1)
                  f (string_of_typ expected) (string_of_typ got))
            (List.combine params arg_types);
          ret
      | None -> (
          match Builtins.lookup f with
          | Some s ->
              if List.length s.args <> List.length args then
                err e.eloc "builtin '%s' applied to %d arguments, expected %d"
                  f (List.length args) (List.length s.args);
              List.iteri
                (fun k (expected, got) ->
                  if not (assignable expected got) then
                    err e.eloc "argument %d of builtin '%s': expected %s, got %s"
                      (k + 1) f (string_of_typ expected) (string_of_typ got))
                (List.combine s.args arg_types);
              s.ret
          | None ->
              if env.allow_unknown_calls then Tint
              else err e.eloc "call to unknown function '%s'" f))

let type_cond env e =
  let t = type_expr env e in
  if t <> Tbool && t <> Tint then
    err e.eloc "condition must be boolean, got %s" (string_of_typ t)

let declared_type d =
  match d.dsize with Some _ -> Tptr d.dtyp | None -> d.dtyp

(* Declare [name] with type [t], enforcing one type per name. *)
let declare env loc name t =
  (match Hashtbl.find_opt env.decls name with
  | Some _ when env.global -> err loc "global '%s' is declared twice" name
  | Some t0 when t0 <> t ->
      err loc "'%s' is redeclared as %s (declared %s)" name (string_of_typ t)
        (string_of_typ t0)
  | _ -> ());
  Hashtbl.replace env.decls name t;
  Hashtbl.replace env.vars name t

let rec check_stmt env (s : stmt) =
  match s.snode with
  | Decl d ->
      (match d.dsize with
      | Some e ->
          if type_expr env e <> Tint then
            err s.sloc "array size of '%s' must be an int" d.dname
      | None -> ());
      (match d.dinit with
      | Some e ->
          let t = type_expr env e in
          if not (assignable d.dtyp t) then
            err s.sloc "initialiser of '%s': expected %s, got %s" d.dname
              (string_of_typ d.dtyp) (string_of_typ t)
      | None -> ());
      declare env s.sloc d.dname (declared_type d)
  | Assign (lv, op, e) ->
      let tl =
        match lv with
        | Lvar v -> (
            match Hashtbl.find_opt env.vars v with
            | Some t -> t
            | None -> err s.sloc "assignment to undeclared variable '%s'" v)
        | Lindex (a, i) -> (
            let ti = type_expr env i in
            if ti <> Tint then err s.sloc "array index must be an int";
            match type_expr env a with
            | Tptr t -> t
            | t -> err s.sloc "indexing non-pointer of type %s" (string_of_typ t))
      in
      let te = type_expr env e in
      if not (assignable tl te) then
        err s.sloc "assignment: expected %s, got %s" (string_of_typ tl)
          (string_of_typ te);
      if op <> Set && not (is_numeric tl) then
        err s.sloc "compound assignment requires a numeric target"
  | Expr_stmt e -> ignore (type_expr env e)
  | If (c, b1, b2) ->
      type_cond env c;
      check_block env b1;
      Option.iter (check_block env) b2
  | While (c, b) ->
      type_cond env c;
      check_block env b
  | For (h, b) ->
      let check_int name e =
        if type_expr env e <> Tint then
          err s.sloc "for-loop %s must be an int" name
      in
      declare env s.sloc h.index Tint;
      check_int "initialiser" h.init;
      check_int "bound" h.bound;
      check_int "step" h.step;
      check_block env b
  | Return None ->
      if env.ret <> Tvoid then err s.sloc "missing return value"
  | Return (Some e) ->
      let t = type_expr env e in
      if not (assignable env.ret t) then
        err s.sloc "return type mismatch: expected %s, got %s"
          (string_of_typ env.ret) (string_of_typ t)
  | Block b -> check_block env b

(* Scoping is simplified: a block does not pop declarations, as a
   function has one slot per name.  One type per name makes the
   simplification exact: a name redeclared in a sibling scope has the
   same type. *)
and check_block env b = List.iter (check_stmt env) b

(** Type-check a whole program.
    @raise Type_error on the first violation found. *)
let check_program ?(allow_unknown_calls = false) (p : program) =
  let funcs = Hashtbl.create 16 in
  List.iter
    (fun f ->
      Hashtbl.replace funcs f.fname
        (List.map (fun (pr : param) -> pr.ptyp) f.fparams, f.fret))
    p.funcs;
  let global_vars = Hashtbl.create 16 in
  let genv =
    {
      vars = global_vars;
      funcs;
      allow_unknown_calls;
      ret = Tvoid;
      decls = Hashtbl.create 16;
      global = true;
    }
  in
  List.iter
    (fun s ->
      match s.snode with
      | Decl _ -> check_stmt genv s
      | _ -> err s.sloc "only declarations may appear outside a function")
    p.globals;
  List.iter
    (fun f ->
      let vars = Hashtbl.copy global_vars in
      (* a global a local shadows is that local throughout the function *)
      iter_func
        (fun s ->
          match s.snode with
          | Decl d when Hashtbl.mem global_vars d.dname ->
              Hashtbl.replace vars d.dname (declared_type d)
          | For (h, _) when Hashtbl.mem global_vars h.index ->
              Hashtbl.replace vars h.index Tint
          | _ -> ())
        f;
      let env =
        { genv with vars; ret = f.fret; decls = Hashtbl.create 16; global = false }
      in
      List.iter (fun (pr : param) -> declare env f.floc pr.pname_ pr.ptyp) f.fparams;
      check_block env f.fbody)
    p.funcs

(** [true] if the program type-checks. *)
let is_well_typed ?allow_unknown_calls p =
  match check_program ?allow_unknown_calls p with
  | () -> true
  | exception Type_error _ -> false
