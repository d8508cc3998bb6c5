(** Static type analysis of the slot IR, for the bytecode lowering of
    {!Bytecode}: a value type for every slot ({!type_program}) and
    expression ({!ety}), and the slots a read may reach before any write
    ({!read_before_write}).  The lowering reads them to put slots in the
    unboxed register banks, to pick typed arithmetic, division and
    comparison instructions where an operand's int-vs-float path is
    statically known, and to decide which innermost loops compile to
    specialized kernels.  {!Eval.compile} runs {!type_program} once. *)

module R = Resolve
open Value

(* ------------------------------------------------------------------ *)
(* Static value types                                                  *)
(* ------------------------------------------------------------------ *)

(* A whole-program flow-insensitive type for each local and global slot:
   the join of every value ever written to it.  [Bot] = never written
   (the slot still holds its initial [VUnit]).  Precision matters only
   for [TFloat] ("definitely a float at runtime") and for the
   definitely-not-float set; everything uncertain joins to [Top]. *)
type ty = Bot | TInt | TBool | TFloat | TUnit | TPtr of Minic.Ast.typ | Top

let join a b =
  if a = b then a else match (a, b) with Bot, x | x, Bot -> x | _ -> Top

let is_f = function TFloat -> true | _ -> false

(* [Value.is_float] is statically false: the int path of arith/cmp/div
   is taken (it may still error on VUnit/VPtr operands — exactly as the
   operand-dynamic instruction would). *)
let not_f = function
  | Bot | TInt | TBool | TUnit | TPtr _ -> true
  | TFloat | Top -> false

let ty_of_decl (typ : Minic.Ast.typ) ~(init : ty option) =
  match typ with
  | Minic.Ast.Tint -> TInt
  | Minic.Ast.Tfloat | Minic.Ast.Tdouble -> TFloat
  | Minic.Ast.Tbool -> TBool
  | Minic.Ast.Tptr _ | Minic.Ast.Tvoid -> (
      (* no coercion: the slot gets the init value as-is, or the typ's
         zero value *)
      match init with
      | Some t -> t
      | None -> (
          match typ with
          | Minic.Ast.Tptr t -> TPtr t
          | _ -> TUnit))

let arith_ty a b = if is_f a || is_f b then TFloat else if not_f a && not_f b then TInt else Top

(* Slot-type environment: one [ty array] per function frame plus one for
   the globals.  [tenv.(nfuncs)] is the global array. *)
type tenv = { locals : ty array array; globals : ty array }

let rec ety (env : tenv) (lt : ty array) (e : R.expr) : ty =
  match e.e with
  | R.ELit (VInt _) -> TInt
  | R.ELit (VFloat _) -> TFloat
  | R.ELit (VBool _) -> TBool
  | R.ELit VUnit -> TUnit
  | R.ELit (VPtr _) -> Top
  | R.EVar (R.Local i) -> lt.(i)
  | R.EVar (R.Global i) -> env.globals.(i)
  | R.EVar (R.Unbound _) -> Top
  | R.ENeg a -> (
      match ety env lt a with TFloat -> TFloat | TInt -> TInt | _ -> Top)
  | R.ENot _ -> TBool
  | R.EArith (_, _, a, b) | R.EDiv (a, b) -> arith_ty (ety env lt a) (ety env lt b)
  | R.EMod _ -> TInt
  | R.ECmp _ -> TBool
  | R.EAnd _ | R.EOr _ -> TBool
  | R.EIndex (a, _) -> (
      (* a region holds only values of its element type: allocation
         zero-fills with them and every store converts to it *)
      match ety env lt a with
      | TPtr (Minic.Ast.Tfloat | Minic.Ast.Tdouble) -> TFloat
      | TPtr Minic.Ast.Tint -> TInt
      | TPtr Minic.Ast.Tbool -> TBool
      | _ -> Top)
  | R.ECast (t, a) -> (
      match t with
      | Minic.Ast.Tint -> TInt
      | Minic.Ast.Tfloat | Minic.Ast.Tdouble -> TFloat
      | Minic.Ast.Tbool -> TBool
      | Minic.Ast.Tptr _ | Minic.Ast.Tvoid -> ety env lt a)
  | R.ECall { callee; _ } -> (
      match callee with
      | R.Math _ | R.Rand01 -> TFloat
      | R.Rand_int -> TInt
      | R.Print_int | R.Print_float | R.Timer_start | R.Timer_stop -> TUnit
      | R.User _ | R.Math_unimpl _ | R.Unknown _ -> Top)

(* Iterate every expression of a statement (sub-expressions excluded —
   callers recurse via [iter_expr] when needed). *)
let stmt_exprs (s : R.stmt) : R.expr list =
  match s with
  | R.SDeclVar { init; _ } -> Option.to_list init
  | R.SDeclArr { size; _ } -> [ size ]
  | R.SAssign { rhs; _ } -> [ rhs ]
  | R.SStore { arr; idx; rhs; _ } -> [ rhs; arr; idx ]
  | R.SExpr e -> [ e ]
  | R.SIf (c, _, _) -> [ c ]
  | R.SWhile { cond; _ } -> [ cond ]
  | R.SFor { init; bound; step; _ } -> [ init; bound; step ]
  | R.SReturn eo -> Option.to_list eo
  | R.SBlock _ -> []

let sub_blocks (s : R.stmt) : R.block list =
  match s with
  | R.SIf (_, b1, b2) -> b1 :: Option.to_list b2
  | R.SWhile { body; _ } | R.SFor { body; _ } -> [ body ]
  | R.SBlock b -> [ b ]
  | _ -> []

let rec iter_expr f (e : R.expr) =
  f e;
  match e.e with
  | R.ELit _ | R.EVar _ -> ()
  | R.ENeg a | R.ENot a | R.ECast (_, a) -> iter_expr f a
  | R.EArith (_, _, a, b)
  | R.EDiv (a, b)
  | R.EMod (a, b)
  | R.ECmp (_, a, b)
  | R.EAnd (a, b)
  | R.EOr (a, b)
  | R.EIndex (a, b) ->
      iter_expr f a;
      iter_expr f b
  | R.ECall { cargs; _ } -> List.iter (iter_expr f) cargs

let rec iter_stmts f (b : R.block) =
  List.iter
    (fun (g : R.group) ->
      List.iter
        (fun s ->
          f s;
          List.iter (iter_stmts f) (sub_blocks s))
        g.gstmts)
    b

(** One fixpoint over the whole program: slot writes join value types
    into slots seeded with each parameter's declared type (a bound
    argument converts to it).  {!Bytecode} consumes it: its
    register-bank assignment (a slot typed [TFloat] ([TInt]) is only
    ever written a [VFloat] ([VInt])), its choice of typed instructions
    and its kernel translation. *)
let type_program (cp : R.t) : tenv =
  let env =
    {
      locals =
        Array.map
          (fun (f : R.cfunc) ->
            let lt = Array.make (max 1 f.cf_nslots) Bot in
            List.iteri
              (fun i (p : Minic.Ast.param) ->
                lt.(f.cf_param_slots.(i)) <- ty_of_decl p.ptyp ~init:None)
              f.cf_params;
            lt)
          cp.cfuncs;
      globals = Array.make (max 1 cp.nglobals) Bot;
    }
  in
  let changed = ref true in
  let assign_local lt i t =
    let j = join lt.(i) t in
    if j <> lt.(i) then (
      lt.(i) <- j;
      changed := true)
  in
  let assign lt (r : R.var_ref) t =
    match r with
    | R.Local i -> assign_local lt i t
    | R.Global i ->
        let j = join env.globals.(i) t in
        if j <> env.globals.(i) then (
          env.globals.(i) <- j;
          changed := true)
    | R.Unbound _ -> ()
  in
  let visit_stmt lt (s : R.stmt) =
    match s with
    | R.SDeclVar { slot; typ; init } ->
        assign lt slot
          (ty_of_decl typ ~init:(Option.map (ety env lt) init))
    | R.SDeclArr { slot; typ; _ } -> assign lt slot (TPtr typ)
    | R.SAssign { slot; typ; aop; rhs } ->
        let v =
          match aop with
          | Minic.Ast.Set -> ety env lt rhs
          | _ ->
              let old =
                match slot with
                | R.Local i -> lt.(i)
                | R.Global i -> env.globals.(i)
                | R.Unbound _ -> Top
              in
              arith_ty old (ety env lt rhs)
        in
        (* the value converts to the declared type, as a declaration's
           initializer does *)
        assign lt slot
          (match typ with Some t -> ty_of_decl t ~init:(Some v) | None -> v)
    | R.SFor { slot; _ } -> assign lt slot TInt
    | _ -> ()
  in
  while !changed do
    changed := false;
    iter_stmts (visit_stmt env.globals) cp.cglobals;
    Array.iteri
      (fun i (f : R.cfunc) -> iter_stmts (visit_stmt env.locals.(i)) f.cf_body)
      cp.cfuncs
  done;
  env

module IS = Set.Make (Int)

(** [read_before_write f] marks every local slot of [f] that some read
    may reach before any write to it on the same path: such a read sees
    the frame's initial [VUnit], which the slot's type (a join over
    writes only) does not describe.  The type checker does not rule this
    out (a declaration stays visible after its block), so the bank
    assignment keeps these slots boxed.  Conservative: [return] does not
    end a path, and a loop body may run zero times. *)
let read_before_write (f : R.cfunc) : bool array =
  let bad = Array.make (max 1 f.cf_nslots) false in
  let reads da e =
    iter_expr
      (fun (e : R.expr) ->
        match e.e with
        | R.EVar (R.Local i) when not (IS.mem i da) -> bad.(i) <- true
        | _ -> ())
      e
  in
  let write da = function R.Local i -> IS.add i da | _ -> da in
  let rec stmt da (s : R.stmt) =
    match s with
    | R.SFor { slot; init; bound; step; body; _ } ->
        reads da init;
        let da = write da slot in
        reads da bound;
        reads (block da body) step;
        da
    | s -> (
        List.iter (reads da) (stmt_exprs s);
        match s with
        | R.SDeclVar { slot; _ } | R.SDeclArr { slot; _ } -> write da slot
        | R.SAssign { slot; aop; _ } ->
            (match (aop, slot) with
            | Minic.Ast.Set, _ -> ()
            | _, R.Local i -> if not (IS.mem i da) then bad.(i) <- true
            | _ -> ());
            write da slot
        | R.SIf (_, b1, b2) ->
            IS.inter (block da b1)
              (match b2 with Some b -> block da b | None -> da)
        | R.SWhile { body; _ } ->
            ignore (block da body);
            da
        | R.SBlock b -> block da b
        | _ -> da)
  and block da b =
    List.fold_left
      (fun da (g : R.group) -> List.fold_left stmt da g.R.gstmts)
      da b
  in
  let params = Array.fold_left (fun da s -> IS.add s da) IS.empty f.cf_param_slots in
  ignore (block params f.cf_body);
  bad
