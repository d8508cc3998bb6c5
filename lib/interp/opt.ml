(** Slot-IR optimizer: the stage between {!Resolve} and the bytecode
    lowering of {!Bytecode}.

    Two parts:

    - {b type analysis} ({!type_program}, {!ety}): a static value type
      for every slot and expression.  The lowering reads it to put slots
      in the unboxed register banks and to pick typed arithmetic,
      division and comparison instructions where an operand's int-vs-
      float path is statically known.
    - {b kernel specialization} ({!optimize}): innermost counted loops
      whose bodies are straight-line float arithmetic over affine memory
      sites (elementwise maps, scaled accumulates/reductions, stencil
      reads) compile to {!Resolve.kernel}s — flat float-register
      programs whose per-iteration virtual costs are charged in bulk.

    Specialization carries a bit-identity obligation against the
    reference walker ([Eval.run_ir] over the unoptimized IR): same
    virtual-cycle totals, same counter values, same memory effects and
    tracked ranges, same output, same error points, same fuel
    accounting.  Cycle-exactness of bulk charging rests on every
    {!Profile.Cost} constant being an integer-valued float: sums and
    products of integer-valued doubles below 2{^53} are exact, so [n]
    bulk-charged iterations equal [n] individually charged ones
    bit-for-bit. *)

module R = Resolve
module C = Profile.Cost
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
   unoptimized node would). *)
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
let rec stmt_exprs (s : R.stmt) : R.expr list =
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
  | R.SFused { forig; _ } -> stmt_exprs forig

let rec sub_blocks (s : R.stmt) : R.block list =
  match s with
  | R.SIf (_, b1, b2) -> b1 :: Option.to_list b2
  | R.SWhile { body; _ } | R.SFor { body; _ } -> [ body ]
  | R.SBlock b -> [ b ]
  | R.SFused { forig; _ } -> sub_blocks forig
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
    argument converts to it).  Kernel specialization below consumes
    it, and so does {!Bytecode}: its register-bank assignment (a slot
    typed [TFloat] ([TInt]) is only ever written a [VFloat] ([VInt]))
    and its choice of typed instructions. *)
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
    | R.SFused { forig; _ } -> stmt da forig
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

(* ------------------------------------------------------------------ *)
(* Kernel specialization                                               *)
(* ------------------------------------------------------------------ *)

(* Statically counted per-iteration effects of a kernel body: counter
   bumps and dynamic cycle charges, charged in bulk on kernel entry. *)
type counted = { n_flops : int; n_sfu : int; n_dyn : float }

let czero = { n_flops = 0; n_sfu = 0; n_dyn = 0.0 }

let cadd a b =
  {
    n_flops = a.n_flops + b.n_flops;
    n_sfu = a.n_sfu + b.n_sfu;
    n_dyn = a.n_dyn +. b.n_dyn;
  }

exception Not_kernel

(* Affine integer expression in the loop index: conversion + static
   int-op count (one bump per Add/Sub/Mul evaluation; Neg of an int and
   literal/variable reads bump nothing) + affinity degree. *)
let rec affine env lt ~idx_slot (e : R.expr) : R.iexpr * int * int =
  match e.e with
  | R.ELit (VInt n) -> (R.ILit n, 0, 0)
  | R.EVar (R.Local i) when i = idx_slot -> (R.IIdx, 0, 1)
  | R.EVar (R.Local i) -> (
      match lt.(i) with
      | TInt | TBool -> (R.ISlot i, 0, 0)
      | _ -> raise Not_kernel)
  | R.EArith ((Minic.Ast.Add as op), _, a, b)
  | R.EArith ((Minic.Ast.Sub as op), _, a, b)
  | R.EArith ((Minic.Ast.Mul as op), _, a, b) -> (
      let ta = ety env lt a and tb = ety env lt b in
      if not (not_f ta && not_f tb) then raise Not_kernel;
      let ia, na, da = affine env lt ~idx_slot a in
      let ib, nb, db = affine env lt ~idx_slot b in
      match op with
      | Minic.Ast.Add -> (R.IAdd (ia, ib), na + nb + 1, max da db)
      | Minic.Ast.Sub -> (R.ISub (ia, ib), na + nb + 1, max da db)
      | Minic.Ast.Mul ->
          if da + db > 1 then raise Not_kernel;
          (R.IMul (ia, ib), na + nb + 1, da + db)
      | _ -> assert false)
  | R.ENeg a -> (
      match ety env lt a with
      | TInt ->
          let ia, na, da = affine env lt ~idx_slot a in
          (R.INeg ia, na, da)
      | _ -> raise Not_kernel)
  | _ -> raise Not_kernel

(* Degree-0 affine expressions for init/bound/step: may not reference
   the loop's own index. *)
let invariant_int env lt ~idx_slot (e : R.expr) =
  let ie, nops, deg = affine env lt ~idx_slot e in
  if deg <> 0 then raise Not_kernel;
  (ie, nops)

let rec iexpr_slots acc = function
  | R.ILit _ | R.IIdx -> acc
  | R.ISlot i -> i :: acc
  | R.IAdd (a, b) | R.ISub (a, b) | R.IMul (a, b) ->
      iexpr_slots (iexpr_slots acc a) b
  | R.INeg a -> iexpr_slots acc a

(* Translation state for one candidate loop body. *)
type ktrans = {
  mutable instrs : R.kinstr list;  (* reversed *)
  mutable nregs : int;
  mutable sites : (R.ksite * int) list;  (* (site, number), reversed *)
  mutable nsites : int;
  mutable site_loads : (int * int) list;  (* site -> per-iter loads *)
  mutable site_stores : (int * int) list;
  slot_reg : (int, int) Hashtbl.t;  (* float slot -> dedicated register *)
  mutable entry : (int * int) list;  (* (slot, reg) entry loads *)
  mutable written_now : (int, unit) Hashtbl.t;  (* written so far, body order *)
  mutable c : counted;  (* accumulated per-iteration body counts *)
}

(** Specialize every kernel-shaped innermost loop of [cp].  The number
    specialized is published to {!Flow_obs.Metrics.global} as
    [opt_kernels_specialized]. *)
let optimize (cp : R.t) : R.t =
  let nkernels = ref 0 in
  let env = type_program cp in
  let rewrite_func fi (f : R.cfunc) : R.cfunc =
    let lt = env.locals.(fi) in
    (* attempt to compile one innermost SFor body to a kernel *)
    let try_kernel (sf : (* SFor payload *) int * R.var_ref * R.expr * R.expr * bool * R.expr * R.block) :
        R.kernel option =
      let fsid, slot, init, bound, inclusive, step, body = sf in
      match slot with
      | R.Unbound _ | R.Global _ -> None
      | R.Local idx_slot -> (
          try
            let group =
              match body with
              | [ g ] -> g
              | [] -> raise Not_kernel
              | _ -> raise Not_kernel
            in
            let k =
              {
                instrs = [];
                nregs = 0;
                sites = [];
                nsites = 0;
                site_loads = [];
                site_stores = [];
                slot_reg = Hashtbl.create 8;
                entry = [];
                written_now = Hashtbl.create 8;
                c = czero;
              }
            in
            let fresh_reg () =
              let r = k.nregs in
              k.nregs <- k.nregs + 1;
              r
            in
            let emit i = k.instrs <- i :: k.instrs in
            let bump c = k.c <- cadd k.c c in
            let reg_of_slot s =
              match Hashtbl.find_opt k.slot_reg s with
              | Some r -> r
              | None ->
                  let r = fresh_reg () in
                  Hashtbl.add k.slot_reg s r;
                  r
            in
            (* reading a float slot: entry-load it unless the body has
               already written it (straight-line order) *)
            let read_slot s =
              let r = reg_of_slot s in
              if
                (not (Hashtbl.mem k.written_now s))
                && not (List.mem_assoc s k.entry)
              then k.entry <- (s, r) :: k.entry;
              r
            in
            let new_site base idx_e =
              let ie, nops, _deg = affine env lt ~idx_slot idx_e in
              (* invariant int slots read silently at entry must not be
                 written by the body — the body writes only float slots
                 and the (rejected) index, so a clash means rejection *)
              List.iter
                (fun s ->
                  if s <> idx_slot && not (not_f lt.(s)) then raise Not_kernel)
                (iexpr_slots [] ie);
              let n = k.nsites in
              k.nsites <- k.nsites + 1;
              k.sites <- ({ R.ks_base = base; ks_idx = ie }, n) :: k.sites;
              (n, nops)
            in
            let add_site_load n =
              k.site_loads <-
                (n, (try List.assoc n k.site_loads with Not_found -> 0) + 1)
                :: List.remove_assoc n k.site_loads
            in
            let add_site_store n =
              k.site_stores <-
                (n, (try List.assoc n k.site_stores with Not_found -> 0) + 1)
                :: List.remove_assoc n k.site_stores
            in
            (* per-iteration int-op bumps accumulate here *)
            let int_ops = ref 0 in
            (* compile a float-valued expression into a register *)
            let rec cf (e : R.expr) : int =
              match e.e with
              | R.ELit (VFloat f) ->
                  let r = fresh_reg () in
                  emit (R.KLit (r, f));
                  r
              | R.ELit (VInt n) ->
                  (* consumed via [to_float] in every float context *)
                  let r = fresh_reg () in
                  emit (R.KLit (r, float_of_int n));
                  r
              | R.ELit (VBool b) ->
                  let r = fresh_reg () in
                  emit (R.KLit (r, if b then 1.0 else 0.0));
                  r
              | R.EVar (R.Local i) when i = idx_slot ->
                  let r = fresh_reg () in
                  emit (R.KItoF r);
                  r
              | R.EVar (R.Local i) -> (
                  match lt.(i) with
                  | TFloat -> read_slot i
                  | TInt | TBool ->
                      (* invariant int: the body writes only floats, so
                         its value is fixed — entry-convert it once *)
                      if Hashtbl.mem k.slot_reg i then raise Not_kernel;
                      read_slot i
                  | _ -> raise Not_kernel)
              | R.EArith (op, fresid, a, b) ->
                  let ta = ety env lt a and tb = ety env lt b in
                  if not (is_f ta || is_f tb) then raise Not_kernel;
                  let ra = cf a in
                  let rb = cf b in
                  let rd = fresh_reg () in
                  (match op with
                  | Minic.Ast.Add -> emit (R.KAdd (rd, ra, rb))
                  | Minic.Ast.Sub -> emit (R.KSub (rd, ra, rb))
                  | Minic.Ast.Mul -> emit (R.KMul (rd, ra, rb))
                  | _ -> raise Not_kernel);
                  bump { n_flops = 1; n_sfu = 0; n_dyn = fresid };
                  rd
              | R.EDiv (a, b) ->
                  let ta = ety env lt a and tb = ety env lt b in
                  if not (is_f ta || is_f tb) then raise Not_kernel;
                  let ra = cf a in
                  let rb = cf b in
                  let rd = fresh_reg () in
                  emit (R.KDiv (rd, ra, rb));
                  bump { n_flops = 1; n_sfu = 0; n_dyn = C.float_div };
                  rd
              | R.ENeg a ->
                  if not (is_f (ety env lt a)) then raise Not_kernel;
                  let ra = cf a in
                  let rd = fresh_reg () in
                  emit (R.KNeg (rd, ra));
                  bump { n_flops = 1; n_sfu = 0; n_dyn = 0.0 };
                  rd
              | R.ECast ((Minic.Ast.Tfloat | Minic.Ast.Tdouble), a) -> (
                  match a.e with
                  | R.EVar (R.Local i) when i = idx_slot ->
                      let r = fresh_reg () in
                      emit (R.KItoF r);
                      r
                  | _ ->
                      if is_f (ety env lt a) then cf a
                      else (
                        match a.e with
                        | R.EVar (R.Local i) -> (
                            match lt.(i) with
                            | TInt | TBool ->
                                if Hashtbl.mem k.slot_reg i then
                                  raise Not_kernel;
                                read_slot i
                            | _ -> raise Not_kernel)
                        | R.ELit (VInt n) ->
                            let r = fresh_reg () in
                            emit (R.KLit (r, float_of_int n));
                            r
                        | _ -> raise Not_kernel))
              | R.ECall { callee = R.Math { mimpl = R.M1 g; mflops }; cargs }
                -> (
                  match cargs with
                  | [ a ] ->
                      let ra = cf a in
                      let rd = fresh_reg () in
                      emit (R.KMath1 (rd, g, ra));
                      bump
                        { n_flops = mflops; n_sfu = 1; n_dyn = 0.0 };
                      rd
                  | _ -> raise Not_kernel)
              | R.ECall { callee = R.Math { mimpl = R.M2 g; mflops }; cargs }
                -> (
                  match cargs with
                  | [ a; b ] ->
                      let ra = cf a in
                      let rb = cf b in
                      let rd = fresh_reg () in
                      emit (R.KMath2 (rd, g, ra, rb));
                      bump
                        { n_flops = mflops; n_sfu = 1; n_dyn = 0.0 };
                      rd
                  | _ -> raise Not_kernel)
              | R.EIndex (a, idx_e) -> (
                  match a.e with
                  | R.EVar (R.Local b) -> (
                      match lt.(b) with
                      | TPtr (Minic.Ast.Tfloat | Minic.Ast.Tdouble) ->
                          let n, nops = new_site b idx_e in
                          int_ops := !int_ops + nops;
                          add_site_load n;
                          let rd = fresh_reg () in
                          emit (R.KLoad (rd, n));
                          rd
                      | _ -> raise Not_kernel)
                  | _ -> raise Not_kernel)
              | _ -> raise Not_kernel
            in
            let mark_written s = Hashtbl.replace k.written_now s () in
            let do_stmt (s : R.stmt) =
              match s with
              | R.SDeclVar
                  {
                    slot = R.Local s;
                    typ = Minic.Ast.Tfloat | Minic.Ast.Tdouble;
                    init = Some e;
                  } ->
                  if s = idx_slot then raise Not_kernel;
                  let r = cf e in
                  let rd = reg_of_slot s in
                  emit (R.KMov (rd, r));
                  mark_written s
              | R.SAssign { slot = R.Local s; aop; rhs } -> (
                  if s = idx_slot then raise Not_kernel;
                  if not (is_f lt.(s)) then raise Not_kernel;
                  if not (is_f (ety env lt rhs)) then raise Not_kernel;
                  match aop with
                  | Minic.Ast.Set ->
                      let r = cf rhs in
                      let rd = reg_of_slot s in
                      emit (R.KMov (rd, r));
                      mark_written s
                  | Minic.Ast.AddEq | Minic.Ast.SubEq | Minic.Ast.MulEq
                  | Minic.Ast.DivEq ->
                      let r = cf rhs in
                      let rd = read_slot s in
                      (match aop with
                      | Minic.Ast.AddEq ->
                          emit (R.KAdd (rd, rd, r));
                          bump { n_flops = 1; n_sfu = 0; n_dyn = 0.0 }
                      | Minic.Ast.SubEq ->
                          emit (R.KSub (rd, rd, r));
                          bump { n_flops = 1; n_sfu = 0; n_dyn = 0.0 }
                      | Minic.Ast.MulEq ->
                          emit (R.KMul (rd, rd, r));
                          bump { n_flops = 1; n_sfu = 0; n_dyn = 0.0 }
                      | Minic.Ast.DivEq ->
                          emit (R.KDiv (rd, rd, r));
                          bump
                            {
                              n_flops = 1;
                              n_sfu = 0;
                              n_dyn = C.float_div;
                            }
                      | Minic.Ast.Set -> assert false);
                      mark_written s)
              | R.SStore { arr; idx; aop; rhs } -> (
                  match arr.e with
                  | R.EVar (R.Local b) -> (
                      match lt.(b) with
                      | TPtr (Minic.Ast.Tfloat | Minic.Ast.Tdouble) -> (
                          if not (is_f (ety env lt rhs)) then raise Not_kernel;
                          (* evaluation order: rhs, then arr/idx *)
                          let r = cf rhs in
                          let n, nops = new_site b idx in
                          int_ops := !int_ops + nops;
                          match aop with
                          | Minic.Ast.Set ->
                              emit (R.KStore (n, r));
                              add_site_store n
                          | Minic.Ast.AddEq ->
                              emit (R.KStoreAdd (n, r));
                              add_site_load n;
                              add_site_store n;
                              bump
                                {
                                  n_flops = 1;
                                  n_sfu = 0;
                                  n_dyn = 0.0;
                                }
                          | Minic.Ast.SubEq ->
                              emit (R.KStoreSub (n, r));
                              add_site_load n;
                              add_site_store n;
                              bump
                                {
                                  n_flops = 1;
                                  n_sfu = 0;
                                  n_dyn = 0.0;
                                }
                          | Minic.Ast.MulEq ->
                              emit (R.KStoreMul (n, r));
                              add_site_load n;
                              add_site_store n;
                              bump
                                {
                                  n_flops = 1;
                                  n_sfu = 0;
                                  n_dyn = 0.0;
                                }
                          | Minic.Ast.DivEq ->
                              emit (R.KStoreDiv (n, r));
                              add_site_load n;
                              add_site_store n;
                              bump
                                {
                                  n_flops = 1;
                                  n_sfu = 0;
                                  n_dyn = C.float_div;
                                })
                      | _ -> raise Not_kernel)
                  | _ -> raise Not_kernel)
              | _ -> raise Not_kernel
            in
            List.iter do_stmt group.R.gstmts;
            let ie_init, init_ops = invariant_int env lt ~idx_slot init in
            let ie_bound, bound_ops = invariant_int env lt ~idx_slot bound in
            let ie_step, step_ops = invariant_int env lt ~idx_slot step in
            (* bound/step slots must be loop-invariant: the body writes
               only float slots, and silent slots are int-typed, so any
               overlap was already rejected; the index slot itself may
               not appear (checked by [invariant_int]) *)
            List.iter
              (fun s -> if Hashtbl.mem k.written_now s then raise Not_kernel)
              (iexpr_slots
                 (iexpr_slots (iexpr_slots [] ie_init) ie_bound)
                 ie_step);
            let nstmts = List.length group.R.gstmts in
            let sites =
              let a = Array.make k.nsites { R.ks_base = 0; ks_idx = R.ILit 0 } in
              List.iter (fun (s, n) -> a.(n) <- s) k.sites;
              a
            in
            let site_counts assoc =
              Array.init k.nsites (fun n ->
                  try List.assoc n assoc with Not_found -> 0)
            in
            let out =
              Hashtbl.fold
                (fun s r acc ->
                  if Hashtbl.mem k.written_now s then (s, r) :: acc else acc)
                k.slot_reg []
              |> List.sort compare
            in
            incr nkernels;
            Some
              {
                R.k_body = Array.of_list (List.rev k.instrs);
                k_nfregs = k.nregs;
                k_sites = sites;
                k_site_loads = site_counts k.site_loads;
                k_site_stores = site_counts k.site_stores;
                k_in = Array.of_list (List.rev k.entry);
                k_out = Array.of_list out;
                k_idx_slot = idx_slot;
                k_fsid = fsid;
                k_inclusive = inclusive;
                k_init = ie_init;
                k_bound = ie_bound;
                k_step = ie_step;
                k_nstmts = nstmts;
                k_flops = k.c.n_flops;
                k_sfu = k.c.n_sfu;
                k_int_ops = !int_ops;
                k_init_int_ops = init_ops;
                k_bound_int_ops = bound_ops;
                k_step_int_ops = step_ops;
                k_dyn_cycles = k.c.n_dyn;
                k_gcost = group.R.gcost;
                k_icost = init.R.ecost;
                k_bcost = C.branch +. bound.R.ecost;
                k_scost = step.R.ecost;
              }
          with Not_kernel -> None)
    in
    let rec has_loop (b : R.block) =
      let found = ref false in
      iter_stmts
        (fun s ->
          match s with
          | R.SFor _ | R.SWhile _ | R.SFused _ -> found := true
          | _ -> ())
        b;
      !found
    and go_block (b : R.block) : R.block =
      List.map
        (fun (g : R.group) ->
          { g with R.gstmts = List.map go_stmt g.gstmts })
        b
    and go_stmt (s : R.stmt) : R.stmt =
      match s with
      | R.SFor sf -> (
          let body' = go_block sf.body in
          let s' = R.SFor { sf with body = body' } in
          if has_loop body' then s'
          else
            match
              try_kernel
                ( sf.fsid,
                  sf.slot,
                  sf.init,
                  sf.bound,
                  sf.inclusive,
                  sf.step,
                  body' )
            with
            | Some kern -> R.SFused { forig = s'; kern }
            | None -> s')
      | R.SWhile sw -> R.SWhile { sw with body = go_block sw.body }
      | R.SIf (c, b1, b2) -> R.SIf (c, go_block b1, Option.map go_block b2)
      | R.SBlock b -> R.SBlock (go_block b)
      | s -> s
    in
    { f with R.cf_body = go_block f.cf_body }
  in
  let cp = { cp with R.cfuncs = Array.mapi rewrite_func cp.cfuncs } in
  if !nkernels > 0 then
    Flow_obs.Metrics.incr ~by:!nkernels Flow_obs.Metrics.global
      "opt_kernels_specialized";
  cp
