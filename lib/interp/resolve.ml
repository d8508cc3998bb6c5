(** One-time slot resolution: the interpreter fast path.

    Compiles a {!Minic.Ast.program} into an internal representation in
    which

    - every variable reference is an integer index ([Local]/[Global])
      into a pre-sized [Value.t array] frame, replacing the per-access
      [(string, Value.t ref) Hashtbl] lookups of the original tree
      walker;
    - every call site is pre-resolved to a user function index or a
      builtin ([Math]/[Rand01]/[Print_int]/...), eliminating the
      per-call name classification and string surgery;
    - the statically-known virtual-cycle cost of every expression
      ([ecost]) and statement is pre-computed, and straight-line runs of
      statements are batched into {!group}s whose summed cost is charged
      once at group entry instead of operation by operation.

    Batching is observation-safe: cycle totals are read mid-run only at
    timer start/stop hooks and loop entry/exit (per-loop [cycles]
    deltas, which tracked loops share).  Groups therefore break after every
    compound statement (If/For/While/Block/Return) and after any
    statement that may fire a timer hook — including statements calling
    a user function that transitively reaches [__timer_start]/
    [__timer_stop] (see {!timer_reach}).  Within a group no observation
    point exists, so moving charges to group entry changes no
    observable.  Because every {!Profile.Cost} constant is an
    integer-valued float, re-associating the additions is exact and the
    resulting profiles are bit-identical to the per-statement charging
    scheme.

    Every slot carries its declared type ({!cfunc.cf_slot_types},
    {!t.cglobal_types}), as does every function's result
    ({!cfunc.cf_ret}): {!Minic.Typecheck} gives each name of a function
    one type, and every value a slot receives converts to it.  A frame
    starts with each slot at its type's zero, so a read that runs before
    the slot's declaration has executed reads zero, in both engines.  A
    name a function declares is that local everywhere in the function,
    before its declaration too, as {!Minic.Typecheck} types it.

    No pass rewrites this IR: the reference walker ({!Eval.run_ir}) runs
    it as it is, and {!Bytecode.lower} compiles it, choosing typed
    instructions and specialized loop kernels itself. *)

module C = Profile.Cost

type var_ref =
  | Local of int  (** index into the current frame *)
  | Global of int  (** index into the global frame *)
  | Unbound of string  (** unknown name: runtime error when accessed *)

(** The math builtins with an interpretation, as op codes rather than
    closures: the engines apply them with direct float calls
    ([Eval.math1]/[Eval.math2]), so a float kept unboxed stays unboxed
    across the call. *)
type math1 = Sqrt | Exp | Log | Sin | Cos | Tanh | Fabs | Floor

type math2 = Pow | Fmin | Fmax | Fdivide
type math_impl = M1 of math1 | M2 of math2

(** Pre-resolved call target. *)
type callee =
  | User of int  (** index into {!t.cfuncs} *)
  | Math of { mimpl : math_impl; mflops : int }
  | Math_unimpl of string  (** math builtin with no interpretation *)
  | Rand01
  | Rand_int
  | Print_int
  | Print_float
  | Timer_start
  | Timer_stop
  | Unknown of string  (** unknown function: runtime error when called *)

(** [ecost] is the statically-known cycle cost of evaluating the
    expression once; dynamic residues (float vs int arithmetic, division,
    short-circuit right operands, callee bodies) are charged at run
    time. *)
type expr = { ecost : float; e : enode }

and enode =
  | ELit of Value.t
  | EVar of var_ref
  | ENeg of expr
  | ENot of expr
  | EArith of Minic.Ast.binop * float * expr * expr
      (** Add/Sub/Mul; the [float] is the extra cost charged when the
          operation turns out to be floating-point *)
  | EDiv of expr * expr
  | EMod of expr * expr
  | ECmp of Minic.Ast.binop * expr * expr
  | EAnd of expr * expr
  | EOr of expr * expr
  | EIndex of expr * expr
  | ECast of Minic.Ast.typ * expr
  | ECall of { callee : callee; cargs : expr list }

type stmt =
  | SDeclVar of { slot : var_ref; typ : Minic.Ast.typ; init : expr option }
  | SDeclArr of {
      slot : var_ref;
      typ : Minic.Ast.typ;
      name : string;
      size : expr;
    }
  | SAssign of {
      slot : var_ref;
      typ : Minic.Ast.typ option;
          (** the slot's declared type, which the assigned value
              converts to as in C; [None] for an undeclared name *)
      aop : Minic.Ast.assign_op;
      rhs : expr;
    }
  | SStore of {
      arr : expr;
      idx : expr;
      aop : Minic.Ast.assign_op;
      rhs : expr;
    }
  | SExpr of expr
  | SIf of expr * block * block option
  | SWhile of { wsid : int; cond : expr; body : block }
  | SFor of {
      fsid : int;
      slot : var_ref;
      init : expr;
      bound : expr;
      inclusive : bool;
      step : expr;
      body : block;
    }
  | SReturn of expr option
  | SBlock of block

(** Straight-line run of statements whose static cost [gcost] is charged
    once at group entry. *)
and group = { gcost : float; gstmts : stmt list }

and block = group list

type cfunc = {
  cf_name : string;
  cf_params : Minic.Ast.param list;
  cf_param_slots : int array;  (** slot of the i-th parameter *)
  cf_locals : (string, int) Hashtbl.t;  (** slot of each local name *)
  cf_nslots : int;  (** frame size *)
  cf_slot_types : Minic.Ast.typ array;
      (** declared type of each slot: its first declaration's *)
  cf_ret : Minic.Ast.typ;  (** declared return type *)
  cf_body : block;
}

(** A compiled program. *)
type t = {
  source : Minic.Ast.program;
  cfuncs : cfunc array;
  cglobals : block;  (** global declarations, run in the global frame *)
  nglobals : int;
  global_index : (string, int) Hashtbl.t;  (** slot of each global name *)
  cglobal_types : Minic.Ast.typ array;  (** declared type of each global *)
  main_idx : int;  (** index of [main], [-1] if absent *)
  func_index : (string, int) Hashtbl.t;  (** first function of each name *)
}

(* ------------------------------------------------------------------ *)
(* Timer reachability                                                  *)
(* ------------------------------------------------------------------ *)

(* [timer_reach p func_index] marks every function that may execute a
   [__timer_start]/[__timer_stop] hook, directly or through calls.
   Statements invoking such functions must end their charge group so
   that batched charges never cross a timer snapshot. *)
let timer_reach (p : Minic.Ast.program) (func_index : (string, int) Hashtbl.t) :
    bool array =
  let open Minic.Ast in
  let n = List.length p.funcs in
  let reaches = Array.make n false in
  let calls = Array.make n [] in
  List.iteri
    (fun i f ->
      iter_func
        (fun s ->
          List.iter
            (iter_expr (fun e ->
                 match e.enode with
                 | Call (name, _) -> (
                     (* a user function shadows a builtin of the same
                        name, exactly as at run time *)
                     match Hashtbl.find_opt func_index name with
                     | Some j -> calls.(i) <- j :: calls.(i)
                     | None ->
                         if name = "__timer_start" || name = "__timer_stop"
                         then reaches.(i) <- true)
                 | _ -> ()))
            (stmt_exprs s))
        f)
    p.funcs;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i cs ->
        if (not reaches.(i)) && List.exists (fun j -> reaches.(j)) cs then (
          reaches.(i) <- true;
          changed := true))
      calls
  done;
  reaches

let rec expr_may_time mt (e : expr) =
  match e.e with
  | ELit _ | EVar _ -> false
  | ENeg a | ENot a | ECast (_, a) -> expr_may_time mt a
  | EArith (_, _, a, b)
  | EDiv (a, b)
  | EMod (a, b)
  | ECmp (_, a, b)
  | EAnd (a, b)
  | EOr (a, b)
  | EIndex (a, b) ->
      expr_may_time mt a || expr_may_time mt b
  | ECall { callee; cargs } ->
      (match callee with
      | Timer_start | Timer_stop -> true
      | User j -> mt.(j)
      | _ -> false)
      || List.exists (expr_may_time mt) cargs

(* ------------------------------------------------------------------ *)
(* Math builtin resolution                                             *)
(* ------------------------------------------------------------------ *)

(* Drop the '__' prefix of GPU intrinsics and the 'f' single-precision
   suffix to recover the base math function (mirrors the old
   interpreter's per-call string surgery, now done once at compile
   time). *)
let strip_math n =
  let n =
    if String.length n > 2 && String.sub n 0 2 = "__" then
      String.sub n 2 (String.length n - 2)
    else n
  in
  if String.length n > 1 && n.[String.length n - 1] = 'f' then
    String.sub n 0 (String.length n - 1)
  else n

let math_impl = function
  | "sqrt" | "fsqrt" -> Some (M1 Sqrt)
  | "exp" -> Some (M1 Exp)
  | "log" -> Some (M1 Log)
  | "sin" -> Some (M1 Sin)
  | "cos" -> Some (M1 Cos)
  | "tanh" -> Some (M1 Tanh)
  | "pow" -> Some (M2 Pow)
  | "fabs" -> Some (M1 Fabs)
  | "floor" -> Some (M1 Floor)
  | "fmin" -> Some (M2 Fmin)
  | "fmax" -> Some (M2 Fmax)
  | "fdivide" -> Some (M2 Fdivide)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

type scope = {
  sc_locals : (string, int) Hashtbl.t option;  (* None for the globals block *)
  sc_local_types : Minic.Ast.typ array;  (* declared type of each local slot *)
  sc_globals : (string, int) Hashtbl.t;
  sc_global_types : Minic.Ast.typ array;
  sc_funcs : (string, int) Hashtbl.t;
  sc_may_time : bool array;
  sc_params : Minic.Ast.param list array;  (* parameters of each function *)
  sc_ret : Minic.Ast.typ;  (* return type; [Tvoid] in the globals block *)
}

(* A value bound to a parameter or returned converts to the declared
   type, as in C: a cast, which costs nothing.  Pointers pass as they
   are. *)
let convert_to (t : Minic.Ast.typ) (e : expr) =
  match t with
  | Minic.Ast.Tint | Minic.Ast.Tfloat | Minic.Ast.Tdouble | Minic.Ast.Tbool ->
      { ecost = e.ecost; e = ECast (t, e) }
  | Minic.Ast.Tptr _ | Minic.Ast.Tvoid -> e

(* The slot [name] resolves to: a local of [locals], else a global. *)
let lookup_var locals globals name =
  match Option.bind locals (fun l -> Hashtbl.find_opt l name) with
  | Some i -> Local i
  | None -> (
      match Hashtbl.find_opt globals name with
      | Some i -> Global i
      | None -> Unbound name)

let resolve_var sc = lookup_var sc.sc_locals sc.sc_globals

let rec compile_expr sc (e : Minic.Ast.expr) : expr =
  let open Minic.Ast in
  match e.enode with
  | Int_lit n -> { ecost = 0.0; e = ELit (Value.VInt n) }
  | Float_lit (f, _) -> { ecost = 0.0; e = ELit (Value.VFloat f) }
  | Bool_lit b -> { ecost = 0.0; e = ELit (Value.VBool b) }
  | Var v -> { ecost = 0.0; e = EVar (resolve_var sc v) }
  | Unop (Neg, a) ->
      let a = compile_expr sc a in
      { ecost = C.int_op +. a.ecost; e = ENeg a }
  | Unop (Not, a) ->
      let a = compile_expr sc a in
      { ecost = C.int_op +. a.ecost; e = ENot a }
  | Binop (LAnd, a, b) ->
      let a = compile_expr sc a and b = compile_expr sc b in
      (* the right operand's cost is charged only if it is evaluated *)
      { ecost = C.int_op +. a.ecost; e = EAnd (a, b) }
  | Binop (LOr, a, b) ->
      let a = compile_expr sc a and b = compile_expr sc b in
      { ecost = C.int_op +. a.ecost; e = EOr (a, b) }
  | Binop (((Add | Sub) as op), a, b) ->
      let a = compile_expr sc a and b = compile_expr sc b in
      {
        ecost = C.int_op +. a.ecost +. b.ecost;
        e = EArith (op, C.float_add -. C.int_op, a, b);
      }
  | Binop (Mul, a, b) ->
      let a = compile_expr sc a and b = compile_expr sc b in
      {
        ecost = C.int_op +. a.ecost +. b.ecost;
        e = EArith (Mul, C.float_mul -. C.int_op, a, b);
      }
  | Binop (Div, a, b) ->
      let a = compile_expr sc a and b = compile_expr sc b in
      (* int vs float division costs differ: charged entirely at run time *)
      { ecost = a.ecost +. b.ecost; e = EDiv (a, b) }
  | Binop (Mod, a, b) ->
      let a = compile_expr sc a and b = compile_expr sc b in
      { ecost = C.int_op +. a.ecost +. b.ecost; e = EMod (a, b) }
  | Binop (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, b) ->
      let a = compile_expr sc a and b = compile_expr sc b in
      { ecost = C.int_op +. a.ecost +. b.ecost; e = ECmp (op, a, b) }
  | Index (a, i) ->
      let a = compile_expr sc a and i = compile_expr sc i in
      { ecost = C.int_op +. C.load +. a.ecost +. i.ecost; e = EIndex (a, i) }
  | Cast (t, a) ->
      let a = compile_expr sc a in
      { ecost = a.ecost; e = ECast (t, a) }
  | Call (fname, args) -> compile_call sc fname args

and compile_call sc fname args =
  let cargs = List.map (compile_expr sc) args in
  let argcost = List.fold_left (fun acc (a : expr) -> acc +. a.ecost) 0.0 cargs in
  let mk ecost callee = { ecost; e = ECall { callee; cargs } } in
  match Hashtbl.find_opt sc.sc_funcs fname with
  | Some idx ->
      let params = sc.sc_params.(idx) in
      let cargs =
        if List.length params <> List.length cargs then cargs
        else
          List.map2
            (fun (p : Minic.Ast.param) a -> convert_to p.ptyp a)
            params cargs
      in
      { ecost = argcost +. C.call; e = ECall { callee = User idx; cargs } }
  | None -> (
      match Minic.Builtins.cost_class fname with
      | Some cls -> (
          let base = strip_math fname in
          match math_impl base with
          | Some mimpl ->
              mk
                (argcost +. C.math_call cls)
                (Math { mimpl; mflops = Minic.Builtins.flops_of_class cls })
          | None -> mk argcost (Math_unimpl base))
      | None -> (
          match (fname, List.length cargs) with
          | "rand01", 0 -> mk (argcost +. C.call) Rand01
          | "rand_int", 1 -> mk (argcost +. C.call) Rand_int
          | "print_int", 1 -> mk argcost Print_int
          | "print_float", 1 -> mk argcost Print_float
          | "__timer_start", 1 -> mk argcost Timer_start
          | "__timer_stop", 1 -> mk argcost Timer_stop
          | _ -> mk argcost (Unknown fname)))

(* compile_stmt returns (compiled stmt, static cost, ends-charge-group) *)
let rec compile_stmt sc (s : Minic.Ast.stmt) : stmt * float * bool =
  let open Minic.Ast in
  let mt = sc.sc_may_time in
  match s.snode with
  | Decl d -> (
      let slot = resolve_var sc d.dname in
      match d.dsize with
      | Some size_e ->
          let size = compile_expr sc size_e in
          ( SDeclArr { slot; typ = d.dtyp; name = d.dname; size },
            size.ecost,
            expr_may_time mt size )
      | None ->
          let init = Option.map (compile_expr sc) d.dinit in
          let icost, brk =
            match init with
            | Some e -> (e.ecost, expr_may_time mt e)
            | None -> (0.0, false)
          in
          (SDeclVar { slot; typ = d.dtyp; init }, icost, brk))
  | Assign (Lvar v, aop, e) ->
      let rhs = compile_expr sc e in
      let opc =
        match aop with
        | AddEq | SubEq | MulEq -> C.int_op
        | Set | DivEq -> 0.0
      in
      let slot = resolve_var sc v in
      let typ =
        match slot with
        | Local i -> Some sc.sc_local_types.(i)
        | Global i -> Some sc.sc_global_types.(i)
        | Unbound _ -> None
      in
      ( SAssign { slot; typ; aop; rhs },
        rhs.ecost +. opc,
        expr_may_time mt rhs )
  | Assign (Lindex (a, i), aop, e) ->
      let rhs = compile_expr sc e in
      let arr = compile_expr sc a in
      let idx = compile_expr sc i in
      let opc =
        match aop with
        | Set -> 0.0
        | AddEq | SubEq | MulEq -> C.load +. C.int_op
        | DivEq -> C.load
      in
      ( SStore { arr; idx; aop; rhs },
        rhs.ecost +. arr.ecost +. idx.ecost +. C.int_op +. C.store +. opc,
        expr_may_time mt rhs || expr_may_time mt arr || expr_may_time mt idx )
  | Expr_stmt e ->
      let ce = compile_expr sc e in
      (SExpr ce, ce.ecost, expr_may_time mt ce)
  | If (c, b1, b2) ->
      let c = compile_expr sc c in
      ( SIf (c, compile_block sc b1, Option.map (compile_block sc) b2),
        C.branch +. c.ecost,
        true )
  | While (c, b) ->
      (* loops charge internally (entry branch, per-iteration costs) so
         that the per-loop cycle window stays exact *)
      ( SWhile { wsid = s.sid; cond = compile_expr sc c; body = compile_block sc b },
        0.0,
        true )
  | For (h, b) ->
      ( SFor
          {
            fsid = s.sid;
            slot = resolve_var sc h.index;
            init = compile_expr sc h.init;
            bound = compile_expr sc h.bound;
            inclusive = h.inclusive;
            step = compile_expr sc h.step;
            body = compile_block sc b;
          },
        0.0,
        true )
  | Return eo ->
      let ce = Option.map (fun e -> convert_to sc.sc_ret (compile_expr sc e)) eo in
      (SReturn ce, (match ce with Some e -> e.ecost | None -> 0.0), true)
  | Block b -> (SBlock (compile_block sc b), 0.0, true)

and compile_block sc (b : Minic.Ast.block) : block =
  let groups = ref [] in
  let cur = ref [] in
  let cur_cost = ref 0.0 in
  let flush () =
    if !cur <> [] then (
      groups := { gcost = !cur_cost; gstmts = List.rev !cur } :: !groups;
      cur := [];
      cur_cost := 0.0)
  in
  List.iter
    (fun s ->
      let cs, scost, brk = compile_stmt sc s in
      cur := cs :: !cur;
      cur_cost := !cur_cost +. scost;
      if brk then flush ())
    b;
  flush ();
  List.rev !groups

(* A slot table: one slot per distinct name, in the order [add] meets
   them, typed by the first declaration of the name. *)
let slot_table () =
  let slots = Hashtbl.create 16 and types = ref [] in
  let add name t =
    if not (Hashtbl.mem slots name) then (
      Hashtbl.add slots name (Hashtbl.length slots);
      types := t :: !types)
  in
  (slots, add, fun () -> Array.of_list (List.rev !types))

(* The slots of [f]: parameters first, then declarations and loop
   indices in pre-order. *)
let func_locals (f : Minic.Ast.func) =
  let locals, add, types = slot_table () in
  List.iter (fun (p : Minic.Ast.param) -> add p.pname_ p.ptyp) f.fparams;
  Minic.Ast.iter_func
    (fun s ->
      match s.snode with
      | Decl d -> add d.dname (Minic.Typecheck.declared_type d)
      | For (h, _) -> add h.index Minic.Ast.Tint
      | _ -> ())
    f;
  (locals, types ())

let compile_func sc_globals sc_global_types sc_funcs sc_params mt
    (f : Minic.Ast.func) : cfunc =
  let locals, types = func_locals f in
  let sc =
    {
      sc_locals = Some locals;
      sc_local_types = types;
      sc_globals;
      sc_global_types;
      sc_funcs;
      sc_may_time = mt;
      sc_params;
      sc_ret = f.fret;
    }
  in
  {
    cf_name = f.fname;
    cf_params = f.fparams;
    cf_param_slots =
      Array.of_list
        (List.map
           (fun (p : Minic.Ast.param) -> Hashtbl.find locals p.pname_)
           f.fparams);
    cf_locals = locals;
    cf_nslots = Hashtbl.length locals;
    cf_slot_types = types;
    cf_ret = f.fret;
    cf_body = compile_block sc f.fbody;
  }

let global_slots (p : Minic.Ast.program) =
  let globals, add, types = slot_table () in
  List.iter
    (Minic.Ast.iter_stmt (fun s ->
         match s.snode with
         | Decl d -> add d.dname (Minic.Typecheck.declared_type d)
         | For (h, _) -> add h.index Minic.Ast.Tint
         | _ -> ()))
    p.globals;
  (globals, types ())

(** [track_slots cp ~loop_sid names]: the function holding loop
    [loop_sid] and the slots [names] resolve to in it, or [None] when no
    function has that loop.  Tracked loops (see {!Eval.run_vm}) name
    the variables whose pointers they observe. *)
let track_slots (cp : t) ~loop_sid (names : string list) =
  let has_loop (f : Minic.Ast.func) =
    let found = ref false in
    Minic.Ast.iter_func
      (fun s -> if s.Minic.Ast.sid = loop_sid then found := true)
      f;
    !found
  in
  let rec find i = function
    | [] -> None
    | f :: rest -> if has_loop f then Some i else find (i + 1) rest
  in
  Option.map
    (fun fi ->
      ( fi,
        List.map
          (lookup_var (Some cp.cfuncs.(fi).cf_locals) cp.global_index)
          names ))
    (find 0 cp.source.funcs)

let compile (p : Minic.Ast.program) : t =
  let sc_funcs = Hashtbl.create 16 in
  List.iteri
    (fun i (f : Minic.Ast.func) ->
      (* first function of each name wins, like find_func_opt *)
      if not (Hashtbl.mem sc_funcs f.fname) then Hashtbl.add sc_funcs f.fname i)
    p.funcs;
  let mt = timer_reach p sc_funcs in
  let sc_globals, sc_global_types = global_slots p in
  let gsc =
    {
      sc_locals = None;
      sc_local_types = [||];
      sc_globals;
      sc_global_types;
      sc_funcs;
      sc_may_time = mt;
      sc_params =
        Array.of_list (List.map (fun (f : Minic.Ast.func) -> f.fparams) p.funcs);
      sc_ret = Minic.Ast.Tvoid;
    }
  in
  let cglobals = compile_block gsc p.globals in
  let cfuncs =
    Array.of_list
      (List.map
         (compile_func sc_globals sc_global_types sc_funcs gsc.sc_params mt)
         p.funcs)
  in
  {
    source = p;
    cfuncs;
    cglobals;
    nglobals = Hashtbl.length sc_globals;
    global_index = sc_globals;
    cglobal_types = sc_global_types;
    main_idx =
      (match Hashtbl.find_opt sc_funcs "main" with Some i -> i | None -> -1);
    func_index = sc_funcs;
  }
