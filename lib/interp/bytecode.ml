(** Flat register-bytecode lowering of the slot IR.

    {!lower} compiles a resolved program into dense instruction arrays
    with integer-register operands — the VM executor in {!Eval}
    dispatches over them with a single [match] per instruction.  It is
    the only stage between {!Resolve} and the VM.  It expects a program
    {!Minic.Typecheck} accepts, and takes every type from declarations:
    each slot's, global's and function result's declared type
    ({!Resolve.cfunc}), and {!ety} for expressions.  For such a program
    every slot holds a value of its declared type at all times, so the
    types are exact.

    {b Register banks.}  A frame has three banks: a boxed [Value.t
    array], an unboxed [float array] and an [int array].  Every register
    operand names its bank in its two low bits ({!reg}).  A local slot
    declared [float] or [double] lives in the float bank, one declared
    [int] in the int bank, and a [bool] or pointer slot stays boxed.
    Arithmetic, division, negation and comparison are typed by their
    operands ({!operand_kind}): float when either operand is a float,
    int otherwise.  Results of the typed instructions ([IArithF],
    [IDivF], [IMath*], [ICastF], [IRand01], ... and their int twins)
    land in the matching bank, and a float region's element loads
    straight into the float bank.  Operands are read through the
    conversion the reference walker applies at that consumer
    ([Value.to_float], [to_int], [to_bool]).  Values are boxed only
    where they leave a bank: stores to non-float regions, call arguments
    and returns, globals and compound assignments to boxed targets.
    Frames are laid out [slots | constants | temporaries] in each bank;
    slot zeros and literal operands are blitted from per-bank images at
    call entry, and expression temporaries are allocated monotonically
    per statement.

    {b Kernels.}  An innermost counted loop whose body is straight-line
    float arithmetic over affine memory sites and affine int expressions
    of the loop index translates to a {!kernel}
    ({!kernel_of_loop}): plain {!kop}s over a float-register bank plus
    statically counted per-iteration costs, which the VM charges in
    bulk.  The loop lowers to an [IKernel] followed by its generic code,
    which runs when the kernel's entry checks fail.  A superinstruction
    selector then rewrites every kernel:

    - [OLit] constants and loop-invariant loads are hoisted out of the
      body into entry banks ([kp_lits]/[kp_prefetch]);
    - adjacent producer/consumer pairs whose link register is written
      and read exactly once are fused into single opcodes
      (load+arith, arith+arith, arith+store, math+div/mul, and the
      dot-product step [(a*b)+(c*d)]), in one left-to-right pass
      ({!fuse}).

    Fusion never re-associates floating-point arithmetic and never
    reorders memory accesses (only strictly adjacent ops fuse), so the
    fused body computes bit-identical values in bit-identical order.

    Selector and lowering statistics are published to
    {!Flow_obs.Metrics.global} as [vm_*] counters. *)

module R = Resolve
module C = Profile.Cost

(* ================================================================== *)
(* Register banks                                                      *)
(* ================================================================== *)

(** Bank tags: the two low bits of every register operand. *)
let boxed = 0

let fbank = 1
let ibank = 2

(** [reg bank i]: register [i] of [bank]. *)
let reg bank i = (i lsl 2) lor bank

let bank_of r = r land 3
let index_of r = r lsr 2

(* ================================================================== *)
(* Kernel micro-programs                                               *)
(* ================================================================== *)

(** Silent integer expression of a kernel's entry protocol, evaluated
    without charging cycles or bumping counters (those are charged in
    bulk from statically counted totals).  [XIdx] is the loop index;
    [XSlot] reads a local slot with [Value.to_int] semantics and aborts
    to the generic loop on a non-numeric value.  Every [iexpr] of a
    kernel is affine in [XIdx], so the entry protocol evaluates it at
    the first two iterations and advances it by their difference. *)
type iexpr =
  | XLit of int
  | XIdx
  | XSlot of int
  | XAdd of iexpr * iexpr
  | XSub of iexpr * iexpr
  | XMul of iexpr * iexpr
  | XNeg of iexpr

(** One memory-access site: base-pointer slot plus an element index
    affine in the loop variable. *)
type ksite = { ks_base : int; ks_idx : iexpr }

(** A specialized innermost counted loop: straight-line float body over
    a float-register bank, affine sites and affine int counters.  All
    per-iteration virtual costs are pre-counted so the executor can
    charge [n] iterations in bulk, bit-identically to the generic
    loop. *)
type kernel = {
  k_nfregs : int;
  k_sites : ksite array;
  k_ctrs : iexpr array;
      (** the int expressions the body converts to float ([OItoF]);
          counter [c] is numbered [Array.length k_sites + c], after the
          sites, whose offset and stride buffers it shares *)
  k_site_loads : int array;  (** per-iteration load accesses, per site *)
  k_site_stores : int array;  (** per-iteration store accesses, per site *)
  k_loads : int;  (** per-iteration loads, all sites *)
  k_stores : int;  (** per-iteration stores, all sites *)
  k_in : (int * int) array;  (** (slot, freg) read at loop entry *)
  k_out : (int * int) array;  (** (slot, freg) written back at loop exit *)
  k_idx_slot : int;
  k_fsid : int;
  k_inclusive : bool;
  k_init : iexpr;
  k_bound : iexpr;
  k_step : iexpr;
  k_nstmts : int;  (** body statements: fuel per iteration is [1 + k_nstmts] *)
  k_flops : int;  (** per-iteration flop bumps of the body *)
  k_sfu : int;  (** per-iteration SFU-op bumps *)
  k_int_ops : int;  (** per-iteration int-op bumps (body + index exprs) *)
  k_init_int_ops : int;
  k_bound_int_ops : int;  (** bumped [n+1] times, once per bound check *)
  k_step_int_ops : int;
  k_dyn_cycles : float;  (** per-iteration dynamic cycle charges *)
  k_gcost : float;  (** body group's static cost *)
  k_icost : float;  (** init expression's static cost *)
  k_bcost : float;  (** branch + bound cost, charged [n+1] times *)
  k_scost : float;  (** step expression's static cost *)
  k_iter_cycles : float;
      (** cycles of one iteration: bound check, loop step, body group,
          dynamic charges and step expression *)
}

(** One micro-op of a specialized loop body.  Registers index a
    per-invocation [float array]; memory accesses go through numbered
    {!ksite}s whose element offsets advance by a constant stride per
    iteration.  The kernel translation emits the plain ops; the fused
    ops each replace an adjacent pair (or triple, built by repeated
    pairing) whose link register died immediately.  [A]/[B] suffixes
    say whether the first op's result feeds the {e left} or {e right}
    operand of the second — float arithmetic is never commuted. *)
type kop =
  | OLit of int * float  (** dst <- constant *)
  | OMov of int * int
  | OAdd of int * int * int
  | OSub of int * int * int
  | OMul of int * int * int
  | ODiv of int * int * int
  | ONeg of int * int
  | OItoF of int * int  (** dst <- float of counter [c]: (dst, c) *)
  | OMath1 of int * R.math1 * int
  | OMath2 of int * R.math2 * int * int
  | OLoad of int * int  (** dst <- site *)
  | OStore of int * int  (** site <- src *)
  | OStoreAdd of int * int  (** site (+)= src *)
  | OStoreSub of int * int
  | OStoreMul of int * int
  | OStoreDiv of int * int
  (* load + arith *)
  | OLAddA of int * int * int  (** d <- [s] + b *)
  | OLAddB of int * int * int  (** d <- a + [s] *)
  | OLSubA of int * int * int  (** d <- [s] - b *)
  | OLSubB of int * int * int  (** d <- a - [s] *)
  | OLMulA of int * int * int
  | OLMulB of int * int * int
  | OLDivA of int * int * int
  | OLDivB of int * int * int
  (* arith + arith: (d, a, b, c) with A = (a op1 b) op2 c, B = c op2 (a op1 b) *)
  | OAddAddA of int * int * int * int
  | OAddAddB of int * int * int * int
  | OAddSubA of int * int * int * int
  | OAddSubB of int * int * int * int
  | OAddMulA of int * int * int * int
  | OAddMulB of int * int * int * int
  | OSubAddA of int * int * int * int
  | OSubAddB of int * int * int * int
  | OSubSubA of int * int * int * int
  | OSubSubB of int * int * int * int
  | OSubMulA of int * int * int * int
  | OSubMulB of int * int * int * int
  | OMulAddA of int * int * int * int
  | OMulAddB of int * int * int * int
  | OMulSubA of int * int * int * int
  | OMulSubB of int * int * int * int
  | OMulMulA of int * int * int * int
  | OMulMulB of int * int * int * int
  (* math1 + div/mul *)
  | OGDiv of int * R.math1 * int * int  (** d <- g(a) / b *)
  | ODivG of int * int * R.math1 * int  (** d <- a / g(b) *)
  | OGMul of int * R.math1 * int * int  (** d <- g(a) * b *)
  | OMulG of int * int * R.math1 * int  (** d <- a * g(b) *)
  (* arith + store *)
  | OAddStore of int * int * int  (** [s] <- a + b : (s, a, b) *)
  | OSubStore of int * int * int
  | OMulStore of int * int * int
  | ODivStore of int * int * int
  (* the dot-product step: mul feeding a mul-add accumulator *)
  | OMulMulAdd of int * int * int * int * int  (** d <- (a*b) + (p*q) *)
  (* the 3-D distance idiom: dx*dx + dy*dy + dz*dz (+ softening) *)
  | ODot3 of int * int * int * int * int * int * int
      (** d <- ((a*b) + (p*q)) + (x*y) *)
  | ODot3Add of int * int * int * int * int * int * int * int
      (** d <- (((a*b) + (p*q)) + (x*y)) + e *)

(** A lowered kernel: its {!kernel} (whose statically counted totals
    drive the bulk accounting) plus the fused micro-ops,
    their hoisted entry banks, the frame registers its slots live in,
    and what loop tracking needs of one iteration's accesses.  A kernel
    reads float and int slots and writes float slots only: a float
    input or output is a plain copy, an int input converts. *)
type kprog = {
  kp_kern : kernel;
  kp_site_order : int array;
      (** the tracking sites in the order of their first access.  Sites
          with the same base slot and index expression touch the same
          element in every iteration; the first of them stands for all
          in tracking. *)
  kp_site_kinds : int array;
      (** per tracking site, the accesses of one iteration to its
          element, in body order, as first-access tracking sees them: 1
          loads only, 2 a store first, 3 a load then a store; 0 for a
          site another one stands for *)
  kp_ops : kop array;
  kp_lits : (int * float) array;  (** entry: freg <- literal *)
  kp_prefetch : (int * int) array;  (** entry: freg <- invariant site load *)
  kp_fused : bool;  (** the selector hoisted or fused anything *)
  kp_slots : int array;  (** register of every frame slot *)
  kp_fin : (int * int) array;  (** entry: (float-bank index, freg) *)
  kp_iin : (int * int) array;  (** entry: (int-bank index, freg) *)
  kp_fout : (int * int) array;  (** exit: (float-bank index, freg) *)
}

(* ================================================================== *)
(* Generic instructions                                                *)
(* ================================================================== *)

(** Comparison kind: float or int — the lowering's choice for [ECmp]
    (see {!operand_kind}). *)
type ckind = KFlt | KInt

(** One VM instruction.  Every register field is a bank-tagged
    {!reg}.  A destination is in the bank its instruction produces: the
    float bank for the [F] forms, [IMath*], [ICastF], [IRand01] and loop
    entry stamps; the int bank for the [I] forms, [IMod], [ICastI],
    [IRandInt], loop indexes and trip counters; the boxed bank for
    comparisons, booleans, [IApplyAssign] and [IAlloc].  [IMov],
    [IGetG], [IIndex] and [ICallUser] write any bank.  Each typed form
    reads its operands through its type's conversion, so it may read a
    boxed operand too (a global, a call's result).  [tgt] fields hold label
    ids during lowering and absolute pcs after {!lower} resolves them.
    Every instruction replays the exact charges, counter bumps, fuel
    spends and error points of the reference walker (see DESIGN.md
    §14). *)
type instr =
  | IFuel
  | ICharge of float
  | IJmp of int
  | IJmpFalse of int * int  (** (src, tgt): jump when [to_bool] is false *)
  | IBrCmp of { op : Minic.Ast.binop; kind : ckind; a : int; b : int; tgt : int }
      (** fused compare+branch: jump to [tgt] when the comparison is false *)
  | IMov of int * int  (** (dst, src), converting between banks *)
  | IGetG of int * int  (** dst <- garray.(g) *)
  | ISetG of int * int  (** garray.(g) <- src *)
  | IErrVar of string
  | IErrMsg of string  (** raise a precomputed runtime error *)
  | IFailHd  (** [List.hd []] of the reference engines' builtin paths *)
  | INegF of int * int
  | INegI of int * int
  | INot of int * int
  | IArithF of { op : Minic.Ast.binop; fresid : float; d : int; a : int; b : int }
  | IArithI of { op : Minic.Ast.binop; d : int; a : int; b : int }
  | IDivF of int * int * int
  | IDivI of int * int * int
  | IMod of int * int * int
  | ICmp of { op : Minic.Ast.binop; kind : ckind; d : int; a : int; b : int }
  | ICastI of int * int
  | ICastF of int * int
  | ICastB of int * int
  | IIndex of { d : int; a : int; i : int }
  | IAndTest of { d : int; src : int; bcost : float; tgt : int }
  | IOrTest of { d : int; src : int; bcost : float; tgt : int }
  | ICallUser of { d : int; fidx : int; args : int array }
  | IMath1 of { d : int; g : R.math1; mflops : int; a : int }
  | IMath2 of { d : int; g : R.math2; mflops : int; a : int; b : int }
  | IMathGen of { d : int; mimpl : R.math_impl; mflops : int; args : int array }
  | IRand01 of int
  | IRandInt of int * int
  | IPrintInt of int
  | IPrintFloat of int
  | ITimerStart of int
  | ITimerStop of int
  | IAlloc of { d : int; typ : Minic.Ast.typ; name : string; src : int }
  | IApplyAssign of {
      d : int;
      typ : Minic.Ast.typ option;  (** the target's declared type *)
      aop : Minic.Ast.assign_op;
      old : int;
      rhs : int;
    }
      (** compound assignment to a boxed register, converted to [typ]:
          a global's, or an int slot's with a float operand (banked
          slots otherwise use the typed arithmetic forms) *)
  | IStore of { arr : int; idx : int; src : int }
  | IStoreOp of { aop : Minic.Ast.assign_op; arr : int; idx : int; src : int }
  | IRet of int
  | IRetRaise of int  (** [return] in the globals block: raise like the walker *)
  | ILoopEnterW of { lidx : int; sid : int; t0 : int; trips : int }
  | ILoopEnterF of { lidx : int; sid : int; t0 : int; trips : int; icost : float }
  | IWhileIter of { src : int; lidx : int; sid : int; trips : int; tgt : int }
  | IForInitI of { slot : int; src : int }  (** int-bank index *)
  | IForTestI of {
      slot : int;
      cost : float;  (** charged first: the test's static cost, when folded *)
      bound : int;
      inclusive : bool;
      lidx : int;
      sid : int;
      trips : int;
      tgt : int;
    }
  | IForStepI of { slot : int; src : int; tgt : int }
      (** step, then jump back to the loop test at [tgt] *)
  | ILoopExit of { lidx : int; sid : int; t0 : int; trips : int }
  | IKernel of { lidx : int; kp : kprog; tgt : int }
      (** specialized loop: on kernel success jump [tgt]; on
          [Kernel_unfit] fall through to the generic loop code *)

(** One lowered function (or the globals block): its code plus the size
    and constant pool of each register bank. *)
type fn = {
  bc_code : instr array;
  bc_nregs : int;  (** boxed bank size, >= 1 *)
  bc_boxed : Value.t array;
      (** blitted to the boxed bank at call entry: each slot's declared
          type's zero, then the constants *)
  bc_nsf : int;  (** float bank size, >= 1 *)
  bc_fcbase : int;
  bc_fcvals : float array;
  bc_nsi : int;  (** int bank size, >= 1 *)
  bc_icbase : int;
  bc_icvals : int array;
  bc_params : int array;  (** register of the i-th parameter *)
  bc_slots : int array;  (** register of each local slot *)
}

type program = {
  bc_cp : R.t;
  bc_funcs : fn array;
  bc_globals : fn;
  bc_nloops : int;  (** dense loop count, sizes the per-run stat cache *)
  bc_loop_sids : int array;  (** node id of each dense loop number *)
}

(* ================================================================== *)
(* Kernel translation                                                  *)
(* ================================================================== *)

(* ================================================================== *)
(* Declared types                                                      *)
(* ================================================================== *)

let is_flt = function Minic.Ast.Tfloat | Minic.Ast.Tdouble -> true | _ -> false

(** The static type of [e] in a frame whose slots are declared [lt]:
    slots, globals and user calls have their declared types, and
    operators type as in {!Minic.Typecheck}.  For a program the checker
    accepts, every value [e] evaluates to is of this type ([float] and
    [double] both being a [VFloat]). *)
let rec ety (cp : R.t) (lt : Minic.Ast.typ array) (e : R.expr) : Minic.Ast.typ =
  let open Minic.Ast in
  match e.R.e with
  | R.ELit (Value.VInt _) -> Tint
  | R.ELit (Value.VFloat _) -> Tdouble
  | R.ELit (Value.VBool _) -> Tbool
  | R.ELit (Value.VUnit | Value.VPtr _) | R.EVar (R.Unbound _) -> Tvoid
  | R.EVar (R.Local i) -> lt.(i)
  | R.EVar (R.Global i) -> cp.R.cglobal_types.(i)
  | R.ENeg a -> ety cp lt a
  | R.ENot _ | R.ECmp _ | R.EAnd _ | R.EOr _ -> Tbool
  | R.EArith (_, _, a, b) | R.EDiv (a, b) ->
      if is_flt (ety cp lt a) || is_flt (ety cp lt b) then Tdouble else Tint
  | R.EMod _ -> Tint
  | R.EIndex (a, _) -> ( match ety cp lt a with Tptr t -> t | _ -> Tvoid)
  | R.ECast (t, _) -> t
  | R.ECall { callee; _ } -> (
      match callee with
      | R.User f -> cp.R.cfuncs.(f).R.cf_ret
      | R.Math _ | R.Math_unimpl _ | R.Rand01 -> Tdouble
      | R.Rand_int -> Tint
      | R.Print_int | R.Print_float | R.Timer_start | R.Timer_stop
      | R.Unknown _ ->
          Tvoid)

(* An innermost counted loop whose body is straight-line float
   arithmetic over affine memory sites (elementwise maps, scaled
   accumulates and reductions, stencil reads), converting affine int
   expressions of the loop index to float, translates to a {!kernel}
   and its plain micro-ops.  Anything whose bulk accounting could
   differ from the generic loop raises [Not_kernel]. *)

exception Not_kernel

(* Affine integer expression in the loop index: conversion + static
   int-op count (one bump per Add/Sub/Mul evaluation; Neg of an int and
   literal/variable reads bump nothing) + affinity degree. *)
let rec affine cp lt ~idx_slot (e : R.expr) : iexpr * int * int =
  match e.R.e with
  | R.ELit (Value.VInt n) -> (XLit n, 0, 0)
  | R.EVar (R.Local i) when i = idx_slot -> (XIdx, 0, 1)
  | R.EVar (R.Local i) when lt.(i) = Minic.Ast.Tint -> (XSlot i, 0, 0)
  | R.EArith (((Minic.Ast.Add | Minic.Ast.Sub | Minic.Ast.Mul) as op), _, a, b)
    when ety cp lt e = Minic.Ast.Tint -> (
      let ia, na, da = affine cp lt ~idx_slot a in
      let ib, nb, db = affine cp lt ~idx_slot b in
      let n = na + nb + 1 in
      match op with
      | Minic.Ast.Add -> (XAdd (ia, ib), n, max da db)
      | Minic.Ast.Sub -> (XSub (ia, ib), n, max da db)
      | _ ->
          if da + db > 1 then raise Not_kernel;
          (XMul (ia, ib), n, da + db))
  | R.ENeg a when ety cp lt a = Minic.Ast.Tint ->
      let ia, na, da = affine cp lt ~idx_slot a in
      (XNeg ia, na, da)
  | _ -> raise Not_kernel

(* Degree-0 affine expressions for init/bound/step: may not reference
   the loop's own index. *)
let invariant_int cp lt ~idx_slot (e : R.expr) =
  let ie, nops, deg = affine cp lt ~idx_slot e in
  if deg <> 0 then raise Not_kernel;
  (ie, nops)

(* Translation state for one candidate loop body. *)
type ktrans = {
  mutable ops : kop list;  (* reversed *)
  mutable nregs : int;
  mutable sites : ksite list;  (* reversed: site [n] is the [n]th made *)
  mutable nsites : int;
  mutable ctrs : iexpr list;  (* reversed, like [sites] *)
  mutable nctrs : int;
  loads : (int, int) Hashtbl.t;  (* site -> per-iteration loads *)
  stores : (int, int) Hashtbl.t;
  slot_reg : (int, int) Hashtbl.t;  (* float slot -> dedicated register *)
  mutable entry : (int * int) list;  (* (slot, reg) entry loads, reversed *)
  written : (int, unit) Hashtbl.t;  (* written so far, body order *)
  mutable flops : int;  (* per-iteration counts of the body *)
  mutable sfu : int;
  mutable dyn : float;
  mutable int_ops : int;
}

(* [kernel_of_loop cp lt s]: the kernel and plain micro-ops of [s], an
   innermost [for] loop of a frame typed [lt], or [None].  Its body
   holds only float declarations, assignments and stores. *)
let kernel_of_loop cp lt (s : R.stmt) =
  match s with
  | R.SFor
      {
        fsid;
        slot = R.Local idx_slot;
        init;
        bound;
        inclusive;
        step;
        body = [ group ];
      } -> (
      let k =
        {
          ops = [];
          nregs = 0;
          sites = [];
          nsites = 0;
          ctrs = [];
          nctrs = 0;
          loads = Hashtbl.create 8;
          stores = Hashtbl.create 8;
          slot_reg = Hashtbl.create 8;
          entry = [];
          written = Hashtbl.create 8;
          flops = 0;
          sfu = 0;
          dyn = 0.0;
          int_ops = 0;
        }
      in
      let emit op = k.ops <- op :: k.ops in
      (* [def mk]: emit [mk d] into a fresh register [d] *)
      let def mk =
        let d = k.nregs in
        k.nregs <- d + 1;
        emit (mk d);
        d
      in
      let flop dyn =
        k.flops <- k.flops + 1;
        k.dyn <- k.dyn +. dyn
      in
      let count tbl n =
        Hashtbl.replace tbl n
          (1 + Option.value (Hashtbl.find_opt tbl n) ~default:0)
      in
      let reg_of_slot s =
        match Hashtbl.find_opt k.slot_reg s with
        | Some r -> r
        | None ->
            let r = k.nregs in
            k.nregs <- r + 1;
            Hashtbl.add k.slot_reg s r;
            r
      in
      let mark s = Hashtbl.replace k.written s () in
      (* reading a float slot: entry-load it unless the body has already
         written it (straight-line order) *)
      let read_slot s =
        let r = reg_of_slot s in
        if not (Hashtbl.mem k.written s || List.mem_assoc s k.entry) then
          k.entry <- (s, r) :: k.entry;
        r
      in
      (* an invariant int slot: the body writes only floats, so its value
         is fixed — entry-convert it once *)
      let int_slot s =
        if Hashtbl.mem k.slot_reg s then raise Not_kernel;
        read_slot s
      in
      let float_base (a : R.expr) =
        match a.R.e with
        | R.EVar (R.Local b) -> (
            match lt.(b) with
            | Minic.Ast.Tptr t when is_flt t -> b
            | _ -> raise Not_kernel)
        | _ -> raise Not_kernel
      in
      (* an affine int expression of the body, evaluated silently: its
         int ops are bumped per iteration like the generic loop's.  The
         int slots it reads are invariant: the body writes float slots
         only. *)
      let int_expr e =
        let ie, nops, _deg = affine cp lt ~idx_slot e in
        k.int_ops <- k.int_ops + nops;
        ie
      in
      let new_site base idx_e =
        let ie = int_expr idx_e in
        k.sites <- { ks_base = base; ks_idx = ie } :: k.sites;
        k.nsites <- k.nsites + 1;
        k.nsites - 1
      in
      (* the counter of an int expression converted to float *)
      let counter e =
        k.ctrs <- int_expr e :: k.ctrs;
        k.nctrs <- k.nctrs + 1;
        k.nctrs - 1
      in
      let is_f e = is_flt (ety cp lt e) in
      let lit x = def (fun d -> OLit (d, x)) in
      (* compile a float-valued expression into a register *)
      let rec cf (e : R.expr) : int =
        match e.R.e with
        | R.ELit (Value.VFloat x) -> lit x
        (* consumed via [to_float] in every float context *)
        | R.ELit (Value.VInt n) -> lit (float_of_int n)
        | R.EVar (R.Local i) when i = idx_slot ->
            let c = counter e in
            def (fun d -> OItoF (d, c))
        | R.EVar (R.Local i) -> (
            match lt.(i) with
            | Minic.Ast.Tfloat | Minic.Ast.Tdouble -> read_slot i
            | Minic.Ast.Tint -> int_slot i
            | _ -> raise Not_kernel)
        | R.EArith (op, fresid, a, b) when is_f a || is_f b ->
            let ra = cf a in
            let rb = cf b in
            let d =
              def (fun d ->
                  match op with
                  | Minic.Ast.Add -> OAdd (d, ra, rb)
                  | Minic.Ast.Sub -> OSub (d, ra, rb)
                  | Minic.Ast.Mul -> OMul (d, ra, rb)
                  | _ -> raise Not_kernel)
            in
            flop fresid;
            d
        | R.EDiv (a, b) when is_f a || is_f b ->
            let ra = cf a in
            let rb = cf b in
            let d = def (fun d -> ODiv (d, ra, rb)) in
            flop C.float_div;
            d
        | R.ENeg a when is_f a ->
            let ra = cf a in
            let d = def (fun d -> ONeg (d, ra)) in
            flop 0.0;
            d
        (* the cast is the [to_float] [cf] applies to every operand *)
        | R.ECast ((Minic.Ast.Tfloat | Minic.Ast.Tdouble), a) -> cf a
        | R.ECall { callee = R.Math { mimpl = R.M1 g; mflops }; cargs = [ a ] }
          ->
            let ra = cf a in
            let d = def (fun d -> OMath1 (d, g, ra)) in
            k.flops <- k.flops + mflops;
            k.sfu <- k.sfu + 1;
            d
        | R.ECall
            { callee = R.Math { mimpl = R.M2 g; mflops }; cargs = [ a; b ] } ->
            let ra = cf a in
            let rb = cf b in
            let d = def (fun d -> OMath2 (d, g, ra, rb)) in
            k.flops <- k.flops + mflops;
            k.sfu <- k.sfu + 1;
            d
        | R.EIndex (a, idx_e) ->
            let n = new_site (float_base a) idx_e in
            count k.loads n;
            def (fun d -> OLoad (d, n))
        (* the loop index or an affine int expression, consumed via
           [to_float] *)
        | _ when not (is_f e) ->
            let c = counter e in
            def (fun d -> OItoF (d, c))
        | _ -> raise Not_kernel
      in
      let do_stmt (s : R.stmt) =
        match s with
        | R.SDeclVar
            {
              slot = R.Local s;
              typ = Minic.Ast.Tfloat | Minic.Ast.Tdouble;
              init = Some e;
            }
          when s <> idx_slot ->
            let r = cf e in
            emit (OMov (reg_of_slot s, r));
            mark s
        | R.SAssign { slot = R.Local s; aop; rhs; _ }
          when s <> idx_slot && is_flt lt.(s) && is_f rhs -> (
            let r = cf rhs in
            match aop with
            | Minic.Ast.Set ->
                emit (OMov (reg_of_slot s, r));
                mark s
            | _ ->
                let d = read_slot s in
                emit
                  (match aop with
                  | Minic.Ast.AddEq -> OAdd (d, d, r)
                  | Minic.Ast.SubEq -> OSub (d, d, r)
                  | Minic.Ast.MulEq -> OMul (d, d, r)
                  | _ -> ODiv (d, d, r));
                flop (if aop = Minic.Ast.DivEq then C.float_div else 0.0);
                mark s)
        | R.SStore { arr; idx; aop; rhs } when is_f rhs -> (
            let b = float_base arr in
            (* evaluation order: rhs, then arr/idx *)
            let r = cf rhs in
            let n = new_site b idx in
            match aop with
            | Minic.Ast.Set ->
                emit (OStore (n, r));
                count k.stores n
            | _ ->
                emit
                  (match aop with
                  | Minic.Ast.AddEq -> OStoreAdd (n, r)
                  | Minic.Ast.SubEq -> OStoreSub (n, r)
                  | Minic.Ast.MulEq -> OStoreMul (n, r)
                  | _ -> OStoreDiv (n, r));
                count k.loads n;
                count k.stores n;
                flop (if aop = Minic.Ast.DivEq then C.float_div else 0.0))
        | _ -> raise Not_kernel
      in
      try
        List.iter do_stmt group.R.gstmts;
        let ie_init, init_ops = invariant_int cp lt ~idx_slot init in
        let ie_bound, bound_ops = invariant_int cp lt ~idx_slot bound in
        let ie_step, step_ops = invariant_int cp lt ~idx_slot step in
        let per_site tbl =
          Array.init k.nsites (fun n ->
              Option.value (Hashtbl.find_opt tbl n) ~default:0)
        in
        let site_loads = per_site k.loads and site_stores = per_site k.stores in
        let bcost = C.branch +. bound.R.ecost in
        (* counters follow the sites in the offset buffers *)
        let ops =
          List.rev_map
            (function OItoF (d, c) -> OItoF (d, k.nsites + c) | op -> op)
            k.ops
        in
        let out =
          Hashtbl.fold
            (fun s r acc ->
              if Hashtbl.mem k.written s then (s, r) :: acc else acc)
            k.slot_reg []
          |> List.sort compare
        in
        Some
          ( {
              k_nfregs = k.nregs;
              k_sites = Array.of_list (List.rev k.sites);
              k_ctrs = Array.of_list (List.rev k.ctrs);
              k_site_loads = site_loads;
              k_site_stores = site_stores;
              k_loads = Array.fold_left ( + ) 0 site_loads;
              k_stores = Array.fold_left ( + ) 0 site_stores;
              k_in = Array.of_list (List.rev k.entry);
              k_out = Array.of_list out;
              k_idx_slot = idx_slot;
              k_fsid = fsid;
              k_inclusive = inclusive;
              k_init = ie_init;
              k_bound = ie_bound;
              k_step = ie_step;
              k_nstmts = List.length group.R.gstmts;
              k_flops = k.flops;
              k_sfu = k.sfu;
              k_int_ops = k.int_ops;
              k_init_int_ops = init_ops;
              k_bound_int_ops = bound_ops;
              k_step_int_ops = step_ops;
              k_dyn_cycles = k.dyn;
              k_gcost = group.R.gcost;
              k_icost = init.R.ecost;
              k_bcost = bcost;
              k_scost = step.R.ecost;
              k_iter_cycles =
                bcost +. (C.loop_iter +. C.int_op) +. group.R.gcost +. k.dyn
                +. step.R.ecost;
            },
            Array.of_list ops )
      with Not_kernel -> None)
  | _ -> None

(* ================================================================== *)
(* The superinstruction selector                                       *)
(* ================================================================== *)

let rec invariant_idx = function
  | XLit _ | XSlot _ -> true
  | XIdx -> false
  | XAdd (a, b) | XSub (a, b) | XMul (a, b) ->
      invariant_idx a && invariant_idx b
  | XNeg a -> invariant_idx a

let kop_writes = function
  | OLit (d, _) | OMov (d, _) | ONeg (d, _) | OItoF (d, _)
  | OAdd (d, _, _) | OSub (d, _, _) | OMul (d, _, _) | ODiv (d, _, _)
  | OMath1 (d, _, _) | OMath2 (d, _, _, _) | OLoad (d, _)
  | OLAddA (d, _, _) | OLAddB (d, _, _) | OLSubA (d, _, _) | OLSubB (d, _, _)
  | OLMulA (d, _, _) | OLMulB (d, _, _) | OLDivA (d, _, _) | OLDivB (d, _, _)
  | OAddAddA (d, _, _, _) | OAddAddB (d, _, _, _)
  | OAddSubA (d, _, _, _) | OAddSubB (d, _, _, _)
  | OAddMulA (d, _, _, _) | OAddMulB (d, _, _, _)
  | OSubAddA (d, _, _, _) | OSubAddB (d, _, _, _)
  | OSubSubA (d, _, _, _) | OSubSubB (d, _, _, _)
  | OSubMulA (d, _, _, _) | OSubMulB (d, _, _, _)
  | OMulAddA (d, _, _, _) | OMulAddB (d, _, _, _)
  | OMulSubA (d, _, _, _) | OMulSubB (d, _, _, _)
  | OMulMulA (d, _, _, _) | OMulMulB (d, _, _, _)
  | OGDiv (d, _, _, _) | ODivG (d, _, _, _)
  | OGMul (d, _, _, _) | OMulG (d, _, _, _)
  | OMulMulAdd (d, _, _, _, _)
  | ODot3 (d, _, _, _, _, _, _)
  | ODot3Add (d, _, _, _, _, _, _, _) ->
      Some d
  | OStore _ | OStoreAdd _ | OStoreSub _ | OStoreMul _ | OStoreDiv _
  | OAddStore _ | OSubStore _ | OMulStore _ | ODivStore _ ->
      None

let kop_reads = function
  | OLit _ | OItoF _ | OLoad _ -> []
  | OMov (_, a) | ONeg (_, a) | OMath1 (_, _, a) -> [ a ]
  | OAdd (_, a, b) | OSub (_, a, b) | OMul (_, a, b) | ODiv (_, a, b)
  | OMath2 (_, _, a, b) ->
      [ a; b ]
  | OStore (_, r) | OStoreAdd (_, r) | OStoreSub (_, r) | OStoreMul (_, r)
  | OStoreDiv (_, r) ->
      [ r ]
  | OLAddA (_, _, b) | OLSubA (_, _, b) | OLMulA (_, _, b) | OLDivA (_, _, b)
    ->
      [ b ]
  | OLAddB (_, a, _) | OLSubB (_, a, _) | OLMulB (_, a, _) | OLDivB (_, a, _)
    ->
      [ a ]
  | OAddAddA (_, a, b, c) | OAddAddB (_, a, b, c)
  | OAddSubA (_, a, b, c) | OAddSubB (_, a, b, c)
  | OAddMulA (_, a, b, c) | OAddMulB (_, a, b, c)
  | OSubAddA (_, a, b, c) | OSubAddB (_, a, b, c)
  | OSubSubA (_, a, b, c) | OSubSubB (_, a, b, c)
  | OSubMulA (_, a, b, c) | OSubMulB (_, a, b, c)
  | OMulAddA (_, a, b, c) | OMulAddB (_, a, b, c)
  | OMulSubA (_, a, b, c) | OMulSubB (_, a, b, c)
  | OMulMulA (_, a, b, c) | OMulMulB (_, a, b, c) ->
      [ a; b; c ]
  | OGDiv (_, _, a, b) | OGMul (_, _, a, b) -> [ a; b ]
  | ODivG (_, a, _, b) | OMulG (_, a, _, b) -> [ a; b ]
  | OAddStore (_, a, b) | OSubStore (_, a, b) | OMulStore (_, a, b)
  | ODivStore (_, a, b) ->
      [ a; b ]
  | OMulMulAdd (_, a, b, p, q) -> [ a; b; p; q ]
  | ODot3 (_, a, b, p, q, x, y) -> [ a; b; p; q; x; y ]
  | ODot3Add (_, a, b, p, q, x, y, e) -> [ a; b; p; q; x; y; e ]

(* Retarget a register-writing op's destination.  Total over every op
   with [kop_writes = Some _]; the store-class ops (no register write)
   are never picked as the producer of a link register. *)
let kop_retarget op d =
  match op with
  | OLit (_, x) -> OLit (d, x)
  | OMov (_, a) -> OMov (d, a)
  | OAdd (_, a, b) -> OAdd (d, a, b)
  | OSub (_, a, b) -> OSub (d, a, b)
  | OMul (_, a, b) -> OMul (d, a, b)
  | ODiv (_, a, b) -> ODiv (d, a, b)
  | ONeg (_, a) -> ONeg (d, a)
  | OItoF (_, c) -> OItoF (d, c)
  | OMath1 (_, g, a) -> OMath1 (d, g, a)
  | OMath2 (_, g, a, b) -> OMath2 (d, g, a, b)
  | OLoad (_, si) -> OLoad (d, si)
  | OLAddA (_, s, b) -> OLAddA (d, s, b)
  | OLAddB (_, a, s) -> OLAddB (d, a, s)
  | OLSubA (_, s, b) -> OLSubA (d, s, b)
  | OLSubB (_, a, s) -> OLSubB (d, a, s)
  | OLMulA (_, s, b) -> OLMulA (d, s, b)
  | OLMulB (_, a, s) -> OLMulB (d, a, s)
  | OLDivA (_, s, b) -> OLDivA (d, s, b)
  | OLDivB (_, a, s) -> OLDivB (d, a, s)
  | OAddAddA (_, a, b, c) -> OAddAddA (d, a, b, c)
  | OAddAddB (_, a, b, c) -> OAddAddB (d, a, b, c)
  | OAddSubA (_, a, b, c) -> OAddSubA (d, a, b, c)
  | OAddSubB (_, a, b, c) -> OAddSubB (d, a, b, c)
  | OAddMulA (_, a, b, c) -> OAddMulA (d, a, b, c)
  | OAddMulB (_, a, b, c) -> OAddMulB (d, a, b, c)
  | OSubAddA (_, a, b, c) -> OSubAddA (d, a, b, c)
  | OSubAddB (_, a, b, c) -> OSubAddB (d, a, b, c)
  | OSubSubA (_, a, b, c) -> OSubSubA (d, a, b, c)
  | OSubSubB (_, a, b, c) -> OSubSubB (d, a, b, c)
  | OSubMulA (_, a, b, c) -> OSubMulA (d, a, b, c)
  | OSubMulB (_, a, b, c) -> OSubMulB (d, a, b, c)
  | OMulAddA (_, a, b, c) -> OMulAddA (d, a, b, c)
  | OMulAddB (_, a, b, c) -> OMulAddB (d, a, b, c)
  | OMulSubA (_, a, b, c) -> OMulSubA (d, a, b, c)
  | OMulSubB (_, a, b, c) -> OMulSubB (d, a, b, c)
  | OMulMulA (_, a, b, c) -> OMulMulA (d, a, b, c)
  | OMulMulB (_, a, b, c) -> OMulMulB (d, a, b, c)
  | OGDiv (_, g, a, q) -> OGDiv (d, g, a, q)
  | ODivG (_, p, g, a) -> ODivG (d, p, g, a)
  | OGMul (_, g, a, q) -> OGMul (d, g, a, q)
  | OMulG (_, p, g, a) -> OMulG (d, p, g, a)
  | OMulMulAdd (_, a, b, p, q) -> OMulMulAdd (d, a, b, p, q)
  | ODot3 (_, a, b, p, q, x, y) -> ODot3 (d, a, b, p, q, x, y)
  | ODot3Add (_, a, b, p, q, x, y, e) -> ODot3Add (d, a, b, p, q, x, y, e)
  | OStore _ | OStoreAdd _ | OStoreSub _ | OStoreMul _ | OStoreDiv _
  | OAddStore _ | OSubStore _ | OMulStore _ | ODivStore _ ->
      op

(* [fuse_pair t x y]: [x] writes link register [t] (write-once,
   read-once, dead after [y]); [y] immediately follows and is [t]'s
   only reader.  Returns the fused op, preserving operand order and the
   internal memory-access order of the pair. *)
let fuse_pair t x y =
  match (x, y) with
  (* copy elimination: the slot-IR lowering materializes assignments as
     compute-into-temp + move; retargeting the producer's destination is
     exact because [t]'s only read is the move itself *)
  | x, OMov (d, s) when s = t -> Some (kop_retarget x d)
  (* load + arith *)
  | OLoad (_, s), OAdd (d, a, b) ->
      Some (if a = t then OLAddA (d, s, b) else OLAddB (d, a, s))
  | OLoad (_, s), OSub (d, a, b) ->
      Some (if a = t then OLSubA (d, s, b) else OLSubB (d, a, s))
  | OLoad (_, s), OMul (d, a, b) ->
      Some (if a = t then OLMulA (d, s, b) else OLMulB (d, a, s))
  | OLoad (_, s), ODiv (d, a, b) ->
      Some (if a = t then OLDivA (d, s, b) else OLDivB (d, a, s))
  (* arith + store (Set only: rmw stores keep their own load) *)
  | OAdd (_, a, b), OStore (s, _) -> Some (OAddStore (s, a, b))
  | OSub (_, a, b), OStore (s, _) -> Some (OSubStore (s, a, b))
  | OMul (_, a, b), OStore (s, _) -> Some (OMulStore (s, a, b))
  | ODiv (_, a, b), OStore (s, _) -> Some (ODivStore (s, a, b))
  (* arith + arith *)
  | OAdd (_, a, b), OAdd (d, p, q) ->
      Some (if p = t then OAddAddA (d, a, b, q) else OAddAddB (d, a, b, p))
  | OAdd (_, a, b), OSub (d, p, q) ->
      Some (if p = t then OAddSubA (d, a, b, q) else OAddSubB (d, a, b, p))
  | OAdd (_, a, b), OMul (d, p, q) ->
      Some (if p = t then OAddMulA (d, a, b, q) else OAddMulB (d, a, b, p))
  | OSub (_, a, b), OAdd (d, p, q) ->
      Some (if p = t then OSubAddA (d, a, b, q) else OSubAddB (d, a, b, p))
  | OSub (_, a, b), OSub (d, p, q) ->
      Some (if p = t then OSubSubA (d, a, b, q) else OSubSubB (d, a, b, p))
  | OSub (_, a, b), OMul (d, p, q) ->
      Some (if p = t then OSubMulA (d, a, b, q) else OSubMulB (d, a, b, p))
  | OMul (_, a, b), OAdd (d, p, q) ->
      Some (if p = t then OMulAddA (d, a, b, q) else OMulAddB (d, a, b, p))
  | OMul (_, a, b), OSub (d, p, q) ->
      Some (if p = t then OMulSubA (d, a, b, q) else OMulSubB (d, a, b, p))
  | OMul (_, a, b), OMul (d, p, q) ->
      Some (if p = t then OMulMulA (d, a, b, q) else OMulMulB (d, a, b, p))
  (* mul feeding a mul-add accumulator: the dot-product step *)
  | OMul (_, a, b), OMulAddB (d, p, q, c) when c = t ->
      (* (p*q) + (a*b) ... OMulAddB (d, p, q, c) = c + (p*q) with c = a*b *)
      Some (OMulMulAdd (d, a, b, p, q))
  | OMul (_, a, b), OMulAddA (d, p, q, c) when c = t ->
      (* (p*q) + (a*b) *)
      Some (OMulMulAdd (d, p, q, a, b))
  (* the dot product keeps absorbing mul-add accumulators and a trailing
     scalar add (the distance-softening term); association order is
     preserved exactly, so the float result is bit-identical *)
  | OMulMulAdd (_, a, b, p, q), OMulAddB (d, x, y, c) when c = t ->
      (* ((a*b) + (p*q)) + (x*y) *)
      Some (ODot3 (d, a, b, p, q, x, y))
  | ODot3 (_, a, b, p, q, x, y), OAdd (d, u, e) when u = t ->
      (* (dot3) + e *)
      Some (ODot3Add (d, a, b, p, q, x, y, e))
  (* math1 + div/mul *)
  | OMath1 (_, g, a), ODiv (d, p, q) ->
      Some (if p = t then OGDiv (d, g, a, q) else ODivG (d, p, g, a))
  | OMath1 (_, g, a), OMul (d, p, q) ->
      Some (if p = t then OGMul (d, g, a, q) else OMulG (d, p, g, a))
  | _ -> None

(* One left-to-right pass over a stack of ops: each incoming op fuses
   with the top while {!fuse_pair} accepts, the top's result being the
   link register.  A link register is written once, read once (by the
   incoming op) and is not a kernel output ([out]).  The counts are
   taken once, up front: a fusion removes only its link register's one
   write and one read, so every other register keeps its counts, and
   the stack meets pairs in the order a leftmost scan restarted after
   every fusion would.  Returns the ops and whether any pair fused. *)
let fuse ~out ops =
  let writes = Array.make (Array.length out) 0 in
  let reads = Array.make (Array.length out) 0 in
  Array.iter
    (fun op ->
      Option.iter (fun d -> writes.(d) <- writes.(d) + 1) (kop_writes op);
      List.iter (fun r -> reads.(r) <- reads.(r) + 1) (kop_reads op))
    ops;
  let fused = ref false in
  let rec push stack y =
    match stack with
    | x :: below -> (
        match kop_writes x with
        | Some t
          when (not out.(t)) && writes.(t) = 1 && reads.(t) = 1
               && List.mem t (kop_reads y) -> (
            match fuse_pair t x y with
            | Some xy ->
                fused := true;
                push below xy
            | None -> y :: stack)
        | _ -> y :: stack)
    | [] -> [ y ]
  in
  let stack = Array.fold_left push [] ops in
  (Array.of_list (List.rev stack), !fused)

(* Hoist single-assignment literal registers (and, in store-free
   kernels, loads through loop-invariant sites) out of the body: they
   are computed once at kernel entry instead of every iteration.  Legal
   only when the register is written exactly once in the body and never
   read before that write (so the entry value is the value every
   iteration sees). *)
let hoist_entry (k : kernel) ops =
  let nregs = k.k_nfregs in
  let writes = Array.make (max 1 nregs) 0 in
  Array.iter
    (fun op ->
      match kop_writes op with
      | Some d -> writes.(d) <- writes.(d) + 1
      | None -> ())
    ops;
  let any_stores = Array.exists (fun c -> c > 0) k.k_site_stores in
  let read_before = Array.make (max 1 nregs) false in
  let lits = ref [] and pref = ref [] in
  let keep = ref [] in
  Array.iter
    (fun op ->
      let hoisted =
        match op with
        | OLit (d, x) when writes.(d) = 1 && not read_before.(d) ->
            lits := (d, x) :: !lits;
            true
        | OLoad (d, si)
          when (not any_stores) && writes.(d) = 1 && not read_before.(d)
               && invariant_idx k.k_sites.(si).ks_idx ->
            pref := (d, si) :: !pref;
            true
        | _ -> false
      in
      if not hoisted then begin
        List.iter (fun r -> read_before.(r) <- true) (kop_reads op);
        keep := op :: !keep
      end)
    ops;
  ( Array.of_list (List.rev !keep),
    Array.of_list (List.rev !lits),
    Array.of_list (List.rev !pref) )

(* The tracking sites of [k] in the order of their first access in its
   plain ops, and their access kinds (see {!kprog}).  A load after a
   store of the same element changes no first-access state, so [2]
   absorbs it. *)
let site_accesses (k : kernel) plain =
  let sites = k.k_sites in
  let kinds = Array.make (Array.length sites) 0 in
  let order = ref [] in
  let touch si kind =
    let rec first j = if sites.(j) = sites.(si) then j else first (j + 1) in
    let si = first 0 in
    if kinds.(si) = 0 then (
      order := si :: !order;
      kinds.(si) <- kind)
    else if kind land 2 <> 0 then kinds.(si) <- kinds.(si) lor 2
  in
  Array.iter
    (function
      | OLoad (_, si) -> touch si 1
      | OStore (si, _) -> touch si 2
      | OStoreAdd (si, _) | OStoreSub (si, _) | OStoreMul (si, _)
      | OStoreDiv (si, _) ->
          touch si 3
      | _ -> ())
    plain;
  (Array.of_list (List.rev !order), kinds)

(** Lift one kernel's plain ops into a micro-program: hoist its entry
    banks, then fuse adjacent pairs.  [slots] maps each frame slot to
    its register. *)
let lift_kernel ~(slots : int array) (k : kernel) (plain : kop array) : kprog =
  let m = Flow_obs.Metrics.global in
  Flow_obs.Metrics.incr m "vm_kernels";
  let ops, lits, pref = hoist_entry k plain in
  let out = Array.make (max 1 k.k_nfregs) false in
  Array.iter (fun (_, freg) -> out.(freg) <- true) k.k_out;
  let ops, fused_any = fuse ~out ops in
  let fused = fused_any || Array.length lits > 0 || Array.length pref > 0 in
  if fused then Flow_obs.Metrics.incr m "vm_kernels_fused";
  Flow_obs.Metrics.incr m "vm_kernel_ops_before" ~by:(Array.length plain);
  Flow_obs.Metrics.incr m "vm_kernel_ops_after" ~by:(Array.length ops);
  Flow_obs.Metrics.incr m "vm_kernel_lits" ~by:(Array.length lits);
  Flow_obs.Metrics.incr m "vm_kernel_prefetch" ~by:(Array.length pref);
  let fin, iin =
    List.partition (fun (s, _) -> bank_of slots.(s) = fbank) (Array.to_list k.k_in)
  in
  let idx (s, f) = (index_of slots.(s), f) in
  let order, kinds = site_accesses k plain in
  {
    kp_kern = k;
    kp_site_order = order;
    kp_site_kinds = kinds;
    kp_ops = ops;
    kp_lits = lits;
    kp_prefetch = pref;
    kp_fused = fused;
    kp_slots = slots;
    kp_fin = Array.of_list (List.map idx fin);
    kp_iin = Array.of_list (List.map idx iin);
    kp_fout = Array.map idx k.k_out;
  }

(* ================================================================== *)
(* Lowering                                                            *)
(* ================================================================== *)

type item = Lab of int | Ins of instr

(* The temporaries of one bank: allocated monotonically above [base],
   released at statement end; [hi] is the high-water mark. *)
type temps = { base : int; mutable n : int; mutable hi : int }

type lctx = {
  cp : R.t;
  glob : bool;  (** lowering the globals block: [return] raises *)
  kernels : bool;  (** translate innermost counted loops to kernels *)
  nloops : int list ref;
      (** node ids by dense loop number, newest first; the numbering is
          shared across functions *)
  lt : Minic.Ast.typ array;  (** declared slot types of the frame *)
  slots : int array;  (** register of each local slot *)
  cof : Value.t -> int;  (** boxed constant register of a literal *)
  coff : float -> int;  (** float-bank constant register *)
  cofi : int -> int;  (** int-bank constant register *)
  tb : temps;
  tf : temps;
  ti : temps;
  mutable rev : item list;  (** emitted items, newest first *)
  mutable nlab : int;
}

let emit ctx i = ctx.rev <- Ins i :: ctx.rev

let fresh_lab ctx =
  let l = ctx.nlab in
  ctx.nlab <- l + 1;
  l

let place ctx l = ctx.rev <- Lab l :: ctx.rev

let tmp ctx bank =
  let t = if bank = fbank then ctx.tf else if bank = ibank then ctx.ti else ctx.tb in
  let r = t.base + t.n in
  t.n <- t.n + 1;
  if t.n > t.hi then t.hi <- t.n;
  reg bank r

(* The register an instruction producing into [bank] writes: the
   caller's destination when it lives in that bank, else a fresh
   temporary. *)
let dest ctx dst bank =
  match dst with Some d when bank_of d = bank -> d | _ -> tmp ctx bank

let fresh_loop ctx sid =
  let l = List.length !(ctx.nloops) in
  ctx.nloops := sid :: !(ctx.nloops);
  l

let arith_of_assign = function
  | Minic.Ast.AddEq -> (Minic.Ast.Add, C.float_add -. C.int_op)
  | Minic.Ast.SubEq -> (Minic.Ast.Sub, C.float_add -. C.int_op)
  | Minic.Ast.MulEq -> (Minic.Ast.Mul, C.float_mul -. C.int_op)
  | Minic.Ast.Set | Minic.Ast.DivEq -> invalid_arg "arith_of_assign"

(* ------------------------------------------------------------------ *)
(* Constant-pool prescan                                               *)
(* ------------------------------------------------------------------ *)

(* Constant pools key on the literal itself.  Floats compare by their
   bits: [0.0] and [-0.0] are equal as floats but must keep separate
   constant registers. *)
module Lits = Hashtbl.Make (struct
  type t = Value.t

  let equal a b =
    match (a, b) with
    | Value.VFloat x, Value.VFloat y ->
        Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | _ -> a = b

  let hash = Hashtbl.hash
end)

let rec scan_e f (e : R.expr) =
  match e.R.e with
  | R.ELit v -> f v
  | R.EVar (R.Unbound _) -> f Value.VUnit  (* dummy result register *)
  | R.EVar _ -> ()
  | R.ENeg a | R.ENot a | R.ECast (_, a) -> scan_e f a
  | R.EArith (_, _, a, b) | R.ECmp (_, a, b) | R.EDiv (a, b) | R.EMod (a, b)
  | R.EAnd (a, b) | R.EOr (a, b) | R.EIndex (a, b) ->
      scan_e f a;
      scan_e f b
  | R.ECall { cargs; _ } ->
      List.iter (scan_e f) cargs;
      f Value.VUnit  (* builtin/error dummy results *)

let rec scan_s f = function
  | R.SDeclVar { typ; init; _ } -> (
      match init with
      | Some e -> scan_e f e
      | None -> f (Value.zero_of_typ typ))
  | R.SDeclArr { size; _ } -> scan_e f size
  | R.SAssign { rhs; _ } -> scan_e f rhs
  | R.SStore { arr; idx; rhs; _ } ->
      scan_e f rhs;
      scan_e f arr;
      scan_e f idx
  | R.SExpr e -> scan_e f e
  | R.SIf (c, b1, b2) ->
      scan_e f c;
      scan_b f b1;
      Option.iter (scan_b f) b2
  | R.SWhile { cond; body; _ } ->
      scan_e f cond;
      scan_b f body
  | R.SFor { init; bound; step; body; _ } ->
      scan_e f init;
      scan_e f bound;
      scan_e f step;
      scan_b f body
  | R.SReturn eo -> Option.iter (scan_e f) eo
  | R.SBlock b -> scan_b f b

and scan_b f (b : R.block) =
  List.iter (fun (g : R.group) -> List.iter (scan_s f) g.R.gstmts) b

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let is_float_expr ctx e = is_flt (ety ctx.cp ctx.lt e)

(* The path of arithmetic, division or comparison on [a] and [b]: float
   when either is a float, int otherwise. *)
let operand_kind ctx a b =
  if is_float_expr ctx a || is_float_expr ctx b then KFlt else KInt

(* [lx] lowers an expression and returns the register holding its
   result.  Literals resolve to constant registers (no code): in their
   own bank, or boxed when [v] asks for a value that leaves the banks
   anyway (a store, a return, a global).  Locals resolve to their slot
   register directly — valid because no MiniC construct writes a local
   slot mid-expression (assignments are statements) — while globals are
   snapshotted into a boxed temp at their evaluation point (a user call
   later in the expression may overwrite them).  A single-instruction
   producer writes [dst] directly when [dst] is in its bank: its
   operands are all read before the write. *)
let rec lx ?(v = false) ?dst ctx (e : R.expr) : int =
  let bin bank a b mk =
    let ra = lx ctx a in
    let rb = lx ctx b in
    let d = dest ctx dst bank in
    emit ctx (mk d ra rb);
    d
  in
  match e.R.e with
  | R.ELit (Value.VFloat x) when not v -> ctx.coff x
  | R.ELit (Value.VInt n) when not v -> ctx.cofi n
  | R.ELit lit -> ctx.cof lit
  | R.EVar (R.Local i) -> ctx.slots.(i)
  | R.EVar (R.Global g) ->
      let t = dest ctx dst boxed in
      emit ctx (IGetG (t, g));
      t
  | R.EVar (R.Unbound n) ->
      emit ctx (IErrVar n);
      ctx.cof Value.VUnit
  | R.ENeg a ->
      let ra = lx ctx a in
      if is_float_expr ctx a then (
        let d = dest ctx dst fbank in
        emit ctx (INegF (d, ra));
        d)
      else
        let d = dest ctx dst ibank in
        emit ctx (INegI (d, ra));
        d
  | R.ENot a ->
      let ra = lx ctx a in
      let d = dest ctx dst boxed in
      emit ctx (INot (d, ra));
      d
  | R.EArith (op, fresid, a, b) -> (
      match operand_kind ctx a b with
      | KFlt -> bin fbank a b (fun d a b -> IArithF { op; fresid; d; a; b })
      | KInt -> bin ibank a b (fun d a b -> IArithI { op; d; a; b }))
  | R.EDiv (a, b) -> (
      match operand_kind ctx a b with
      | KFlt -> bin fbank a b (fun d a b -> IDivF (d, a, b))
      | KInt -> bin ibank a b (fun d a b -> IDivI (d, a, b)))
  | R.EMod (a, b) -> bin ibank a b (fun d a b -> IMod (d, a, b))
  | R.ECmp (op, a, b) ->
      let kind = operand_kind ctx a b in
      bin boxed a b (fun d a b -> ICmp { op; kind; d; a; b })
  | R.EAnd (a, b) ->
      let d = tmp ctx boxed in
      let ra = lx ctx a in
      let l = fresh_lab ctx in
      emit ctx (IAndTest { d; src = ra; bcost = b.R.ecost; tgt = l });
      let rb = lx ctx b in
      emit ctx (ICastB (d, rb));
      place ctx l;
      d
  | R.EOr (a, b) ->
      let d = tmp ctx boxed in
      let ra = lx ctx a in
      let l = fresh_lab ctx in
      emit ctx (IOrTest { d; src = ra; bcost = b.R.ecost; tgt = l });
      let rb = lx ctx b in
      emit ctx (ICastB (d, rb));
      place ctx l;
      d
  | R.EIndex (a, i) ->
      let ra = lx ~v:true ctx a in
      let ri = lx ctx i in
      (* a float region's element loads straight into the float bank *)
      let d =
        match dst with
        | Some d -> d
        | None -> (
            match ety ctx.cp ctx.lt a with
            | Minic.Ast.Tptr t when is_flt t && not v -> tmp ctx fbank
            | _ -> tmp ctx boxed)
      in
      emit ctx (IIndex { d; a = ra; i = ri });
      d
  | R.ECast (t, a) -> (
      let ra = lx ctx a in
      let conv bank mk =
        if bank_of ra = bank then ra
        else
          let d = dest ctx dst bank in
          emit ctx (mk d ra);
          d
      in
      match t with
      | Minic.Ast.Tint -> conv ibank (fun d a -> ICastI (d, a))
      | Minic.Ast.Tfloat | Minic.Ast.Tdouble ->
          conv fbank (fun d a -> ICastF (d, a))
      | Minic.Ast.Tbool ->
          let d = dest ctx dst boxed in
          emit ctx (ICastB (d, ra));
          d
      | _ -> ra)
  | R.ECall { callee; cargs } -> lcall ctx dst callee cargs

(* Arguments lower left to right (an explicit fold: the emission order
   is the evaluation order). *)
and largs ctx cargs =
  List.rev (List.fold_left (fun acc a -> lx ctx a :: acc) [] cargs)

and lcall ctx dst callee cargs : int =
  match callee with
  | R.User idx ->
      let f = ctx.cp.R.cfuncs.(idx) in
      if List.length cargs <> List.length f.R.cf_params then begin
        ignore (largs ctx cargs);
        emit ctx
          (IErrMsg
             (Printf.sprintf "call to '%s' with wrong arity" f.R.cf_name));
        ctx.cof Value.VUnit
      end
      else begin
        let rs = largs ctx cargs in
        let d = match dst with Some d -> d | None -> tmp ctx boxed in
        emit ctx (ICallUser { d; fidx = idx; args = Array.of_list rs });
        d
      end
  | R.Math { mimpl = R.M1 g; mflops } -> (
      match cargs with
      | [ a ] ->
          let ra = lx ctx a in
          let d = dest ctx dst fbank in
          emit ctx (IMath1 { d; g; mflops; a = ra });
          d
      | _ ->
          let rs = largs ctx cargs in
          let d = dest ctx dst fbank in
          emit ctx
            (IMathGen { d; mimpl = R.M1 g; mflops; args = Array.of_list rs });
          d)
  | R.Math { mimpl = R.M2 g; mflops } -> (
      match cargs with
      | [ a; b ] ->
          let ra = lx ctx a in
          let rb = lx ctx b in
          let d = dest ctx dst fbank in
          emit ctx (IMath2 { d; g; mflops; a = ra; b = rb });
          d
      | _ ->
          let rs = largs ctx cargs in
          let d = dest ctx dst fbank in
          emit ctx
            (IMathGen { d; mimpl = R.M2 g; mflops; args = Array.of_list rs });
          d)
  | R.Math_unimpl base ->
      ignore (largs ctx cargs);
      emit ctx (IErrMsg (Printf.sprintf "unimplemented math builtin '%s'" base));
      ctx.cof Value.VUnit
  | R.Rand01 ->
      ignore (largs ctx cargs);
      let d = dest ctx dst fbank in
      emit ctx (IRand01 d);
      d
  | R.Rand_int -> (
      match largs ctx cargs with
      | r :: _ ->
          let d = dest ctx dst ibank in
          emit ctx (IRandInt (d, r));
          d
      | [] ->
          emit ctx IFailHd;
          ctx.cof Value.VUnit)
  | R.Print_int ->
      (match largs ctx cargs with
      | r :: _ -> emit ctx (IPrintInt r)
      | [] -> emit ctx IFailHd);
      ctx.cof Value.VUnit
  | R.Print_float ->
      (match largs ctx cargs with
      | r :: _ -> emit ctx (IPrintFloat r)
      | [] -> emit ctx IFailHd);
      ctx.cof Value.VUnit
  | R.Timer_start ->
      (match largs ctx cargs with
      | r :: _ -> emit ctx (ITimerStart r)
      | [] -> emit ctx IFailHd);
      ctx.cof Value.VUnit
  | R.Timer_stop ->
      (match largs ctx cargs with
      | r :: _ -> emit ctx (ITimerStop r)
      | [] -> emit ctx IFailHd);
      ctx.cof Value.VUnit
  | R.Unknown fname ->
      ignore (largs ctx cargs);
      emit ctx (IErrMsg (Printf.sprintf "call to unknown function '%s'" fname));
      ctx.cof Value.VUnit

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and store_slot ctx vr src =
  match vr with
  | R.Local i ->
      let d = ctx.slots.(i) in
      if d <> src then emit ctx (IMov (d, src))
  | R.Global g -> emit ctx (ISetG (g, src))
  | R.Unbound n -> emit ctx (IErrVar n)

(* Lower [e] for an uncoerced store into [vr]: straight into a local
   slot when the producer's bank allows, as a value otherwise. *)
and lx_for_slot ctx vr e =
  match vr with
  | R.Local i ->
      let d = ctx.slots.(i) in
      lx ~v:(bank_of d = boxed) ~dst:d ctx e
  | _ -> lx ~v:true ctx e

(* Declaration-initializer store: the coercion (and its error) happens
   before an unbound-variable error, exactly like the walker's
   [coerce] feeding its failing [set_var].  A coercion whose operand is
   already in the target bank is the identity. *)
and store_coerced ctx vr typ e =
  let want =
    match typ with
    | Minic.Ast.Tint -> Some ibank
    | Minic.Ast.Tfloat | Minic.Ast.Tdouble -> Some fbank
    | Minic.Ast.Tbool -> Some boxed
    | Minic.Ast.Tptr _ | Minic.Ast.Tvoid -> None
  in
  match want with
  | None -> store_slot ctx vr (lx_for_slot ctx vr e)
  | Some want ->
      let target =
        match vr with
        | R.Local i when bank_of ctx.slots.(i) = want -> Some ctx.slots.(i)
        | _ -> None
      in
      let r = lx ?dst:target ctx e in
      let d = match target with Some d -> d | None -> tmp ctx want in
      (if want = boxed then emit ctx (ICastB (d, r))
       else if bank_of r <> want then
         emit ctx (if want = ibank then ICastI (d, r) else ICastF (d, r))
       else if r <> d then emit ctx (IMov (d, r)));
      if target = None then store_slot ctx vr d

and ls ctx (s : R.stmt) =
  (* temp watermarks: expression temporaries die at statement end *)
  let b0 = ctx.tb.n and f0 = ctx.tf.n and i0 = ctx.ti.n in
  (match s with
  | R.SDeclVar { slot; typ; init } -> (
      emit ctx IFuel;
      match init with
      | Some e -> store_coerced ctx slot typ e
      | None ->
          let zero = { R.ecost = 0.0; e = R.ELit (Value.zero_of_typ typ) } in
          store_slot ctx slot (lx_for_slot ctx slot zero))
  | R.SDeclArr { slot; typ; name; size } ->
      emit ctx IFuel;
      let rs = lx ctx size in
      let t = tmp ctx boxed in
      emit ctx (IAlloc { d = t; typ; name; src = rs });
      store_slot ctx slot t
  | R.SAssign { slot; typ; aop; rhs } -> (
      emit ctx IFuel;
      match (aop, typ) with
      | Minic.Ast.Set, Some typ -> store_coerced ctx slot typ rhs
      | Minic.Ast.Set, None -> store_slot ctx slot (lx_for_slot ctx slot rhs)
      | aop, _ -> (
          let banked =
            match slot with
            | R.Local i -> bank_of ctx.slots.(i) <> boxed
            | _ -> false
          in
          let rv = lx ~v:(not banked) ctx rhs in
          (* an int slot takes the int path only for an operand that is
             never a float: a float one converts the float result back *)
          let int_rhs = not (is_float_expr ctx rhs) in
          match slot with
          | R.Local i when bank_of ctx.slots.(i) = ibank && not int_rhs ->
              let d = ctx.slots.(i) and t = tmp ctx boxed in
              emit ctx (IMov (t, d));
              emit ctx (IApplyAssign { d = t; typ; aop; old = t; rhs = rv });
              emit ctx (IMov (d, t))
          | R.Local i ->
              let d = ctx.slots.(i) in
              let bank = bank_of d in
              emit ctx
                (match aop with
                | Minic.Ast.DivEq when bank = fbank -> IDivF (d, d, rv)
                | Minic.Ast.DivEq when bank = ibank -> IDivI (d, d, rv)
                | _ when bank = fbank ->
                    let op, fresid = arith_of_assign aop in
                    IArithF { op; fresid; d; a = d; b = rv }
                | _ when bank = ibank ->
                    IArithI { op = fst (arith_of_assign aop); d; a = d; b = rv }
                | _ -> IApplyAssign { d; typ; aop; old = d; rhs = rv })
          | R.Global g ->
              let t = tmp ctx boxed in
              emit ctx (IGetG (t, g));
              emit ctx (IApplyAssign { d = t; typ; aop; old = t; rhs = rv });
              emit ctx (ISetG (g, t))
          | R.Unbound n -> emit ctx (IErrVar n)))
  | R.SStore { arr; idx; aop; rhs } -> (
      emit ctx IFuel;
      let rv = lx ~v:true ctx rhs in
      let ra = lx ~v:true ctx arr in
      let ri = lx ctx idx in
      match aop with
      | Minic.Ast.Set -> emit ctx (IStore { arr = ra; idx = ri; src = rv })
      | aop -> emit ctx (IStoreOp { aop; arr = ra; idx = ri; src = rv }))
  | R.SExpr e ->
      emit ctx IFuel;
      ignore (lx ctx e)
  | R.SIf (c, b1, b2) -> (
      emit ctx IFuel;
      let lelse = fresh_lab ctx in
      (match c.R.e with
      | R.ECmp (op, a, b) ->
          let kind = operand_kind ctx a b in
          let ra = lx ctx a in
          let rb = lx ctx b in
          Flow_obs.Metrics.incr Flow_obs.Metrics.global "vm_fused_cmp_branch";
          emit ctx (IBrCmp { op; kind; a = ra; b = rb; tgt = lelse })
      | _ ->
          let rc = lx ctx c in
          emit ctx (IJmpFalse (rc, lelse)));
      lb ctx b1;
      match b2 with
      | None -> place ctx lelse
      | Some b2 ->
          let lend = fresh_lab ctx in
          emit ctx (IJmp lend);
          place ctx lelse;
          lb ctx b2;
          place ctx lend)
  | R.SWhile { wsid; cond; body } ->
      emit ctx IFuel;
      let lidx = fresh_loop ctx wsid in
      let t0 = tmp ctx fbank and trips = tmp ctx ibank in
      emit ctx (ILoopEnterW { lidx; sid = wsid; t0; trips });
      let ltest = fresh_lab ctx and lexit = fresh_lab ctx in
      place ctx ltest;
      if cond.R.ecost <> 0.0 then emit ctx (ICharge cond.R.ecost);
      let rc = lx ctx cond in
      emit ctx (IWhileIter { src = rc; lidx; sid = wsid; trips; tgt = lexit });
      lb ctx body;
      emit ctx (IJmp ltest);
      place ctx lexit;
      emit ctx (ILoopExit { lidx; sid = wsid; t0; trips })
  | R.SFor { fsid; slot; init; bound; inclusive; step; body } ->
      (* a kernel runs first; on [Kernel_unfit] the generic loop below
         runs instead, under the same loop number *)
      let lidx = fresh_loop ctx fsid in
      let kernel =
        if ctx.kernels then kernel_of_loop ctx.cp ctx.lt s else None
      in
      let ldone =
        Option.map
          (fun (k, ops) ->
            let l = fresh_lab ctx in
            let kp = lift_kernel ~slots:ctx.slots k ops in
            emit ctx (IKernel { lidx; kp; tgt = l });
            l)
          kernel
      in
      lfor ctx lidx ~fsid ~slot ~init ~bound ~inclusive ~step ~body;
      Option.iter (place ctx) ldone
  | R.SReturn eo ->
      emit ctx IFuel;
      let rv =
        match eo with Some e -> lx ~v:true ctx e | None -> ctx.cof Value.VUnit
      in
      emit ctx (if ctx.glob then IRetRaise rv else IRet rv)
  | R.SBlock b ->
      emit ctx IFuel;
      lb ctx b);
  ctx.tb.n <- b0;
  ctx.tf.n <- f0;
  ctx.ti.n <- i0

(* A counted loop.  Its index is an int local: the checker puts loops
   in functions only and types every index [int]. *)
and lfor ctx lidx ~fsid ~slot ~init ~bound ~inclusive ~step ~body =
  let islot =
    match slot with
    | R.Local i when bank_of ctx.slots.(i) = ibank -> ctx.slots.(i)
    | _ -> invalid_arg "Bytecode.lower: a for index that is not an int local"
  in
  emit ctx IFuel;
  let t0 = tmp ctx fbank and trips = tmp ctx ibank in
  emit ctx
    (ILoopEnterF { lidx; sid = fsid; t0; trips; icost = init.R.ecost });
  let ri = lx ctx init in
  emit ctx (IForInitI { slot = islot; src = ri });
  let ltest = fresh_lab ctx and lexit = fresh_lab ctx in
  place ctx ltest;
  (* a bound that lowers to no code (a literal or a local) lets the test
     charge its own static cost: nothing can observe the cycle total in
     between *)
  let tcost = C.branch +. bound.R.ecost in
  let folded =
    match bound.R.e with
    | R.ELit _ -> true
    | R.EVar (R.Local _) -> true
    | _ -> false
  in
  if not folded then emit ctx (ICharge tcost);
  let cost = if folded then tcost else 0.0 in
  let rb = lx ctx bound in
  emit ctx
    (IForTestI
       { slot = islot; cost; bound = rb; inclusive; lidx; sid = fsid; trips; tgt = lexit });
  lb ctx body;
  if step.R.ecost <> 0.0 then emit ctx (ICharge step.R.ecost);
  let rs = lx ctx step in
  emit ctx (IForStepI { slot = islot; src = rs; tgt = ltest });
  place ctx lexit;
  emit ctx (ILoopExit { lidx; sid = fsid; t0; trips })

and lg ctx (g : R.group) =
  if g.R.gcost <> 0.0 then emit ctx (ICharge g.R.gcost);
  List.iter (ls ctx) g.R.gstmts

and lb ctx (b : R.block) = List.iter (lg ctx) b

(* ------------------------------------------------------------------ *)
(* Label resolution and entry points                                   *)
(* ------------------------------------------------------------------ *)

let patch lp = function
  | IJmp l -> IJmp lp.(l)
  | IJmpFalse (s, l) -> IJmpFalse (s, lp.(l))
  | IBrCmp r -> IBrCmp { r with tgt = lp.(r.tgt) }
  | IAndTest r -> IAndTest { r with tgt = lp.(r.tgt) }
  | IOrTest r -> IOrTest { r with tgt = lp.(r.tgt) }
  | IWhileIter r -> IWhileIter { r with tgt = lp.(r.tgt) }
  | IForTestI r -> IForTestI { r with tgt = lp.(r.tgt) }
  | IForStepI r -> IForStepI { r with tgt = lp.(r.tgt) }
  | IKernel r -> IKernel { r with tgt = lp.(r.tgt) }
  | i -> i

(* Slot registers of one frame: a slot declared [float] or [double]
   ([int]) goes into the float (int) bank; a [bool] or pointer slot
   stays boxed at its own index.  Returns the registers and the float
   and int bank slot counts. *)
let bank_slots (f : R.cfunc) =
  let nf = ref 0 and ni = ref 0 in
  let next bank n =
    let r = reg bank !n in
    incr n;
    r
  in
  let slots =
    Array.init f.R.cf_nslots (fun s ->
        match f.R.cf_slot_types.(s) with
        | Minic.Ast.Tfloat | Minic.Ast.Tdouble -> next fbank nf
        | Minic.Ast.Tint -> next ibank ni
        | _ -> reg boxed s)
  in
  (slots, !nf, !ni)

let lower_fn (cp : R.t) ~lt ~ret ~glob ~kernels ~nloops ~slots ~nslots
    ~nfslots ~nislots ~params (body : R.block) : fn =
  (* constant-pool prescan first so every register index is final: each
     literal gets a boxed constant, numeric ones also a banked one *)
  let pool () = (Lits.create 16, ref []) in
  let add (tbl, vals) key x =
    if not (Lits.mem tbl key) then begin
      Lits.add tbl key (Lits.length tbl);
      vals := x :: !vals
    end
  in
  let bp = pool () and fp = pool () and ip = pool () in
  let add_lit v =
    add bp v v;
    match v with
    | Value.VFloat x -> add fp v x
    | Value.VInt n -> add ip v n
    | _ -> ()
  in
  let fall_off = Value.zero_of_typ ret in
  add_lit Value.VUnit;
  add_lit fall_off;
  scan_b add_lit body;
  let values (_, vals) = Array.of_list (List.rev !vals) in
  let cvals = values bp and fcvals = values fp and icvals = values ip in
  let cof bank base (tbl, _) v = reg bank (base + Lits.find tbl v) in
  let temps base = { base; n = 0; hi = 0 } in
  let ctx =
    {
      cp;
      glob;
      kernels;
      nloops;
      lt;
      slots;
      cof = cof boxed nslots bp;
      coff = (fun x -> cof fbank nfslots fp (Value.VFloat x));
      cofi = (fun n -> cof ibank nislots ip (Value.VInt n));
      tb = temps (nslots + Array.length cvals);
      tf = temps (nfslots + Array.length fcvals);
      ti = temps (nislots + Array.length icvals);
      rev = [];
      nlab = 0;
    }
  in
  lb ctx body;
  (* fall off the end: both engines return the result type's zero *)
  emit ctx (IRet (ctx.cof fall_off));
  let items = List.rev ctx.rev in
  let lp = Array.make (max 1 ctx.nlab) 0 in
  let n = ref 0 in
  List.iter (function Lab l -> lp.(l) <- !n | Ins _ -> incr n) items;
  let code = Array.make !n IFuel in
  let pc = ref 0 in
  List.iter
    (function
      | Lab _ -> ()
      | Ins i ->
          code.(!pc) <- patch lp i;
          incr pc)
    items;
  Flow_obs.Metrics.incr Flow_obs.Metrics.global "vm_instrs"
    ~by:(Array.length code);
  let size (t : temps) = max 1 (t.base + t.hi) in
  {
    bc_code = code;
    bc_nregs = size ctx.tb;
    bc_boxed = Array.append (Array.map Value.zero_of_typ lt) cvals;
    bc_nsf = size ctx.tf;
    bc_fcbase = nfslots;
    bc_fcvals = fcvals;
    bc_nsi = size ctx.ti;
    bc_icbase = nislots;
    bc_icvals = icvals;
    bc_params = params;
    bc_slots = slots;
  }

(** Lower a resolved program that {!Minic.Typecheck} accepts, with
    every innermost loop that fits translated to a kernel unless
    [kernels] is [false].  Bank assignment, typed instructions and the
    kernel translation read declared types only.
    @raise Invalid_argument on a [for] loop outside a function *)
let lower ?(kernels = true) (cp : R.t) : program =
  let nloops = ref [] in
  let funcs =
    Array.map
      (fun (cf : R.cfunc) ->
        let slots, nfslots, nislots = bank_slots cf in
        lower_fn cp ~lt:cf.R.cf_slot_types ~ret:cf.R.cf_ret ~glob:false
          ~kernels ~nloops ~slots ~nslots:cf.R.cf_nslots ~nfslots ~nislots
          ~params:(Array.map (fun s -> slots.(s)) cf.R.cf_param_slots)
          cf.R.cf_body)
      cp.R.cfuncs
  in
  let globals =
    lower_fn cp ~lt:[||] ~ret:Minic.Ast.Tvoid ~glob:true ~kernels ~nloops
      ~slots:(Array.init cp.R.nglobals (reg boxed))
      ~nslots:0 ~nfslots:0 ~nislots:0 ~params:[||] cp.R.cglobals
  in
  Flow_obs.Metrics.incr Flow_obs.Metrics.global "vm_programs";
  let sids = Array.of_list (List.rev !nloops) in
  {
    bc_cp = cp;
    bc_funcs = funcs;
    bc_globals = globals;
    bc_nloops = Array.length sids;
    bc_loop_sids = sids;
  }
