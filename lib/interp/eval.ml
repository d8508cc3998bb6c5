(** The MiniC interpreter.

    Executes a program starting at [main], charging virtual cycles per
    {!Profile.Cost} and recording the observations that the dynamic
    design-flow tasks consume.  Passing [~track] additionally observes
    each listed loop as the accelerator-offload candidate its extracted
    kernel would be: per-invocation transfer requirements and touched
    ranges of the pointers the kernel would take as arguments.

    Programs are first lowered to the slot IR of {!Resolve} (array-indexed
    variable slots, pre-resolved callees, per-group batched static cycle
    charges), and lowered once more to the flat register bytecode of
    {!Bytecode}, with its specialized loop kernels, which {!run_vm}
    executes over frames of boxed, float and int register banks.  The
    VM's memory accessors are chosen per run: a run that tracks no loop
    pays nothing for the offload instrumentation.

    The tree walker over the slot IR is kept as {!run_ir}: a reference
    implementation the test suite (and the perf harness's before/after
    comparison) checks the VM against, bit-identically — same charge
    order, same counter updates, same fuel accounting, same error
    points.

    Determinism: [rand01]/[rand_int] use a fixed-seed LCG, so repeated
    runs (and runs of instrumented variants) see identical inputs — the
    property the paper relies on when it compares designs generated from
    the same reference source. *)

open Value

exception Return_exc of Value.t

(* An interval of elements all known to be touched, or all written; empty
   as [0, -1].  A cover only ever claims too little: state bits are never
   cleared within an invocation, and the per-access path leaves covers
   as they are. *)
type cover = { mutable clo : int; mutable chi : int }

(* Per-region record of one tracked loop's active invocation.  The
   hot per-access path only bumps the lo/hi bounds and flips the
   per-element first-access state; the (allocating) range-list
   maintenance is replayed once at loop exit.  Two covers summarise the
   state for fused kernels ({!track_sites}). *)
type region_track = {
  ft_idxs : int list;
      (* kernel argument indices this region is reachable from *)
  ft_state : Bytes.t;
      (* per-element first-access state: 0 untouched, 1 read, 2 written *)
  mutable ft_lo : int;  (* min touched offset; [max_int] when untouched *)
  mutable ft_hi : int;  (* max touched offset; [-1] when untouched *)
  ft_touched : cover;
  ft_written : cover;
}

(* Where a tracked loop reads one kernel pointer argument at entry. *)
type targ = TSlot of Resolve.var_ref | TReg of int

(* One tracked loop: the variables its extracted kernel would take as
   pointer arguments, and the state of its active invocation. *)
type tracker = {
  tk_sid : int;
  tk_args : targ array;  (* pointer arguments, in parameter order *)
  mutable tk_depth : int;  (* > 0 while an invocation is active *)
  mutable tk_regions : region_track option array;
      (* indexed by region id (dense: region ids are allocation order);
         [None] for regions no argument reaches — including any
         allocated after the invocation began *)
  mutable tk_order : int list;
      (* region ids in reverse first-touch order within the invocation;
         the exit replays the [regions_touched] range updates in this
         order so the per-argument region lists come out exactly as if
         they had been maintained per access *)
  mutable tk_snap : float * int * int * int * int;
      (* cycles, flops, sfu, bytes read, bytes written at entry *)
  tk_obs : Profile.kernel_obs;
      (* the loop's observations, entered into the profile on its first
         invocation *)
}

(* Per-invocation buffers of a fused kernel, indexed by site (the first
   six) or float register, reused by every kernel of a run: a kernel
   body makes no calls, so no invocation starts while another one is
   using them.  [ks_offs], [ks_deltas] and [ks_adv] hold the kernel's
   counters after its sites ({!Bytecode.kernel}).  They grow to the
   largest kernel entered. *)
type kscratch = {
  mutable ks_datas : float array array;  (* each site's region elements *)
  mutable ks_offs : int array;  (* each site's current element offset *)
  mutable ks_deltas : int array;  (* each site's per-iteration stride *)
  mutable ks_elems : int array;  (* each site's element size in bytes *)
  mutable ks_ids : int array;  (* each site's region id *)
  mutable ks_adv : int array;  (* the sites with a nonzero stride *)
  mutable ks_fregs : float array;  (* the micro-program's registers *)
}

type state = {
  cprog : Resolve.t;
  mem : Memory.t;
  prof : Profile.t;
  cyc : float array;
      (** the running virtual-cycle total, as a 1-element flat float
          array: [Profile.t] is a mixed record, so bumping
          [prof.cycles] directly would box a fresh float (plus a write
          barrier) on every charge — the single hottest operation of a
          run.  Synced back into [prof.cycles] at timer calls and at
          run end ({!sync_cycles}). *)
  garray : Value.t array;  (** global frame *)
  out : Buffer.t;
  mutable rng : int;
  tracking : bool;  (** the run tracks at least one loop *)
  track_sids : (int, tracker) Hashtbl.t;  (** tracked loops by node id *)
  mutable track_lidx : tracker option array;
      (** tracked loops by the bytecode's dense loop number (VM only) *)
  mutable active : tracker option;
      (** the tracker with an active invocation.  Tracked loops never
          nest ({!Analysis.Hotspot.tracked} leaves sequential drivers
          out), so a tracked loop entered while another is active is
          not bracketed (see {!track_enter}). *)
  mutable fuel : int;  (** remaining statement budget, guards against hangs *)
  mutable loop_cache : Profile.loop_stat option array;
      (** per-run memo of {!Profile.loop_stat} records, indexed by the
          dense loop number the bytecode lowering assigns — the
          profile's Hashtbl is only consulted on a loop's first
          invocation.  Sized by {!run_vm}; unused (empty) on the
          reference walker path. *)
  bulk_cycles : float array;
      (** virtual cycles charged in bulk by specialized loop kernels
          this run, as a 1-element flat float array like [cyc];
          surfaced as the [interp_bulk_cycles] metric. *)
  ks : kscratch;  (** fused-kernel buffers (VM only) *)
}

let[@inline] cached_loop_stat st lidx sid =
  match Array.unsafe_get st.loop_cache lidx with
  | Some s -> s
  | None ->
      let s = Profile.loop_stat st.prof sid in
      Array.unsafe_set st.loop_cache lidx (Some s);
      s

let[@inline] charge st c =
  Array.unsafe_set st.cyc 0 (Array.unsafe_get st.cyc 0 +. c)

let[@inline] cycles st = Array.unsafe_get st.cyc 0

(* [Profile.timer_start]/[timer_stop] read [prof.cycles]; bring it up to
   date before handing the profile over. *)
let[@inline] sync_cycles st = st.prof.cycles <- cycles st

let[@inline] spend_fuel st =
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then err "execution budget exhausted (infinite loop?)"

(* Math builtins, applied by op code.  Every arm is a direct call, so
   both arguments and result stay unboxed once these inline. *)
let[@inline] math1 (f : Resolve.math1) x =
  match f with
  | Sqrt -> Float.sqrt x
  | Exp -> Float.exp x
  | Log -> Float.log x
  | Sin -> Float.sin x
  | Cos -> Float.cos x
  | Tanh -> Float.tanh x
  | Fabs -> Float.abs x
  | Floor -> Float.floor x

let[@inline] math2 (f : Resolve.math2) x y =
  match f with
  | Pow -> Float.pow x y
  | Fmin -> Float.min x y
  | Fmax -> Float.max x y
  | Fdivide -> x /. y

(* ------------------------------------------------------------------ *)
(* Deterministic pseudo-random inputs                                  *)
(* ------------------------------------------------------------------ *)

let lcg_next st =
  st.rng <- ((1103515245 * st.rng) + 12345) land 0x3FFFFFFF;
  st.rng

let rand01 st = float_of_int (lcg_next st) /. 1073741824.0
let rand_int st n = if n <= 0 then 0 else lcg_next st mod n

(* ------------------------------------------------------------------ *)
(* Loop tracking: per-access                                           *)
(* ------------------------------------------------------------------ *)

let update_range (obs : Profile.arg_obs) region_id off =
  let rec go = function
    | [] -> [ (region_id, off, off) ]
    | (id, lo, hi) :: rest when id = region_id ->
        (id, min lo off, max hi off) :: rest
    | entry :: rest -> entry :: go rest
  in
  obs.regions_touched <- go obs.regions_touched

(* Attribute a transfer to the first kernel argument reaching the
   region (aliased arguments would double-count the same bytes). *)
let attribute (k : Profile.kernel_obs) (tr : region_track) ~write elem =
  match tr.ft_idxs with
  | i :: _ when i < Array.length k.args ->
      let a = k.args.(i) in
      if write then a.Profile.bytes_out <- a.Profile.bytes_out + elem
      else a.Profile.bytes_in <- a.Profile.bytes_in + elem
  | _ -> ()

(* One access seen by the active tracker; [elem] is the region's
   element size in bytes.  Hot path: bound updates and the first-access
   byte classification only — the [regions_touched] list maintenance is
   deferred to {!track_exit}. *)
let track_one (tk : tracker) ~write mem_id off elem =
  let a = tk.tk_regions in
  if mem_id < Array.length a then
    match Array.unsafe_get a mem_id with
    | None -> ()
    | Some tr ->
        if off < tr.ft_lo then (
          if tr.ft_hi < 0 then tk.tk_order <- mem_id :: tk.tk_order;
          tr.ft_lo <- off);
        if off > tr.ft_hi then tr.ft_hi <- off;
        let s = Bytes.get_uint8 tr.ft_state off in
        if write then (
          (* first write of this element: it is produced on-device and
             must be copied back *)
          if s land 2 = 0 then (
            Bytes.set_uint8 tr.ft_state off (s lor 2);
            attribute tk.tk_obs tr ~write elem))
        else if s = 0 then (
          (* first access is a read: the element must be transferred in *)
          Bytes.set_uint8 tr.ft_state off 1;
          attribute tk.tk_obs tr ~write elem)

(* Load/store with the region record already fetched: bounds check,
   access counters, byte accounting, and (on the tracking path) the
   first-access classification — one region fetch per access.  The
   [Cost.load]/[Cost.store] cycles themselves are statically known and
   batched by the resolver.  [load_r]/[store_r] take any region and box
   or unbox a float element; [load_f]/[store_f] move a float region's
   element as a float. *)

let oob_read (r : Memory.region) off =
  err "out-of-bounds read of '%s' at index %d (size %d)" r.name off r.len

let oob_write (r : Memory.region) off =
  err "out-of-bounds write of '%s' at index %d (size %d)" r.name off r.len

let[@inline] load_f st (r : Memory.region) off =
  if off < 0 || off >= r.len then oob_read r off;
  st.prof.loads <- st.prof.loads + 1;
  st.prof.bytes_read <- st.prof.bytes_read + r.elem_bytes;
  Array.unsafe_get r.fdata off

let[@inline] store_f st (r : Memory.region) off x =
  if off < 0 || off >= r.len then oob_write r off;
  Array.unsafe_set r.fdata off x;
  st.prof.stores <- st.prof.stores + 1;
  st.prof.bytes_written <- st.prof.bytes_written + r.elem_bytes

let load_r st (r : Memory.region) off =
  if r.flt then VFloat (load_f st r off)
  else (
    if off < 0 || off >= r.len then oob_read r off;
    st.prof.loads <- st.prof.loads + 1;
    st.prof.bytes_read <- st.prof.bytes_read + r.elem_bytes;
    Array.unsafe_get r.data off)

(* A float region receives only floats: every store converts to the
   element type first. *)
let store_r st (r : Memory.region) off v =
  if r.flt then store_f st r off (match v with VFloat f -> f | v -> to_float v)
  else (
    if off < 0 || off >= r.len then oob_write r off;
    Array.unsafe_set r.data off v;
    st.prof.stores <- st.prof.stores + 1;
    st.prof.bytes_written <- st.prof.bytes_written + r.elem_bytes)

let[@inline] track_load st (r : Memory.region) off =
  match st.active with
  | None -> ()
  | Some tk -> track_one tk ~write:false r.id off r.elem_bytes

let[@inline] track_store st (r : Memory.region) off =
  match st.active with
  | None -> ()
  | Some tk -> track_one tk ~write:true r.id off r.elem_bytes

let load_r_tracked st r off =
  let v = load_r st r off in
  track_load st r off;
  v

let store_r_tracked st r off v =
  store_r st r off v;
  track_store st r off

(* Pointer-based accessors for the reference tree walker. *)
let mem_load st (p : Value.ptr) = load_r_tracked st (Memory.region st.mem p.mem_id) p.off

let mem_store st (p : Value.ptr) v =
  store_r_tracked st (Memory.region st.mem p.mem_id) p.off v

(* ------------------------------------------------------------------ *)
(* Slot access                                                         *)
(* ------------------------------------------------------------------ *)

let get_var st frame = function
  | Resolve.Local i -> frame.(i)
  | Resolve.Global i -> st.garray.(i)
  | Resolve.Unbound n -> err "undefined variable '%s'" n

let set_var st frame r v =
  match r with
  | Resolve.Local i -> frame.(i) <- v
  | Resolve.Global i -> st.garray.(i) <- v
  | Resolve.Unbound n -> err "undefined variable '%s'" n

(* ------------------------------------------------------------------ *)
(* Arithmetic with dynamic residues                                    *)
(* ------------------------------------------------------------------ *)

(* Add/Sub/Mul: the resolver pre-charged [Cost.int_op]; [fresid] is the
   difference to the float cost, charged when the operands turn out to
   be floating-point. *)
let do_arith st op fresid a b =
  let open Minic.Ast in
  if is_float a || is_float b then (
    if fresid <> 0.0 then charge st fresid;
    st.prof.flops <- st.prof.flops + 1;
    match op with
    | Add -> VFloat (to_float a +. to_float b)
    | Sub -> VFloat (to_float a -. to_float b)
    | Mul -> VFloat (to_float a *. to_float b)
    | _ -> assert false)
  else (
    st.prof.int_ops <- st.prof.int_ops + 1;
    match op with
    | Add -> VInt (to_int a + to_int b)
    | Sub -> VInt (to_int a - to_int b)
    | Mul -> VInt (to_int a * to_int b)
    | _ -> assert false)

(* Division cost depends on the operand kinds: charged fully at run
   time. *)
let do_div st a b =
  if is_float a || is_float b then (
    charge st Profile.Cost.float_div;
    st.prof.flops <- st.prof.flops + 1;
    VFloat (to_float a /. to_float b))
  else (
    charge st Profile.Cost.int_op;
    st.prof.int_ops <- st.prof.int_ops + 1;
    let d = to_int b in
    if d = 0 then err "integer division by zero";
    VInt (to_int a / d))

(* Mod: [Cost.int_op] pre-charged; only the counter is dynamic. *)
let do_mod st a b =
  if is_float a || is_float b then st.prof.flops <- st.prof.flops + 1
  else st.prof.int_ops <- st.prof.int_ops + 1;
  let d = to_int b in
  if d = 0 then err "integer modulo by zero";
  VInt (to_int a mod d)

let do_cmp op fl a b =
  let open Minic.Ast in
  match op with
  | Lt -> if fl then to_float a < to_float b else to_int a < to_int b
  | Le -> if fl then to_float a <= to_float b else to_int a <= to_int b
  | Gt -> if fl then to_float a > to_float b else to_int a > to_int b
  | Ge -> if fl then to_float a >= to_float b else to_int a >= to_int b
  | Eq -> if fl then to_float a = to_float b else to_int a = to_int b
  | Ne -> if fl then to_float a <> to_float b else to_int a <> to_int b
  | _ -> assert false

let coerce typ v =
  match (typ, v) with
  | Minic.Ast.Tint, VInt _
  | (Minic.Ast.Tfloat | Minic.Ast.Tdouble), VFloat _
  | Minic.Ast.Tbool, VBool _ ->
      v
  | Minic.Ast.Tint, _ -> VInt (to_int v)
  | (Minic.Ast.Tfloat | Minic.Ast.Tdouble), _ -> VFloat (to_float v)
  | Minic.Ast.Tbool, _ -> VBool (to_bool v)
  | _ -> v

let coerce_region st (p : Value.ptr) v =
  coerce (Memory.region st.mem p.mem_id).elem_typ v

let arith_fresid = Profile.Cost.float_add -. Profile.Cost.int_op
let mul_fresid = Profile.Cost.float_mul -. Profile.Cost.int_op

let apply_assign st op old rhs =
  match op with
  | Minic.Ast.Set -> rhs
  | Minic.Ast.AddEq -> do_arith st Minic.Ast.Add arith_fresid old rhs
  | Minic.Ast.SubEq -> do_arith st Minic.Ast.Sub arith_fresid old rhs
  | Minic.Ast.MulEq -> do_arith st Minic.Ast.Mul mul_fresid old rhs
  | Minic.Ast.DivEq -> do_div st old rhs

(* ------------------------------------------------------------------ *)
(* Loop tracking: invocation bracketing                                *)
(* ------------------------------------------------------------------ *)

(* Enter an invocation of tracked loop [tk]; [arg i] reads its i-th
   pointer argument's variable.  Called right where the loop stamps its
   cycle window, so the invocation's cycles are the loop-stat window's.
   A re-entry while active (recursion) is not bracketed again, nor is a
   loop entered while another tracked loop is active. *)
let track_enter st (tk : tracker) (arg : int -> Value.t) =
  if tk.tk_depth > 0 then tk.tk_depth <- tk.tk_depth + 1
  else if Option.is_none st.active then begin
    if not (Hashtbl.mem st.prof.Profile.kernel tk.tk_sid) then
      Hashtbl.replace st.prof.Profile.kernel tk.tk_sid tk.tk_obs;
    tk.tk_order <- [];
    tk.tk_regions <- Array.make (max 1 st.mem.Memory.next_id) None;
    Array.iteri
      (fun i _ ->
        match arg i with
        | VPtr p -> (
            match tk.tk_regions.(p.mem_id) with
            | Some tr ->
                (* aliased arguments share the region's first-access
                   state; transfers attribute to the first of them *)
                tk.tk_regions.(p.mem_id) <-
                  Some { tr with ft_idxs = tr.ft_idxs @ [ i ] }
            | None ->
                tk.tk_regions.(p.mem_id) <-
                  Some
                    {
                      ft_idxs = [ i ];
                      ft_state =
                        Bytes.make (Memory.length st.mem p.mem_id) '\000';
                      ft_lo = max_int;
                      ft_hi = -1;
                      ft_touched = { clo = 0; chi = -1 };
                      ft_written = { clo = 0; chi = -1 };
                    })
        | _ -> ())
      tk.tk_args;
    tk.tk_snap <-
      ( cycles st,
        st.prof.flops,
        st.prof.sfu_ops,
        st.prof.bytes_read,
        st.prof.bytes_written );
    st.active <- Some tk;
    tk.tk_depth <- 1
  end

(* Leave an invocation: replay the deferred range updates and add the
   invocation's counter deltas. *)
let track_exit st (tk : tracker) =
  match st.active with
  | Some a when a == tk && tk.tk_depth > 1 -> tk.tk_depth <- tk.tk_depth - 1
  | Some a when a == tk ->
      tk.tk_depth <- 0;
      st.active <- None;
      let k = tk.tk_obs and c0, f0, s0, br0, bw0 = tk.tk_snap in
      (* merging each region's lo then hi bound in first-touch order is
         exactly the fold the per-access updates would have produced *)
      List.iter
        (fun mem_id ->
          match tk.tk_regions.(mem_id) with
          | Some tr when tr.ft_hi >= 0 ->
              List.iter
                (fun i ->
                  if i < Array.length k.args then (
                    update_range k.args.(i) mem_id tr.ft_lo;
                    update_range k.args.(i) mem_id tr.ft_hi))
                tr.ft_idxs
          | _ -> ())
        (List.rev tk.tk_order);
      k.calls <- k.calls + 1;
      k.k_cycles <- k.k_cycles +. (cycles st -. c0);
      k.k_flops <- k.k_flops + (st.prof.flops - f0);
      k.k_sfu <- k.k_sfu + (st.prof.sfu_ops - s0);
      k.k_bytes_read <- k.k_bytes_read + (st.prof.bytes_read - br0);
      k.k_bytes_written <- k.k_bytes_written + (st.prof.bytes_written - bw0)
  | _ -> ()

(* Raised by a specialized kernel's entry protocol — strictly before any
   state mutation — when a precondition fails (out-of-range bounds,
   non-float region, out-of-range access, insufficient fuel, or under a
   tracked loop a stored-to region two tracking sites reach).  The
   fused statement then falls back to its generic loop. *)
exception Kernel_unfit

let vtrue = VBool true
let vfalse = VBool false
let vbool b = if b then vtrue else vfalse

(* ================================================================== *)
(* Reference tree walker over the slot IR                              *)
(* ================================================================== *)

(* The semantic reference: the test suite asserts the bytecode VM
   reproduces its profiles bit-identically, and the perf harness reports
   its throughput as the "before" number. *)
module Ir_walk = struct
  let walk_track_enter st frame sid =
    if not st.tracking then None
    else
      match Hashtbl.find_opt st.track_sids sid with
      | None -> None
      | Some tk ->
          track_enter st tk (fun i ->
              match tk.tk_args.(i) with
              | TSlot r -> ( try get_var st frame r with Runtime_error _ -> VUnit)
              | TReg _ -> VUnit);
          Some tk

  let rec eval_expr st frame (e : Resolve.expr) : Value.t =
    match e.e with
    | ELit v -> v
    | EVar r -> get_var st frame r
    | ENeg a -> (
        match eval_expr st frame a with
        | VInt n -> VInt (-n)
        | VFloat f ->
            st.prof.flops <- st.prof.flops + 1;
            VFloat (-.f)
        | _ -> err "negation of a non-numeric value")
    | ENot a -> VBool (not (to_bool (eval_expr st frame a)))
    | EArith (op, fresid, a, b) ->
        let va = eval_expr st frame a in
        let vb = eval_expr st frame b in
        do_arith st op fresid va vb
    | EDiv (a, b) ->
        let va = eval_expr st frame a in
        let vb = eval_expr st frame b in
        do_div st va vb
    | EMod (a, b) ->
        let va = eval_expr st frame a in
        let vb = eval_expr st frame b in
        do_mod st va vb
    | ECmp (op, a, b) ->
        let va = eval_expr st frame a in
        let vb = eval_expr st frame b in
        VBool (do_cmp op (is_float va || is_float vb) va vb)
    | EAnd (a, b) ->
        (* && and || short-circuit like C *)
        if to_bool (eval_expr st frame a) then (
          charge st b.ecost;
          VBool (to_bool (eval_expr st frame b)))
        else VBool false
    | EOr (a, b) ->
        if to_bool (eval_expr st frame a) then VBool true
        else (
          charge st b.ecost;
          VBool (to_bool (eval_expr st frame b)))
    | EIndex (a, i) ->
        let p = to_ptr (eval_expr st frame a) in
        let i = to_int (eval_expr st frame i) in
        mem_load st { p with off = p.off + i }
    | ECast (t, a) -> coerce t (eval_expr st frame a)
    | ECall { callee; cargs } -> (
        let args = List.map (eval_expr st frame) cargs in
        match callee with
        | User idx -> eval_user_call st idx args
        | Math { mimpl; mflops } -> (
            st.prof.sfu_ops <- st.prof.sfu_ops + 1;
            st.prof.flops <- st.prof.flops + mflops;
            match (mimpl, args) with
            | M1 g, a :: _ -> VFloat (math1 g (to_float a))
            | M2 g, a :: b :: _ -> VFloat (math2 g (to_float a) (to_float b))
            | _ -> err "math builtin called with too few arguments")
        | Math_unimpl base -> err "unimplemented math builtin '%s'" base
        | Rand01 -> VFloat (rand01 st)
        | Rand_int -> VInt (rand_int st (to_int (List.hd args)))
        | Print_int ->
            Buffer.add_string st.out
              (string_of_int (to_int (List.hd args)) ^ "\n");
            VUnit
        | Print_float ->
            Buffer.add_string st.out
              (Printf.sprintf "%.6g\n" (to_float (List.hd args)));
            VUnit
        | Timer_start ->
            sync_cycles st;
            Profile.timer_start st.prof (to_int (List.hd args));
            VUnit
        | Timer_stop ->
            sync_cycles st;
            Profile.timer_stop st.prof (to_int (List.hd args));
            VUnit
        | Unknown fname -> err "call to unknown function '%s'" fname)

  and eval_user_call st idx args =
    (* the call's [Cost.call] cycles were batched by the caller's group
       (or charged by the entry point for the root call to [main]) *)
    let f = st.cprog.cfuncs.(idx) in
    if List.length args <> List.length f.cf_params then
      err "call to '%s' with wrong arity" f.cf_name;
    let frame = Array.map zero_of_typ f.cf_slot_types in
    List.iteri (fun i v -> frame.(f.cf_param_slots.(i)) <- v) args;
    try
      exec_block st frame f.cf_body;
      zero_of_typ f.cf_ret
    with Return_exc v -> v

  and exec_stmt st frame (s : Resolve.stmt) =
    spend_fuel st;
    match s with
    | SDeclVar { slot; typ; init } ->
        let v =
          match init with
          | Some e -> coerce typ (eval_expr st frame e)
          | None -> Value.zero_of_typ typ
        in
        set_var st frame slot v
    | SDeclArr { slot; typ; name; size } ->
        let n = to_int (eval_expr st frame size) in
        set_var st frame slot (Memory.alloc st.mem ~name ~elem_typ:typ n)
    | SAssign { slot; typ; aop; rhs } ->
        let rhs = eval_expr st frame rhs in
        let v =
          match aop with
          | Set -> rhs
          | _ -> apply_assign st aop (get_var st frame slot) rhs
        in
        set_var st frame slot
          (match typ with Some t -> coerce t v | None -> v)
    | SStore { arr; idx; aop; rhs } ->
        let rhs = eval_expr st frame rhs in
        let p = to_ptr (eval_expr st frame arr) in
        let i = to_int (eval_expr st frame idx) in
        let p = { p with off = p.off + i } in
        let v =
          if aop = Minic.Ast.Set then rhs
          else apply_assign st aop (mem_load st p) rhs
        in
        mem_store st p (coerce_region st p v)
    | SExpr e -> ignore (eval_expr st frame e)
    | SIf (c, b1, b2) ->
        if to_bool (eval_expr st frame c) then exec_block st frame b1
        else Option.iter (exec_block st frame) b2
    | SWhile { wsid; cond; body } ->
        let stat = Profile.loop_stat st.prof wsid in
        stat.invocations <- stat.invocations + 1;
        let tk = walk_track_enter st frame wsid in
        let t0 = cycles st in
        let trips = ref 0 in
        charge st Profile.Cost.branch;
        let rec loop () =
          charge st cond.ecost;
          if to_bool (eval_expr st frame cond) then (
            incr trips;
            stat.iterations <- stat.iterations + 1;
            spend_fuel st;
            charge st (Profile.Cost.loop_iter +. Profile.Cost.branch);
            exec_block st frame body;
            loop ())
        in
        loop ();
        stat.min_trip <- min stat.min_trip !trips;
        stat.max_trip <- max stat.max_trip !trips;
        stat.cycles <- stat.cycles +. (cycles st -. t0);
        Option.iter (track_exit st) tk
    | SFor { fsid; slot; init; bound; inclusive; step; body } ->
        let stat = Profile.loop_stat st.prof fsid in
        stat.invocations <- stat.invocations + 1;
        let tk = walk_track_enter st frame fsid in
        let t0 = cycles st in
        charge st init.ecost;
        let i0 = to_int (eval_expr st frame init) in
        set_var st frame slot (VInt i0);
        let trips = ref 0 in
        let continue_ () =
          charge st (Profile.Cost.branch +. bound.ecost);
          let b = to_int (eval_expr st frame bound) in
          let i = to_int (get_var st frame slot) in
          if inclusive then i <= b else i < b
        in
        while continue_ () do
          incr trips;
          stat.iterations <- stat.iterations + 1;
          spend_fuel st;
          charge st (Profile.Cost.loop_iter +. Profile.Cost.int_op);
          exec_block st frame body;
          charge st step.ecost;
          let stepv = to_int (eval_expr st frame step) in
          set_var st frame slot (VInt (to_int (get_var st frame slot) + stepv))
        done;
        stat.min_trip <- min stat.min_trip !trips;
        stat.max_trip <- max stat.max_trip !trips;
        stat.cycles <- stat.cycles +. (cycles st -. t0);
        Option.iter (track_exit st) tk
    | SReturn eo ->
        let v =
          match eo with Some e -> eval_expr st frame e | None -> VUnit
        in
        raise (Return_exc v)
    | SBlock b -> exec_block st frame b

  and exec_group st frame (g : Resolve.group) =
    if g.gcost <> 0.0 then charge st g.gcost;
    List.iter (exec_stmt st frame) g.gstmts

  and exec_block st frame (b : Resolve.block) =
    List.iter (exec_group st frame) b
end

(* ================================================================== *)
(* Flat register-bytecode VM                                           *)
(* ================================================================== *)

module B = Bytecode

let while_iter_cost = Profile.Cost.loop_iter +. Profile.Cost.branch
let for_iter_cost = Profile.Cost.loop_iter +. Profile.Cost.int_op

let[@inline] vk_ld (datas : float array array) (offs : int array) si =
  Array.unsafe_get (Array.unsafe_get datas si) (Array.unsafe_get offs si)

let[@inline] vk_st (datas : float array array) (offs : int array) si v =
  Array.unsafe_set (Array.unsafe_get datas si) (Array.unsafe_get offs si) v

(* Bank-tagged register access (see {!Bytecode.reg}).  Each reader
   applies the walker's conversion for its consumer — [to_float],
   [to_int], [to_bool] — to a boxed operand and the same conversion's
   value to a banked one, so banked and boxed operands are
   indistinguishable except that only boxing allocates. *)

let[@inline] getv regs sf si r =
  let i = r lsr 2 in
  match r land 3 with
  | 0 -> Array.unsafe_get regs i
  | 1 -> VFloat (Array.unsafe_get sf i)
  | _ -> VInt (Array.unsafe_get si i)

let[@inline] getf regs sf si r =
  let i = r lsr 2 in
  match r land 3 with
  | 1 -> Array.unsafe_get sf i
  | 0 -> (
      match Array.unsafe_get regs i with VFloat f -> f | v -> to_float v)
  | _ -> float_of_int (Array.unsafe_get si i)

let[@inline] geti regs sf si r =
  let i = r lsr 2 in
  match r land 3 with
  | 2 -> Array.unsafe_get si i
  | 0 -> ( match Array.unsafe_get regs i with VInt n -> n | v -> to_int v)
  | _ -> int_of_float (Array.unsafe_get sf i)

let[@inline] getb regs sf si r =
  let i = r lsr 2 in
  match r land 3 with
  | 0 -> to_bool (Array.unsafe_get regs i)
  | 1 -> Array.unsafe_get sf i <> 0.0
  | _ -> Array.unsafe_get si i <> 0

(* Write a value into a register of any bank.  The lowering targets a
   bank only with values its static type proves to be of that kind, so
   the conversion unboxes without changing the value. *)
let[@inline] setv regs sf si r v =
  let i = r lsr 2 in
  match r land 3 with
  | 0 -> Array.unsafe_set regs i v
  | 1 -> Array.unsafe_set sf i (match v with VFloat f -> f | v -> to_float v)
  | _ -> Array.unsafe_set si i (match v with VInt n -> n | v -> to_int v)

(* Run [count] iterations of a fused kernel micro-program, starting at
   site offsets and counter values [offs] (mutated in place).  Only the
   first [nadv] sites and counters in [adv] (nonzero stride) advance.
   Pure float/array code: all observable accounting was charged in bulk
   by the caller. *)
let vkern_iters (ops : B.kop array) (fregs : float array)
    (datas : float array array) (offs : int array) (deltas : int array)
    (adv : int array) ~nadv ~count =
  let nops = Array.length ops in
  for _ = 1 to count do
    for pc = 0 to nops - 1 do
      match Array.unsafe_get ops pc with
      | B.OLit (d, x) -> Array.unsafe_set fregs d x
      | B.OMov (d, a) -> Array.unsafe_set fregs d (Array.unsafe_get fregs a)
      | B.OAdd (d, a, b) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a +. Array.unsafe_get fregs b)
      | B.OSub (d, a, b) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a -. Array.unsafe_get fregs b)
      | B.OMul (d, a, b) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a *. Array.unsafe_get fregs b)
      | B.ODiv (d, a, b) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a /. Array.unsafe_get fregs b)
      | B.ONeg (d, a) -> Array.unsafe_set fregs d (-.Array.unsafe_get fregs a)
      | B.OItoF (d, c) ->
          Array.unsafe_set fregs d (float_of_int (Array.unsafe_get offs c))
      | B.OMath1 (d, g, a) ->
          Array.unsafe_set fregs d (math1 g (Array.unsafe_get fregs a))
      | B.OMath2 (d, g, a, b) ->
          Array.unsafe_set fregs d
            (math2 g (Array.unsafe_get fregs a) (Array.unsafe_get fregs b))
      | B.OLoad (d, si) -> Array.unsafe_set fregs d (vk_ld datas offs si)
      | B.OStore (si, r) -> vk_st datas offs si (Array.unsafe_get fregs r)
      | B.OStoreAdd (si, r) ->
          vk_st datas offs si (vk_ld datas offs si +. Array.unsafe_get fregs r)
      | B.OStoreSub (si, r) ->
          vk_st datas offs si (vk_ld datas offs si -. Array.unsafe_get fregs r)
      | B.OStoreMul (si, r) ->
          vk_st datas offs si (vk_ld datas offs si *. Array.unsafe_get fregs r)
      | B.OStoreDiv (si, r) ->
          vk_st datas offs si (vk_ld datas offs si /. Array.unsafe_get fregs r)
      | B.OLAddA (d, s, b) ->
          Array.unsafe_set fregs d
            (vk_ld datas offs s +. Array.unsafe_get fregs b)
      | B.OLAddB (d, a, s) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a +. vk_ld datas offs s)
      | B.OLSubA (d, s, b) ->
          Array.unsafe_set fregs d
            (vk_ld datas offs s -. Array.unsafe_get fregs b)
      | B.OLSubB (d, a, s) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a -. vk_ld datas offs s)
      | B.OLMulA (d, s, b) ->
          Array.unsafe_set fregs d
            (vk_ld datas offs s *. Array.unsafe_get fregs b)
      | B.OLMulB (d, a, s) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a *. vk_ld datas offs s)
      | B.OLDivA (d, s, b) ->
          Array.unsafe_set fregs d
            (vk_ld datas offs s /. Array.unsafe_get fregs b)
      | B.OLDivB (d, a, s) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a /. vk_ld datas offs s)
      | B.OAddAddA (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a +. Array.unsafe_get fregs b
            +. Array.unsafe_get fregs c)
      | B.OAddAddB (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs c
            +. (Array.unsafe_get fregs a +. Array.unsafe_get fregs b))
      | B.OAddSubA (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a +. Array.unsafe_get fregs b
            -. Array.unsafe_get fregs c)
      | B.OAddSubB (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs c
            -. (Array.unsafe_get fregs a +. Array.unsafe_get fregs b))
      | B.OAddMulA (d, a, b, c) ->
          Array.unsafe_set fregs d
            ((Array.unsafe_get fregs a +. Array.unsafe_get fregs b)
            *. Array.unsafe_get fregs c)
      | B.OAddMulB (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs c
            *. (Array.unsafe_get fregs a +. Array.unsafe_get fregs b))
      | B.OSubAddA (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a -. Array.unsafe_get fregs b
            +. Array.unsafe_get fregs c)
      | B.OSubAddB (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs c
            +. (Array.unsafe_get fregs a -. Array.unsafe_get fregs b))
      | B.OSubSubA (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a -. Array.unsafe_get fregs b
            -. Array.unsafe_get fregs c)
      | B.OSubSubB (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs c
            -. (Array.unsafe_get fregs a -. Array.unsafe_get fregs b))
      | B.OSubMulA (d, a, b, c) ->
          Array.unsafe_set fregs d
            ((Array.unsafe_get fregs a -. Array.unsafe_get fregs b)
            *. Array.unsafe_get fregs c)
      | B.OSubMulB (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs c
            *. (Array.unsafe_get fregs a -. Array.unsafe_get fregs b))
      | B.OMulAddA (d, a, b, c) ->
          Array.unsafe_set fregs d
            ((Array.unsafe_get fregs a *. Array.unsafe_get fregs b)
            +. Array.unsafe_get fregs c)
      | B.OMulAddB (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs c
            +. (Array.unsafe_get fregs a *. Array.unsafe_get fregs b))
      | B.OMulSubA (d, a, b, c) ->
          Array.unsafe_set fregs d
            ((Array.unsafe_get fregs a *. Array.unsafe_get fregs b)
            -. Array.unsafe_get fregs c)
      | B.OMulSubB (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs c
            -. (Array.unsafe_get fregs a *. Array.unsafe_get fregs b))
      | B.OMulMulA (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a *. Array.unsafe_get fregs b
            *. Array.unsafe_get fregs c)
      | B.OMulMulB (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs c
            *. (Array.unsafe_get fregs a *. Array.unsafe_get fregs b))
      | B.OGDiv (d, g, a, q) ->
          Array.unsafe_set fregs d
            (math1 g (Array.unsafe_get fregs a) /. Array.unsafe_get fregs q)
      | B.ODivG (d, p, g, a) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs p /. math1 g (Array.unsafe_get fregs a))
      | B.OGMul (d, g, a, q) ->
          Array.unsafe_set fregs d
            (math1 g (Array.unsafe_get fregs a) *. Array.unsafe_get fregs q)
      | B.OMulG (d, p, g, a) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs p *. math1 g (Array.unsafe_get fregs a))
      | B.OAddStore (s, a, b) ->
          vk_st datas offs s
            (Array.unsafe_get fregs a +. Array.unsafe_get fregs b)
      | B.OSubStore (s, a, b) ->
          vk_st datas offs s
            (Array.unsafe_get fregs a -. Array.unsafe_get fregs b)
      | B.OMulStore (s, a, b) ->
          vk_st datas offs s
            (Array.unsafe_get fregs a *. Array.unsafe_get fregs b)
      | B.ODivStore (s, a, b) ->
          vk_st datas offs s
            (Array.unsafe_get fregs a /. Array.unsafe_get fregs b)
      | B.OMulMulAdd (d, a, b, p, q) ->
          Array.unsafe_set fregs d
            ((Array.unsafe_get fregs a *. Array.unsafe_get fregs b)
            +. (Array.unsafe_get fregs p *. Array.unsafe_get fregs q))
      | B.ODot3 (d, a, b, p, q, x, y) ->
          Array.unsafe_set fregs d
            ((Array.unsafe_get fregs a *. Array.unsafe_get fregs b)
            +. (Array.unsafe_get fregs p *. Array.unsafe_get fregs q)
            +. (Array.unsafe_get fregs x *. Array.unsafe_get fregs y))
      | B.ODot3Add (d, a, b, p, q, x, y, e) ->
          Array.unsafe_set fregs d
            ((Array.unsafe_get fregs a *. Array.unsafe_get fregs b)
            +. (Array.unsafe_get fregs p *. Array.unsafe_get fregs q)
            +. (Array.unsafe_get fregs x *. Array.unsafe_get fregs y)
            +. Array.unsafe_get fregs e)
    done;
    for j = 0 to nadv - 1 do
      let si = Array.unsafe_get adv j in
      Array.unsafe_set offs si
        (Array.unsafe_get offs si + Array.unsafe_get deltas si)
    done
  done

(* A kernel's silent integer expression at loop index [iv]: [XSlot]
   reads an int slot's register in the int bank [ib]. *)
let rec kieval slots ib iv (ie : B.iexpr) =
  match ie with
  | B.XLit n -> n
  | B.XIdx -> iv
  | B.XSlot i -> Array.unsafe_get ib (Array.unsafe_get slots i lsr 2)
  | B.XAdd (a, b) -> kieval slots ib iv a + kieval slots ib iv b
  | B.XSub (a, b) -> kieval slots ib iv a - kieval slots ib iv b
  | B.XMul (a, b) -> kieval slots ib iv a * kieval slots ib iv b
  | B.XNeg a -> -kieval slots ib iv a

(* Tracked-loop bracketing for the VM: [regs]/[sf]/[si] are the banks
   of the frame running loop number [lidx]. *)
let vtrack_enter st lidx regs sf si =
  match Array.unsafe_get st.track_lidx lidx with
  | None -> ()
  | Some tk ->
      track_enter st tk (fun i ->
          match tk.tk_args.(i) with
          | TReg r -> getv regs sf si r
          | TSlot (Resolve.Global g) -> st.garray.(g)
          | TSlot _ -> VUnit)

let vtrack_exit st lidx =
  match Array.unsafe_get st.track_lidx lidx with
  | None -> ()
  | Some tk -> track_exit st tk

(* Grow the fused-kernel buffers to [nsites] sites and counters and
   [nfregs] float registers. *)
let kscratch_fit ks nsites nfregs =
  if Array.length ks.ks_offs < nsites then (
    let n = max nsites (2 * Array.length ks.ks_offs) in
    ks.ks_datas <- Array.make n [||];
    ks.ks_offs <- Array.make n 0;
    ks.ks_deltas <- Array.make n 0;
    ks.ks_elems <- Array.make n 0;
    ks.ks_ids <- Array.make n 0;
    ks.ks_adv <- Array.make n 0);
  if Array.length ks.ks_fregs < nfregs then
    ks.ks_fregs <- Array.make (max nfregs (2 * Array.length ks.ks_fregs)) 0.0

(* Some tracking site that stores shares its region with another
   tracking site. *)
let shared_store_region (kp : B.kprog) (ids : int array) =
  let order = kp.B.kp_site_order and kinds = kp.B.kp_site_kinds in
  let shared = ref false in
  for a = 0 to Array.length order - 1 do
    let i = order.(a) in
    if kinds.(i) land 2 <> 0 then
      for b = 0 to Array.length order - 1 do
        if b <> a && ids.(order.(b)) = ids.(i) then shared := true
      done
  done;
  !shared

(* Grow cover [c] by [lo, hi]: to their union when that is an interval,
   else to the longer of the two. *)
let extend c lo hi =
  if lo <= c.chi + 1 && c.clo <= hi + 1 then (
    c.clo <- min lo c.clo;
    c.chi <- max hi c.chi)
  else if hi - lo > c.chi - c.clo then (
    c.clo <- lo;
    c.chi <- hi)

(* First-access tracking of a committed fused kernel's [n] iterations,
   tracking site by tracking site in first-access order
   ({!Bytecode.kprog}).  Each element a site touches gets the site's
   per-iteration access kinds once, as its first touch does in the
   per-access order: a site with a nonzero stride touches each element
   in one iteration, and a repeated access to an element changes no
   state.  Exact when every stored-to region is reached by one tracking
   site ({!shared_store_region} declines the rest before commit):
   read-only sites sharing a region commute, byte attribution is a sum,
   and iteration 0 fixes [tk_order] in body order.

   A site with stride 0 or +-1 touches the interval [lo, hi].  Inside
   the cover its kind needs (written when it stores, else touched) it
   changes no state; wholly outside the touched bounds every element is
   untouched, so it fills the interval with its kind and attributes the
   bytes in bulk.  Only the rest, and sites of other strides, visit
   element by element.  Every element of [lo, hi] ends in the site's
   state, so the interval joins its covers. *)
let track_sites (tk : tracker) (kp : B.kprog) ids offs deltas elems n =
  let a = tk.tk_regions and k = tk.tk_obs in
  let order = kp.B.kp_site_order and kinds = kp.B.kp_site_kinds in
  for j = 0 to Array.length order - 1 do
    let si = order.(j) in
    let id = ids.(si) in
    if id < Array.length a then
      match a.(id) with
      | None -> ()
      | Some tr ->
          let o0 = offs.(si) and d = deltas.(si) in
          let olast = o0 + ((n - 1) * d) in
          let lo = min o0 olast and hi = max o0 olast in
          let fresh = hi < tr.ft_lo || lo > tr.ft_hi in
          if lo < tr.ft_lo then (
            if tr.ft_hi < 0 then tk.tk_order <- id :: tk.tk_order;
            tr.ft_lo <- lo);
          if hi > tr.ft_hi then tr.ft_hi <- hi;
          let kind = kinds.(si) and state = tr.ft_state in
          let dense = d >= -1 && d <= 1 in
          let need = if kind land 2 <> 0 then tr.ft_written else tr.ft_touched in
          if dense && need.clo <= lo && hi <= need.chi then ()
          else (
            if dense && fresh then (
              let len = hi - lo + 1 in
              Bytes.fill state lo len (Char.unsafe_chr kind);
              if kind land 1 <> 0 then
                attribute k tr ~write:false (len * elems.(si));
              if kind land 2 <> 0 then
                attribute k tr ~write:true (len * elems.(si)))
            else (
              let reads = ref 0 and writes = ref 0 in
              for it = 0 to (if d = 0 then 0 else n - 1) do
                let off = o0 + (it * d) in
                let s0 = Bytes.get_uint8 state off in
                let s1 =
                  if kind land 1 <> 0 && s0 = 0 then (
                    incr reads;
                    1)
                  else s0
                in
                let s2 =
                  if kind land 2 <> 0 && s1 land 2 = 0 then (
                    incr writes;
                    s1 lor 2)
                  else s1
                in
                if s2 <> s0 then Bytes.set_uint8 state off s2
              done;
              attribute k tr ~write:false (!reads * elems.(si));
              attribute k tr ~write:true (!writes * elems.(si)));
            if dense then (
              extend tr.ft_touched lo hi;
              if kind land 2 <> 0 then extend tr.ft_written lo hi))
  done

(* Specialized-kernel execution for the VM.  The entry protocol checks
   every precondition and aborts with [Kernel_unfit] strictly before any
   state mutation; the committed body charges the whole loop in bulk and
   runs the fused micro-program.  Under an active tracked loop the
   kernel's accesses are then tracked site by site ({!track_sites});
   a kernel whose stored-to region some other site also reaches
   declines instead, and the generic loop tracks it per access.  [fr],
   [fb] and [ib] are the frame's boxed, float and int banks. *)
let vkernel st ~track fr fb ib lidx (kp : B.kprog) =
  let k = kp.B.kp_kern in
  let slots = kp.B.kp_slots in
  let nsites = Array.length k.B.k_sites in
  let fuel_per_iter = 1 + k.B.k_nstmts in
  let i0 = kieval slots ib 0 k.B.k_init in
  let b = kieval slots ib 0 k.B.k_bound in
  let s = kieval slots ib 0 k.B.k_step in
  let sane v = -0x4000_0000_0000 < v && v < 0x4000_0000_0000 in
  if s <= 0 || not (sane i0 && sane b && sane s) then raise Kernel_unfit;
  let n =
    if k.B.k_inclusive then if i0 <= b then ((b - i0) / s) + 1 else 0
    else if i0 < b then (b - i0 + s - 1) / s
    else 0
  in
  if n >= st.fuel then raise Kernel_unfit;
  let fuel_used = 1 + (n * fuel_per_iter) in
  if st.fuel <= fuel_used then raise Kernel_unfit;
  if n = 0 then (
    st.fuel <- st.fuel - 1;
    let stat = cached_loop_stat st lidx k.B.k_fsid in
    stat.invocations <- stat.invocations + 1;
    if st.tracking then vtrack_enter st lidx fr fb ib;
    let t0 = cycles st in
    charge st (k.B.k_icost +. k.B.k_bcost);
    st.prof.int_ops <-
      st.prof.int_ops + k.B.k_init_int_ops + k.B.k_bound_int_ops;
    Array.unsafe_set ib (slots.(k.B.k_idx_slot) lsr 2) i0;
    stat.min_trip <- min stat.min_trip 0;
    stat.max_trip <- max stat.max_trip 0;
    stat.cycles <- stat.cycles +. (cycles st -. t0);
    if st.tracking then vtrack_exit st lidx)
  else (
    let ks = st.ks in
    let nctrs = Array.length k.B.k_ctrs in
    kscratch_fit ks (nsites + nctrs) k.B.k_nfregs;
    let datas = ks.ks_datas and offs = ks.ks_offs and deltas = ks.ks_deltas in
    let elems = ks.ks_elems and ids = ks.ks_ids in
    let bytes_r = ref 0 and bytes_w = ref 0 in
    for si = 0 to nsites - 1 do
      let site = k.B.k_sites.(si) in
      (* a site's base is a pointer slot: boxed *)
      match Array.unsafe_get fr (slots.(site.B.ks_base) lsr 2) with
      | VPtr p ->
          if p.mem_id < 0 || p.mem_id >= st.mem.Memory.next_id then
            raise Kernel_unfit;
          let r = Array.unsafe_get st.mem.Memory.regions p.mem_id in
          if not r.Memory.flt then raise Kernel_unfit;
          let len = r.Memory.len in
          let o0 = p.off + kieval slots ib i0 site.B.ks_idx in
          (* the index is affine in the loop index, in wrapping int
             arithmetic too: the stride of the first step is every
             step's *)
          let delta =
            if n > 1 then
              p.off + kieval slots ib (i0 + s) site.B.ks_idx - o0
            else 0
          in
          let olast = o0 + ((n - 1) * delta) in
          if o0 < 0 || o0 >= len || olast < 0 || olast >= len then
            raise Kernel_unfit;
          datas.(si) <- r.Memory.fdata;
          offs.(si) <- o0;
          deltas.(si) <- delta;
          elems.(si) <- r.Memory.elem_bytes;
          ids.(si) <- p.mem_id;
          bytes_r :=
            !bytes_r + (k.B.k_site_loads.(si) * r.Memory.elem_bytes);
          bytes_w :=
            !bytes_w + (k.B.k_site_stores.(si) * r.Memory.elem_bytes)
      | _ -> raise Kernel_unfit
    done;
    for c = 0 to nctrs - 1 do
      let ie = Array.unsafe_get k.B.k_ctrs c in
      let v0 = kieval slots ib i0 ie in
      offs.(nsites + c) <- v0;
      deltas.(nsites + c) <-
        (if n > 1 then kieval slots ib (i0 + s) ie - v0 else 0)
    done;
    if
      track
      && (Option.is_some st.active
         || Option.is_some (Array.unsafe_get st.track_lidx lidx))
      && shared_store_region kp ids
    then raise Kernel_unfit;
    let fregs = ks.ks_fregs in
    Array.fill fregs 0 k.B.k_nfregs 0.0;
    for j = 0 to Array.length kp.B.kp_fin - 1 do
      let i, reg = Array.unsafe_get kp.B.kp_fin j in
      Array.unsafe_set fregs reg (Array.unsafe_get fb i)
    done;
    for j = 0 to Array.length kp.B.kp_iin - 1 do
      let i, reg = Array.unsafe_get kp.B.kp_iin j in
      Array.unsafe_set fregs reg (float_of_int (Array.unsafe_get ib i))
    done;
    (* ---- committed: bulk accounting — execution below moves no
       observable ---- *)
    st.fuel <- st.fuel - fuel_used;
    let stat = cached_loop_stat st lidx k.B.k_fsid in
    stat.invocations <- stat.invocations + 1;
    if st.tracking then vtrack_enter st lidx fr fb ib;
    let t0 = cycles st in
    let total =
      k.B.k_icost +. k.B.k_bcost +. (float_of_int n *. k.B.k_iter_cycles)
    in
    charge st total;
    Array.unsafe_set st.bulk_cycles 0
      (Array.unsafe_get st.bulk_cycles 0 +. total);
    st.prof.int_ops <-
      st.prof.int_ops + k.B.k_init_int_ops
      + ((n + 1) * k.B.k_bound_int_ops)
      + (n * (k.B.k_step_int_ops + k.B.k_int_ops));
    st.prof.flops <- st.prof.flops + (n * k.B.k_flops);
    if k.B.k_sfu > 0 then
      st.prof.sfu_ops <- st.prof.sfu_ops + (n * k.B.k_sfu);
    if k.B.k_loads > 0 then (
      st.prof.loads <- st.prof.loads + (n * k.B.k_loads);
      st.prof.bytes_read <- st.prof.bytes_read + (n * !bytes_r));
    if k.B.k_stores > 0 then (
      st.prof.stores <- st.prof.stores + (n * k.B.k_stores);
      st.prof.bytes_written <- st.prof.bytes_written + (n * !bytes_w));
    stat.iterations <- stat.iterations + n;
    (match st.active with
    | Some tk -> track_sites tk kp ids offs deltas elems n
    | None -> ());
    (* the micro-program: entry banks first, then the iterations *)
    for j = 0 to Array.length kp.B.kp_lits - 1 do
      let d, x = Array.unsafe_get kp.B.kp_lits j in
      Array.unsafe_set fregs d x
    done;
    for j = 0 to Array.length kp.B.kp_prefetch - 1 do
      let d, si = Array.unsafe_get kp.B.kp_prefetch j in
      Array.unsafe_set fregs d (vk_ld datas offs si)
    done;
    let adv = ks.ks_adv in
    let nadv = ref 0 in
    for si = 0 to nsites + nctrs - 1 do
      if deltas.(si) <> 0 then (
        adv.(!nadv) <- si;
        incr nadv)
    done;
    vkern_iters kp.B.kp_ops fregs datas offs deltas adv ~nadv:!nadv ~count:n;
    for j = 0 to Array.length kp.B.kp_fout - 1 do
      let i, reg = Array.unsafe_get kp.B.kp_fout j in
      Array.unsafe_set fb i (Array.unsafe_get fregs reg)
    done;
    Array.unsafe_set ib (slots.(k.B.k_idx_slot) lsr 2) (i0 + (n * s));
    stat.min_trip <- min stat.min_trip n;
    stat.max_trip <- max stat.max_trip n;
    stat.cycles <- stat.cycles +. (cycles st -. t0);
    if st.tracking then vtrack_exit st lidx)

(* {!do_mod}, {!do_cmp} and {!coerce} over bank-tagged operands, with
   the same counter bumps, conversions and errors: a modulo (of int
   operands, as the checker requires), a typed comparison and a store of
   a banked value box nothing. *)

let mod_o st regs sf si a b =
  st.prof.int_ops <- st.prof.int_ops + 1;
  let d = geti regs sf si b in
  if d = 0 then err "integer modulo by zero";
  geti regs sf si a mod d

let cmp_o regs sf si op kind a b =
  let open Minic.Ast in
  match kind with
  | B.KFlt -> (
      let x = getf regs sf si a and y = getf regs sf si b in
      match op with
      | Lt -> x < y
      | Le -> x <= y
      | Gt -> x > y
      | Ge -> x >= y
      | Eq -> x = y
      | Ne -> x <> y
      | _ -> assert false)
  | B.KInt -> (
      let x = geti regs sf si a and y = geti regs sf si b in
      match op with
      | Lt -> x < y
      | Le -> x <= y
      | Gt -> x > y
      | Ge -> x >= y
      | Eq -> x = y
      | Ne -> x <> y
      | _ -> assert false)

let coerce_o typ regs sf si src =
  match typ with
  | Minic.Ast.Tint -> VInt (geti regs sf si src)
  | Minic.Ast.Tfloat | Minic.Ast.Tdouble -> VFloat (getf regs sf si src)
  | Minic.Ast.Tbool -> vbool (getb regs sf si src)
  | _ -> getv regs sf si src

(* Move register [s] of one frame into register [d] of another (or the
   same) frame, converting across banks. *)
let[@inline] xmov dregs dsf dsi d sregs ssf ssi s =
  match d land 3 with
  | 1 -> Array.unsafe_set dsf (d lsr 2) (getf sregs ssf ssi s)
  | 2 -> Array.unsafe_set dsi (d lsr 2) (geti sregs ssf ssi s)
  | _ -> Array.unsafe_set dregs (d lsr 2) (getv sregs ssf ssi s)

(* A fresh frame for [fn]: its three banks, each slot at its declared
   type's zero, with their constants. *)
let new_frame (fn : B.fn) =
  let regs = Array.make fn.B.bc_nregs VUnit in
  Array.blit fn.B.bc_boxed 0 regs 0 (Array.length fn.B.bc_boxed);
  let sf = Array.make fn.B.bc_nsf 0.0 in
  Array.blit fn.B.bc_fcvals 0 sf fn.B.bc_fcbase (Array.length fn.B.bc_fcvals);
  let si = Array.make fn.B.bc_nsi 0 in
  Array.blit fn.B.bc_icvals 0 si fn.B.bc_icbase (Array.length fn.B.bc_icvals);
  (regs, sf, si)

(* VM driver: a flat tail-recursive dispatch loop over the instruction
   array, over one frame's boxed bank [regs], float bank [sf] and int
   bank [si].  Every arm replays the reference walker's charges,
   counter bumps, fuel spends and error points for the matching IR node
   — the test suite asserts fingerprint identity against {!run_ir}. *)

let rec vrun st (bp : B.program) ~track (code : B.instr array)
    (regs : Value.t array) (sf : float array) (si : int array) : Value.t =
  let load_at = if track then load_r_tracked else load_r in
  let store_at = if track then store_r_tracked else store_r in
  let rec go pc =
    match Array.unsafe_get code pc with
    | B.IFuel ->
        spend_fuel st;
        go (pc + 1)
    | B.ICharge c ->
        charge st c;
        go (pc + 1)
    | B.IJmp t -> go t
    | B.IJmpFalse (src, tgt) ->
        if getb regs sf si src then go (pc + 1) else go tgt
    | B.IBrCmp { op; kind; a; b; tgt } ->
        if cmp_o regs sf si op kind a b then go (pc + 1) else go tgt
    | B.IMov (d, a) ->
        xmov regs sf si d regs sf si a;
        go (pc + 1)
    | B.IGetG (d, g) ->
        setv regs sf si d (Array.unsafe_get st.garray g);
        go (pc + 1)
    | B.ISetG (g, src) ->
        Array.unsafe_set st.garray g (getv regs sf si src);
        go (pc + 1)
    | B.IErrVar n -> err "undefined variable '%s'" n
    | B.IErrMsg m -> raise (Value.Runtime_error m)
    | B.IFailHd -> raise (Failure "hd")
    | B.INegF (d, a) ->
        st.prof.flops <- st.prof.flops + 1;
        Array.unsafe_set sf (d lsr 2) (-.getf regs sf si a);
        go (pc + 1)
    | B.INegI (d, a) ->
        Array.unsafe_set si (d lsr 2) (-geti regs sf si a);
        go (pc + 1)
    | B.INot (d, a) ->
        Array.unsafe_set regs (d lsr 2) (vbool (not (getb regs sf si a)));
        go (pc + 1)
    | B.IArithF { op; fresid; d; a; b } ->
        let x = getf regs sf si a and y = getf regs sf si b in
        if fresid <> 0.0 then charge st fresid;
        st.prof.flops <- st.prof.flops + 1;
        Array.unsafe_set sf (d lsr 2)
          (match op with
          | Minic.Ast.Add -> x +. y
          | Minic.Ast.Sub -> x -. y
          | Minic.Ast.Mul -> x *. y
          | _ -> assert false);
        go (pc + 1)
    | B.IArithI { op; d; a; b } ->
        let x = geti regs sf si a and y = geti regs sf si b in
        st.prof.int_ops <- st.prof.int_ops + 1;
        Array.unsafe_set si (d lsr 2)
          (match op with
          | Minic.Ast.Add -> x + y
          | Minic.Ast.Sub -> x - y
          | Minic.Ast.Mul -> x * y
          | _ -> assert false);
        go (pc + 1)
    | B.IDivF (d, a, b) ->
        let x = getf regs sf si a and y = getf regs sf si b in
        charge st Profile.Cost.float_div;
        st.prof.flops <- st.prof.flops + 1;
        Array.unsafe_set sf (d lsr 2) (x /. y);
        go (pc + 1)
    | B.IDivI (d, a, b) ->
        charge st Profile.Cost.int_op;
        st.prof.int_ops <- st.prof.int_ops + 1;
        let dv = geti regs sf si b in
        if dv = 0 then err "integer division by zero";
        Array.unsafe_set si (d lsr 2) (geti regs sf si a / dv);
        go (pc + 1)
    | B.IMod (d, a, b) ->
        Array.unsafe_set si (d lsr 2) (mod_o st regs sf si a b);
        go (pc + 1)
    | B.ICmp { op; kind; d; a; b } ->
        Array.unsafe_set regs (d lsr 2) (vbool (cmp_o regs sf si op kind a b));
        go (pc + 1)
    | B.ICastI (d, a) ->
        Array.unsafe_set si (d lsr 2) (geti regs sf si a);
        go (pc + 1)
    | B.ICastF (d, a) ->
        Array.unsafe_set sf (d lsr 2) (getf regs sf si a);
        go (pc + 1)
    | B.ICastB (d, a) ->
        Array.unsafe_set regs (d lsr 2) (vbool (getb regs sf si a));
        go (pc + 1)
    | B.IIndex { d; a; i } ->
        let p = to_ptr (getv regs sf si a) in
        let ii = geti regs sf si i in
        let r = Memory.region st.mem p.mem_id in
        (* a float region's element moves into the float bank unboxed *)
        if d land 3 = 1 && r.flt then (
          Array.unsafe_set sf (d lsr 2) (load_f st r (p.off + ii));
          if track then track_load st r (p.off + ii))
        else setv regs sf si d (load_at st r (p.off + ii));
        go (pc + 1)
    | B.IAndTest { d; src; bcost; tgt } ->
        if getb regs sf si src then (
          charge st bcost;
          go (pc + 1))
        else (
          Array.unsafe_set regs (d lsr 2) vfalse;
          go tgt)
    | B.IOrTest { d; src; bcost; tgt } ->
        if getb regs sf si src then (
          Array.unsafe_set regs (d lsr 2) vtrue;
          go tgt)
        else (
          charge st bcost;
          go (pc + 1))
    | B.ICallUser { d; fidx; args } ->
        setv regs sf si d (vcall st bp ~track fidx args regs sf si);
        go (pc + 1)
    | B.IMath1 { d; g; mflops; a } ->
        let x = getf regs sf si a in
        st.prof.sfu_ops <- st.prof.sfu_ops + 1;
        st.prof.flops <- st.prof.flops + mflops;
        Array.unsafe_set sf (d lsr 2) (math1 g x);
        go (pc + 1)
    | B.IMath2 { d; g; mflops; a; b } ->
        let x = getf regs sf si a and y = getf regs sf si b in
        st.prof.sfu_ops <- st.prof.sfu_ops + 1;
        st.prof.flops <- st.prof.flops + mflops;
        Array.unsafe_set sf (d lsr 2) (math2 g x y);
        go (pc + 1)
    | B.IMathGen { d; mimpl; mflops; args } ->
        st.prof.sfu_ops <- st.prof.sfu_ops + 1;
        st.prof.flops <- st.prof.flops + mflops;
        (match (mimpl, Array.length args) with
        | Resolve.M1 g, n when n >= 1 ->
            Array.unsafe_set sf (d lsr 2) (math1 g (getf regs sf si args.(0)))
        | Resolve.M2 g, n when n >= 2 ->
            Array.unsafe_set sf (d lsr 2)
              (math2 g (getf regs sf si args.(0)) (getf regs sf si args.(1)))
        | _ -> err "math builtin called with too few arguments");
        go (pc + 1)
    | B.IRand01 d ->
        Array.unsafe_set sf (d lsr 2) (rand01 st);
        go (pc + 1)
    | B.IRandInt (d, a) ->
        Array.unsafe_set si (d lsr 2) (rand_int st (geti regs sf si a));
        go (pc + 1)
    | B.IPrintInt src ->
        Buffer.add_string st.out (string_of_int (geti regs sf si src) ^ "\n");
        go (pc + 1)
    | B.IPrintFloat src ->
        Buffer.add_string st.out
          (Printf.sprintf "%.6g\n" (getf regs sf si src));
        go (pc + 1)
    | B.ITimerStart src ->
        let n = geti regs sf si src in
        sync_cycles st;
        Profile.timer_start st.prof n;
        go (pc + 1)
    | B.ITimerStop src ->
        let n = geti regs sf si src in
        sync_cycles st;
        Profile.timer_stop st.prof n;
        go (pc + 1)
    | B.IAlloc { d; typ; name; src } ->
        let n = geti regs sf si src in
        Array.unsafe_set regs (d lsr 2) (Memory.alloc st.mem ~name ~elem_typ:typ n);
        go (pc + 1)
    | B.IApplyAssign { d; typ; aop; old; rhs } ->
        let v =
          apply_assign st aop
            (Array.unsafe_get regs (old lsr 2))
            (getv regs sf si rhs)
        in
        Array.unsafe_set regs (d lsr 2)
          (match typ with Some t -> coerce t v | None -> v);
        go (pc + 1)
    | B.IStore { arr; idx; src } ->
        let p = to_ptr (getv regs sf si arr) in
        let i = geti regs sf si idx in
        let r = Memory.region st.mem p.mem_id in
        (if r.flt then (
           let x = getf regs sf si src in
           store_f st r (p.off + i) x;
           if track then track_store st r (p.off + i))
         else store_at st r (p.off + i) (coerce_o r.elem_typ regs sf si src));
        go (pc + 1)
    | B.IStoreOp { aop; arr; idx; src } ->
        let p = to_ptr (getv regs sf si arr) in
        let i = geti regs sf si idx in
        let r = Memory.region st.mem p.mem_id in
        let off = p.off + i in
        (if r.flt then (
           (* [apply_assign] on a float old value: always the float path *)
           let old = load_f st r off in
           if track then track_load st r off;
           let y = getf regs sf si src in
           let x =
             match aop with
             | Minic.Ast.AddEq ->
                 charge st arith_fresid;
                 old +. y
             | Minic.Ast.SubEq ->
                 charge st arith_fresid;
                 old -. y
             | Minic.Ast.MulEq ->
                 charge st mul_fresid;
                 old *. y
             | Minic.Ast.DivEq ->
                 charge st Profile.Cost.float_div;
                 old /. y
             | Minic.Ast.Set -> assert false
           in
           st.prof.flops <- st.prof.flops + 1;
           store_f st r off x;
           if track then track_store st r off)
         else
           let v =
             apply_assign st aop (load_at st r off) (getv regs sf si src)
           in
           store_at st r off (coerce r.elem_typ v));
        go (pc + 1)
    | B.IRet src -> getv regs sf si src
    | B.IRetRaise src -> raise (Return_exc (getv regs sf si src))
    | B.ILoopEnterW { lidx; sid; t0; trips } ->
        let stat = cached_loop_stat st lidx sid in
        stat.invocations <- stat.invocations + 1;
        if st.tracking then vtrack_enter st lidx regs sf si;
        Array.unsafe_set sf (t0 lsr 2) (cycles st);
        Array.unsafe_set si (trips lsr 2) 0;
        charge st Profile.Cost.branch;
        go (pc + 1)
    | B.ILoopEnterF { lidx; sid; t0; trips; icost } ->
        let stat = cached_loop_stat st lidx sid in
        stat.invocations <- stat.invocations + 1;
        if st.tracking then vtrack_enter st lidx regs sf si;
        Array.unsafe_set sf (t0 lsr 2) (cycles st);
        charge st icost;
        Array.unsafe_set si (trips lsr 2) 0;
        go (pc + 1)
    | B.IWhileIter { src; lidx; sid; trips; tgt } ->
        if getb regs sf si src then (
          let t = trips lsr 2 in
          Array.unsafe_set si t (Array.unsafe_get si t + 1);
          let stat = cached_loop_stat st lidx sid in
          stat.iterations <- stat.iterations + 1;
          spend_fuel st;
          charge st while_iter_cost;
          go (pc + 1))
        else go tgt
    | B.IForInitI { slot; src } ->
        Array.unsafe_set si (slot lsr 2) (geti regs sf si src);
        go (pc + 1)
    | B.IForTestI { slot; cost; bound; inclusive; lidx; sid; trips; tgt } ->
        if cost <> 0.0 then charge st cost;
        let b = geti regs sf si bound in
        let i = Array.unsafe_get si (slot lsr 2) in
        if if inclusive then i <= b else i < b then (
          let t = trips lsr 2 in
          Array.unsafe_set si t (Array.unsafe_get si t + 1);
          let stat = cached_loop_stat st lidx sid in
          stat.iterations <- stat.iterations + 1;
          spend_fuel st;
          charge st for_iter_cost;
          go (pc + 1))
        else go tgt
    | B.IForStepI { slot; src; tgt } ->
        let stepv = geti regs sf si src in
        let s = slot lsr 2 in
        Array.unsafe_set si s (Array.unsafe_get si s + stepv);
        go tgt
    | B.ILoopExit { lidx; sid; t0; trips } ->
        let stat = cached_loop_stat st lidx sid in
        let tr = Array.unsafe_get si (trips lsr 2) in
        stat.min_trip <- min stat.min_trip tr;
        stat.max_trip <- max stat.max_trip tr;
        stat.cycles <-
          stat.cycles +. (cycles st -. Array.unsafe_get sf (t0 lsr 2));
        if st.tracking then vtrack_exit st lidx;
        go (pc + 1)
    | B.IKernel { lidx; kp; tgt } -> (
        match vkernel st ~track regs sf si lidx kp with
        | () -> go tgt
        | exception Kernel_unfit -> go (pc + 1))
  in
  go 0

(* A user call: arguments move from the caller's registers into the
   callee's parameter registers, boxing or unboxing only across
   banks. *)
and vcall st (bp : B.program) ~track fidx (argr : int array)
    (cregs : Value.t array) (csf : float array) (csi : int array) : Value.t =
  let fn = bp.B.bc_funcs.(fidx) in
  let regs, sf, si = new_frame fn in
  Array.iteri
    (fun i r ->
      xmov regs sf si (Array.unsafe_get fn.B.bc_params i) cregs csf csi r)
    argr;
  vrun st bp ~track fn.B.bc_code regs sf si

(* Entry path for [main] — mirrors the walker's [eval_user_call]:
   arity check, then the body. *)
let vcall_main st (bp : B.program) ~track idx : Value.t =
  let f = st.cprog.cfuncs.(idx) in
  if List.length f.Resolve.cf_params <> 0 then
    err "call to '%s' with wrong arity" f.Resolve.cf_name;
  let fn = bp.B.bc_funcs.(idx) in
  let regs, sf, si = new_frame fn in
  vrun st bp ~track fn.B.bc_code regs sf si

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

type track = (int * string list) list

(** Result of running a program. *)
type run = {
  profile : Profile.t;
  output : string;  (** everything printed by [print_int]/[print_float] *)
  return_value : Value.t;
}

(** A compiled program: the slot IR plus its register-bytecode
    lowering. *)
type compiled = { cp : Resolve.t; vm : Bytecode.program }

(** Lower an already-resolved slot IR with typed instructions and no
    kernels, for differential tests and the kernel-free benchmark
    leg.  Refuses an ill-typed source. *)
let compile_resolved (cp : Resolve.t) : compiled =
  Minic.Typecheck.check_program cp.source;
  { cp; vm = Bytecode.lower ~kernels:false cp }

(** Compile a program once; the result can be executed many times with
    {!run_vm}: type-check, resolve, then lower to register bytecode with
    its kernels. *)
let compile p : compiled =
  Flow_obs.Trace.with_span ~cat:"interp" "interp.compile" (fun () ->
      Minic.Typecheck.check_program p;
      let cp = Resolve.compile p in
      { cp; vm = Bytecode.lower cp })

(* Trackers of the loops named in [track] that some function of [cp]
   holds; [reg fi slot] says where the engine keeps local [slot] of
   function [fi]. *)
let make_trackers (cp : Resolve.t) ~reg (track : track) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (sid, names) ->
      match Resolve.track_slots cp ~loop_sid:sid names with
      | None -> ()
      | Some (fi, refs) ->
          Hashtbl.replace tbl sid
            {
              tk_sid = sid;
              tk_args =
                Array.of_list
                  (List.map
                     (function Resolve.Local i -> reg fi i | r -> TSlot r)
                     refs);
              tk_depth = 0;
              tk_regions = [||];
              tk_order = [];
              tk_snap = (0.0, 0, 0, 0, 0);
              tk_obs =
                {
                  Profile.calls = 0;
                  k_cycles = 0.0;
                  k_flops = 0;
                  k_sfu = 0;
                  k_bytes_read = 0;
                  k_bytes_written = 0;
                  args =
                    Array.of_list
                      (List.mapi
                         (fun i name ->
                           {
                             Profile.arg_index = i;
                             arg_name = name;
                             regions_touched = [];
                             bytes_in = 0;
                             bytes_out = 0;
                           })
                         names);
                };
            })
    track;
  tbl

let make_state ~fuel ~trackers (cp : Resolve.t) =
  {
    cprog = cp;
    mem = Memory.create ();
    prof = Profile.create ();
    garray = Array.map zero_of_typ cp.cglobal_types;
    out = Buffer.create 256;
    rng = 123456789;
    tracking = Hashtbl.length trackers > 0;
    track_sids = trackers;
    track_lidx = [||];
    active = None;
    fuel;
    loop_cache = [||];
    bulk_cycles = [| 0.0 |];
    cyc = [| 0.0 |];
    ks =
      {
        ks_datas = [||];
        ks_offs = [||];
        ks_deltas = [||];
        ks_elems = [||];
        ks_ids = [||];
        ks_adv = [||];
        ks_fregs = [||];
      };
  }

(** Run an already-compiled program from [main] through the register
    bytecode VM (same observable semantics as {!run_ir}, bit for bit —
    output, return value, full profile). *)
let run_vm ?(track = []) ?(fuel = 200_000_000) (c : compiled) : run =
  Flow_obs.Trace.with_span ~cat:"interp" "interp.eval" @@ fun () ->
  let bp = c.vm in
  let trackers =
    make_trackers c.cp track ~reg:(fun fi i ->
        TReg bp.Bytecode.bc_funcs.(fi).Bytecode.bc_slots.(i))
  in
  let st = make_state ~fuel ~trackers c.cp in
  st.loop_cache <- Array.make (max 1 bp.Bytecode.bc_nloops) None;
  if st.tracking then
    st.track_lidx <-
      Array.map (Hashtbl.find_opt trackers) bp.Bytecode.bc_loop_sids;
  let track = st.tracking in
  (* globals evaluate in the global frame; a stray [return] there
     escapes as [Return_exc], exactly like the reference walker *)
  let g = bp.Bytecode.bc_globals in
  let gregs, gsf, gsi = new_frame g in
  ignore (vrun st bp ~track g.Bytecode.bc_code gregs gsf gsi);
  if c.cp.main_idx < 0 then err "program has no 'main' function";
  charge st Profile.Cost.call;
  let return_value = vcall_main st bp ~track c.cp.main_idx in
  sync_cycles st;
  Flow_obs.Metrics.incr Flow_obs.Metrics.global "interp_runs";
  Flow_obs.Metrics.observe Flow_obs.Metrics.global "interp_virtual_cycles"
    st.prof.cycles;
  if st.bulk_cycles.(0) > 0.0 then
    Flow_obs.Metrics.observe Flow_obs.Metrics.global "interp_bulk_cycles"
      st.bulk_cycles.(0);
  Flow_obs.Trace.add_args
    [ ("virtual_cycles", Flow_obs.Attr.Float st.prof.cycles) ];
  { profile = st.prof; output = Buffer.contents st.out; return_value }

(* [~focus:f] names an extracted kernel function instead of its loop:
   track each loop statement of [f]'s body with [f]'s pointer
   parameters as arguments. *)
let with_focus (p : Minic.Ast.program) track = function
  | None -> track
  | Some f -> (
      match Minic.Ast.find_func_opt p f with
      | None -> track
      | Some fn ->
          let ptrs =
            List.filter_map
              (fun (pr : Minic.Ast.param) ->
                match pr.ptyp with
                | Minic.Ast.Tptr _ -> Some pr.pname_
                | _ -> None)
              fn.fparams
          in
          track
          @ List.filter_map
              (fun (s : Minic.Ast.stmt) ->
                match s.snode with
                | For _ | While _ -> Some (s.sid, ptrs)
                | _ -> None)
              fn.fbody)

(** Run the slot IR through the reference tree walker.  Counted as
    [interp_ir_runs] (not [interp_runs]): this path exists for
    bit-identity checking and before/after benchmarking, not for the
    flow. *)
let run_ir ?focus ?(track = []) ?(fuel = 200_000_000) (cp : Resolve.t) : run =
  let track = with_focus cp.source track focus in
  let trackers =
    make_trackers cp track ~reg:(fun _ i -> TSlot (Resolve.Local i))
  in
  let st = make_state ~fuel ~trackers cp in
  Ir_walk.exec_block st st.garray cp.cglobals;
  if cp.main_idx < 0 then err "program has no 'main' function";
  charge st Profile.Cost.call;
  let return_value = Ir_walk.eval_user_call st cp.main_idx [] in
  sync_cycles st;
  Flow_obs.Metrics.incr Flow_obs.Metrics.global "interp_ir_runs";
  { profile = st.prof; output = Buffer.contents st.out; return_value }

(** Run [program] from [main].

    @param track loops to observe as offload candidates (see {!run_vm})
    @param focus an extracted kernel function: tracks its loops with its
      pointer parameters
    @param fuel statement-execution budget; the default (200 million) is a
      safety net against accidental infinite loops in transformed code *)
let run ?focus ?(track = []) ?fuel (program : Minic.Ast.program) : run =
  run_vm ~track:(with_focus program track focus) ?fuel (compile program)
