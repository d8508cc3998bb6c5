(** Static arithmetic-intensity analysis.

    Estimates FLOPs per byte of memory traffic for a kernel function by
    walking its body: floating-point operators and math builtins
    contribute FLOPs, array accesses contribute bytes, and fixed-bound
    inner loops multiply their body's contribution by the static trip
    count (unknown-bound loops use a neutral weight of 1 per invocation
    so the ratio reflects one iteration's balance).

    The PSA strategy compares the resulting FLOPs/B against its tunable
    threshold X to classify the hotspot as compute- or memory-bound
    (Fig. 3). *)

open Minic

type t = {
  flops : float;  (** weighted FLOP estimate *)
  bytes : float;  (** weighted bytes of array traffic *)
  flops_per_byte : float;
}

let flops_of_binop (op : Ast.binop) =
  match op with
  | Ast.Add | Ast.Sub | Ast.Mul -> 1.0
  | Ast.Div -> 4.0
  | _ -> 0.0

(* Types are not tracked here: MiniC benchmarks only index float/double
   arrays in kernels, and scalar int arithmetic contributes no FLOPs.  We
   distinguish float ops from int ops syntactically: an operator counts as
   floating when either operand contains a float literal, float-typed
   array access, or math call.  To stay simple and deterministic we use
   the typechecker's environment instead. *)

let rec expr_is_floaty vars (e : Ast.expr) =
  match e.enode with
  | Ast.Float_lit _ -> true
  | Ast.Int_lit _ | Ast.Bool_lit _ -> false
  | Ast.Var v -> (
      match Hashtbl.find_opt vars v with
      | Some (Ast.Tfloat | Ast.Tdouble) -> true
      | Some (Ast.Tptr (Ast.Tfloat | Ast.Tdouble)) -> true
      | _ -> false)
  | Ast.Unop (_, a) -> expr_is_floaty vars a
  | Ast.Binop (_, a, b) -> expr_is_floaty vars a || expr_is_floaty vars b
  | Ast.Index (a, _) -> expr_is_floaty vars a
  | Ast.Call (f, _) -> (
      match Minic.Builtins.lookup f with
      | Some s -> Ast.is_float_typ s.ret
      | None -> true)
  | Ast.Cast (t, _) -> Ast.is_float_typ t

(** FLOPs and bytes of one evaluation of [e]. *)
let rec expr_cost vars (e : Ast.expr) =
  match e.enode with
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _ | Ast.Var _ -> (0.0, 0.0)
  | Ast.Unop (_, a) | Ast.Cast (_, a) -> expr_cost vars a
  | Ast.Binop (op, a, b) ->
      let fa, ba = expr_cost vars a and fb, bb = expr_cost vars b in
      let f =
        if expr_is_floaty vars a || expr_is_floaty vars b then
          flops_of_binop op
        else 0.0
      in
      (fa +. fb +. f, ba +. bb)
  | Ast.Index (a, i) ->
      let fa, ba = expr_cost vars a and fi, bi = expr_cost vars i in
      let elem =
        match a.enode with
        | Ast.Var v -> (
            match Hashtbl.find_opt vars v with
            | Some (Ast.Tptr t) -> float_of_int (Ast.sizeof t)
            | _ -> 8.0)
        | _ -> 8.0
      in
      (fa +. fi, ba +. bi +. elem)
  | Ast.Call (f, args) ->
      let fc =
        match Minic.Builtins.cost_class f with
        | Some c -> float_of_int (Minic.Builtins.flops_of_class c)
        | None -> 0.0
      in
      List.fold_left
        (fun (facc, bacc) a ->
          let fa, ba = expr_cost vars a in
          (facc +. fa, bacc +. ba))
        (fc, 0.0) args

let lvalue_cost vars = function
  | Ast.Lvar _ -> (0.0, 0.0)
  | Ast.Lindex (a, i) ->
      let fa, ba = expr_cost vars a and fi, bi = expr_cost vars i in
      let elem =
        match a.enode with
        | Ast.Var v -> (
            match Hashtbl.find_opt vars v with
            | Some (Ast.Tptr t) -> float_of_int (Ast.sizeof t)
            | _ -> 8.0)
        | _ -> 8.0
      in
      (fa +. fi, ba +. bi +. elem)

let rec stmt_cost vars (s : Ast.stmt) =
  match s.snode with
  | Ast.Decl d ->
      Hashtbl.replace vars d.dname
        (match d.dsize with Some _ -> Ast.Tptr d.dtyp | None -> d.dtyp);
      (match d.dinit with Some e -> expr_cost vars e | None -> (0.0, 0.0))
  | Ast.Assign (lv, op, e) ->
      let fl, bl = lvalue_cost vars lv in
      let fe, be = expr_cost vars e in
      let extra =
        (* compound assignment performs the op and re-reads the target *)
        if op <> Ast.Set then 1.0 else 0.0
      in
      (fl +. fe +. extra, bl +. be)
  | Ast.Expr_stmt e -> expr_cost vars e
  | Ast.Return (Some e) -> expr_cost vars e
  | Ast.Return None -> (0.0, 0.0)
  | Ast.If (c, b1, b2) ->
      let fc, bc = expr_cost vars c in
      let f1, bb1 = block_cost vars b1 in
      let f2, bb2 =
        match b2 with Some b -> block_cost vars b | None -> (0.0, 0.0)
      in
      (* both branches weighted half: static average *)
      (fc +. (0.5 *. (f1 +. f2)), bc +. (0.5 *. (bb1 +. bb2)))
  | Ast.While (c, b) ->
      let fc, bc = expr_cost vars c in
      let fb, bb = block_cost vars b in
      (fc +. fb, bc +. bb)
  | Ast.For (h, b) ->
      Hashtbl.replace vars h.index Ast.Tint;
      let trips =
        match Artisan.Query.static_trip_count s with
        | Some n -> float_of_int n
        | None -> 1.0
      in
      let fb, bb = block_cost vars b in
      (trips *. fb, trips *. bb)
  | Ast.Block b -> block_cost vars b

and block_cost vars b =
  List.fold_left
    (fun (f, by) s ->
      let fs, bs = stmt_cost vars s in
      (f +. fs, by +. bs))
    (0.0, 0.0) b

(** Arithmetic intensity of the function [fname]'s body, per outermost
    iteration. *)
let analyze (p : Ast.program) fname : t =
  Flow_obs.Trace.with_span ~cat:"analysis" "analysis.intensity"
    ~args:[ ("function", Flow_obs.Attr.String fname) ]
  @@ fun () ->
  Flow_obs.Metrics.incr Flow_obs.Metrics.global "analysis_intensity";
  let f = Ast.find_func p fname in
  let vars = Hashtbl.create 16 in
  List.iter
    (fun (pr : Ast.param) -> Hashtbl.replace vars pr.pname_ pr.ptyp)
    f.fparams;
  (* globals *)
  List.iter
    (fun (g : Ast.stmt) ->
      match g.snode with
      | Ast.Decl d ->
          Hashtbl.replace vars d.dname
            (match d.dsize with Some _ -> Ast.Tptr d.dtyp | None -> d.dtyp)
      | _ -> ())
    p.globals;
  let flops, bytes = block_cost vars f.fbody in
  {
    flops;
    bytes;
    flops_per_byte = (if bytes > 0.0 then flops /. bytes else Float.infinity);
  }
