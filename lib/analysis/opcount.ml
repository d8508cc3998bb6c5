(** Static operation census of a kernel body.

    Counts, per execution of the kernel function body, how many operations
    of each class are performed, weighting statements inside loops by the
    loop trip count (static when the bound is a literal, otherwise a
    dynamic mean supplied by the caller from trip-count analysis).

    The FPGA model prices pipeline resources from these counts; the GPU
    model derives instruction mix from them. *)

open Minic

type t = {
  fadd : float;  (** float add/sub *)
  fmul : float;
  fdiv : float;
  sqrt : float;
  exp_log : float;
  trig : float;
  power : float;
  int_ops : float;
  loads : float;
  stores : float;
  cheap_math : float;  (** fabs/floor/fmin/fmax *)
}

let zero =
  {
    fadd = 0.0;
    fmul = 0.0;
    fdiv = 0.0;
    sqrt = 0.0;
    exp_log = 0.0;
    trig = 0.0;
    power = 0.0;
    int_ops = 0.0;
    loads = 0.0;
    stores = 0.0;
    cheap_math = 0.0;
  }

let add a b =
  {
    fadd = a.fadd +. b.fadd;
    fmul = a.fmul +. b.fmul;
    fdiv = a.fdiv +. b.fdiv;
    sqrt = a.sqrt +. b.sqrt;
    exp_log = a.exp_log +. b.exp_log;
    trig = a.trig +. b.trig;
    power = a.power +. b.power;
    int_ops = a.int_ops +. b.int_ops;
    loads = a.loads +. b.loads;
    stores = a.stores +. b.stores;
    cheap_math = a.cheap_math +. b.cheap_math;
  }

let scale k a =
  {
    fadd = k *. a.fadd;
    fmul = k *. a.fmul;
    fdiv = k *. a.fdiv;
    sqrt = k *. a.sqrt;
    exp_log = k *. a.exp_log;
    trig = k *. a.trig;
    power = k *. a.power;
    int_ops = k *. a.int_ops;
    loads = k *. a.loads;
    stores = k *. a.stores;
    cheap_math = k *. a.cheap_math;
  }

let rec count_expr vars (e : Ast.expr) : t =
  match e.enode with
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _ | Ast.Var _ -> zero
  | Ast.Unop (_, a) | Ast.Cast (_, a) -> count_expr vars a
  | Ast.Binop (op, a, b) ->
      let c = add (count_expr vars a) (count_expr vars b) in
      let fl = Intensity.expr_is_floaty vars a || Intensity.expr_is_floaty vars b in
      (match op with
      | Ast.Add | Ast.Sub ->
          if fl then { c with fadd = c.fadd +. 1.0 }
          else { c with int_ops = c.int_ops +. 1.0 }
      | Ast.Mul ->
          if fl then { c with fmul = c.fmul +. 1.0 }
          else { c with int_ops = c.int_ops +. 1.0 }
      | Ast.Div ->
          if fl then { c with fdiv = c.fdiv +. 1.0 }
          else { c with int_ops = c.int_ops +. 1.0 }
      | _ -> { c with int_ops = c.int_ops +. 1.0 })
  | Ast.Index (a, i) ->
      let c = add (count_expr vars a) (count_expr vars i) in
      { c with loads = c.loads +. 1.0; int_ops = c.int_ops +. 1.0 }
  | Ast.Call (f, args) ->
      let c =
        List.fold_left (fun acc a -> add acc (count_expr vars a)) zero args
      in
      (match Minic.Builtins.cost_class f with
      | Some Minic.Builtins.Sqrt_div -> { c with sqrt = c.sqrt +. 1.0 }
      | Some Minic.Builtins.Exp_log -> { c with exp_log = c.exp_log +. 1.0 }
      | Some Minic.Builtins.Trig -> { c with trig = c.trig +. 1.0 }
      | Some Minic.Builtins.Power -> { c with power = c.power +. 1.0 }
      | Some Minic.Builtins.Cheap -> { c with cheap_math = c.cheap_math +. 1.0 }
      | None -> c)

let count_lvalue vars = function
  | Ast.Lvar _ -> zero
  | Ast.Lindex (a, i) ->
      let c = add (count_expr vars a) (count_expr vars i) in
      { c with stores = c.stores +. 1.0; int_ops = c.int_ops +. 1.0 }

(** [trip_of sid static] resolves a loop's weight: static trip count if
    known, else the dynamic mean supplied by [dyn_trip]. *)
let rec count_stmt vars ~dyn_trip (s : Ast.stmt) : t =
  match s.snode with
  | Ast.Decl d ->
      Hashtbl.replace vars d.dname
        (match d.dsize with Some _ -> Ast.Tptr d.dtyp | None -> d.dtyp);
      (match d.dinit with Some e -> count_expr vars e | None -> zero)
  | Ast.Assign (lv, op, e) ->
      let c = add (count_lvalue vars lv) (count_expr vars e) in
      if op = Ast.Set then c
      else
        (* compound assignment re-reads and combines *)
        let fl =
          match lv with
          | Ast.Lindex (a, _) -> Intensity.expr_is_floaty vars a
          | Ast.Lvar v -> (
              match Hashtbl.find_opt vars v with
              | Some (Ast.Tfloat | Ast.Tdouble) -> true
              | _ -> false)
        in
        let c =
          match lv with
          | Ast.Lindex _ -> { c with loads = c.loads +. 1.0 }
          | Ast.Lvar _ -> c
        in
        if fl then { c with fadd = c.fadd +. 1.0 }
        else { c with int_ops = c.int_ops +. 1.0 }
  | Ast.Expr_stmt e -> count_expr vars e
  | Ast.Return (Some e) -> count_expr vars e
  | Ast.Return None -> zero
  | Ast.If (c, b1, b2) ->
      let cc = count_expr vars c in
      let c1 = count_block vars ~dyn_trip b1 in
      let c2 =
        match b2 with Some b -> count_block vars ~dyn_trip b | None -> zero
      in
      add cc (scale 0.5 (add c1 c2))
  | Ast.While (c, b) ->
      add (count_expr vars c) (count_block vars ~dyn_trip b)
  | Ast.For (h, b) ->
      Hashtbl.replace vars h.index Ast.Tint;
      let trips =
        match Artisan.Query.static_trip_count s with
        | Some n -> float_of_int n
        | None -> dyn_trip s.sid
      in
      scale trips (count_block vars ~dyn_trip b)
  | Ast.Block b -> count_block vars ~dyn_trip b

and count_block vars ~dyn_trip b =
  List.fold_left (fun acc s -> add acc (count_stmt vars ~dyn_trip s)) zero b

(** Operation census of one execution of [fname]'s body.

    @param dyn_trip resolves unknown loop bounds to a dynamic mean trip
      count (default: weight 1) *)
let of_function ?(dyn_trip = fun _ -> 1.0) (p : Ast.program) fname : t =
  let f = Ast.find_func p fname in
  let vars = Hashtbl.create 16 in
  List.iter
    (fun (pr : Ast.param) -> Hashtbl.replace vars pr.pname_ pr.ptyp)
    f.fparams;
  count_block vars ~dyn_trip f.fbody

(** Census of one iteration of the outermost loop of [fname]: the body of
    the kernel's outer loop, with inner loops weighted. *)
let per_outer_iteration ?(dyn_trip = fun _ -> 1.0) (p : Ast.program) fname : t =
  match
    Artisan.Query.(
      stmts_in ~where:(is_for &&& is_outermost_loop) p fname)
  with
  | m :: _ -> (
      match m.Artisan.Query.stmt.snode with
      | Ast.For (h, body) ->
          let f = Ast.find_func p fname in
          let vars = Hashtbl.create 16 in
          List.iter
            (fun (pr : Ast.param) -> Hashtbl.replace vars pr.pname_ pr.ptyp)
            f.fparams;
          Hashtbl.replace vars h.index Ast.Tint;
          count_block vars ~dyn_trip body
      | _ -> of_function ~dyn_trip p fname)
  | [] -> of_function ~dyn_trip p fname
