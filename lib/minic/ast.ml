(** Abstract syntax tree for MiniC, the C-like kernel language in which
    all benchmark applications are written.

    MiniC plays the role of the C++ subset that the paper's Artisan
    framework operates on: it has functions, scalar types (with an explicit
    single/double precision distinction so that the "employ SP math
    functions / numeric literals" transforms are meaningful), pointers and
    arrays, canonical [for] loops, compound assignments ([+=] etc., needed
    by the "remove array += dependency" transform), calls to math builtins,
    and [#pragma] annotations attached to statements.

    Every expression and statement carries an integer id, unique within
    its program.  Ids are the handles used by the meta-programming layer
    ({!module:Artisan}) to address nodes for querying and instrumentation,
    exactly as Artisan addresses Clang AST nodes.  They are a function of
    the program alone: the parser numbers statements and expressions
    pre-order from 1, and a node a transform synthesizes is built with
    {!placeholder_id} and takes the next unused id of the program it is
    spliced into when {!number} runs (the parser and the program-level
    rewriting entry points call it).  Transformations preserve the ids of
    nodes they do not touch, so analysis results keyed by id remain valid
    across instrumentation passes. *)

(** Scalar and pointer types. *)
type typ =
  | Tvoid
  | Tbool
  | Tint
  | Tfloat  (** single precision *)
  | Tdouble  (** double precision *)
  | Tptr of typ

(** Floating-point literal precision. [Single] literals print with an 'f'
    suffix, as produced by the "employ SP numeric literals" transform. *)
type fkind = Single | Double

type unop = Neg | Not

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | LAnd
  | LOr

(** Compound-assignment operators: [x = e], [x += e], ... *)
type assign_op = Set | AddEq | SubEq | MulEq | DivEq

type expr = { eid : int; enode : enode; eloc : Loc.t }

and enode =
  | Int_lit of int
  | Float_lit of float * fkind
  | Bool_lit of bool
  | Var of string
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Index of expr * expr  (** [a[i]] *)
  | Call of string * expr list
  | Cast of typ * expr

(** Assignment targets: a scalar variable or an array element. *)
type lvalue = Lvar of string | Lindex of expr * expr

(** A pragma annotation attached to a statement, e.g.
    [#pragma omp parallel for] is [{ pname = "omp"; pargs = ["parallel"; "for"] }]. *)
type pragma = { pname : string; pargs : string list }

(** Canonical [for]-loop header: [for (int index = init; index < bound; index += step)].
    The comparison is [<] when [inclusive] is false and [<=] otherwise.
    Canonical headers are what the loop analyses (trip count, dependence)
    reason about; MiniC's parser only accepts canonical loops, matching the
    paper's benchmarks which are all counted loops. *)
type for_header = {
  index : string;
  init : expr;
  bound : expr;
  inclusive : bool;
  step : expr;
}

type stmt = { sid : int; snode : snode; sloc : Loc.t; pragmas : pragma list }

and snode =
  | Decl of decl
  | Assign of lvalue * assign_op * expr
  | Expr_stmt of expr
  | If of expr * block * block option
  | For of for_header * block
  | While of expr * block
  | Return of expr option
  | Block of block

and decl = {
  dtyp : typ;
  dname : string;
  dsize : expr option;  (** [Some n] for an array declaration [T name[n]] *)
  dinit : expr option;
}

and block = stmt list

(** Function parameter. *)
type param = { ptyp : typ; pname_ : string }

type func = {
  fname : string;
  fret : typ;
  fparams : param list;
  fbody : block;
  floc : Loc.t;
}

(** A whole translation unit: global declarations followed by functions.
    Execution starts at the function named ["main"]. *)
type program = { globals : stmt list; funcs : func list }

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

(** The id of a node not yet numbered; real ids start at 1. *)
let placeholder_id = 0

let mk_expr ?(loc = Loc.none) enode = { eid = placeholder_id; enode; eloc = loc }

let mk_stmt ?(loc = Loc.none) ?(pragmas = []) snode =
  { sid = placeholder_id; snode; sloc = loc; pragmas }

(* ------------------------------------------------------------------ *)
(* Generic traversal                                                   *)
(* ------------------------------------------------------------------ *)

(** [iter_expr f e] applies [f] to [e] and all its sub-expressions,
    pre-order. *)
let rec iter_expr f e =
  f e;
  match e.enode with
  | Int_lit _ | Float_lit _ | Bool_lit _ | Var _ -> ()
  | Unop (_, a) | Cast (_, a) -> iter_expr f a
  | Binop (_, a, b) | Index (a, b) ->
      iter_expr f a;
      iter_expr f b
  | Call (_, args) -> List.iter (iter_expr f) args

(** Expressions appearing directly in a statement (not in nested
    statements). *)
let stmt_exprs s =
  match s.snode with
  | Decl d -> Option.to_list d.dsize @ Option.to_list d.dinit
  | Assign (lv, _, e) -> (
      match lv with Lvar _ -> [ e ] | Lindex (a, i) -> [ a; i; e ])
  | Expr_stmt e -> [ e ]
  | If (c, _, _) -> [ c ]
  | For (h, _) -> [ h.init; h.bound; h.step ]
  | While (c, _) -> [ c ]
  | Return eo -> Option.to_list eo
  | Block _ -> []

(** Sub-blocks of a statement. *)
let stmt_blocks s =
  match s.snode with
  | If (_, b1, b2) -> b1 :: Option.to_list b2
  | For (_, b) | While (_, b) -> [ b ]
  | Block b -> [ b ]
  | Decl _ | Assign _ | Expr_stmt _ | Return _ -> []

(** [iter_stmt f s] applies [f] to [s] and all nested statements,
    pre-order. *)
let rec iter_stmt f s =
  f s;
  List.iter (fun b -> List.iter (iter_stmt f) b) (stmt_blocks s)

(** Apply [f] to every statement in a block, pre-order. *)
let iter_block f b = List.iter (iter_stmt f) b

(** Apply [f] to every statement of a function body. *)
let iter_func f fn = iter_block f fn.fbody

(** Apply [fs] to every statement and [fe] to every expression of a
    program, pre-order. *)
let iter_program ?(fs = fun _ -> ()) ?(fe = fun _ -> ()) p =
  let on_stmt s =
    fs s;
    List.iter (iter_expr fe) (stmt_exprs s)
  in
  List.iter (iter_stmt on_stmt) p.globals;
  List.iter (fun fn -> iter_block on_stmt fn.fbody) p.funcs

(** [digest ?loop p] is the content key of [p] for memo tables: an MD5
    digest of a prefix-free binary encoding of everything
    {!Pretty.program_to_string} prints — globals, signatures,
    statements, operators, names, pragmas, int literals, and float
    literals as their raw bits plus {!fkind} — with each [For]/[While]
    statement's id inline in pre-order, then the optional [loop] id.
    Locations and other node ids stay out, so equal digests mean equal
    printed text and equal loop ids.  Loop ids belong in the key because
    profile statistics and ["loop #N"] log lines are keyed by them, and
    text does not determine them.  The encoding goes into a per-domain
    scratch that grows to the largest program digested and is reused,
    so a repeat digest allocates no buffer. *)
let digest_scratch =
  Domain.DLS.new_key (fun () -> Atomic.make (Bytes.create 4096))

let digest ?loop p =
  (* the scratch leaves its slot while in use: a thread of this domain
     that digests meanwhile finds the slot empty and encodes into a
     fresh one *)
  let slot = Domain.DLS.get digest_scratch in
  let scratch =
    let b = Atomic.exchange slot Bytes.empty in
    ref (if Bytes.length b = 0 then Bytes.create 4096 else b)
  in
  let pos = ref 0 in
  (* room for [n] more bytes at [!pos] *)
  let reserve n =
    let b = !scratch in
    if !pos + n > Bytes.length b then (
      let nb = Bytes.create (max (2 * Bytes.length b) (!pos + n)) in
      Bytes.blit b 0 nb 0 !pos;
      scratch := nb)
  in
  let tag c =
    reserve 1;
    Bytes.unsafe_set !scratch !pos c;
    incr pos
  in
  (* LEB128 of the zigzag image: small ids and lengths take one byte *)
  let int n =
    let rec go z =
      if z lsr 7 = 0 then tag (Char.unsafe_chr z)
      else (
        tag (Char.unsafe_chr (z land 0x7f lor 0x80));
        go (z lsr 7))
    in
    go ((n lsl 1) lxor (n asr (Sys.int_size - 1)))
  in
  let str s =
    let n = String.length s in
    int n;
    reserve n;
    Bytes.blit_string s 0 !scratch !pos n;
    pos := !pos + n
  in
  let list f l =
    int (List.length l);
    List.iter f l
  in
  let opt f = function
    | None -> tag '0'
    | Some x ->
        tag '1';
        f x
  in
  let rec typ = function
    | Tvoid -> tag 'v'
    | Tbool -> tag 'b'
    | Tint -> tag 'i'
    | Tfloat -> tag 'f'
    | Tdouble -> tag 'd'
    | Tptr t ->
        tag '*';
        typ t
  in
  let rec expr e =
    match e.enode with
    | Int_lit n ->
        tag 'I';
        int n
    | Float_lit (f, k) ->
        tag (match k with Single -> 'S' | Double -> 'D');
        reserve 8;
        Bytes.set_int64_le !scratch !pos (Int64.bits_of_float f);
        pos := !pos + 8
    | Bool_lit b -> tag (if b then 'T' else 'F')
    | Var v ->
        tag 'V';
        str v
    | Unop (op, a) ->
        tag (match op with Neg -> 'N' | Not -> '!');
        expr a
    | Binop (op, a, b) ->
        tag 'B';
        tag
          (match op with
          | Add -> '+' | Sub -> '-' | Mul -> '*' | Div -> '/' | Mod -> '%'
          | Lt -> '<' | Le -> 'l' | Gt -> '>' | Ge -> 'g' | Eq -> '='
          | Ne -> 'n' | LAnd -> '&' | LOr -> '|');
        expr a;
        expr b
    | Index (a, i) ->
        tag '[';
        expr a;
        expr i
    | Call (f, args) ->
        tag 'C';
        str f;
        list expr args
    | Cast (t, a) ->
        tag '(';
        typ t;
        expr a
  in
  let assign op e =
    tag
      (match op with
      | Set -> '=' | AddEq -> '+' | SubEq -> '-' | MulEq -> '*' | DivEq -> '/');
    expr e
  in
  let rec stmt s =
    list
      (fun pr ->
        str pr.pname;
        list str pr.pargs)
      s.pragmas;
    match s.snode with
    | Decl d ->
        tag 'd';
        typ d.dtyp;
        str d.dname;
        opt expr d.dsize;
        opt expr d.dinit
    | Assign (Lvar v, op, e) ->
        tag 'a';
        str v;
        assign op e
    | Assign (Lindex (a, i), op, e) ->
        tag 'x';
        expr a;
        expr i;
        assign op e
    | Expr_stmt e ->
        tag 'e';
        expr e
    | If (c, b1, b2) ->
        tag 'i';
        expr c;
        block b1;
        opt block b2
    | For (h, b) ->
        tag 'f';
        int s.sid;
        str h.index;
        expr h.init;
        tag (if h.inclusive then 'l' else '<');
        expr h.bound;
        expr h.step;
        block b
    | While (c, b) ->
        tag 'w';
        int s.sid;
        expr c;
        block b
    | Return eo ->
        tag 'r';
        opt expr eo
    | Block b ->
        tag '{';
        block b
  and block b = list stmt b in
  block p.globals;
  list
    (fun fn ->
      typ fn.fret;
      str fn.fname;
      list
        (fun pa ->
          typ pa.ptyp;
          str pa.pname_)
        fn.fparams;
      block fn.fbody)
    p.funcs;
  opt int loop;
  let d = Digest.subbytes !scratch 0 !pos in
  Atomic.set slot !scratch;
  d

(** Find the function named [name]. Raises [Not_found]. *)
let find_func p name = List.find (fun f -> f.fname = name) p.funcs

let find_func_opt p name = List.find_opt (fun f -> f.fname = name) p.funcs

(** All statements of a program as a flat pre-order list. *)
let all_stmts p =
  let acc = ref [] in
  iter_program ~fs:(fun s -> acc := s :: !acc) p;
  List.rev !acc

(** All statement ids occurring in a program. *)
let all_stmt_ids p = List.map (fun s -> s.sid) (all_stmts p)

(** True if any node id appears twice in the program; transformations
    must never produce such a program. *)
let has_duplicate_ids p =
  let tbl = Hashtbl.create 256 in
  let dup = ref false in
  let check id =
    if Hashtbl.mem tbl id then dup := true else Hashtbl.add tbl id ()
  in
  iter_program ~fs:(fun s -> check s.sid) ~fe:(fun e -> check e.eid) p;
  !dup

(** [map_ids_expr f e] rebuilds [e] with every node id [id] replaced by
    [f id], calling [f] in the pre-order of {!iter_expr}. *)
let rec map_ids_expr f e =
  (* explicit [let]s fix the call order: OCaml leaves the evaluation
     order of constructor and record arguments unspecified *)
  let eid = f e.eid in
  let enode =
    match e.enode with
    | (Int_lit _ | Float_lit _ | Bool_lit _ | Var _) as n -> n
    | Unop (op, a) -> Unop (op, map_ids_expr f a)
    | Binop (op, a, b) ->
        let a = map_ids_expr f a in
        Binop (op, a, map_ids_expr f b)
    | Index (a, i) ->
        let a = map_ids_expr f a in
        Index (a, map_ids_expr f i)
    | Call (name, args) -> Call (name, List.map (map_ids_expr f) args)
    | Cast (t, a) -> Cast (t, map_ids_expr f a)
  in
  { e with eid; enode }

(** [map_ids_stmt f s] rebuilds [s] like {!map_ids_expr}, in the
    pre-order of {!iter_program}: a statement, its own expressions, then
    its sub-blocks. *)
let rec map_ids_stmt f s =
  let ex = map_ids_expr f and blk = List.map (map_ids_stmt f) in
  let sid = f s.sid in
  let snode =
    match s.snode with
    | Decl d ->
        let dsize = Option.map ex d.dsize in
        Decl { d with dsize; dinit = Option.map ex d.dinit }
    | Assign (Lvar v, op, e) -> Assign (Lvar v, op, ex e)
    | Assign (Lindex (a, i), op, e) ->
        let a = ex a in
        let i = ex i in
        Assign (Lindex (a, i), op, ex e)
    | Expr_stmt e -> Expr_stmt (ex e)
    | If (c, b1, b2) ->
        let c = ex c in
        let b1 = blk b1 in
        If (c, b1, Option.map blk b2)
    | For (h, b) ->
        let init = ex h.init in
        let bound = ex h.bound in
        let step = ex h.step in
        For ({ h with init; bound; step }, blk b)
    | While (c, b) ->
        let c = ex c in
        While (c, blk b)
    | Return eo -> Return (Option.map ex eo)
    | Block b -> Block (blk b)
  in
  { s with sid; snode }

(** True if [e], or a node under it, carries {!placeholder_id}. *)
let expr_holds_placeholder e =
  let found = ref false in
  iter_expr (fun e -> if e.eid = placeholder_id then found := true) e;
  !found

(** True if [s], or a node under it, carries {!placeholder_id}. *)
let stmt_holds_placeholder s =
  let found = ref false in
  iter_stmt
    (fun s ->
      if
        s.sid = placeholder_id
        || List.exists expr_holds_placeholder (stmt_exprs s)
      then found := true)
    s;
  !found

(** Give every {!placeholder_id} node of [p] the next unused id —
    [max_id + 1], [max_id + 2], ... — in the pre-order of
    {!iter_program}.  Numbered nodes keep their ids, so on a fresh parse
    (all placeholders) the ids are exactly [1..n] in pre-order.  Only
    the top-level statements that hold a placeholder are rebuilt. *)
let number p =
  let top = ref 0 in
  let see id = if id > !top then top := id in
  iter_program ~fs:(fun s -> see s.sid) ~fe:(fun e -> see e.eid) p;
  let next id =
    if id <> placeholder_id then id
    else (
      incr top;
      !top)
  in
  let block =
    List.map (fun s ->
        if stmt_holds_placeholder s then map_ids_stmt next s else s)
  in
  let globals = block p.globals in
  { globals; funcs = List.map (fun f -> { f with fbody = block f.fbody }) p.funcs }

(* ------------------------------------------------------------------ *)
(* Type utilities                                                      *)
(* ------------------------------------------------------------------ *)

let rec string_of_typ = function
  | Tvoid -> "void"
  | Tbool -> "bool"
  | Tint -> "int"
  | Tfloat -> "float"
  | Tdouble -> "double"
  | Tptr t -> string_of_typ t ^ "*"

let is_float_typ = function Tfloat | Tdouble -> true | _ -> false

(** Size in bytes of a scalar of type [t] (pointers are 8 bytes). *)
let sizeof = function
  | Tvoid -> 0
  | Tbool -> 1
  | Tint -> 4
  | Tfloat -> 4
  | Tdouble -> 8
  | Tptr _ -> 8
