(** Instrumentation — the analogue of Artisan's [instrument] mechanism.

    Operations address statements by node id (obtained from a
    {!Query.match_ctx}) and modify the program in place, mirroring
    [instrument(before, loop, #pragma unroll $n)] from the paper's Fig. 2
    meta-program.  The statement operations are built on {!Rewrite}, so
    the nodes they splice in take the next unused ids. *)

open Minic

exception Not_found_id of int

let check_found target found =
  if not !found then raise (Not_found_id target)

(** Insert [new_stmt] immediately before the statement with id [target]. *)
let insert_before ~target new_stmt (p : Ast.program) : Ast.program =
  let found = ref false in
  let p =
    Rewrite.edit_stmts
      (fun s ->
        if s.Ast.sid = target then (
          found := true;
          [ new_stmt; s ])
        else [ s ])
      p
  in
  check_found target found;
  p

(** Insert [new_stmt] immediately after the statement with id [target]. *)
let insert_after ~target new_stmt (p : Ast.program) : Ast.program =
  let found = ref false in
  let p =
    Rewrite.edit_stmts
      (fun s ->
        if s.Ast.sid = target then (
          found := true;
          [ s; new_stmt ])
        else [ s ])
      p
  in
  check_found target found;
  p

(** Replace the statement with id [target] by [stmts] (empty = delete). *)
let replace ~target stmts (p : Ast.program) : Ast.program =
  let found = ref false in
  let p =
    Rewrite.edit_stmts
      (fun s ->
        if s.Ast.sid = target then (
          found := true;
          stmts)
        else [ s ])
      p
  in
  check_found target found;
  p

(** Rewrite the statement with id [target] through [f] (id-preserving if
    [f] is). *)
let update ~target f (p : Ast.program) : Ast.program =
  let found = ref false in
  let p =
    Rewrite.edit_stmts
      (fun s ->
        if s.Ast.sid = target then (
          found := true;
          [ f s ])
        else [ s ])
      p
  in
  check_found target found;
  p

(** Attach a pragma to the statement with id [target], e.g.
    [add_pragma ~target { pname = "unroll"; pargs = ["4"] }]. *)
let add_pragma ~target pragma (p : Ast.program) : Ast.program =
  update ~target (fun s -> { s with Ast.pragmas = s.Ast.pragmas @ [ pragma ] }) p

(** Remove all pragmas named [name] from the statement with id [target]. *)
let remove_pragma ~target name (p : Ast.program) : Ast.program =
  update ~target
    (fun s ->
      {
        s with
        Ast.pragmas =
          List.filter (fun (pr : Ast.pragma) -> pr.pname <> name) s.Ast.pragmas;
      })
    p

(** Replace the pragma named [name] (first occurrence) or add it. *)
let set_pragma ~target (pragma : Ast.pragma) (p : Ast.program) : Ast.program =
  update ~target
    (fun s ->
      let rest =
        List.filter
          (fun (pr : Ast.pragma) -> pr.pname <> pragma.pname)
          s.Ast.pragmas
      in
      { s with Ast.pragmas = rest @ [ pragma ] })
    p

(** Wrap the statement with id [target] in [__timer_start k] /
    [__timer_stop k] calls — the loop-timer instrumentation used by the
    hotspot-detection task. *)
let wrap_with_timer ~target ~key (p : Ast.program) : Ast.program =
  let start = Builder.call_stmt "__timer_start" [ Builder.int key ] in
  let stop = Builder.call_stmt "__timer_stop" [ Builder.int key ] in
  let found = ref false in
  let p =
    Rewrite.edit_stmts
      (fun s ->
        if s.Ast.sid = target then (
          found := true;
          [ start; s; stop ])
        else [ s ])
      p
  in
  check_found target found;
  p

(** Add a function to the program (before existing ones that call it is
    irrelevant: MiniC resolves calls by name over the whole unit). *)
let add_func fn (p : Ast.program) : Ast.program =
  { p with Ast.funcs = fn :: p.Ast.funcs }

(** Replace the function named [name]. *)
let replace_func ~name fn (p : Ast.program) : Ast.program =
  {
    p with
    Ast.funcs =
      List.map (fun f -> if f.Ast.fname = name then fn else f) p.Ast.funcs;
  }

(** Rename a function and all calls to it. *)
let rename_func ~from ~into (p : Ast.program) : Ast.program =
  let p =
    Rewrite.map_exprs
      (fun e ->
        match e.Ast.enode with
        | Ast.Call (f, args) when f = from ->
            { e with Ast.enode = Ast.Call (into, args) }
        | _ -> e)
      p
  in
  {
    p with
    Ast.funcs =
      List.map
        (fun f -> if f.Ast.fname = from then { f with Ast.fname = into } else f)
        p.Ast.funcs;
  }

(** Export: render the (possibly instrumented) program back to source
    text — Artisan's [ast.export(mod_src)]. *)
let export (p : Ast.program) : string = Pretty.program_to_string p

(** Export to a file. *)
let export_file (p : Ast.program) path =
  let oc = open_out path in
  output_string oc (export p);
  close_out oc
