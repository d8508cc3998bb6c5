(** AST query engine — the analogue of Artisan's [query] mechanism.

    A query is a predicate over a {!match_ctx} (a statement with its
    enclosing function and statement stack) or an {!expr_ctx}.
    Predicates compose with {!(&&&)}, {!(|||)} and {!not_}, mirroring the
    paper's Fig. 2 pseudocode:

    {v query(∀loop,fn ∈ ast: loop.isForStmt ∧ fn.name = kernel_name
             ∧ fn.encloses(loop) ∧ loop.is_outermost) v} *)

open Minic

(** A statement match: the matched statement, its enclosing function, and
    the statements enclosing it (innermost first). *)
type match_ctx = {
  func : Ast.func;
  path : Ast.stmt list;  (** enclosing statements, innermost first *)
  stmt : Ast.stmt;
}

type pred = match_ctx -> bool

(** Predicate conjunction. *)
val ( &&& ) : pred -> pred -> pred

(** Predicate disjunction. *)
val ( ||| ) : pred -> pred -> pred

val not_ : pred -> pred

(** Matches everything. *)
val always : pred

(** {1 Statement predicates} *)

val is_for : pred
val is_while : pred
val is_loop : pred

(** Raw statement test used by other analyses. *)
val is_stmt_loop : Ast.stmt -> bool

(** The matched node is in the function named [name]. *)
val in_function : string -> pred

(** No enclosing statement (within the same function) is a loop. *)
val is_outermost_loop : pred

(** Matched loop contains no nested loop. *)
val is_innermost_loop : pred

(** Some enclosing statement is a loop. *)
val enclosed_by_loop : pred

(** Loop nesting depth of the matched statement (0 = not inside a loop). *)
val loop_depth : match_ctx -> int

val has_pragma : string -> pred

(** For-loop whose bounds are compile-time integer literals ("fixed"),
    the precondition of the FPGA "unroll fixed loops" transform. *)
val has_fixed_bound : pred

(** Trip count of a fixed-bound canonical loop, when statically known. *)
val static_trip_count : Ast.stmt -> int option

(** {1 Running statement queries} *)

(** All statement matches of [where] in the program, pre-order within
    each function. *)
val stmts : ?where:pred -> Ast.program -> match_ctx list

(** First match, if any. *)
val first : ?where:pred -> Ast.program -> match_ctx option

(** Matches restricted to one function. *)
val stmts_in : ?where:pred -> Ast.program -> string -> match_ctx list

(** {1 Expression queries} *)

(** An expression match: the expression plus the statement and function
    containing it. *)
type expr_ctx = { efunc : Ast.func; estmt : Ast.stmt; expr : Ast.expr }

type epred = expr_ctx -> bool

(** Matches calls; [?name] restricts to one callee. *)
val is_call : ?name:string -> epred

val is_float_literal : epred
val is_double_literal : epred

(** All expression matches in the program. *)
val exprs : ?where:epred -> Ast.program -> expr_ctx list

(** Expression matches within one function. *)
val exprs_in : ?where:epred -> Ast.program -> string -> expr_ctx list

(** Names of all functions called within function [fname], sorted and
    deduplicated. *)
val callees : Ast.program -> string -> string list

(** {1 Kernel parameters} *)

(** Variables used by the statement but not declared within it (nor a
    loop index of a loop inside it), in first-use order. *)
val free_vars : Ast.stmt -> string list

(** Declared types of the globals and of [f]'s parameters, locals and
    loop indices (arrays as pointers). *)
val var_types : Ast.program -> Ast.func -> (string, Ast.typ) Hashtbl.t

(** The parameters of the kernel extracted from loop [stmt] of [f]: its
    non-builtin free variables in first-use order, typed in [f].
    [Error v] names the first free variable with no type.  Extraction
    builds the kernel's signature from it, and the profiling run tracks
    the loop's pointer arguments in the same order. *)
val kernel_params :
  Ast.program -> Ast.func -> Ast.stmt -> ((Ast.typ * string) list, string) result
