(** Static type checker for MiniC programs.

    Besides the C typing rules it gives every name one type: a function
    may not declare a name twice with different types (parameters and
    [for] indexes count as declarations), the globals may not declare a
    name twice, and a global block holds declarations only.  A local
    may shadow a global of another type; it is then that local
    throughout the function. *)

(** Raised on the first violation found, with a message and location. *)
exception Type_error of string * Loc.t

(** Type-check a whole program.

    @param allow_unknown_calls accept calls to functions MiniC does not
      know (the target-runtime management calls in generated designs);
      default false
    @raise Type_error on the first violation *)
val check_program : ?allow_unknown_calls:bool -> Ast.program -> unit

(** The type a declaration gives its name: a pointer to the element
    type for an array. *)
val declared_type : Ast.decl -> Ast.typ

(** [true] iff the program type-checks. *)
val is_well_typed : ?allow_unknown_calls:bool -> Ast.program -> bool
