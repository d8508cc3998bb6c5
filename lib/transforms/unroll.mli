(** Loop unrolling — FPGA-path transforms.

    Three forms: literal replication of fixed-bound loops, HLS-style
    full-unroll annotation of fixed inner loops ("Unroll Fixed Loops"),
    and the factor annotation the unroll-until-overmap DSE iterates
    (the paper's Fig. 2). *)

open Minic

exception Cannot_unroll of string

(** Literally replace a fixed-bound canonical loop by its fully unrolled
    body, the index substituted by its constant value (the copies take
    new ids when spliced in).
    @raise Cannot_unroll on runtime bounds or non-loops *)
val full_unroll_stmt : Ast.stmt -> Ast.block

(** Literally unroll every fixed-bound inner loop of [kernel] with trip
    count at most [threshold].  Returns the program and the number of
    loops unrolled. *)
val unroll_fixed_inner_loops :
  ?threshold:int -> Ast.program -> kernel:string -> Ast.program * int

(** Annotate every fixed-bound inner loop with a bare [#pragma unroll]
    (HLS full-unroll convention, keeps the exported source compact).
    Returns the program and the number of loops annotated. *)
val annotate_fixed_inner_loops :
  ?threshold:int -> Ast.program -> kernel:string -> Ast.program * int

(** Attach (or update) [#pragma unroll N] on the statement with id
    [target]. *)
val annotate_unroll : target:int -> factor:int -> Ast.program -> Ast.program

(** The unroll factor annotated on a statement, if any. *)
val annotated_factor : Ast.stmt -> int option

(** Unroll factor annotated on the kernel's outermost loop (1 if none). *)
val kernel_unroll_factor : Ast.program -> kernel:string -> int
