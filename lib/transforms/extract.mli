(** Hotspot loop extraction — target-independent transform.

    Extracts an identified hotspot loop into an isolated kernel function
    (free variables become parameters: arrays as pointers, scalars by
    value) and replaces the loop with a call, as the paper's partitioning
    stage describes. *)

open Minic

exception Not_extractable of string

(** Default name given to the extracted kernel ("hotspot_kernel"). *)
val default_kernel_name : string

(** Free scalar variables the statement writes (extraction blockers). *)
val written_free_scalars : Ast.stmt -> string list

type result = {
  program : Ast.program;  (** program with the kernel function added *)
  kernel_name : string;
  params : (Ast.typ * string) list;
  loop_sid : int;  (** the hotspot loop's id, preserved inside the kernel *)
}

(** Extract the loop with node id [loop_sid] out of [func] (default
    ["main"]) into a new kernel function.
    @raise Not_extractable if the loop writes free scalars or cannot be
      found *)
val hotspot :
  ?kernel_name:string -> ?func:string -> Ast.program -> loop_sid:int -> result

(** Detect the hotspot and extract it in one step. *)
val detect_and_extract :
  ?kernel_name:string -> ?func:string -> Ast.program -> result option
