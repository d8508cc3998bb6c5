(** Hotspot loop detection — dynamic design-flow task.

    Executes the program (one shared fused profiling run, see
    {!Minic_interp.Fused_profile}) and identifies the most
    time-consuming loop as the acceleration candidate, descending
    through sequential driver loops (convergence iterations, ODE
    timestepping) to the parallel work loop inside.  Detection projects
    the interpreter's per-loop cycle accounting, which measures
    bit-identically what the paper's timer instrumentation would; the
    instrumentation helper ({!instrument}) is kept as the reference the
    projection is tested against. *)

open Minic

type t = {
  loop_sid : int;
      (** node id of the hotspot loop, the same in every parse of the
          source template (e.g. the secondary-workload-size copy) *)
  func_name : string;
  cycles : float;  (** virtual cycles spent in the loop (inclusive) *)
  total_cycles : float;
  share : float;  (** fraction of program time spent in the loop *)
  descended_from : int list;  (** enclosing loops skipped as sequential *)
}

val pp : Format.formatter -> t -> unit

(** Fraction of a parent loop's time a nested loop must capture for the
    selection to descend into it. *)
val descend_threshold : float

(** All candidate loops of [func] (default ["main"]), any depth. *)
val candidates : ?func:string -> Ast.program -> Artisan.Query.match_ctx list

(** Instrument each candidate loop with a timer keyed by its node id
    (the paper's mechanism — reference for the fused projection). *)
val instrument : ?func:string -> Ast.program -> Ast.program

(** The loops {!of_fused}'s descent can reach — the top-level candidate
    loops of [func] (default ["main"]) and, recursively, the children of
    those {!Dependence.analyze_loop} finds sequential — each with the
    pointer parameters of the kernel extraction would make of it, in
    parameter order ({!Artisan.Query.kernel_params}).  Loops with an
    untypable free variable are left out: they cannot be extracted.
    A function of the program. *)
val tracked : ?func:string -> Ast.program -> Minic_interp.Eval.track

(** The fused profile of [p] that tracks loop [loop_sid]: the one shared
    run tracking {!tracked} when the loop is in that set (or no loop is
    given), else one more run tracking that loop alone.  The only entry
    point that fills {!Minic_interp.Profile_cache}. *)
val fused : ?loop_sid:int -> Ast.program -> Minic_interp.Fused_profile.t

(** Project the hotspot loop out of a fused profile of the program;
    [None] when the function contains no loop. *)
val of_fused : ?func:string -> Minic_interp.Fused_profile.t -> t option

(** Detect the hotspot loop (one shared fused profiling run, then a pure
    projection); [None] when the function contains no loop. *)
val detect : ?func:string -> Ast.program -> t option
