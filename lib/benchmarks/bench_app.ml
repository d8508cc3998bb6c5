(** Common shape of a benchmark application: a MiniC source generator
    parameterised by problem size, plus the sizes used for profiling,
    power-law fitting and paper-scale evaluation. *)

type t = {
  id : string;  (** short key, e.g. ["nbody"] *)
  name : string;  (** paper name, e.g. ["N-Body Simulation"] *)
  source : n:int -> string;  (** MiniC source at problem size [n] *)
  profile_n : int;  (** size the flow profiles at *)
  secondary_n : int;  (** second size for power-law fitting *)
  eval_n : int;  (** paper-scale size features are extrapolated to *)
  description : string;
}

(* Memoized per source digest: repeated submissions of the same
   benchmark at the same size share one parsed AST (see
   {!Psa.Stage_memo}). *)
let program (b : t) ~n = Psa.Stage_memo.parse (b.source ~n)

(** Fresh PSA-flow context for this benchmark, wired for workload
    extrapolation. *)
let context ?x_threshold ?budget (b : t) : Psa.Context.t =
  let reference = Psa.Stage_memo.parsed (b.source ~n:b.profile_n) in
  Psa.Context.make ~benchmark:b.id ~profile_n:b.profile_n
    ~secondary:(b.secondary_n, program b ~n:b.secondary_n)
    ~eval_n:b.eval_n ?x_threshold ?budget
    ~digest:(Psa.Stage_memo.program_digest reference)
    reference.program

(** The reference program at profiling size (Table I's LOC baseline). *)
let reference (b : t) = program b ~n:b.profile_n
