(** "OMP Num Threads DSE".

    Sweeps the OpenMP thread count (powers of two up to the core count)
    and keeps the fastest — the maximum available threads for the
    paper's embarrassingly parallel benchmarks, yielding the 28-30x
    Fig. 5 CPU bars. *)

type step = { threads : int; seconds : float; speedup : float }

type result = {
  design : Codegen.Design.t;  (** with the chosen thread count *)
  chosen_threads : int;
  steps : step list;
  decision : Flow_obs.Provenance.decision;  (** the sweep's provenance *)
}

(** Run the DSE for an OpenMP design on its CPU device. *)
val run : Codegen.Design.t -> Analysis.Features.t -> result
