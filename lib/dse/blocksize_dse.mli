(** GPU blocksize DSE ("GTX 1080 / RTX 2080 Blocksize DSE").

    Sweeps the launch blocksize over the architecturally valid range and
    keeps the value minimising modelled execution time.  The same kernel
    typically lands on different blocksizes per device because register
    files, SM counts and occupancy curves differ. *)

type step = {
  blocksize : int;
  occupancy : float;
  seconds : float;
  feasible : bool;
}

type result = {
  design : Codegen.Design.t;  (** with the chosen blocksize *)
  chosen_blocksize : int;
  steps : step list;
  decision : Flow_obs.Provenance.decision;  (** the sweep's provenance *)
}

(** The swept blocksizes (filtered to the device maximum at run time). *)
val candidate_blocksizes : int list

(** Run the DSE for a HIP design on its GPU device. *)
val run : Codegen.Design.t -> Analysis.Features.t -> result
