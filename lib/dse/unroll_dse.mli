(** "Unroll Until Overmap" DSE — the meta-program of the paper's Fig. 2.

    Doubles the kernel's outer-loop unroll factor, reading the FPGA
    resource model's utilisation report after each step, until the device
    overmaps (> 90 %).  The last fitting design is kept; a design whose
    single-pipeline configuration already exceeds the device is
    unsynthesizable (the paper's Rush Larsen outcome). *)

type step = {
  factor : int;
  utilization : float;
  alm_util : float;
  dsp_util : float;
  overmapped : bool;  (** above the 90 % DSE cutoff *)
}

type result = {
  design : Codegen.Design.t;  (** annotated with the chosen factor *)
  chosen_factor : int;
  synthesizable : bool;
  steps : step list;  (** DSE trajectory, in exploration order *)
  decision : Flow_obs.Provenance.decision;  (** the sweep's provenance *)
}

(** Upper bound on explored factors (runaway guard). *)
val max_factor : int

(** Run the DSE for a oneAPI design on its FPGA device. *)
val run : Codegen.Design.t -> Analysis.Features.t -> result
