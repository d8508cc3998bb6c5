(** Dynamic pointer alias analysis: ensures kernel pointer arguments do
    not reference overlapping memory (the paper's offload precondition),
    from the per-argument touched ranges the profiling run records for
    the tracked hotspot loop. *)

open Minic

type overlap = {
  arg_a : string;
  arg_b : string;
  region : int;
  range_a : int * int;
  range_b : int * int;
}

type t = {
  kernel : string;
  no_alias : bool;
  overlaps : overlap list;
}

(** Analyse already-collected kernel observations. *)
val of_kernel_obs : kernel:string -> Minic_interp.Profile.kernel_obs -> t

(** Project the alias verdict of tracked loop [loop_sid] out of a fused
    profile. *)
val of_fused :
  Minic_interp.Fused_profile.t -> loop_sid:int -> kernel:string -> t
