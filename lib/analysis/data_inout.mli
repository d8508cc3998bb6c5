(** Dynamic data in/out (data movement) analysis: per pointer argument,
    the bytes an accelerator offload would have to move — elements whose
    first kernel access is a read (host->device) and elements written
    (device->host), accumulated over every kernel invocation. *)

open Minic

type arg = { name : string; bytes_in : int; bytes_out : int }

type t = {
  kernel : string;
  calls : int;
  args : arg list;
  total_in : int;
  total_out : int;
  kernel_cycles : float;  (** single-thread CPU cycles in the kernel *)
  kernel_flops : int;
}

val total : t -> int

(** Project data movement of calls to [kernel] out of already-collected
    kernel observations. *)
val of_kernel_obs : kernel:string -> Minic_interp.Profile.kernel_obs -> t

(** Project the data movement of tracked loop [loop_sid] out of a fused
    profile. *)
val of_fused :
  Minic_interp.Fused_profile.t -> loop_sid:int -> kernel:string -> t

val pp : Format.formatter -> t -> unit
