(** A generated design: one concrete implementation of the application
    for one target, produced by a PSA-flow path — the generated source,
    the tuning knobs the device-specific DSE set, and the flags the
    optimisation transforms recorded. *)

open Minic

type target = Cpu_openmp | Gpu_hip | Fpga_oneapi

(** e.g. "HIP CPU+GPU". *)
val target_to_string : target -> string

(** e.g. "HIP". *)
val target_framework : target -> string

type t = {
  name : string;  (** e.g. ["hip_rtx2080ti"] *)
  target : target;
  device_id : string;  (** key into {!Devices.Spec} *)
  program : Ast.program;
      (** the generated, human-readable source; added management code
          keeps placeholder ids (only kernel loops are addressed by id) *)
  kernel : string;  (** host-side kernel entry point *)
  device_kernel : string;  (** device-side kernel function name *)
  unroll_factor : int;
  blocksize : int;
  num_threads : int;
  single_precision : bool;
  pinned_memory : bool;
  zero_copy : bool;
  shared_mem : bool;
  gpu_intrinsics : bool;
  reductions_removed : bool;
  synthesizable : bool;
      (** false when the DSE found the design overmaps its device even
          at the minimum configuration (the paper's Rush Larsen case) *)
  notes : string list;  (** human-readable log of applied tasks *)
}

(** Fresh design with default knobs and no flags. *)
val make :
  name:string ->
  target:target ->
  device_id:string ->
  program:Ast.program ->
  kernel:string ->
  device_kernel:string ->
  t

(** Append a human-readable note. *)
val note : string -> t -> t

(** Added lines of code relative to the reference program (Table I). *)
val loc_delta : reference:Ast.program -> t -> int

val loc_delta_percent : reference:Ast.program -> t -> float

(** Export the generated source text. *)
val export : t -> string

val pp_summary : Format.formatter -> t -> unit
