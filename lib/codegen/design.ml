(** A generated design: one concrete implementation of the application for
    one target, produced by a PSA-flow path.

    A design bundles the generated source (a full MiniC program with
    target management code), the tuning knobs the device-specific DSE
    tasks set, and the flags the optimisation transforms recorded — the
    information the device performance models price. *)

open Minic

type target = Cpu_openmp | Gpu_hip | Fpga_oneapi

let target_to_string = function
  | Cpu_openmp -> "OpenMP multi-thread CPU"
  | Gpu_hip -> "HIP CPU+GPU"
  | Fpga_oneapi -> "oneAPI CPU+FPGA"

let target_framework = function
  | Cpu_openmp -> "OpenMP"
  | Gpu_hip -> "HIP"
  | Fpga_oneapi -> "oneAPI"

type t = {
  name : string;  (** e.g. ["hip_rtx2080ti"] *)
  target : target;
  device_id : string;  (** key into {!Devices.Spec} *)
  program : Ast.program;
      (** the generated, human-readable source; added management code
          keeps placeholder ids (only kernel loops are addressed by id) *)
  kernel : string;  (** host-side kernel entry point *)
  device_kernel : string;  (** device-side kernel function name *)
  (* tuning knobs, set by device-specific DSE *)
  unroll_factor : int;
  blocksize : int;
  num_threads : int;
  (* optimisation flags recorded by transforms *)
  single_precision : bool;
  pinned_memory : bool;
  zero_copy : bool;
  shared_mem : bool;
  gpu_intrinsics : bool;
  reductions_removed : bool;
  synthesizable : bool;
      (** false when the DSE found the design overmaps its device even at
          the minimum configuration (the paper's Rush Larsen FPGA case) *)
  notes : string list;  (** human-readable log of applied tasks *)
}

let make ~name ~target ~device_id ~program ~kernel ~device_kernel =
  {
    name;
    target;
    device_id;
    program;
    kernel;
    device_kernel;
    unroll_factor = 1;
    blocksize = 256;
    num_threads = 1;
    single_precision = false;
    pinned_memory = false;
    zero_copy = false;
    shared_mem = false;
    gpu_intrinsics = false;
    reductions_removed = false;
    synthesizable = true;
    notes = [];
  }

let note msg d = { d with notes = d.notes @ [ msg ] }

(** Added lines of code of the design relative to the reference program
    (Table I's metric). *)
let loc_delta ~reference d = Loc_count.delta ~reference ~design:d.program

let loc_delta_percent ~reference d =
  Loc_count.delta_percent ~reference ~design:d.program

(** Export the generated source text. *)
let export d = Pretty.program_to_string d.program

let pp_summary fmt d =
  Format.fprintf fmt "%s [%s on %s]%s" d.name
    (target_to_string d.target)
    d.device_id
    (if d.notes = [] then ""
     else ": " ^ String.concat "; " d.notes)
