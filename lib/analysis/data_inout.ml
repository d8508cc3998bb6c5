(** Dynamic data in/out (data movement) analysis.

    Reads the profiling run's observations of the hotspot loop, tracked
    as the kernel extraction makes of it, and reports, per pointer
    argument, the bytes that an accelerator offload would have to move: elements whose first kernel access is a read must
    be copied host->device ([bytes_in]); elements written must be copied
    back ([bytes_out]).  Totals accumulate over every kernel invocation,
    modelling one transfer pair per offloaded call. *)

open Minic

type arg = {
  name : string;
  bytes_in : int;
  bytes_out : int;
}

type t = {
  kernel : string;
  calls : int;
  args : arg list;
  total_in : int;
  total_out : int;
  kernel_cycles : float;  (** single-thread CPU cycles spent in the kernel *)
  kernel_flops : int;
}

let total t = t.total_in + t.total_out

(** Project the data-movement record out of kernel observations. *)
let of_kernel_obs ~kernel (k : Minic_interp.Profile.kernel_obs) : t =
  let args =
    Array.to_list k.args
    |> List.map (fun (a : Minic_interp.Profile.arg_obs) ->
           { name = a.arg_name; bytes_in = a.bytes_in; bytes_out = a.bytes_out })
  in
  let total_in = List.fold_left (fun acc a -> acc + a.bytes_in) 0 args in
  let total_out = List.fold_left (fun acc a -> acc + a.bytes_out) 0 args in
  {
    kernel;
    calls = k.calls;
    args;
    total_in;
    total_out;
    kernel_cycles = k.k_cycles;
    kernel_flops = k.k_flops;
  }

(** Project the data-movement record of tracked loop [loop_sid] out of a
    fused profile. *)
let of_fused (fp : Minic_interp.Fused_profile.t) ~loop_sid ~kernel : t =
  match Minic_interp.Fused_profile.kernel_obs fp ~loop_sid with
  | None ->
      {
        kernel;
        calls = 0;
        args = [];
        total_in = 0;
        total_out = 0;
        kernel_cycles = 0.0;
        kernel_flops = 0;
      }
  | Some k -> of_kernel_obs ~kernel k

let pp fmt t =
  Format.fprintf fmt
    "data in/out of %s: %d calls, %d B in, %d B out (%.3g cycles on CPU)"
    t.kernel t.calls t.total_in t.total_out t.kernel_cycles
