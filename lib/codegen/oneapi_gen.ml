(** "Generate oneAPI Design" — FPGA-path code generation, plus the
    FPGA-path optimisation tasks ("Zero-Copy Data Transfer" for devices
    with unified-shared-memory support).

    The FPGA design keeps the kernel's loop structure (the loop pipeline
    is the execution model; the unroll tasks widen it) and wraps it in
    oneAPI/SYCL-style management code: queue construction against the
    FPGA selector, buffer creation per transferred argument, kernel
    submission, event synchronisation, copy-back and teardown — all
    guarded by [sycl_check], which is why oneAPI designs add the most
    lines in Table I. *)

open Minic

exception Codegen_error of string

let find_kernel_func (p : Ast.program) kernel =
  match Ast.find_func_opt p kernel with
  | Some f -> f
  | None -> raise (Codegen_error ("no kernel function " ^ kernel))

let check e = Builder.call_stmt "sycl_check" [ e ]
let check_var v = Builder.call_stmt "sycl_check" [ Builder.var v ]
let buffer_bytes name = Builder.call "sycl_buffer_bytes" [ Builder.var name ]

let transfer_of (data : Analysis.Data_inout.t option) name =
  match data with
  | None -> (true, true)
  | Some d -> (
      match
        List.find_opt (fun (a : Analysis.Data_inout.arg) -> a.name = name) d.args
      with
      | Some a -> (a.bytes_in > 0, a.bytes_out > 0)
      | None -> (true, true))

let ptr_params_of (f : Ast.func) =
  List.filter
    (fun (pr : Ast.param) ->
      match pr.ptyp with Ast.Tptr _ -> true | _ -> false)
    f.fparams

(* ------------------------------------------------------------------ *)
(* Host wrapper                                                        *)
(* ------------------------------------------------------------------ *)

(** Build the host wrapper in buffer mode (default) or USM zero-copy mode
    (Stratix10-class devices). *)
let make_host_wrapper (f : Ast.func) ~fpga_name ~usm ~data : Ast.func =
  let ptr_params = ptr_params_of f in
  let queue_decl =
    Builder.decl Ast.Tint "__q"
      ~init:(Builder.call "sycl_fpga_queue_create" [])
  in
  let queue_check = check_var "__q" in
  let handle n = (if usm then "__usm_" else "__buf_") ^ n in
  let per_array_setup =
    List.concat_map
      (fun (pr : Ast.param) ->
        let n = pr.pname_ in
        if usm then
          [
            (* zero-copy host allocations need alignment checks and
               access-pattern advice to stream at full rate *)
            check (Builder.call "sycl_assert_usm_aligned" [ Builder.var n ]);
            Builder.decl Ast.Tint (handle n)
              ~init:
                (Builder.call "sycl_usm_host_register"
                   [ Builder.var n; buffer_bytes n ]);
            check_var (handle n);
            check
              (Builder.call "sycl_mem_advise"
                 [ Builder.var "__q"; Builder.var (handle n) ]);
          ]
        else
          let needs_in, _ = transfer_of data n in
          [
            Builder.decl Ast.Tint (handle n)
              ~init:
                (Builder.call
                   (if needs_in then "sycl_buffer_create_from"
                    else "sycl_buffer_create_uninit")
                   [ Builder.var "__q"; Builder.var n; buffer_bytes n ]);
            check_var (handle n);
            check
              (Builder.call "sycl_buffer_bind"
                 [ Builder.var "__q"; Builder.var (handle n) ]);
          ])
      ptr_params
  in
  let submit_args =
    Builder.var "__q"
    :: List.map
         (fun (pr : Ast.param) ->
           match pr.ptyp with
           | Ast.Tptr _ ->
               if usm then Builder.var pr.pname_
               else Builder.var (handle pr.pname_)
           | _ -> Builder.var pr.pname_)
         f.fparams
  in
  let submit =
    Builder.decl Ast.Tint "__evt"
      ~init:(Builder.call ("sycl_submit_" ^ fpga_name) submit_args)
  in
  let wait =
    [
      check_var "__evt";
      check (Builder.call "sycl_queue_flush" [ Builder.var "__q" ]);
      check (Builder.call "sycl_event_wait" [ Builder.var "__evt" ]);
    ]
  in
  let copy_back =
    if usm then []
    else
      List.filter_map
        (fun (pr : Ast.param) ->
          let _, needs_out = transfer_of data pr.pname_ in
          if needs_out then
            Some
              (check
                 (Builder.call "sycl_buffer_copy_back"
                    [
                      Builder.var (handle pr.pname_);
                      Builder.var pr.pname_;
                      buffer_bytes pr.pname_;
                    ]))
          else None)
        ptr_params
  in
  let teardown =
    List.map
      (fun (pr : Ast.param) ->
        check
          (Builder.call
             (if usm then "sycl_usm_host_unregister" else "sycl_buffer_destroy")
             [ Builder.var (handle pr.pname_) ]))
      ptr_params
    @ [ check (Builder.call "sycl_queue_destroy" [ Builder.var "__q" ]) ]
  in
  Builder.func f.fname
    (List.map (fun (pr : Ast.param) -> (pr.ptyp, pr.pname_)) f.fparams)
    ([ queue_decl; queue_check ] @ per_array_setup @ [ submit ] @ wait
    @ copy_back @ teardown)

(* ------------------------------------------------------------------ *)
(* Generation entry point                                              *)
(* ------------------------------------------------------------------ *)

(** Generate the oneAPI CPU+FPGA design from the extracted program. *)
let generate ?(device_id = "arria10") ?data (p : Ast.program) ~kernel :
    Design.t =
  let f = find_kernel_func p kernel in
  let fpga_name = kernel ^ "_fpga" in
  (* device kernel: same loop, marked as the FPGA pipeline *)
  let device_fn =
    {
      f with
      Ast.fname = fpga_name;
      fbody =
        (match f.fbody with
        | [ loop ] ->
            [
              Builder.with_pragmas
                [ Builder.pragma "fpga" ~args:[ "pipeline" ] ]
                loop;
            ]
        | body -> body);
    }
  in
  let wrapper = make_host_wrapper f ~fpga_name ~usm:false ~data in
  let p =
    { p with Ast.funcs =
        List.concat_map
          (fun (fn : Ast.func) ->
            if fn.fname = kernel then [ device_fn; wrapper ] else [ fn ])
          p.Ast.funcs }
  in
  let d =
    Design.make ~name:("oneapi_" ^ device_id) ~target:Design.Fpga_oneapi
      ~device_id ~program:p ~kernel ~device_kernel:fpga_name
  in
  Design.note "generated oneAPI FPGA kernel and host management code" d

(* ------------------------------------------------------------------ *)
(* FPGA-path optimisation tasks                                        *)
(* ------------------------------------------------------------------ *)

(** "Unroll Fixed Loops": fully unroll small fixed-bound inner loops of
    the FPGA kernel so the pipeline has no inner control flow.  Uses the
    HLS convention of a bare [#pragma unroll] so the exported source
    stays readable; the resource model replicates the operators from the
    static trip count. *)
let unroll_fixed_loops (d : Design.t) : Design.t =
  let p, n =
    Transforms.Unroll.annotate_fixed_inner_loops d.program
      ~kernel:d.device_kernel
  in
  if n = 0 then d
  else
    { d with Design.program = p }
    |> Design.note (Printf.sprintf "%d fixed inner loops fully unrolled" n)

(** "Employ SP Math Fns" + "Employ SP Numeric Literals" on the FPGA
    kernel (single-precision pipelines cost a fraction of the area). *)
let employ_single_precision (d : Design.t) : Design.t =
  let p =
    Transforms.Sp_math.to_single_precision d.program ~kernel:d.device_kernel
  in
  { d with Design.program = p; single_precision = true }
  |> Design.note "FPGA kernel converted to single precision"

(** "Zero-Copy Data Transfer": rebuild the host wrapper in USM mode so the
    kernel reads host memory directly — supported on Stratix10-class
    parts only; the caller (device branch) is responsible for applying it
    to the right device. *)
let employ_zero_copy ?data (d : Design.t) : Design.t =
  (* the host signature is the existing wrapper's: the device kernel's
     may have been demoted to single precision *)
  let host_sig = find_kernel_func d.program d.kernel in
  let wrapper =
    make_host_wrapper host_sig ~fpga_name:d.device_kernel ~usm:true ~data
  in
  let p = Artisan.Instrument.replace_func ~name:d.kernel wrapper d.program in
  { d with Design.program = p; zero_copy = true }
  |> Design.note "zero-copy host memory via USM (no buffer transfers)"

(** Set the outer-loop unroll factor chosen by the unroll-until-overmap
    DSE: annotates the kernel's outermost loop and records the knob. *)
let set_unroll_factor (d : Design.t) factor : Design.t =
  match
    Artisan.Query.(
      stmts_in ~where:(is_for &&& is_outermost_loop) d.program
        d.device_kernel)
  with
  | m :: _ ->
      let p =
        Transforms.Unroll.annotate_unroll ~target:m.Artisan.Query.stmt.sid
          ~factor d.program
      in
      { d with Design.program = p; unroll_factor = factor }
  | [] -> { d with Design.unroll_factor = factor }
