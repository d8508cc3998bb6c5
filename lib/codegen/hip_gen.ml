(** "Generate HIP Design" — GPU-path code generation, plus the GPU-path
    optimisation tasks ("Employ HIP Pinned Memory", "Introduce Shared Mem
    Buf", "Employ SP Math Fns/Literals", "Employ Specialised Math Fns").

    Generation restructures the extracted kernel into

    - a device kernel [<kernel>_gpu]: the outer loop becomes a per-thread
      guarded body indexed by the global thread id;
    - a host wrapper keeping the kernel's original name so the rest of
      the application is untouched: device allocation, host->device
      copies for arguments the data-movement analysis showed are read,
      the launch, synchronisation, device->host copies for produced
      arguments, and cleanup — each guarded by [hipCheck], as generated
      management code must be.

    Array reductions annotated by the reduction-removal task become
    atomic updates in the device kernel. *)

open Minic

exception Codegen_error of string

let find_kernel_func (p : Ast.program) kernel =
  match Ast.find_func_opt p kernel with
  | Some f -> f
  | None -> raise (Codegen_error ("no kernel function " ^ kernel))

let outer_loop_of (f : Ast.func) =
  match f.fbody with
  | [ ({ snode = Ast.For (h, body); _ } as s) ] -> (s, h, body)
  | _ ->
      raise
        (Codegen_error
           ("kernel " ^ f.fname ^ " is not a single outer loop"))

(** Parse "op:var" / "op:var[]" reduction clauses into (var, op). *)
let parse_clauses clauses =
  List.filter_map
    (fun c ->
      match String.index_opt c ':' with
      | Some i ->
          let op = String.sub c 0 i in
          let var = String.sub c (i + 1) (String.length c - i - 1) in
          let var =
            match String.index_opt var '[' with
            | Some j -> String.sub var 0 j
            | None -> var
          in
          Some (var, op)
      | None -> None)
    clauses

(* ------------------------------------------------------------------ *)
(* Device kernel                                                       *)
(* ------------------------------------------------------------------ *)

(** Turn array-reduction writes to [vars] into atomic calls:
    [sums[c] += v] becomes [hip_atomic_add(sums, c, v)]. *)
let atomicize_reductions vars (body : Ast.block) : Ast.block =
  Artisan.Rewrite.edit_block
    (fun s ->
      match s.Ast.snode with
      | Ast.Assign (Ast.Lindex ({ enode = Ast.Var a; _ }, idx), op, rhs)
        when List.mem_assoc a vars && op <> Ast.Set ->
          let callee =
            match op with
            | Ast.AddEq -> "hip_atomic_add"
            | Ast.SubEq -> "hip_atomic_sub"
            | Ast.MulEq | Ast.DivEq | Ast.Set -> "hip_atomic_exch"
          in
          [ Builder.call_stmt callee [ Builder.var a; idx; rhs ] ]
      | _ -> [ s ])
    body

(** Build the device kernel function from the extracted kernel. *)
let make_device_kernel (f : Ast.func) : Ast.func * string =
  let loop_stmt, h, body = outer_loop_of f in
  let gpu_name = f.fname ^ "_gpu" in
  let clauses = Transforms.Reduction.clauses_of loop_stmt in
  let body =
    if clauses = [] then body
    else atomicize_reductions (parse_clauses clauses) body
  in
  let tid_decl =
    Builder.decl Ast.Tint "__tid"
      ~init:(Builder.call "hip_global_thread_id" [])
    |> Builder.with_pragmas [ Builder.pragma "hip" ~args:[ "global_kernel" ] ]
  in
  let index_decl =
    Builder.decl Ast.Tint h.index
      ~init:
        Builder.(
          Artisan.Rewrite.refresh_expr h.init
          +: (var "__tid" *: Artisan.Rewrite.refresh_expr h.step))
  in
  let cmp = if h.inclusive then Ast.Le else Ast.Lt in
  let guard =
    Builder.if_
      (Builder.binop cmp (Builder.var h.index)
         (Artisan.Rewrite.refresh_expr h.bound))
      body None
  in
  ( Builder.func gpu_name
      (List.map (fun (pr : Ast.param) -> (pr.ptyp, pr.pname_)) f.fparams)
      [ tid_decl; index_decl; guard ],
    gpu_name )

(* ------------------------------------------------------------------ *)
(* Host wrapper                                                        *)
(* ------------------------------------------------------------------ *)

let check call = Builder.call_stmt "hipCheck" [ call ]

let buffer_bytes name = Builder.call "hip_buffer_bytes" [ Builder.var name ]

(** Transfer behaviour of each pointer parameter, from the data-movement
    analysis (absent args are conservatively both in and out). *)
let transfer_of (data : Analysis.Data_inout.t option) name =
  match data with
  | None -> (true, true)
  | Some d -> (
      match List.find_opt (fun (a : Analysis.Data_inout.arg) -> a.name = name) d.args with
      | Some a -> (a.bytes_in > 0, a.bytes_out > 0)
      | None -> (true, true))

let make_host_wrapper (f : Ast.func) ~gpu_name ~blocksize ~data : Ast.func =
  let h = match outer_loop_of f with _, h, _ -> h in
  let ptr_params, scalar_params =
    List.partition
      (fun (pr : Ast.param) ->
        match pr.ptyp with Ast.Tptr _ -> true | _ -> false)
      f.fparams
  in
  let dev_name n = "d_" ^ n in
  let decls =
    List.map
      (fun (pr : Ast.param) -> Builder.decl pr.ptyp (dev_name pr.pname_))
      ptr_params
  in
  let allocs =
    List.map
      (fun (pr : Ast.param) ->
        check
          (Builder.call "hipMalloc"
             [ Builder.var (dev_name pr.pname_); buffer_bytes pr.pname_ ]))
      ptr_params
  in
  let copies_in =
    List.filter_map
      (fun (pr : Ast.param) ->
        let needs_in, _ = transfer_of data pr.pname_ in
        if needs_in then
          Some
            (check
               (Builder.call "hipMemcpyHtoD"
                  [
                    Builder.var (dev_name pr.pname_);
                    Builder.var pr.pname_;
                    buffer_bytes pr.pname_;
                  ]))
        else None)
      ptr_params
  in
  let trip =
    (* iterations = (bound - init + step - 1) / step *)
    Builder.(
      (Artisan.Rewrite.refresh_expr h.bound
      -: Artisan.Rewrite.refresh_expr h.init
      +: Artisan.Rewrite.refresh_expr h.step
      -: int (if h.inclusive then 0 else 1))
      /: Artisan.Rewrite.refresh_expr h.step)
  in
  let bs_decl = Builder.decl Ast.Tint "__blocksize" ~init:(Builder.int blocksize) in
  let grid_decl =
    Builder.decl Ast.Tint "__grid"
      ~init:
        Builder.(
          (trip +: var "__blocksize" -: int 1) /: var "__blocksize")
  in
  let launch_args =
    [ Builder.var "__grid"; Builder.var "__blocksize" ]
    @ List.map
        (fun (pr : Ast.param) ->
          if List.memq pr ptr_params then Builder.var (dev_name pr.pname_)
          else Builder.var pr.pname_)
        f.fparams
  in
  ignore scalar_params;
  let launch = Builder.call_stmt ("hipLaunchKernelGGL_" ^ gpu_name) launch_args in
  let sync = check (Builder.call "hipDeviceSynchronize" []) in
  let copies_out =
    List.filter_map
      (fun (pr : Ast.param) ->
        let _, needs_out = transfer_of data pr.pname_ in
        if needs_out then
          Some
            (check
               (Builder.call "hipMemcpyDtoH"
                  [
                    Builder.var pr.pname_;
                    Builder.var (dev_name pr.pname_);
                    buffer_bytes pr.pname_;
                  ]))
        else None)
      ptr_params
  in
  let frees =
    List.map
      (fun (pr : Ast.param) ->
        check (Builder.call "hipFree" [ Builder.var (dev_name pr.pname_) ]))
      ptr_params
  in
  Builder.func f.fname
    (List.map (fun (pr : Ast.param) -> (pr.ptyp, pr.pname_)) f.fparams)
    (decls @ allocs @ copies_in
    @ [ bs_decl; grid_decl; launch; sync ]
    @ copies_out @ frees)

(* ------------------------------------------------------------------ *)
(* Generation entry point                                              *)
(* ------------------------------------------------------------------ *)

(** Generate the HIP CPU+GPU design from the extracted program.

    @param data data-movement analysis of the kernel, used to emit only
      the transfers the kernel actually needs *)
let generate ?(device_id = "gtx1080ti") ?(blocksize = 256) ?data
    (p : Ast.program) ~kernel : Design.t =
  let f = find_kernel_func p kernel in
  let loop_stmt, _, _ = outer_loop_of f in
  let reductions = Transforms.Reduction.clauses_of loop_stmt <> [] in
  let device_fn, gpu_name = make_device_kernel f in
  let wrapper = make_host_wrapper f ~gpu_name ~blocksize ~data in
  let p =
    { p with Ast.funcs =
        List.concat_map
          (fun (fn : Ast.func) ->
            if fn.fname = kernel then [ device_fn; wrapper ] else [ fn ])
          p.Ast.funcs }
  in
  let d =
    Design.make ~name:("hip_" ^ device_id) ~target:Design.Gpu_hip ~device_id
      ~program:p ~kernel ~device_kernel:gpu_name
  in
  { d with Design.blocksize; reductions_removed = reductions }
  |> Design.note "generated HIP device kernel and host management code"
  |> fun d ->
  if reductions then Design.note "array reductions lowered to atomics" d
  else d

(* ------------------------------------------------------------------ *)
(* GPU-path optimisation tasks                                         *)
(* ------------------------------------------------------------------ *)

(** "Employ HIP Pinned Memory": page-lock the transferred host buffers so
    DMA runs at full PCIe bandwidth. *)
let employ_pinned_memory (d : Design.t) : Design.t =
  let f = find_kernel_func d.program d.kernel in
  let ptr_params =
    List.filter
      (fun (pr : Ast.param) ->
        match pr.ptyp with Ast.Tptr _ -> true | _ -> false)
      f.fparams
  in
  let registers =
    List.map
      (fun (pr : Ast.param) ->
        check
          (Builder.call "hipHostRegister"
             [ Builder.var pr.pname_; buffer_bytes pr.pname_ ]))
      ptr_params
  in
  let unregisters =
    List.map
      (fun (pr : Ast.param) ->
        check (Builder.call "hipHostUnregister" [ Builder.var pr.pname_ ]))
      ptr_params
  in
  let f' = { f with Ast.fbody = registers @ f.fbody @ unregisters } in
  let p = Artisan.Instrument.replace_func ~name:d.kernel f' d.program in
  { d with Design.program = p; pinned_memory = true }
  |> Design.note "host buffers page-locked (pinned) for fast DMA"

(** "Introduce Shared Mem Buf": stage arrays that every thread re-reads
    (read-only arrays whose index does not depend on the thread's own
    index) through block-shared memory. *)
let introduce_shared_mem (d : Design.t) : Design.t =
  let f = find_kernel_func d.program d.device_kernel in
  (* thread index variable: second declaration of the device kernel *)
  let thread_index =
    match f.fbody with
    | _ :: { snode = Ast.Decl dd; _ } :: _ -> dd.dname
    | _ -> "__tid"
  in
  (* read-only pointer params whose reads never depend on thread_index *)
  let written = Hashtbl.create 8 in
  Ast.iter_func
    (fun s ->
      match s.Ast.snode with
      | Ast.Assign (Ast.Lindex ({ enode = Ast.Var a; _ }, _), _, _) ->
          Hashtbl.replace written a ()
      | _ -> ())
    f;
  let candidates = ref [] in
  Ast.iter_func
    (fun s ->
      List.iter
        (fun e ->
          Ast.iter_expr
            (fun sub ->
              match sub.Ast.enode with
              | Ast.Index ({ enode = Ast.Var a; _ }, idx)
                when (not (Hashtbl.mem written a))
                     && (not (Analysis.Dependence.mentions_var thread_index idx))
                     && List.exists
                          (fun (pr : Ast.param) ->
                            pr.pname_ = a
                            && match pr.ptyp with Ast.Tptr _ -> true | _ -> false)
                          f.fparams
                     && not (List.mem a !candidates) ->
                  candidates := a :: !candidates
              | _ -> ())
            e)
        (Ast.stmt_exprs s))
    f;
  match List.rev !candidates with
  | [] -> d
  | arrays ->
      let tiles =
        List.concat_map
          (fun a ->
            let elem =
              match
                List.find_opt (fun (pr : Ast.param) -> pr.pname_ = a) f.fparams
              with
              | Some { ptyp = Ast.Tptr t; _ } -> t
              | _ -> Ast.Tdouble
            in
            [
              Builder.decl elem ("__smem_" ^ a)
                ~size:(Builder.call "hip_block_dim" [])
              |> Builder.with_pragmas
                   [ Builder.pragma "hip" ~args:[ "shared" ] ];
              Builder.call_stmt "hip_block_stage"
                [ Builder.var ("__smem_" ^ a); Builder.var a ];
            ])
          arrays
        @ [ Builder.call_stmt "hip_syncthreads" [] ]
      in
      let f' = { f with Ast.fbody = tiles @ f.fbody } in
      let p = Artisan.Instrument.replace_func ~name:d.device_kernel f' d.program in
      { d with Design.program = p; shared_mem = true }
      |> Design.note
           ("staged through shared memory: " ^ String.concat ", " arrays)

(** "Employ SP Math Fns" + "Employ SP Numeric Literals" on the device
    kernel. *)
let employ_single_precision (d : Design.t) : Design.t =
  let p =
    Transforms.Sp_math.to_single_precision d.program ~kernel:d.device_kernel
  in
  { d with Design.program = p; single_precision = true }
  |> Design.note "device kernel converted to single precision"

(** "Employ Specialised Math Fns": GPU hardware intrinsics. *)
let employ_intrinsics (d : Design.t) : Design.t =
  let p, n =
    Transforms.Sp_math.employ_gpu_intrinsics d.program ~kernel:d.device_kernel
  in
  if n = 0 then d
  else
    { d with Design.program = p; gpu_intrinsics = true }
    |> Design.note (Printf.sprintf "%d math calls use GPU intrinsics" n)

(** Set the launch blocksize chosen by the blocksize DSE: updates the
    knob and the [__blocksize] constant that {!make_host_wrapper} puts
    in the wrapper's body.  A plain edit, not {!Artisan.Rewrite}: the
    wrapper is generated code with placeholder ids, which a rewrite
    would number on every DSE step. *)
let set_blocksize (d : Design.t) n : Design.t =
  let set (s : Ast.stmt) =
    match s.snode with
    | Ast.Decl dd when dd.dname = "__blocksize" ->
        { s with snode = Ast.Decl { dd with dinit = Some (Builder.int n) } }
    | _ -> s
  in
  let set_fn (f : Ast.func) =
    if f.fname = d.kernel then { f with fbody = List.map set f.fbody } else f
  in
  let p = { d.program with Ast.funcs = List.map set_fn d.program.funcs } in
  { d with Design.program = p; blocksize = n }
