(** Calibration introspection: per-design model breakdowns, the kernel
    feature vector at evaluation scale, and the loop table of the
    profiling run: each innermost loop, whether the VM runs it as a
    kernel or why not, and its cycles. *)

let pp_ops fmt (o : Analysis.Opcount.t) =
  Format.fprintf fmt
    "fadd %.1f fmul %.1f fdiv %.1f sqrt %.1f exp %.1f trig %.1f pow %.1f \
     int %.1f ld %.1f st %.1f"
    o.fadd o.fmul o.fdiv o.sqrt o.exp_log o.trig o.power o.int_ops o.loads
    o.stores

let pp_features fmt (f : Analysis.Features.t) =
  Format.fprintf fmt
    "kernel %s: calls=%d outer_trip=%.3g@.  flops/call=%.4g sfu/call=%.4g \
     bytes_acc=%.4g in=%.4g out=%.4g cpu_cyc=%.4g@.  regs=%d locals=%d \
     gather=%.2f gathered=[%s] inner_read=%dB@.  ops/iter: %a@.  hw_ops: \
     %a@.  inner loops: %s@.  args: %s"
    f.kernel f.calls f.outer_trip f.flops_per_call f.sfu_per_call
    f.bytes_accessed_per_call f.bytes_in_per_call f.bytes_out_per_call
    f.cpu_cycles_per_call f.regs_estimate f.locals_count f.gather_fraction
    (String.concat "," f.gathered_args)
    f.inner_read_bytes pp_ops f.ops_per_iter pp_ops f.hw_ops_per_iter
    (String.concat "; "
       (List.map
          (fun (il : Analysis.Features.inner_loop) ->
            Printf.sprintf
              "#%d trip=%.1f iters/outer=%.1f %s%s%s%s" il.il_sid
              il.il_mean_trip il.il_iters_per_outer
              (if il.il_innermost then "innermost " else "")
              (if il.il_parallel then "par " else "dep ")
              (if il.il_has_reduction then "red " else "")
              (if il.il_fully_unrollable then "unrollable" else ""))
          f.inner_loops))
    (String.concat "; "
       (List.map
          (fun (a : Analysis.Features.arg_feat) ->
            Printf.sprintf "%s fp=%dB in=%.3g out=%.3g" a.af_name
              a.af_footprint a.af_bytes_in a.af_bytes_out)
          f.args))

let pp_detail fmt (r : Devices.Simulate.result) =
  match r.detail with
  | Devices.Simulate.Cpu_detail c ->
      Format.fprintf fmt "threads=%d t1=%.4g tN=%.4g eff=%.3f" c.threads
        c.t_single c.t_parallel c.efficiency
  | Devices.Simulate.Gpu_detail g ->
      Format.fprintf fmt
        "bs=%d blocks=%d bps=%d occ=%.3f eff=%.3f tail=%.2f@.    \
         t_compute=%.4g t_mem=%.4g t_kernel=%.4g t_transfer=%.4g \
         t_call=%.4g total=%.4g"
        r.design.blocksize g.blocks g.blocks_per_sm g.occupancy g.eff g.tail
        g.t_compute g.t_mem g.t_kernel g.t_transfer g.t_call g.total
  | Devices.Simulate.Fpga_detail f ->
      Format.fprintf fmt
        "unroll=%d alm=%.1f%% dsp=%.1f%% bram=%dB util=%.1f%% ii=%.3g@.    \
         t_pipe=%.4g t_mem=%.4g t_transfer=%.4g t_call=%.4g total=%.4g"
        r.design.unroll_factor
        (100.0 *. f.res.alm_util)
        (100.0 *. f.res.dsp_util)
        f.res.bram_used
        (100.0 *. f.res.utilization)
        f.ii_effective f.t_pipe f.t_mem f.t_transfer f.t_call f.total

(* The loop table comes first: it needs only the profiling run, so it
   prints for a benchmark whose flow fails too (jacobi). *)
let run bench =
  let app = Benchmarks.Registry.find bench in
  Format.printf "=== innermost loops (profiling run, n=%d) ===@.%5s  %-22s %12s@."
    app.profile_n "sid" "kernel or reason" "cycles";
  List.iter
    (fun l -> Format.printf "%s@." (Benchmarks.Vm_cost.show_loop_row l))
    (Benchmarks.Vm_cost.loop_table app);
  Format.printf "@.";
  let e = Benchmarks.Evaluation.collect_one app in
  Format.printf "=== features (eval scale) ===@.%a@.@." pp_features e.features;
  Format.printf "=== designs ===@.";
  List.iter
    (fun (r : Devices.Simulate.result) ->
      Format.printf "%-20s %10.4g s  %8.1fx  %s@.  %a@." r.design.name
        r.seconds r.speedup
        (if r.feasible then "" else "(infeasible)")
        pp_detail r)
    e.results;
  Format.printf "@.reference (1-thread): %.4g s@."
    (Devices.Cpu_model.reference_seconds e.features)
