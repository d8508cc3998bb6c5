(** [main.exe perf [--quick]]: the performance trajectory benchmark.

    Measures the fast-path layers (bytecode VM, fused single-pass
    profiling, profile cache) and writes the numbers to
    [BENCH_psaflow.json]:

    - per paper benchmark, the compile time, and the VM's virtual
      cycles, run time, minor-heap words per virtual cycle and bulk
      share of the one tracked profiling run a cold flow makes
      ({!Benchmarks.Vm_cost});
    - interpreter throughput on the heaviest benchmark, before (slot-IR
      tree walker, {!Minic_interp.Eval.run_ir}) and after (the bytecode
      VM, {!Minic_interp.Eval.run_vm}) — the VM both without kernels
      and with them, so kernel specialization's share shows — checking
      that all of them produce bit-identical profiles;
    - the repeated-analysis path, cold (cache disabled, every analysis
      re-interprets) vs cached (all analyses project one fused run);
    - the uninformed 5-benchmark evaluation, cold (cache cleared) and
      warm — checking that the Fig. 5 / Table I / Fig. 6 inputs are
      bit-identical across both — and once more to count the exhaustive
      DSE sweeps' analytic-model calls.

    The engine metrics registry is reset after the micro-bench sections,
    so the report's "engine" section (notably [interp_runs]) covers
    exactly the three flow-evaluation legs: the cold leg performs every
    interpreter execution (one fused run per (benchmark, workload point)
    request), the later legs hit the cache.

    [--quick] shrinks the repetition counts for CI smoke runs. *)

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

let repeat n f =
  for _ = 1 to n do
    ignore (f ())
  done

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* One round of the flow's dynamic analyses on a prepared benchmark:
   hotspot + trip counts + data in/out + alias on the full program,
   features of the extracted kernel.  Uncached, every one of these
   re-interprets the program; cached, all five project one fused run
   (the original program, hotspot loop tracked). *)
let analysis_round (p, ex_program, kernel, loop_sid) () =
  ignore (Analysis.Hotspot.detect p);
  ignore (Analysis.Trip_count.analyze p);
  ignore
    (Analysis.Data_inout.of_fused (Analysis.Hotspot.fused ~loop_sid p)
       ~loop_sid ~kernel);
  ignore
    (Analysis.Alias.of_fused (Analysis.Hotspot.fused ~loop_sid p) ~loop_sid
       ~kernel);
  ignore (Analysis.Features.analyze ~source:p ~loop_sid ex_program ~kernel)

let prepare (app : Benchmarks.Bench_app.t) =
  let p = Benchmarks.Bench_app.program app ~n:app.profile_n in
  let ex_program, kernel, h = Psa.Std_flow.prepare_kernel p in
  (p, ex_program, kernel, h.Analysis.Hotspot.loop_sid)

(* Fingerprint of everything Fig. 5, Table I and Fig. 6 read from an
   uninformed run: design identity, knobs, timing, feasibility and the
   LOC delta, printed with full float precision. *)
let outcome_fingerprint (app : Benchmarks.Bench_app.t)
    (outcome : Psa.Std_flow.outcome) =
  let reference = Benchmarks.Bench_app.reference app in
  let result_line (r : Devices.Simulate.result) =
    Printf.sprintf "%s|%s|%s|u%d|b%d|t%d|%.17g|%.17g|%b|%b|loc%+d" r.design.name
      (Codegen.Design.target_framework r.design.target)
      r.design.device_id r.design.unroll_factor r.design.blocksize
      r.design.num_threads r.seconds r.speedup r.feasible
      r.design.synthesizable
      (Codegen.Design.loc_delta ~reference r.design)
  in
  app.id ^ "\n" ^ String.concat "\n" (List.map result_line outcome.results)

(* The contexts are built (programs parsed) once and shared by the three
   flow legs, so the legs time the flow and not the front end. *)
let uninformed_all contexts () =
  List.map
    (fun ((app : Benchmarks.Bench_app.t), ctx) ->
      outcome_fingerprint app (Psa.Std_flow.run_uninformed ctx))
    contexts

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let json_out = "BENCH_psaflow.json"

let run ~quick () =
  let reps = if quick then 2 else 5 in
  (* The stage-memo hierarchy would serve parses, features and DSE
     sweeps from cache across the repeated legs below, turning the
     deliberately *cold* measurements (cold flow cost, exhaustive
     sweep calls, cache speedup baselines) into warm ones and breaking
     their comparability with the recorded history.  The profile cache
     is exempt (its cold/warm pair is measured explicitly).  The memo
     win itself is measured end to end by perfbench's [variant_sweep]
     workload, and its per-stage hits and misses are pinned by
     [test_memo]'s "variant schedule: exact per-stage counts".  *)
  Flow_memo.set_globally_enabled false;
  Fun.protect ~finally:(fun () -> Flow_memo.set_globally_enabled true)
  @@ fun () ->
  Flow_obs.Metrics.reset Flow_obs.Metrics.global;
  let cores = Domain.recommended_domain_count () in
  Printf.printf "== psaflow perf (%s, %d cores recommended) ==\n%!"
    (if quick then "quick" else "full")
    cores;

  (* -- interpreter throughput: walker vs VM without vs with kernels -- *)
  (* --quick runs every leg below with fewer timing repetitions, never
     skipping a section: a partial rerun must overwrite every BENCH
     field. *)
  (* best-of-N: the lowered engines finish nbody in ~1.5 ms, so the
     full run needs enough repetitions to shake scheduler noise on a
     shared 1-core container *)
  let interp_reps = if quick then 2 else 9 in
  let best f =
    let r = ref (time f) in
    for _ = 2 to interp_reps do
      let s, v = time f in
      if s < fst !r then r := (s, v)
    done;
    !r
  in
  let heavy =
    List.nth Benchmarks.Registry.all 1 (* nbody: float-heavy kernel *)
  in
  let heavy_p = Benchmarks.Bench_app.program heavy ~n:heavy.profile_n in
  let heavy_ir = Minic_interp.Resolve.compile heavy_p in
  (* the production path ([Eval.compile] = resolve + lower with
     kernels); compiled first so the published kernel count is its own *)
  let compiled = Minic_interp.Eval.compile heavy_p in
  let kernels_specialized =
    Flow_obs.Metrics.counter_value Flow_obs.Metrics.global "vm_kernels"
  in
  let unoptimized = Minic_interp.Eval.compile_resolved heavy_ir in
  let before_s, before_run = best (fun () -> Minic_interp.Eval.run_ir heavy_ir) in
  let unopt_s, unopt_run =
    best (fun () -> Minic_interp.Eval.run_vm unoptimized)
  in
  let vm_s, vm_run = best (fun () -> Minic_interp.Eval.run_vm compiled) in
  let vm_counters =
    List.map
      (fun name ->
        (name, Flow_obs.Metrics.counter_value Flow_obs.Metrics.global name))
      [
        "vm_kernels";
        "vm_kernels_fused";
        "vm_kernel_ops_before";
        "vm_kernel_ops_after";
        "vm_kernel_lits";
        "vm_kernel_prefetch";
      ]
  in
  (* everything a profile consumer can observe, as a comparable value *)
  let fingerprint (r : Minic_interp.Eval.run) =
    let p = r.profile in
    ( (p.cycles, p.loads, p.stores, p.flops, p.int_ops, p.sfu_ops),
      (p.bytes_read, p.bytes_written),
      r.output,
      r.return_value )
  in
  let walker_fp = fingerprint before_run in
  let interp_identical =
    fingerprint unopt_run = walker_fp && fingerprint vm_run = walker_fp
  in
  let mcycles = vm_run.profile.cycles /. 1e6 in
  let before_rate = mcycles /. before_s
  and unopt_rate = mcycles /. unopt_s
  and vm_rate = mcycles /. vm_s in
  let bulk_mcycles =
    match
      Flow_obs.Metrics.histogram_summary Flow_obs.Metrics.global
        "interp_bulk_cycles"
    with
    | Some s -> s.Flow_obs.Metrics.s_max /. 1e6
    | None -> 0.0
  in
  Printf.printf
    "interp   %-12s ir-walker %8.4f s (%.1f Mcycles/s)   unoptimized %8.4f \
     s (%.1f Mcycles/s)   bytecode %8.4f s (%.1f Mcycles/s)   speedup %.1fx   \
     outputs identical: %b\n%!"
    heavy.id before_s before_rate unopt_s unopt_rate vm_s vm_rate
    (before_s /. vm_s) interp_identical;
  Printf.printf "         bulk %.1f of %.1f Mcycles\n%!" bulk_mcycles mcycles;
  if not interp_identical then
    prerr_endline "ERROR: an engine's profile diverges from the IR walker!";

  (* -- per-benchmark VM cost: the one tracked profiling run --------- *)
  let vm_costs =
    List.map
      (Benchmarks.Vm_cost.measure ~reps:interp_reps)
      Benchmarks.Registry.all
  in
  List.iter
    (fun (c : Benchmarks.Vm_cost.t) ->
      let show (r : Benchmarks.Vm_cost.run_cost) =
        Printf.sprintf "%6.2f Mcycles %8.2f ms %6.3f words/cycle %5.3f bulk"
          r.mcycles (r.run_s *. 1e3) r.words_per_cycle r.bulk_share
      in
      Printf.printf "vm       %-12s compile %6.3f ms run %s\n%!" c.bench
        (c.compile_s *. 1e3) (show c.run))
    vm_costs;

  (* -- repeated-analysis path: cold vs cached ---------------------- *)
  let prepared = prepare heavy in
  Minic_interp.Profile_cache.set_enabled false;
  let cold_s, () = time (fun () -> repeat reps (analysis_round prepared)) in
  Minic_interp.Profile_cache.set_enabled true;
  Minic_interp.Profile_cache.clear ();
  Minic_interp.Profile_cache.reset_stats ();
  let warm_s, () = time (fun () -> repeat reps (analysis_round prepared)) in
  let cstats = Minic_interp.Profile_cache.stats () in
  let hits, misses = (cstats.hits, cstats.misses) in
  let cache_speedup = cold_s /. warm_s in
  Printf.printf
    "analyses %-12s cold %.4f s   cached %.4f s   speedup %.1fx   (%d hits, \
     %d misses, %d evictions)\n%!"
    heavy.id cold_s warm_s cache_speedup hits misses cstats.evictions;

  (* -- uninformed 5-benchmark evaluation --------------------------- *)
  (* Fresh registry + cache from here on: the report's "engine" section
     covers exactly the three flow legs, so [engine.interp_runs] is the
     per-cold-flow interpreter execution count the ISSUE bounds. *)
  Flow_obs.Metrics.reset Flow_obs.Metrics.global;
  Minic_interp.Profile_cache.clear ();
  Minic_interp.Profile_cache.reset_stats ();
  let contexts =
    List.map
      (fun (app : Benchmarks.Bench_app.t) ->
        (app, Benchmarks.Bench_app.context app))
      Benchmarks.Registry.all
  in
  (* cold: cache enabled but empty — every fused request is interpreted
     exactly once, inside the timed region *)
  let cold_flow_s, cold_fp = time (uninformed_all contexts) in
  (* warm: same work, all fused requests hit the cache *)
  let warm_flow_s, warm_fp = time (uninformed_all contexts) in
  let identical = cold_fp = warm_fp in
  let cached_speedup = cold_flow_s /. warm_flow_s in
  let fstats = Minic_interp.Profile_cache.stats () in
  Printf.printf
    "flow     5 benchmarks  cold %.4f s   cached %.4f s (%.1fx)   outputs \
     identical: %b\n%!"
    cold_flow_s warm_flow_s cached_speedup identical;
  if not identical then
    prerr_endline "ERROR: cached outputs diverge from cold ones!";

  (* -- exhaustive DSE ---------------------------------------------- *)
  (* One more flow leg over the same prepared benchmarks: every sweep
     evaluates its whole candidate ladder on the analytic models. *)
  let calls0 =
    Flow_obs.Metrics.counter_value Flow_obs.Metrics.global "dse_simulate_calls"
  in
  let dse_s, _ = time (uninformed_all contexts) in
  let dse_calls =
    Flow_obs.Metrics.counter_value Flow_obs.Metrics.global "dse_simulate_calls"
    - calls0
  in
  Printf.printf "dse      5 benchmarks  %d simulate calls (%.4f s)\n%!"
    dse_calls dse_s;

  (* -- report ------------------------------------------------------ *)
  let sections =
    let open Flow_service.Json in
    [
        ("bench", String "psaflow-perf");
        ("quick", Bool quick);
        ("cores", Int cores);
        ("jobs", Int (Flow_par.Pool.jobs ()));
        ( "interp",
          Obj
            [
              ("benchmark", String heavy.id);
              ("virtual_mcycles", Float mcycles);
              ( "ir_walker",
                Obj
                  [
                    ("run_s", Float before_s);
                    ("mcycles_per_s", Float before_rate);
                  ] );
              (* kernel specialization's share: the VM on the slot IR
                 lowered without kernels, with typed instructions too;
                 the specialized side is the "bytecode" leg below.  The
                 kernel count keeps its historic field name; it is
                 [vm_kernels] of the production compile. *)
              ( "optimized",
                Obj
                  [
                    ("unoptimized_run_s", Float unopt_s);
                    ("unoptimized_mcycles_per_s", Float unopt_rate);
                    ("speedup_vs_unoptimized", Float (unopt_s /. vm_s));
                    ("bulk_mcycles_charged", Float bulk_mcycles);
                    ("opt_kernels_specialized", Int kernels_specialized);
                  ] );
              (* the register-bytecode VM (production engine): flat
                 instruction arrays + fused kernel micro-ops *)
              ( "bytecode",
                Obj
                  ([ ("run_s", Float vm_s); ("mcycles_per_s", Float vm_rate) ]
                  @ List.map (fun (n, v) -> (n, Int v)) vm_counters) );
              ("speedup", Float (before_s /. vm_s));
              ("outputs_identical", Bool interp_identical);
              (* every paper benchmark at its profiling size: the one
                 tracked profiling run, with its minor-heap words per
                 virtual cycle *)
              ( "benchmarks",
                let run (r : Benchmarks.Vm_cost.run_cost) =
                  Obj
                    [
                      ("virtual_mcycles", Float r.mcycles);
                      ("vm_run_s", Float r.run_s);
                      ("minor_words_per_cycle", Float r.words_per_cycle);
                      ("bulk_share", Float r.bulk_share);
                    ]
                in
                Obj
                  (List.map
                     (fun (c : Benchmarks.Vm_cost.t) ->
                       ( c.bench,
                         Obj
                           [
                             ("compile_s", Float c.compile_s);
                             ("run", run c.run);
                           ] ))
                     vm_costs) );
            ] );
        ( "cache",
          Obj
            [
              ("benchmark", String heavy.id);
              ("rounds", Int reps);
              ("cold_s", Float cold_s);
              ("cached_s", Float warm_s);
              ("speedup", Float cache_speedup);
              ("hits", Int hits);
              ("misses", Int misses);
              ("evictions", Int cstats.evictions);
            ] );
        ( "flow",
          Obj
            [
              ("benchmarks", Int (List.length Benchmarks.Registry.all));
              ("cores", Int cores);
              ("sequential_uncached_s", Float cold_flow_s);
              ("cached_sequential_s", Float warm_flow_s);
              ( "cached_vs_uncached_flow",
                Obj
                  [
                    ("uncached_s", Float cold_flow_s);
                    ("cached_s", Float warm_flow_s);
                    ("speedup", Float cached_speedup);
                  ] );
              ("cache_hits", Int fstats.hits);
              ("cache_misses", Int fstats.misses);
              ("outputs_identical", Bool identical);
            ] );
        ( "dse",
          Obj
            [
              ("benchmarks", Int (List.length Benchmarks.Registry.all));
              ("simulate_calls", Int dse_calls);
              ("wall_s", Float dse_s);
            ] );
        (* the engine registry as reset before the flow legs:
           [interp_runs] is the cold flow's interpreter execution count
           (the warm legs add cache hits only) *)
        ("engine", Flow_obs.Metrics.to_json Flow_obs.Metrics.global);
      ]
  in
  Report_file.write ~path:json_out sections;
  Printf.printf "wrote %s\n%!" json_out;
  if not (identical && interp_identical) then exit 1
