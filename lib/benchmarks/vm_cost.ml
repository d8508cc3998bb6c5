(** Per-benchmark interpreter cost: virtual cycles, VM run time,
    minor-heap words allocated per virtual cycle and the share of the
    cycles fused kernels charge in bulk, of the one profiling run a cold
    flow makes: the original program with every loop hotspot
    selection can stop at tracked ({!Analysis.Hotspot.tracked}), and
    the {!Minic_interp.Eval.compile} that precedes it.

    The program is compiled [reps] times and timed apart from the run;
    the compiled program is run through {!Minic_interp.Eval.run_vm} on
    the calling domain, with [Gc.minor_words] taken around the run.
    The word count and the bulk share repeat exactly for a given tree,
    so they are noise-free counters; the compile and run times are the
    best of [reps]. *)

type run_cost = {
  mcycles : float;  (** virtual cycles of one run, in millions *)
  run_s : float;  (** best wall time of one [run_vm] *)
  words_per_cycle : float;  (** minor words allocated per virtual cycle *)
  bulk_share : float;
      (** [interp_bulk_cycles] over the run's virtual cycles: the share
          its kernels charged in bulk *)
}

type t = {
  bench : string;
  compile_s : float;  (** best wall time of one [Eval.compile] *)
  run : run_cost;
}

(** The ceiling on minor words per virtual cycle that tier-1 and
    [scripts/check.sh] enforce. *)
let words_per_cycle_ceiling = 0.05

(** Cycles charged in bulk by kernels so far in this process: the sum
    of the [interp_bulk_cycles] metric. *)
let bulk_cycles () =
  match
    Flow_obs.Metrics.histogram_summary Flow_obs.Metrics.global
      "interp_bulk_cycles"
  with
  | Some s -> s.s_sum
  | None -> 0.0

let measure_run ~reps ~track compiled =
  let words = ref 0.0 and cycles = ref 0.0 and bulk = ref 0.0 in
  let best = ref infinity in
  for _ = 1 to max 1 reps do
    let b0 = bulk_cycles () in
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let r = Minic_interp.Eval.run_vm ~track compiled in
    let t1 = Unix.gettimeofday () in
    words := Gc.minor_words () -. w0;
    bulk := bulk_cycles () -. b0;
    cycles := r.profile.cycles;
    best := Float.min !best (t1 -. t0)
  done;
  {
    mcycles = !cycles /. 1e6;
    run_s = !best;
    words_per_cycle = !words /. Float.max 1.0 !cycles;
    bulk_share = !bulk /. Float.max 1.0 !cycles;
  }

(** Measure [app] at size [n], by default its profiling size. *)
let measure ?(reps = 1) ?n (app : Bench_app.t) : t =
  let p = Bench_app.program app ~n:(Option.value n ~default:app.profile_n) in
  let compile () =
    let t0 = Unix.gettimeofday () in
    let c = Minic_interp.Eval.compile p in
    (Unix.gettimeofday () -. t0, c)
  in
  let s0, compiled = compile () in
  let compile_s = ref s0 in
  for _ = 2 to reps do
    compile_s := Float.min !compile_s (fst (compile ()))
  done;
  {
    bench = app.id;
    compile_s = !compile_s;
    run = measure_run ~reps ~track:(Analysis.Hotspot.tracked p) compiled;
  }
