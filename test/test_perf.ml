(** Fast-path safety nets: the shared profile cache must be invisible to
    every analysis, every DSE sweep must match a naive reference sweep,
    and a flow must run in the calling domain. *)

let cache = Minic_interp.Profile_cache.clear
let set_cache = Minic_interp.Profile_cache.set_enabled

(* This binary counts simulate calls; the cross-request sweep memo
   would serve repeated sweeps from cache and zero those counters out.
   The memo's own behavior is covered by test_memo. *)
let () = Dse.Sweep_memo.set_enabled false

let with_cache_off f =
  cache ();
  set_cache false;
  Fun.protect ~finally:(fun () -> set_cache true; cache ()) f

(* ------------------------------------------------------------------ *)
(* Cached vs uncached analyses                                         *)
(* ------------------------------------------------------------------ *)

let trip_list (t : Analysis.Trip_count.t) =
  Hashtbl.fold (fun sid s acc -> (sid, s) :: acc) t []
  |> List.sort compare

(* Every observation the flow's dynamic tasks consume, computed once
   with the cache disabled and twice with it enabled (second pass all
   hits), must be structurally identical. *)
let check_benchmark (b : Benchmarks.Bench_app.t) () =
  let p = Benchmarks.Bench_app.program b ~n:b.profile_n in
  let analyses () =
    let hot = Analysis.Hotspot.detect p in
    let trips = trip_list (Analysis.Trip_count.analyze p) in
    let ex, kernel, h = Psa.Std_flow.prepare_kernel p in
    let loop_sid = h.Analysis.Hotspot.loop_sid in
    let fp = Analysis.Hotspot.fused ~loop_sid p in
    let dio = Analysis.Data_inout.of_fused fp ~loop_sid ~kernel in
    let alias = Analysis.Alias.of_fused fp ~loop_sid ~kernel in
    let feats = Analysis.Features.analyze ~source:p ~loop_sid ex ~kernel in
    (hot, trips, dio, alias, feats)
  in
  let uncached = with_cache_off analyses in
  cache ();
  Minic_interp.Profile_cache.reset_stats ();
  let cached1 = analyses () in
  let cached2 = analyses () in
  let { Minic_interp.Profile_cache.hits; misses; _ } =
    Minic_interp.Profile_cache.stats ()
  in
  Alcotest.(check bool) "cached pass 1 = uncached" true (uncached = cached1);
  Alcotest.(check bool) "cached pass 2 = uncached" true (uncached = cached2);
  Alcotest.(check bool)
    (Printf.sprintf "cache was exercised (%d hits, %d misses)" hits misses)
    true
    (hits > 0 && misses > 0 && hits > misses);
  cache ()

let cache_tests =
  List.map
    (fun (b : Benchmarks.Bench_app.t) ->
      Alcotest.test_case b.id `Slow (check_benchmark b))
    (Benchmarks.Registry.all @ Benchmarks.Registry.extras)

(* Programs that print the same but number their loops differently must
   never share a cache entry (per-loop stats are keyed by those ids).
   Ids depend on the parse plus the transforms applied: an extracted
   kernel and a re-parse of its pretty-print are such a pair. *)
let distinct_ids_distinct_entries () =
  let src = {|
int main() {
  int a[10];
  for (int i = 0; i < 10; i++) { a[i] = i * 2; }
  return a[3];
}
|} in
  let ex =
    Option.get
      (Transforms.Extract.detect_and_extract (Minic.Parser.parse_program src))
  in
  let p1 = ex.program in
  let p2 = Minic.Parser.parse_program (Minic.Pretty.program_to_string p1) in
  Alcotest.(check string)
    "same text" (Minic.Pretty.program_to_string p1)
    (Minic.Pretty.program_to_string p2);
  cache ();
  Minic_interp.Profile_cache.reset_stats ();
  let r1 = (Analysis.Hotspot.fused p1).run in
  let r2 = (Analysis.Hotspot.fused p2).run in
  let sids t = Hashtbl.fold (fun sid _ acc -> sid :: acc) t [] in
  Alcotest.(check bool)
    "loop stats keyed by each program's own ids" false
    (List.sort compare (sids r1.profile.loops)
    = List.sort compare (sids r2.profile.loops));
  Alcotest.(check int)
    "two entries" 2 (Minic_interp.Profile_cache.stats ()).misses;
  Alcotest.(check (float 0.0))
    "identical cycles" r1.profile.cycles r2.profile.cycles;
  cache ()

(* Re-running the same parsed program hits; the hit returns the same
   observations. *)
let same_program_hits () =
  let p =
    Minic.Parser.parse_program
      {|
int main() {
  double x = 0.0;
  for (int i = 0; i < 100; i++) { x = x + 1.5; }
  print_float(x);
  return 0;
}
|}
  in
  cache ();
  Minic_interp.Profile_cache.reset_stats ();
  let r1 = (Analysis.Hotspot.fused p).run in
  let r2 = (Analysis.Hotspot.fused p).run in
  let { Minic_interp.Profile_cache.hits; misses; _ } =
    Minic_interp.Profile_cache.stats ()
  in
  Alcotest.(check int) "one miss" 1 misses;
  Alcotest.(check int) "one hit" 1 hits;
  Alcotest.(check string) "same output" r1.output r2.output;
  Alcotest.(check (float 0.0)) "same cycles" r1.profile.cycles
    r2.profile.cycles;
  cache ()

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let pool_order () =
  let xs = List.init 100 Fun.id in
  let expect = List.map (fun x -> (2 * x) + 1) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "map with %d jobs preserves order" jobs)
        expect
        (Flow_par.Pool.map ~jobs (fun x -> (2 * x) + 1) xs))
    [ 1; 2; 4; 7 ]

let pool_exception () =
  Alcotest.check_raises "exception propagates" (Failure "boom") (fun () ->
      ignore
        (Flow_par.Pool.map ~jobs:4
           (fun x -> if x = 13 then failwith "boom" else x)
           (List.init 20 Fun.id)))

(* An explicit [~jobs] overrides the default width, which is the core
   count capped at 8. *)
let pool_jobs_env () =
  Alcotest.(check int) "default width" (min 8 (Domain.recommended_domain_count ()))
    (Flow_par.Pool.jobs ());
  ignore (Flow_par.Pool.map ~jobs:3 Fun.id [ 1; 2; 3; 4 ]);
  Alcotest.(check (float 0.0)) "~jobs wins" 3.0
    (Flow_obs.Metrics.gauge_value Flow_obs.Metrics.global "pool_workers")

(* ------------------------------------------------------------------ *)
(* DSE sweeps = naive reference sweeps (qcheck)                        *)
(* ------------------------------------------------------------------ *)

let features_gen =
  QCheck.Gen.(
    let* trip_exp = float_range 3.0 7.0 in
    let* flops = float_range 2.0 400.0 in
    let* bytes = float_range 4.0 64.0 in
    let* regs = int_range 16 200 in
    let* parallel = bool in
    return
      (Feat_fixtures.make ~outer_trip:(10.0 ** trip_exp)
         ~flops_per_iter:flops ~bytes_in_per_iter:bytes
         ~bytes_out_per_iter:bytes ~regs ~outer_parallel:parallel ()))

let features_arb =
  QCheck.make ~print:(fun (f : Analysis.Features.t) ->
      Printf.sprintf "trip=%g flops/iter=%g regs=%d" f.outer_trip
        (f.flops_per_call /. f.outer_trip)
        f.regs_estimate)
    features_gen

(* The candidate ladders, restated independently of the sweeps. *)
let unroll_ladder =
  let rec go n =
    if n > Dse.Unroll_dse.max_factor then [ n ] else n :: go (2 * n)
  in
  go 1

let thread_ladder (cpu : Devices.Spec.cpu) =
  let rec go n = if n >= cpu.cores then [ cpu.cores ] else n :: go (2 * n) in
  go 1

let blocksize_ladder (gpu : Devices.Spec.gpu) =
  List.filter
    (fun bs -> bs <= gpu.max_blocksize)
    Dse.Blocksize_dse.candidate_blocksizes

(* First-best argmin: the earliest candidate among the fastest. *)
let argmin seconds steps =
  List.fold_left
    (fun best s ->
      match best with
      | Some b when seconds b <= seconds s -> best
      | _ -> Some s)
    None steps

(* Each DSE must visit the same candidates, pick the same winner and
   produce the same annotated design as the reference sweep. *)
let dse_prop name run_dse reference =
  QCheck.Test.make ~count:25 ~name features_arb (fun features ->
      run_dse features = reference features)

let fpga_design () =
  Feat_fixtures.design ~target:Codegen.Design.Fpga_oneapi ~device_id:"arria10"
    ()

(* The paper's Fig. 2 meta-program, step by step: double the factor
   until the device overmaps, keeping the last fitting factor. *)
let unroll_prop =
  dse_prop "unroll"
    (fun f ->
      let r = Dse.Unroll_dse.run (fpga_design ()) f in
      (r.chosen_factor, r.synthesizable, r.steps, r.design.unroll_factor))
    (fun f ->
      let d = fpga_design () in
      let fpga = Devices.Spec.find_fpga d.device_id in
      let rec walk n best steps =
        let r = Devices.Fpga_model.resources fpga d f ~unroll:n in
        let steps =
          {
            Dse.Unroll_dse.factor = n;
            utilization = r.utilization;
            alm_util = r.alm_util;
            dsp_util = r.dsp_util;
            overmapped = r.overmapped;
          }
          :: steps
        in
        if r.overmapped || n > Dse.Unroll_dse.max_factor then
          (best, List.rev steps)
        else walk (2 * n) (Some n) steps
      in
      match walk 1 None [] with
      | Some n, steps -> (n, true, steps, n)
      | None, steps ->
          ( 1,
            (Devices.Fpga_model.resources fpga d f ~unroll:1).fits,
            steps,
            1 ))

let gpu_design () =
  Feat_fixtures.design ~target:Codegen.Design.Gpu_hip ~device_id:"gtx1080ti" ()

let blocksize_prop =
  dse_prop "blocksize"
    (fun f ->
      let r = Dse.Blocksize_dse.run (gpu_design ()) f in
      (r.chosen_blocksize, r.steps, r.design.blocksize))
    (fun f ->
      let d = gpu_design () in
      let gpu = Devices.Spec.find_gpu d.device_id in
      let steps =
        List.map
          (fun bs ->
            let r =
              Devices.Gpu_model.time gpu
                { d with Codegen.Design.blocksize = bs }
                f
            in
            {
              Dse.Blocksize_dse.blocksize = bs;
              occupancy = r.occupancy;
              seconds = r.total;
              feasible = r.feasible;
            })
          (blocksize_ladder gpu)
      in
      let feasible =
        List.filter (fun (s : Dse.Blocksize_dse.step) -> s.feasible) steps
      in
      let bs =
        match
          argmin (fun (s : Dse.Blocksize_dse.step) -> s.seconds) feasible
        with
        | Some s -> s.blocksize
        | None -> d.blocksize
      in
      (bs, steps, bs))

let cpu_design () =
  Feat_fixtures.design ~target:Codegen.Design.Cpu_openmp ~device_id:"epyc7543"
    ()

let threads_prop =
  dse_prop "threads"
    (fun f ->
      let r = Dse.Threads_dse.run (cpu_design ()) f in
      (r.chosen_threads, r.steps, r.design.num_threads))
    (fun f ->
      let cpu = Devices.Spec.find_cpu (cpu_design ()).device_id in
      let steps =
        List.map
          (fun t ->
            let r = Devices.Cpu_model.time cpu f ~threads:t in
            {
              Dse.Threads_dse.threads = t;
              seconds = r.t_parallel;
              speedup = r.speedup;
            })
          (thread_ladder cpu)
      in
      let t =
        match argmin (fun (s : Dse.Threads_dse.step) -> s.seconds) steps with
        | Some s -> s.threads
        | None -> cpu.cores
      in
      (t, steps, t))

(* ------------------------------------------------------------------ *)
(* Fused single-pass profile = legacy per-analysis interpreter runs    *)
(* ------------------------------------------------------------------ *)

module I = Minic_interp

(* Everything a profile records, as a comparable value: totals, access
   counters, per-loop stats, the tracked loops' kernel observations, the
   program output and the return value. *)
let run_fingerprint (r : I.Eval.run) =
  let p = r.profile in
  let loops =
    Hashtbl.fold
      (fun sid (s : I.Profile.loop_stat) acc ->
        (sid, s.invocations, s.iterations, s.min_trip, s.max_trip, s.cycles)
        :: acc)
      p.loops []
    |> List.sort compare
  in
  ( (p.cycles, p.loads, p.stores, p.flops, p.int_ops, p.sfu_ops),
    (p.bytes_read, p.bytes_written),
    loops,
    Hashtbl.fold (fun sid k acc -> (sid, k) :: acc) p.kernel []
    |> List.sort compare,
    r.output,
    r.return_value )

(* A tracked loop is observed on every invocation: its kernel calls are
   its invocations and its kernel cycles its loop-stat window, bit for
   bit. *)
let check_tracked_windows (r : I.Eval.run) (track : I.Eval.track) =
  List.iter
    (fun (sid, _) ->
      match
        (I.Profile.loop_stat_opt r.profile sid, I.Profile.kernel_obs r.profile sid)
      with
      | None, None -> ()
      | Some s, Some k ->
          Alcotest.(check int)
            (Printf.sprintf "loop %d: calls = invocations" sid)
            s.invocations k.calls;
          Alcotest.(check (float 0.0))
            (Printf.sprintf "loop %d: k_cycles = loop cycles" sid)
            s.cycles k.k_cycles
      | _ -> Alcotest.failf "loop %d: ran without observations" sid)
    track

(* The bare fused run measures bit-identically what the paper's timer
   instrumentation measures: for every candidate loop, the instrumented
   legacy run's timer total equals the projected loop cycles, and the
   instrumentation itself costs nothing. *)
let check_fused_bare (b : Benchmarks.Bench_app.t) () =
  let p = Benchmarks.Bench_app.program b ~n:b.profile_n in
  let legacy =
    I.Eval.run_ir (I.Resolve.compile (Analysis.Hotspot.instrument p))
  in
  let fused = I.Fused_profile.of_run p (I.Eval.run p) in
  Alcotest.(check (float 0.0))
    "instrumentation adds no cycles" legacy.profile.cycles
    (I.Fused_profile.total_cycles fused);
  Alcotest.(check string)
    "same output" legacy.output
    (I.Fused_profile.output fused);
  let cands = Analysis.Hotspot.candidates p in
  Alcotest.(check bool) "benchmark has candidate loops" true (cands <> []);
  List.iter
    (fun (m : Artisan.Query.match_ctx) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "loop %d: legacy timer total = projected cycles"
           m.stmt.sid)
        (I.Profile.timer_total legacy.profile m.stmt.sid)
        (I.Fused_profile.loop_cycles fused m.stmt.sid))
    cands;
  match Analysis.Hotspot.of_fused fused with
  | None -> Alcotest.fail "no hotspot detected"
  | Some h ->
      Alcotest.(check (float 0.0))
        "hotspot cycles = legacy timer total"
        (I.Profile.timer_total legacy.profile h.loop_sid)
        h.cycles

(* Every kernel analysis must project the same record out of the
   production engine's tracked run of the original program as out of the
   reference walker's: the kernel observations of every tracked loop are
   identical, and each tracked loop's kernel cost is its loop-stat
   window. *)
let check_fused_focus (b : Benchmarks.Bench_app.t) () =
  let p = Benchmarks.Bench_app.program b ~n:b.profile_n in
  let ex, kernel, h = Psa.Std_flow.prepare_kernel p in
  let loop_sid = h.Analysis.Hotspot.loop_sid in
  let track = Analysis.Hotspot.tracked p in
  Alcotest.(check bool) "hotspot loop tracked" true
    (List.mem_assoc loop_sid track);
  let legacy = I.Eval.run_ir ~track (I.Resolve.compile p) in
  Alcotest.(check bool)
    "tracked run identical" true
    (run_fingerprint legacy = run_fingerprint (I.Eval.run ~track p));
  check_tracked_windows legacy track;
  (* project each analysis from the walker run and compare with the
     production (VM, cached) analysis entry points *)
  let of_legacy = I.Fused_profile.of_run p legacy in
  let fused () = Analysis.Hotspot.fused ~loop_sid p in
  let dio =
    with_cache_off (fun () ->
        Analysis.Data_inout.of_fused (fused ()) ~loop_sid ~kernel)
  in
  Alcotest.(check bool)
    "data in/out projection" true
    (dio = Analysis.Data_inout.of_fused of_legacy ~loop_sid ~kernel);
  let al =
    with_cache_off (fun () -> Analysis.Alias.of_fused (fused ()) ~loop_sid ~kernel)
  in
  Alcotest.(check bool)
    "alias projection" true
    (al = Analysis.Alias.of_fused of_legacy ~loop_sid ~kernel);
  let fe =
    with_cache_off (fun () ->
        Analysis.Features.analyze ~source:p ~loop_sid ex ~kernel)
  in
  Alcotest.(check bool)
    "features projection" true
    (fe = Analysis.Features.of_fused of_legacy ~loop_sid ex ~kernel)

(* The invariant the one profiling run rests on: a tracked loop of the
   original program yields, bit for bit, the Features, Alias and
   Data_inout records that the extracted, reduced kernel yields when its
   own loop is tracked in a run of the extracted program — the kernel
   observations the flow made before it tracked loops in place. *)
let check_extracted_kernel (b : Benchmarks.Bench_app.t) () =
  let p = Benchmarks.Bench_app.program b ~n:b.profile_n in
  let ex, kernel, h = Psa.Std_flow.prepare_kernel p in
  let loop_sid = h.Analysis.Hotspot.loop_sid in
  let bits v = Marshal.to_string v [ Marshal.No_sharing ] in
  let extracted = I.Fused_profile.of_run ex (I.Eval.run ~focus:kernel ex) in
  let in_place = Analysis.Hotspot.fused ~loop_sid p in
  Alcotest.(check bool)
    "features" true
    (bits (Analysis.Features.of_fused extracted ~loop_sid ex ~kernel)
    = bits (with_cache_off (fun () ->
                Analysis.Features.analyze ~source:p ~loop_sid ex ~kernel)));
  Alcotest.(check bool)
    "alias" true
    (bits (Analysis.Alias.of_fused extracted ~loop_sid ~kernel)
    = bits (Analysis.Alias.of_fused in_place ~loop_sid ~kernel));
  Alcotest.(check bool)
    "data in/out" true
    (bits (Analysis.Data_inout.of_fused extracted ~loop_sid ~kernel)
    = bits (Analysis.Data_inout.of_fused in_place ~loop_sid ~kernel))

let fused_tests =
  List.concat_map
    (fun (b : Benchmarks.Bench_app.t) ->
      [
        Alcotest.test_case (b.id ^ " bare") `Slow (check_fused_bare b);
        (* "focused" predates loop tracking; the ids stay stable *)
        Alcotest.test_case (b.id ^ " focused") `Slow (check_fused_focus b);
      ])
    Benchmarks.Registry.all
  @ List.map
      (fun (b : Benchmarks.Bench_app.t) ->
        Alcotest.test_case (b.id ^ " tracked loop = extracted kernel") `Slow
          (check_extracted_kernel b))
      (Benchmarks.Registry.all @ Benchmarks.Registry.extras)

(* ------------------------------------------------------------------ *)
(* Production engine = reference walker (qcheck, generated programs)  *)
(* ------------------------------------------------------------------ *)

(* Random MiniC kernels exercising scalar and array arithmetic, casts,
   division, math builtins, short-circuit conditions, nested [for],
   bounded [while], compound assignment and user calls — including the
   register-bank boundaries: locals written in both arms of an [if],
   [/=] on int slots and int elements, float-to-int casts as indices,
   and float/int/pointer call arguments — and every kind of region: a
   [double] and a 4-byte [float] array (unboxed elements of both
   sizes), an [int] and a [bool] array (boxed elements).  User calls
   have their declared result types: [pick] (always 1..5) meets int
   operands in [+ - * /], comparisons and [if] conditions.  The helpers
   [clip] and [half] may fall off their end and return zero, [half]'s
   double result meeting an int operand; locals declared inside an
   [if] are read after it, whether or not their declaration ran (they
   read zero); call results are negated.  Loop variables index the
   64-element arrays as [i + 7*j], which stays in bounds for any pair
   of in-scope loop variables (bounds at most 7). *)
let program_gen =
  let open QCheck.Gen in
  let fresh = ref 0 in
  let loop_vars = [ "i"; "j"; "k" ] in
  let rec iexpr depth vars =
    let leaves =
      [ return "u"; return "v"; map string_of_int (int_range 0 9) ]
      @ List.map return vars
    in
    if depth = 0 then oneof leaves
    else
      frequency
        [
          (3, oneof leaves);
          ( 2,
            let* a = iexpr (depth - 1) vars
            and* b = iexpr (depth - 1) vars
            and* op = oneofl [ "+"; "-"; "*" ] in
            return (Printf.sprintf "(%s %s %s)" a op b) );
          ( 1,
            let* a = iexpr (depth - 1) vars in
            return (Printf.sprintf "(%s / 3)" a) );
          ( 1,
            let* a = iexpr (depth - 1) vars in
            return (Printf.sprintf "(-%s)" a) );
          ( 1,
            let* i = idx vars in
            return (Printf.sprintf "b[%s]" i) );
          ( 1,
            let* f = fexpr (depth - 1) vars in
            return (Printf.sprintf "(int)(%s)" f) );
          ( 1,
            let* a = iexpr (depth - 1) vars
            and* b = iexpr (depth - 1) vars
            and* op = oneofl [ "+"; "-"; "*"; "/" ]
            and* call_left = bool in
            return
              (if call_left then Printf.sprintf "(pick(%s) %s %s)" a op b
               else Printf.sprintf "(%s %s pick(%s))" b op a) );
          ( 1,
            let* a = iexpr (depth - 1) vars
            and* b = iexpr (depth - 1) vars
            and* op = oneofl [ "+"; "-"; "*" ] in
            return (Printf.sprintf "(clip(%s) %s %s)" a op b) );
          ( 1,
            let* a = iexpr (depth - 1) vars
            and* b = iexpr (depth - 1) vars
            and* op = oneofl [ "+"; "-"; "*"; "/" ] in
            return (Printf.sprintf "(int)(half(%s) %s %s)" a op b) );
          ( 1,
            let* a = iexpr (depth - 1) vars
            and* f = oneofl [ "pick"; "clip" ] in
            return (Printf.sprintf "(-%s(%s))" f a) );
        ]
  and fexpr depth vars =
    let leaves =
      [
        return "x";
        return "y";
        return "0.25";
        return "1.5";
        return "rand01()";
        (let* i = idx vars in
         return (Printf.sprintf "a[%s]" i));
        (let* i = idx vars in
         return (Printf.sprintf "c[%s]" i));
      ]
    in
    if depth = 0 then oneof leaves
    else
      frequency
        [
          (3, oneof leaves);
          ( 3,
            let* a = fexpr (depth - 1) vars
            and* b = fexpr (depth - 1) vars
            and* op = oneofl [ "+"; "-"; "*" ] in
            return (Printf.sprintf "(%s %s %s)" a op b) );
          ( 1,
            let* a = fexpr (depth - 1) vars in
            return (Printf.sprintf "(%s / 1.25)" a) );
          ( 1,
            let* a = fexpr (depth - 1) vars in
            return (Printf.sprintf "(-%s)" a) );
          ( 1,
            let* a = fexpr (depth - 1) vars
            and* f = oneofl [ "sqrt(fabs(%s))"; "fabs(%s)"; "sin(%s)"; "cos(%s)" ] in
            return (Printf.sprintf (Scanf.format_from_string f "%s") a) );
          ( 1,
            let* i = iexpr (depth - 1) vars in
            return (Printf.sprintf "(double)(%s)" i) );
          ( 1,
            let* i = iexpr (depth - 1) vars in
            return (Printf.sprintf "(-half(%s))" i) );
        ]
  and idx vars =
    let open QCheck.Gen in
    (* float-to-int casts as indices: both stay within [0, 62] *)
    let casts =
      [
        return "(int)(rand01() * 63.0)";
        map (Printf.sprintf "(int)((double)%d * 1.5)") (int_range 0 41);
      ]
    in
    match vars with
    | [] -> oneof (map string_of_int (int_range 0 63) :: casts)
    | v :: rest ->
        oneof
          ([ return v; map string_of_int (int_range 0 63) ]
          @ casts
          @
          match rest with
          | w :: _ -> [ return (Printf.sprintf "(%s + 7 * %s)" v w) ]
          | [] -> [])
  and cond depth vars =
    let open QCheck.Gen in
    let cmp =
      frequency
        [
          ( 2,
            let* a = fexpr 1 vars
            and* b = fexpr 1 vars
            and* op = oneofl [ "<"; "<="; ">"; ">="; "!=" ] in
            return (Printf.sprintf "%s %s %s" a op b) );
          ( 1,
            let* a = iexpr 1 vars
            and* b = iexpr 1 vars
            and* op = oneofl [ "<"; "=="; ">" ] in
            return (Printf.sprintf "%s %s %s" a op b) );
          ( 1,
            let* i = idx vars in
            return (Printf.sprintf "e[%s]" i) );
          ( 1,
            let* a = iexpr 1 vars
            and* b = iexpr 1 vars
            and* op = oneofl [ "<"; "<="; "=="; "!="; ">" ] in
            return (Printf.sprintf "pick(%s) %s %s" a op b) );
        ]
    in
    if depth = 0 then cmp
    else
      frequency
        [
          (3, cmp);
          ( 1,
            let* a = cond (depth - 1) vars
            and* b = cond (depth - 1) vars
            and* op = oneofl [ "&&"; "||" ] in
            return (Printf.sprintf "(%s) %s (%s)" a op b) );
        ]
  and stmt depth vars =
    let open QCheck.Gen in
    let simple =
      frequency
        [
          ( 3,
            let* t = oneofl [ "x"; "y" ]
            and* op = oneofl [ "="; "+="; "-="; "*=" ]
            and* e = fexpr 2 vars in
            return (Printf.sprintf "%s %s %s;" t op e) );
          ( 2,
            let* t = oneofl [ "u"; "v" ]
            and* op = oneofl [ "="; "+=" ]
            and* e = iexpr 2 vars in
            return (Printf.sprintf "%s %s %s;" t op e) );
          ( 2,
            let* i = idx vars
            and* op = oneofl [ "="; "+=" ]
            and* e = fexpr 2 vars in
            return (Printf.sprintf "a[%s] %s %s;" i op e) );
          ( 1,
            let* i = idx vars
            and* e = iexpr 2 vars in
            return (Printf.sprintf "b[%s] = %s;" i e) );
          ( 1,
            let* i = idx vars
            and* op = oneofl [ "="; "+="; "*=" ]
            and* e = fexpr 2 vars in
            return (Printf.sprintf "c[%s] %s %s;" i op e) );
          ( 1,
            let* i = idx vars
            and* c = cond 0 vars in
            return (Printf.sprintf "e[%s] = %s;" i c) );
          (* compound [/=] on an int slot and on int elements; a float
             divisor's quotient converts back to the int element *)
          (1, map (Printf.sprintf "u /= %d;") (int_range 1 4));
          ( 1,
            let* i = idx vars
            and* d = oneofl [ "2"; "3"; "2.5" ] in
            return (Printf.sprintf "b[%s] /= %s;" i d) );
          (* a call passing float, int and pointer arguments and
             returning a float *)
          ( 1,
            let* t = oneofl [ "x"; "y" ]
            and* op = oneofl [ "="; "+=" ]
            and* f = fexpr 1 vars
            and* i = iexpr 1 vars
            and* k = idx vars in
            return (Printf.sprintf "%s %s mix(%s, %s, a, %s);" t op f i k) );
          (* float and int locals written in both arms of an [if], the
             float declared without an initializer *)
          ( 1,
            let n =
              incr fresh;
              !fresh
            in
            let* c = cond 0 vars
            and* f1 = fexpr 1 vars
            and* f2 = fexpr 1 vars
            and* i1 = iexpr 1 vars
            and* i2 = iexpr 1 vars in
            return
              (Printf.sprintf
                 "double f%d;\nint g%d = 0;\nif (%s) {\nf%d = %s;\ng%d = %s;\n} else \
                  {\nf%d = %s;\ng%d = %s;\n}\nx += f%d;\nu += g%d;"
                 n n c n f1 n i1 n f2 n i2 n n) );
          (* an int and a float local read after the [if] that declares
             them, whether or not their declarations ran *)
          ( 1,
            let n =
              incr fresh;
              !fresh
            in
            let* c = cond 0 vars
            and* i = iexpr 1 vars
            and* f = fexpr 1 vars in
            return
              (Printf.sprintf
                 "if (%s) {\nint t%d = %s;\ndouble h%d = %s;\n}\nu += t%d;\nx += h%d;"
                 c n i n f n n) );
        ]
    in
    if depth = 0 then simple
    else
      frequency
        [
          (4, simple);
          ( 2,
            let* c = cond 1 vars
            and* a = block (depth - 1) vars
            and* b = block (depth - 1) vars
            and* has_else = bool in
            return
              (if has_else then
                 Printf.sprintf "if (%s) {\n%s\n} else {\n%s\n}" c a b
               else Printf.sprintf "if (%s) {\n%s\n}" c a) );
          ( 2,
            match List.find_opt (fun v -> not (List.mem v vars)) loop_vars with
            | None -> simple
            | Some v ->
                let* bound = int_range 2 6
                and* body = block (depth - 1) (v :: vars) in
                return
                  (Printf.sprintf "for (int %s = 0; %s < %d; %s++) {\n%s\n}" v
                     v bound v body) );
          ( 1,
            let w =
              incr fresh;
              Printf.sprintf "w%d" !fresh
            in
            let* bound = int_range 1 4
            and* body = block (depth - 1) vars in
            return
              (Printf.sprintf
                 "int %s = %d;\nwhile (%s > 0) {\n%s = %s - 1;\n%s\n}" w bound
                 w w w body) );
        ]
  and block depth vars =
    let open QCheck.Gen in
    let* n = int_range 1 3 in
    let* stmts = flatten_l (List.init n (fun _ -> stmt depth vars)) in
    return (String.concat "\n" stmts)
  in
  let* body = block 3 [] in
  return
    (Printf.sprintf
       {|
int pick(int q) {
  return (q %% 5 + 5) %% 5 + 1;
}

int clip(int q) {
  if (q < 4) {
    return q;
  }
}

double half(int q) {
  if (q > 2) {
    return (double)q * 0.5;
  }
}

double mix(double p, int q, double* r, int k) {
  double t = p * 0.5 + (double)q;
  return t + r[k];
}

double work(double* a, int* b, float* c, bool* e, int n) {
  double x = 0.5;
  double y = 1.5;
  int u = 3;
  int v = 7;
%s
  return x + y + (double)u + 0.125 * (double)v;
}

int main() {
  int n = 64;
  double a[n];
  int b[n];
  float c[n];
  bool e[n];
  for (int s = 0; s < n; s++) {
    a[s] = rand01();
    b[s] = s;
    c[s] = rand01();
    e[s] = s %% 3 == 0;
  }
  double acc = 0.0;
  for (int t = 0; t < 3; t++) {
    acc += work(a, b, c, e, n);
  }
  print_float(acc);
  print_int(b[5]);
  print_float(c[5]);
  if (e[5]) {
    print_int(1);
  }
  return 0;
}
|}
       body)

let program_arb = QCheck.make ~print:Fun.id program_gen

(* A run's fingerprint, or the exception it raised: a generated program
   may fault (say, a float grown to infinity and cast to an index), and
   then the engine must raise the walker's exception, message
   included. *)
let outcome f =
  match f () with
  | r -> Ok (run_fingerprint r)
  | exception e -> Error (Printexc.to_string e)

(* The loop sets a generated program's runs track, neither with nested
   loops (tracked loops must not nest): the ones hotspot selection can
   reach in [main] (the flow's set), and every innermost loop of [work]
   with [work]'s four arrays as arguments — some invoked many times per
   call of [work]. *)
let gen_tracks p : I.Eval.track list =
  let work = Artisan.Query.(stmts_in ~where:is_loop p "work") in
  let encloses_loop (m : Artisan.Query.match_ctx) =
    List.exists
      (fun (c : Artisan.Query.match_ctx) ->
        List.exists (fun (s : Minic.Ast.stmt) -> s.sid = m.stmt.sid) c.path)
      work
  in
  [
    Analysis.Hotspot.tracked p;
    List.filter_map
      (fun m ->
        if encloses_loop m then None
        else Some (m.stmt.sid, [ "a"; "b"; "c"; "e" ]))
      work;
  ]

(* The production engine ([Eval.run]: the bytecode VM with its kernels)
   must be indistinguishable from the reference tree walker — identical
   profile, counters, loop stats, kernel observations, output and return
   value — bare and tracked; and timer instrumentation must cost
   nothing on either engine. *)
let engine_equivalence_prop =
  QCheck.Test.make ~count:30 ~name:"engine = walker on generated programs"
    program_arb (fun src ->
      let p = Minic.Parser.parse_program src in
      let walker = outcome (fun () -> I.Eval.run_ir (I.Resolve.compile p)) in
      let engine = outcome (fun () -> I.Eval.run p) in
      let bare_ok = walker = engine in
      let focus_ok =
        List.for_all
          (fun track ->
            outcome (fun () -> I.Eval.run_ir ~track (I.Resolve.compile p))
            = outcome (fun () -> I.Eval.run ~track p))
          (gen_tracks p)
      in
      let cycles_output = function
        | Ok ((cycles, _, _, _, _, _), _, _, _, output, _) -> Ok (cycles, output)
        | Error e -> Error e
      in
      let instr = outcome (fun () -> I.Eval.run (Analysis.Hotspot.instrument p)) in
      let instr_ok = cycles_output instr = cycles_output engine in
      if not bare_ok then QCheck.Test.fail_report "bare run diverges";
      if not focus_ok then QCheck.Test.fail_report "tracked run diverges";
      if not instr_ok then QCheck.Test.fail_report "instrumented run diverges";
      true)

(* The differential oracle of loop tracking: on generated programs the
   VM's tracked run equals the walker's bit for bit — whole profile and
   every tracked loop's observations — and every tracked loop's kernel
   calls and cycles are its loop-stat invocations and window. *)
let tracked_oracle_prop =
  QCheck.Test.make ~count:40
    ~name:"tracked run: vm = walker, kernel window = loop window"
    program_arb (fun src ->
      let p = Minic.Parser.parse_program src in
      List.iter
        (fun track ->
          let walker =
            outcome (fun () -> I.Eval.run_ir ~track (I.Resolve.compile p))
          in
          let vm = outcome (fun () -> I.Eval.run_vm ~track (I.Eval.compile p)) in
          if walker <> vm then QCheck.Test.fail_report "tracked run diverges";
          match I.Eval.run_vm ~track (I.Eval.compile p) with
          | exception _ -> ()
          | r ->
              List.iter
                (fun (sid, _) ->
                  match
                    ( I.Profile.loop_stat_opt r.profile sid,
                      I.Profile.kernel_obs r.profile sid )
                  with
                  | None, None -> ()
                  | Some s, Some k
                    when s.invocations = k.calls
                         && Int64.equal
                              (Int64.bits_of_float s.cycles)
                              (Int64.bits_of_float k.k_cycles) ->
                      ()
                  | _ ->
                      QCheck.Test.fail_reportf "loop %d: window differs" sid)
                track)
        (gen_tracks p);
      true)

let counter name = Flow_obs.Metrics.counter_value Flow_obs.Metrics.global name

(* A flow runs in the calling domain: an uninformed flow of every paper
   benchmark maps nothing on the domain pool, and each of its sweeps
   simulates its full candidate ladder exactly once. *)
let flow_spawns_no_domains () =
  List.iter
    (fun (app : Benchmarks.Bench_app.t) ->
      let items0 = counter "pool_items" in
      let calls0 = counter "dse_simulate_calls" in
      let o = Psa.Std_flow.run_uninformed (Benchmarks.Bench_app.context app) in
      let ladder (r : Devices.Simulate.result) =
        let d = r.design in
        match d.target with
        | Codegen.Design.Cpu_openmp ->
            List.length (thread_ladder (Devices.Spec.find_cpu d.device_id))
        | Codegen.Design.Gpu_hip ->
            List.length (blocksize_ladder (Devices.Spec.find_gpu d.device_id))
        | Codegen.Design.Fpga_oneapi -> List.length unroll_ladder
      in
      Alcotest.(check int)
        (app.id ^ ": no pool items") 0
        (counter "pool_items" - items0);
      Alcotest.(check int)
        (app.id ^ ": five designs") 5 (List.length o.results);
      Alcotest.(check int)
        (app.id ^ ": simulate calls = full ladders")
        (List.fold_left (fun n r -> n + ladder r) 0 o.results)
        (counter "dse_simulate_calls" - calls0))
    Benchmarks.Registry.all

(* A cold flow interprets its program once: the profiling run tracks
   every loop hotspot selection can stop at, so detection and every
   kernel analysis read one execution.  An inline submission's flow
   (no secondary size) costs 1 run, informed or uninformed; a benchmark
   context's costs 2 (profiling size plus secondary size). *)
let cold_flow_interp_runs () =
  let cold () =
    Psa.Stage_memo.clear ();
    Flow_memo.Cache.clear Analysis.Features.memo;
    Minic_interp.Profile_cache.clear ()
  in
  let runs f =
    cold ();
    let r0 = counter "interp_runs" in
    ignore (f ());
    counter "interp_runs" - r0
  in
  List.iter
    (fun (app : Benchmarks.Bench_app.t) ->
      let inline () =
        Psa.Context.make ~benchmark:"inline"
          (Psa.Stage_memo.parse (app.source ~n:app.profile_n))
      in
      Alcotest.(check int)
        (app.id ^ ": inline informed") 1
        (runs (fun () -> Psa.Std_flow.run_informed (inline ())));
      Alcotest.(check int)
        (app.id ^ ": inline uninformed") 1
        (runs (fun () -> Psa.Std_flow.run_uninformed (inline ())));
      Alcotest.(check int)
        (app.id ^ ": benchmark context") 2
        (runs (fun () ->
             Psa.Std_flow.run_uninformed (Benchmarks.Bench_app.context app))))
    Benchmarks.Registry.all;
  cold ()

(* ------------------------------------------------------------------ *)
(* Kernel specialization: bit-identity vs the reference walker         *)
(* ------------------------------------------------------------------ *)

(* Kernel specialization must leave every observable of a run untouched
   — profile totals, per-loop stats, kernel observations, output, return
   value — bare and with the hotspot-reachable loops tracked: the
   production compile against the reference walker on the slot IR.
   Generated programs are covered by [engine_equivalence_prop]. *)
let check_opt_identity (b : Benchmarks.Bench_app.t) () =
  let p = Benchmarks.Bench_app.program b ~n:b.profile_n in
  let ir = I.Resolve.compile p in
  let track = Analysis.Hotspot.tracked p in
  let compiled = I.Eval.compile p in
  Alcotest.(check bool)
    "bare run identical" true
    (run_fingerprint (I.Eval.run_vm compiled) = run_fingerprint (I.Eval.run_ir ir));
  Alcotest.(check bool)
    "tracked run identical" true
    (run_fingerprint (I.Eval.run_vm ~track compiled)
    = run_fingerprint (I.Eval.run_ir ~track ir))

let opt_tests =
  List.map
    (fun (b : Benchmarks.Bench_app.t) ->
      Alcotest.test_case b.id `Slow (check_opt_identity b))
    Benchmarks.Registry.all

(* ================================================================== *)
(* Register-bytecode VM (Eval.run_vm / Bytecode)                       *)
(* ================================================================== *)

(* The VM obligation over generated programs, lowered without kernels
   (the production path is covered by [engine_equivalence_prop]): the
   bytecode VM must match the reference walker on every observable,
   bare and tracked. *)
let vm_equivalence_prop =
  QCheck.Test.make ~count:30
    ~name:"bytecode VM = walker on generated programs" program_arb
    (fun src ->
      let p = Minic.Parser.parse_program src in
      let ir = I.Resolve.compile p in
      let walker = outcome (fun () -> I.Eval.run_ir ir) in
      let c = I.Eval.compile_resolved ir in
      if outcome (fun () -> I.Eval.run_vm c) <> walker then
        QCheck.Test.fail_report "vm: bare run diverges";
      List.iter
        (fun track ->
          if
            outcome (fun () -> I.Eval.run_vm ~track c)
            <> outcome (fun () -> I.Eval.run_ir ~track ir)
          then QCheck.Test.fail_report "vm: tracked run diverges")
        (gen_tracks p);
      true)

(* Per-benchmark bit-identity of the production VM (every kernel
   fused) against the walker on the slot IR. *)
let check_vm_identity (b : Benchmarks.Bench_app.t) () =
  let p = Benchmarks.Bench_app.program b ~n:b.profile_n in
  let walker = run_fingerprint (I.Eval.run_ir (I.Resolve.compile p)) in
  Alcotest.(check bool)
    "vm = walker" true
    (run_fingerprint (I.Eval.run_vm (I.Eval.compile p)) = walker)

(* The bytecode [Eval.compile] runs: the slot IR, lowered with its
   kernels. *)
let lowered p = I.Bytecode.lower (I.Resolve.compile p)

(* Lowered kernels of a fixed data-parallel source, for selector unit
   tests. *)
let vm_lowered_kernels src =
  let bp = lowered (Minic.Parser.parse_program src) in
  let kps = ref [] in
  Array.iter
    (fun (f : I.Bytecode.fn) ->
      Array.iter
        (function
          | I.Bytecode.IKernel { kp; _ } -> kps := kp :: !kps
          | _ -> ())
        f.I.Bytecode.bc_code)
    (Array.append bp.I.Bytecode.bc_funcs [| bp.I.Bytecode.bc_globals |]);
  List.rev !kps

let vm_triad_src =
  {|
int main() {
  int n = 64;
  double x[n];
  double y[n];
  for (int i = 0; i < n; i++) {
    x[i] = i * 0.5;
    y[i] = i * 0.25;
  }
  double a = 1.5;
  for (int i = 0; i < n; i++) {
    y[i] = y[i] + a * x[i];
  }
  print_float(y[10]);
  return 0;
}
|}

(* The selector on a fixed program: every kernel is marked fused
   (superinstruction fusion or entry hoisting fired) and the fused bodies
   cover fewer micro-ops than the translation emitted. *)
let vm_selector_fuses () =
  let before0 = counter "vm_kernel_ops_before" in
  let kps = vm_lowered_kernels vm_triad_src in
  let before = counter "vm_kernel_ops_before" - before0 in
  Alcotest.(check bool) "kernels lowered" true (List.length kps >= 2);
  List.iter
    (fun (kp : I.Bytecode.kprog) ->
      Alcotest.(check bool) "kernel marked fused" true kp.I.Bytecode.kp_fused)
    kps;
  let after =
    List.fold_left
      (fun n (kp : I.Bytecode.kprog) -> n + Array.length kp.I.Bytecode.kp_ops)
      0 kps
  in
  Alcotest.(check bool) "fusion shrank the bodies" true (after < before)

(* A float cast of a bool literal is ill-typed: the production compile
   refuses it with the checker's error, and the reference walker still
   runs it. *)
let vm_bool_cast_kernel () =
  let src =
    {|
int main() {
  double a[16];
  for (int i = 0; i < 16; i++) {
    a[i] = (double)true * 0.5 + (double)i - (double)false;
  }
  print_float(a[3]);
  return 0;
}
|}
  in
  let p = Minic.Parser.parse_program src in
  (match I.Eval.compile p with
  | _ -> Alcotest.fail "an ill-typed program compiled"
  | exception Minic.Typecheck.Type_error (m, _) ->
      Alcotest.(check string) "refusal" "invalid cast from bool to double" m);
  Alcotest.(check string)
    "walker output" "3.5\n"
    (I.Eval.run_ir (I.Resolve.compile p)).I.Eval.output

(* Constant pools key a float literal by its bits: [0.0] and [-0.0]
   compare equal as floats but must keep separate constant registers,
   banked (the divisions) and boxed (the array stores) alike.  The
   parser reads [-0.0] as a negated literal, so the program is built
   with a [-0.0] literal node directly. *)
let vm_signed_zero_literals () =
  let open Minic.Builder in
  let z = -0.0 in
  let p =
    Minic.Ast.number
      (program
         [
           func ~ret:Minic.Ast.Tint "main" []
             [
               decl ~size:(int 2) Minic.Ast.Tdouble "s";
               set_idx (var "s") (int 0) (flt 0.0);
               set_idx (var "s") (int 1) (flt z);
               call_stmt "print_float" [ flt 1.0 /: flt 0.0 ];
               call_stmt "print_float" [ flt 1.0 /: flt z ];
               call_stmt "print_float" [ flt 1.0 /: idx (var "s") (int 0) ];
               call_stmt "print_float" [ flt 1.0 /: idx (var "s") (int 1) ];
               return_ (int 0);
             ];
         ])
  in
  let walker = I.Eval.run_ir (I.Resolve.compile p) in
  Alcotest.(check string)
    "walker output" "inf\n-inf\ninf\n-inf\n" walker.I.Eval.output;
  Alcotest.(check bool)
    "vm = walker" true
    (run_fingerprint (I.Eval.run_vm (I.Eval.compile p))
    = run_fingerprint walker)

(* The typed-arithmetic mix of a lowered program, over every function
   and the globals block: for arith, div, cmp and fused compare-branch
   (rows, in that order), how many instructions are float and int
   (columns). *)
let instr_mix (bp : I.Bytecode.program) =
  let m = Array.make_matrix 4 2 0 in
  let bump c k = m.(c).(k) <- m.(c).(k) + 1 in
  let kind = function I.Bytecode.KFlt -> 0 | KInt -> 1 in
  Array.iter
    (fun (f : I.Bytecode.fn) ->
      Array.iter
        (function
          | I.Bytecode.IArithF _ -> bump 0 0
          | IArithI _ -> bump 0 1
          | IDivF _ -> bump 1 0
          | IDivI _ -> bump 1 1
          | ICmp { kind = k; _ } -> bump 2 (kind k)
          | IBrCmp { kind = k; _ } -> bump 3 (kind k)
          | _ -> ())
        f.I.Bytecode.bc_code)
    (Array.append bp.I.Bytecode.bc_funcs [| bp.I.Bytecode.bc_globals |]);
  m

let mix_rows = [ "arith"; "div"; "cmp"; "brcmp" ]

let show_mix m =
  String.concat " "
    (List.mapi
       (fun c row -> Printf.sprintf "%s %d/%d" row m.(c).(0) m.(c).(1))
       mix_rows)

(* An exact counter: the production lowering of every paper benchmark at
   its profiling size, as float/int instruction counts.  A move
   in any count means the lowering now picks a different instruction for
   some operation, which changes what the VM runs. *)
let lowered_mix_pinned () =
  List.iter
    (fun (id, expected) ->
      let b = Benchmarks.Registry.find id in
      let p = Benchmarks.Bench_app.program b ~n:b.profile_n in
      Alcotest.(check string)
        (id ^ " lowered mix") expected
        (show_mix (instr_mix (lowered p))))
    [
      ("rush_larsen", "arith 159/1 div 28/0 cmp 2/0 brcmp 0/0");
      ("nbody", "arith 66/0 div 4/0 cmp 0/0 brcmp 0/0");
      ("bezier", "arith 31/27 div 4/1 cmp 0/0 brcmp 0/0");
      ("adpredictor", "arith 74/5 div 5/0 cmp 0/0 brcmp 0/1");
      ("kmeans", "arith 10/18 div 2/0 cmp 0/0 brcmp 2/2");
    ]

(* The kernel table of a program's production lowering: kernels, their
   micro-ops before fusion (the [vm_kernel_ops_before] counter) and
   after, and the literals and invariant loads hoisted to kernel
   entry. *)
let kernel_table p =
  let before0 = counter "vm_kernel_ops_before" in
  let bp = lowered p in
  let kernels = ref 0 and after = ref 0 and lits = ref 0 and pref = ref 0 in
  Array.iter
    (fun (f : I.Bytecode.fn) ->
      Array.iter
        (function
          | I.Bytecode.IKernel { kp; _ } ->
              incr kernels;
              after := !after + Array.length kp.I.Bytecode.kp_ops;
              lits := !lits + Array.length kp.I.Bytecode.kp_lits;
              pref := !pref + Array.length kp.I.Bytecode.kp_prefetch
          | _ -> ())
        f.I.Bytecode.bc_code)
    (Array.append bp.I.Bytecode.bc_funcs [| bp.I.Bytecode.bc_globals |]);
  [| !kernels; counter "vm_kernel_ops_before" - before0; !after; !lits; !pref |]

let show_table t =
  Printf.sprintf "kernels %d ops %d->%d lits %d prefetch %d" t.(0) t.(1) t.(2)
    t.(3) t.(4)

(* Exact counters: every benchmark's kernel table at its profiling size,
   and its sum over the ten programs of the five-benchmark evaluation
   (profiling and secondary size).  A move in any count means kernel
   specialization or the superinstruction selector now builds different
   kernels. *)
let kernel_table_pinned () =
  let table (b : Benchmarks.Bench_app.t) n =
    kernel_table (Benchmarks.Bench_app.program b ~n)
  in
  List.iter
    (fun (id, expected) ->
      let b = Benchmarks.Registry.find id in
      Alcotest.(check string)
        (id ^ " kernel table") expected
        (show_table (table b b.profile_n)))
    [
      ("rush_larsen", "kernels 4 ops 404->172 lits 121 prefetch 0");
      ("nbody", "kernels 4 ops 79->40 lits 2 prefetch 3");
      ("bezier", "kernels 6 ops 59->38 lits 4 prefetch 0");
      ("adpredictor", "kernels 2 ops 13->7 lits 0 prefetch 0");
      ("kmeans", "kernels 7 ops 24->14 lits 2 prefetch 0");
      ("jacobi", "kernels 2 ops 10->6 lits 1 prefetch 0");
    ];
  let total = Array.make 5 0 in
  List.iter
    (fun (b : Benchmarks.Bench_app.t) ->
      List.iter
        (fun n -> Array.iteri (fun i v -> total.(i) <- total.(i) + v) (table b n))
        [ b.profile_n; b.secondary_n ])
    Benchmarks.Registry.all;
  Alcotest.(check string)
    "five-benchmark evaluation" "kernels 46 ops 1158->542 lits 258 prefetch 6"
    (show_table total)

(* Exact counters: each benchmark's bulk share — the virtual cycles its
   kernels charge in bulk over all cycles of its tracked profiling run —
   at its profiling and its secondary size.  A move means some loop of
   the profiling run now runs on the generic VM, or leaves it. *)
let bulk_share_pinned () =
  List.iter
    (fun (b : Benchmarks.Bench_app.t) ->
      let share n = (Benchmarks.Vm_cost.measure ~n b).run.bulk_share in
      Alcotest.(check string)
        (b.id ^ " bulk share")
        (List.assoc b.id
           [
             ("rush_larsen", "0.9882 0.9882");
             ("nbody", "0.9874 0.9929");
             ("bezier", "0.9003 0.9004");
             ("adpredictor", "0.0136 0.0154");
             ("kmeans", "0.9742 0.9742");
           ])
        (Printf.sprintf "%.4f %.4f" (share b.profile_n) (share b.secondary_n)))
    Benchmarks.Registry.all

(* Kernels convert affine int expressions of the loop index to float
   through counters.  Each case's loop [i] of [main] lowers to a kernel;
   the VM equals the walker untracked and with that loop tracked over
   [a] and [x] (output, whole profile, kernel record), and a case with
   iterations charges its loop in bulk. *)
let int_to_float_cases =
  let src header body =
    Printf.sprintf
      {|
int main() {
  int n = 12;
  int k = 3;
  int m = 0;
  double a[n + n];
  double x[n + n];
  for (int j = 0; j < n + n; j++) { x[j] = rand01() + 0.5; }
  for (%s) { %s }
  print_float(a[0] + a[1] + a[5] + a[11]);
  return 0;
}
|}
      header body
  in
  [
    ( "(double)(n - 1 - i)",
      true,
      src "int i = 0; i < n; i++" "a[i] = pow(x[i], (double)(n - 1 - i));" );
    ( "(double)(2*i + k)",
      true,
      src "int i = 0; i < n; i++" "a[i] = x[i] * (double)(2 * i + k);" );
    ( "(double)(i + 1), twice, and the bare index",
      true,
      src "int i = 0; i < n; i++"
        "a[i] = x[i] / (double)(i + 1) + (double)(i + 1) * 0.5 - (double)i;" );
    ( "an uncast int operand of float arithmetic",
      true,
      src "int i = 0; i < n; i++" "a[i] = x[i] * (k - i) + (-i);" );
    ( "a step of 2 and an inclusive bound",
      true,
      src "int i = 1; i <= n + 5; i += 2" "a[i] = (double)(3 * i - k) * x[i];" );
    ( "a negative step",
      false,
      src "int i = n - 1; i < 2; i += -1" "a[i] = (double)(n - i) * x[i];" );
    ( "zero trips",
      false,
      src "int i = 0; i < m; i++" "a[i] = (double)(i + 1) * x[i];" );
    ( "one trip",
      true,
      src "int i = 5; i < 6; i++" "a[i] = (double)(n - 1 - i) * x[i];" );
  ]

let check_int_to_float (name, charged, src) () =
  let p = Minic.Parser.parse_program src in
  Minic.Typecheck.check_program p;
  Alcotest.(check int) (name ^ ": kernels") 1 (List.length (vm_lowered_kernels src));
  let sid =
    (List.find
       (fun (m : Artisan.Query.match_ctx) ->
         match m.stmt.snode with
         | Minic.Ast.For (h, _) -> h.index = "i"
         | _ -> false)
       (Artisan.Query.stmts_in p "main"))
      .stmt
      .sid
  in
  let ir = I.Resolve.compile p and c = I.Eval.compile p in
  List.iter
    (fun track ->
      let n0 = Benchmarks.Vm_cost.bulk_cycles () in
      let vm = outcome (fun () -> I.Eval.run_vm ~track c) in
      let n1 = Benchmarks.Vm_cost.bulk_cycles () in
      Alcotest.(check bool) (name ^ ": vm = walker") true
        (vm = outcome (fun () -> I.Eval.run_ir ~track ir));
      Alcotest.(check bool) (name ^ ": charged in bulk") charged (n1 > n0))
    [ []; [ (sid, [ "a"; "x" ]) ] ]

(* What stays on the generic VM: a conversion of a non-affine int
   expression, and a body that writes an int slot. *)
let int_to_float_shapes () =
  let kernels body =
    List.length
      (vm_lowered_kernels
         (Printf.sprintf
            {|
int main() {
  int n = 8;
  int m = 0;
  double a[n];
  for (int i = 0; i < n; i++) { %s }
  print_float(a[3]);
  return 0;
}
|}
            body))
  in
  Alcotest.(check int) "(double)(i + 1)" 1 (kernels "a[i] = (double)(i + 1);");
  Alcotest.(check int) "(double)(i*i)" 0 (kernels "a[i] = (double)(i * i);");
  Alcotest.(check int) "(double)(i/2)" 0 (kernels "a[i] = (double)(i / 2);");
  Alcotest.(check int) "int slot written" 0
    (kernels "m = i + 1; a[i] = (double)(m + i);");
  Alcotest.(check int) "int local declared" 0
    (kernels "int t = i + 1; a[i] = (double)t;")

(* How many of the 30 programs the "bytecode VM = walker" property
   draws (seed 2124) hold each shape the typing rules govern: a call of
   the int helper that may fall off its end, the double one meeting an
   int operand, a local read after the [if] that declares it, and a
   negated call result.  A generator change that drops a shape shows
   here. *)
let generated_program_shapes () =
  let sources =
    QCheck.Gen.generate ~rand:(Random.State.make [| 2124 |]) ~n:30 program_gen
  in
  let count needles =
    List.length
      (List.filter
         (fun src -> List.exists (Astring_contains.contains src) needles)
         sources)
  in
  Alcotest.(check (list (pair string int)))
    "programs per shape"
    [
      ("int helper may fall off", 17);
      ("double helper meets an int", 15);
      ("local read after its block", 12);
      ("negated call", 22);
    ]
    [
      ("int helper may fall off", count [ "(clip("; "-clip(" ]);
      ("double helper meets an int", count [ "(int)(half(" ]);
      ("local read after its block", count [ "}\nu += t" ]);
      ("negated call", count [ "(-pick("; "(-clip("; "(-half(" ]);
    ]

(* Runtime errors, raised from banked registers: the VM (without and
   with kernels) raises the walker's message at the walker's fault
   point. *)
let error_cases =
  [
    ( "integer division by zero in an int temporary",
      200_000_000,
      {|
int main() {
  int a = 7;
  int b = 3;
  int c = (a + 1) / (b * 2 - 6);
  print_int(c);
  return 0;
}
|},
      "integer division by zero" );
    ( "out-of-bounds index computed by a cast",
      200_000_000,
      {|
int main() {
  double arr[4];
  double x = 1.25;
  for (int i = 0; i < 4; i++) {
    arr[i] = x * (double)i;
  }
  double s = arr[(int)(x * 4.0)];
  print_float(s);
  return 0;
}
|},
      "out-of-bounds read of 'arr' at index 5 (size 4)" );
    ( "fuel exhaustion inside a float-heavy loop",
      5_000,
      {|
int main() {
  double s = 0.5;
  for (int i = 0; i < 100000; i++) {
    s = s * 1.0001 + sqrt((double)i) / (s + 1.0);
  }
  print_float(s);
  return 0;
}
|},
      "execution budget exhausted (infinite loop?)" );
  ]

(* A frame starts with every slot at its declared type's zero: the
   checker keeps a declaration visible after its block, so the else arm
   reads [t] before any write on the first iteration, and reads 0.0 in
   the walker and the VM (without and with kernels) alike. *)
let vm_read_before_write () =
  let p =
    Minic.Parser.parse_program
      {|
int main() {
  double s = 0.0;
  for (int i = 0; i < 3; i++) {
    if (i > 0) {
      double t = 1.5;
      s = s + t;
    } else {
      s = s + t;
    }
  }
  print_float(s);
  return 0;
}
|}
  in
  let ir = I.Resolve.compile p in
  let walker = I.Eval.run_ir ir in
  Alcotest.(check string) "walker output" "3\n" walker.I.Eval.output;
  List.iter
    (fun (engine, c) ->
      Alcotest.(check bool)
        (engine ^ " = walker") true
        (run_fingerprint (I.Eval.run_vm c) = run_fingerprint walker))
    [ ("VM without kernels", I.Eval.compile_resolved ir); ("VM", I.Eval.compile p) ]

let check_error_message (_, fuel, src, expected) () =
  let p = Minic.Parser.parse_program src in
  let message engine f =
    match f () with
    | (_ : I.Eval.run) -> Alcotest.failf "%s: no runtime error" engine
    | exception I.Value.Runtime_error m -> m
  in
  let walker = message "walker" (fun () -> I.Eval.run_ir ~fuel (I.Resolve.compile p)) in
  Alcotest.(check string) "walker message" expected walker;
  Alcotest.(check string)
    "VM without kernels" walker
    (message "raw VM" (fun () ->
         I.Eval.run_vm ~fuel (I.Eval.compile_resolved (I.Resolve.compile p))));
  Alcotest.(check string)
    "VM with kernels" walker
    (message "VM" (fun () -> I.Eval.run_vm ~fuel (I.Eval.compile p)))

(* Minor-heap words per virtual cycle are a deterministic counter: the
   banked VM boxes a value only where it leaves a bank, so every paper
   benchmark's tracked profiling run stays under the ceiling.  One boxed
   float per VM loop iteration breaks it. *)
let check_alloc_ceiling (b : Benchmarks.Bench_app.t) () =
  let r = (Benchmarks.Vm_cost.measure b).run in
  if r.words_per_cycle > Benchmarks.Vm_cost.words_per_cycle_ceiling then
    Alcotest.failf "%s profiling run: %.3f minor words per virtual cycle (ceiling %g)"
      b.id r.words_per_cycle Benchmarks.Vm_cost.words_per_cycle_ceiling

let vm_tests =
  List.map
    (fun (b : Benchmarks.Bench_app.t) ->
      (* the names predate the deletion of the domain and selector-off
         axes; the ids stay stable *)
      Alcotest.test_case (b.id ^ " superinstructions x domains") `Slow
        (check_vm_identity b))
    Benchmarks.Registry.all
  @ [
      Alcotest.test_case "selector fuses hot kernels" `Quick vm_selector_fuses;
      Alcotest.test_case "float cast of a bool literal in a kernel" `Quick
        vm_bool_cast_kernel;
      Alcotest.test_case "0.0 and -0.0 literals keep separate constants"
        `Quick vm_signed_zero_literals;
      QCheck_alcotest.to_alcotest
        ~rand:(Random.State.make [| 2124 |])
        vm_equivalence_prop;
      Alcotest.test_case "lowered instruction mix per benchmark" `Quick
        lowered_mix_pinned;
      Alcotest.test_case "kernel table per benchmark" `Quick kernel_table_pinned;
      Alcotest.test_case "generated programs reach each typing shape"
        `Quick generated_program_shapes;
      Alcotest.test_case "bulk share per benchmark" `Quick bulk_share_pinned;
      Alcotest.test_case "int-to-float shapes that stay generic" `Quick
        int_to_float_shapes;
    ]
  @ List.map
      (fun ((name, _, _) as case) ->
        Alcotest.test_case ("int-to-float: " ^ name) `Quick
          (check_int_to_float case))
      int_to_float_cases
  @ List.map
      (fun ((name, _, _, _) as case) ->
        Alcotest.test_case ("error: " ^ name) `Quick (check_error_message case))
      error_cases
  @ [
      (* in the slot of the error case it replaced *)
      Alcotest.test_case "a float local read before its first write reads zero"
        `Quick vm_read_before_write;
    ]
  @ List.map
      (fun (b : Benchmarks.Bench_app.t) ->
        Alcotest.test_case (b.id ^ " minor words per cycle") `Slow
          (check_alloc_ceiling b))
      Benchmarks.Registry.all

(* ------------------------------------------------------------------ *)
(* Content keys                                                        *)
(* ------------------------------------------------------------------ *)

let digest = Minic.Ast.digest
let parse = Minic.Parser.parse_program

(* The text key the memo tables used before {!Minic.Ast.digest}: the
   pretty-printed program, its pre-order loop ids and the [?loop] id.
   The digest must never be coarser than it. *)
let text_key ?loop p =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Minic.Pretty.program_to_string p);
  Buffer.add_char buf '\000';
  Minic.Ast.iter_program
    ~fs:(fun s ->
      match s.snode with
      | For _ | While _ ->
          Buffer.add_string buf (string_of_int s.sid);
          Buffer.add_char buf ';'
      | _ -> ())
    p;
  Option.iter
    (fun sid ->
      Buffer.add_char buf '#';
      Buffer.add_string buf (string_of_int sid))
    loop;
  Digest.string (Buffer.contents buf)

let key_src ?(pragma = "omp parallel for") lit =
  Printf.sprintf
    {|
int main() {
  double a[8];
  #pragma %s
  for (int i = 0; i < 8; i++) { a[i] = %s * i; }
  print_float(a[3]);
  return 0;
}
|}
    pragma lit

let keys_equal_across_parses () =
  let src = key_src "1.5" in
  Alcotest.(check bool)
    "two parses" true
    (digest (parse src) = digest (parse src));
  let spaced =
    String.split_on_char ' ' src |> String.concat "  "
    |> String.split_on_char '\n' |> String.concat "\n\n\t"
  in
  Alcotest.(check bool)
    "whitespace only" true
    (digest (parse src) = digest (parse spaced))

let keys_separate_variants () =
  let base = parse (key_src "1.5") in
  let differs what p =
    Alcotest.(check bool) what false (digest base = digest p)
  in
  let ulp = Printf.sprintf "%.17g" (Float.succ 1.5) in
  differs "one ulp" (parse (key_src ulp));
  differs "single" (parse (key_src "1.5f"));
  differs "pragma argument" (parse (key_src ~pragma:"omp parallel" "1.5"));
  let renumber (f : Minic.Ast.func) =
    {
      f with
      fbody =
        List.map
          (fun (s : Minic.Ast.stmt) ->
            match s.snode with For _ -> { s with sid = s.sid + 100 } | _ -> s)
          f.fbody;
    }
  in
  let renumbered = { base with funcs = List.map renumber base.funcs } in
  Alcotest.(check string)
    "same printed text"
    (Minic.Pretty.program_to_string base)
    (Minic.Pretty.program_to_string renumbered);
  differs "loop sid" renumbered;
  let loop = (List.hd (Analysis.Hotspot.candidates base)).stmt.sid in
  Alcotest.(check bool) "?loop given" false (digest base = digest ~loop base);
  Alcotest.(check bool)
    "?loop differs" false
    (digest ~loop base = digest ~loop:(loop + 1) base)

(* One-ulp moves of any single model input, and 0.0 against -0.0 in any
   position, give a different sweep key. *)
let sweep_key_separates_inputs () =
  let b = Benchmarks.Registry.find "nbody" in
  let p = Benchmarks.Bench_app.program b ~n:b.profile_n in
  let ex, kernel, h = Psa.Std_flow.prepare_kernel p in
  let loop_sid = h.Analysis.Hotspot.loop_sid in
  let features = Analysis.Features.analyze ~source:p ~loop_sid ex ~kernel in
  let design =
    Codegen.Design.make ~name:"hip_rtx2080ti" ~target:Codegen.Design.Gpu_hip
      ~device_id:"rtx2080ti" ~program:ex ~kernel ~device_kernel:kernel
  in
  let inputs = Dse.Sweep_memo.model_inputs design features in
  let key ?(candidates = [ 32; 64 ]) xs =
    Dse.Sweep_memo.key ~sweep:"blocksize" ~design xs ~candidates
  in
  let set i v = List.mapi (fun j x -> if i = j then v else x) inputs in
  List.iteri
    (fun i x ->
      Alcotest.(check bool)
        (Printf.sprintf "input %d one ulp" i)
        false
        (key inputs = key (set i (Float.succ x)));
      Alcotest.(check bool)
        (Printf.sprintf "input %d signed zero" i)
        false
        (key (set i 0.0) = key (set i (-0.0))))
    inputs;
  Alcotest.(check bool)
    "ladder" false
    (key inputs = key ~candidates:[ 32 ] inputs)

(* Oracle: over generated programs and their one-literal mutants (each
   numeric literal in turn moved by one ulp or one, or made single
   precision), equal digests imply equal text keys. *)
let digest_refines_text_key () =
  let is_ident c =
    c = '_'
    || (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
  in
  let is_num c = (c >= '0' && c <= '9') || c = '.' in
  (* (start, length) of every numeric literal token *)
  let literals src =
    let n = String.length src in
    let rec go i acc =
      if i >= n then List.rev acc
      else if is_num src.[i] && (i = 0 || not (is_ident src.[i - 1])) then (
        let j = ref i in
        while !j < n && is_num src.[!j] do
          incr j
        done;
        go !j ((i, !j - i) :: acc))
      else go (i + 1) acc
    in
    go 0 []
  in
  let splice src (i, len) s =
    String.sub src 0 i ^ s
    ^ String.sub src (i + len) (String.length src - i - len)
  in
  let mutants src =
    List.concat_map
      (fun ((i, len) as at) ->
        let lit = String.sub src i len in
        if String.contains lit '.' then
          let ulp = Float.succ (float_of_string lit) in
          [
            splice src at (Printf.sprintf "%.17g" ulp);
            splice src at (lit ^ "f");
          ]
        else [ splice src at (string_of_int (int_of_string lit + 1)) ])
      (literals src)
  in
  let parse_opt src =
    try Some (parse src)
    with Minic.Lexer.Lex_error _ | Minic.Parser.Parse_error _ -> None
  in
  let rand = Random.State.make [| 2125 |] in
  let sources = QCheck.Gen.generate ~rand ~n:12 program_gen in
  let programs =
    List.concat_map
      (fun src ->
        let p = parse src in
        p
        :: parse (Minic.Pretty.program_to_string p)
        :: List.filter_map parse_opt (mutants src))
      sources
  in
  let seen = Hashtbl.create 1024 in
  let equal_pairs = ref 0 in
  List.iter
    (fun p ->
      let d = digest p and t = text_key p in
      match Hashtbl.find_opt seen d with
      | Some t' ->
          incr equal_pairs;
          Alcotest.(check bool) "equal digests, equal text keys" true (t = t')
      | None -> Hashtbl.add seen d t)
    programs;
  let n = List.length programs in
  Alcotest.(check bool)
    (Printf.sprintf "%d programs, %d equal pairs" n !equal_pairs)
    true
    (n > 100 && !equal_pairs >= List.length sources)

(* A digest encodes into a reused per-domain scratch: once it has grown
   to a program's size, digesting that program again allocates nothing
   on the major heap (a growing encode buffer past the minor-heap size
   limit would). *)
let digest_adds_no_major_words () =
  let b = Benchmarks.Registry.find "rush_larsen" in
  let p = Benchmarks.Bench_app.program b ~n:b.profile_n in
  let d0 = digest p in
  Gc.minor ();
  let _, _, major0 = Gc.counters () in
  let d1 = digest p in
  let _, _, major1 = Gc.counters () in
  Alcotest.(check string) "same digest" (Digest.to_hex d0) (Digest.to_hex d1);
  Alcotest.(check (float 0.0)) "major words" 0.0 (major1 -. major0)

(* Threads of one domain share its digest scratch slot (the daemon's
   connection handlers are threads): digests taken concurrently, with
   thread switches landing mid-encode, equal the ones taken alone. *)
let digest_threads_agree () =
  let progs =
    List.map
      (fun (b : Benchmarks.Bench_app.t) ->
        Benchmarks.Bench_app.program b ~n:b.profile_n)
      Benchmarks.Registry.all
  in
  let expected = List.map digest progs in
  let bad = Atomic.make 0 in
  let worker (ps, es) =
    let deadline = Unix.gettimeofday () +. 0.25 in
    while Unix.gettimeofday () < deadline do
      List.iter2 (fun p e -> if digest p <> e then Atomic.incr bad) ps es
    done
  in
  List.iter Thread.join
    [
      Thread.create worker (progs, expected);
      Thread.create worker (List.rev progs, List.rev expected);
    ];
  Alcotest.(check int) "digests that differ" 0 (Atomic.get bad)

let key_tests =
  [
    Alcotest.test_case "equal across parses and whitespace" `Quick
      keys_equal_across_parses;
    Alcotest.test_case "separate literal, pragma and loop variants" `Quick
      keys_separate_variants;
    Alcotest.test_case "sweep key separates every input" `Quick
      sweep_key_separates_inputs;
    Alcotest.test_case "digest refines the printed key" `Quick
      digest_refines_text_key;
    Alcotest.test_case "repeat digest adds no major words" `Quick
      digest_adds_no_major_words;
    Alcotest.test_case "threads digesting at once agree" `Quick
      digest_threads_agree;
  ]

let () =
  Alcotest.run "perf"
    [
      ( "cache",
        cache_tests
        @ [
            Alcotest.test_case "distinct ids, distinct entries" `Quick
              distinct_ids_distinct_entries;
            Alcotest.test_case "same program hits" `Quick same_program_hits;
          ] );
      ( "pool",
        [
          Alcotest.test_case "order preserved" `Quick pool_order;
          Alcotest.test_case "exceptions propagate" `Quick pool_exception;
          Alcotest.test_case "jobs override" `Quick pool_jobs_env;
        ] );
      ("keys", key_tests);
      ("fused", fused_tests);
      (* the suite name predates the deletion of the IR optimizer; the
         ids stay stable *)
      ("optimizer", opt_tests);
      ( "engine",
        [
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 2122 |])
            engine_equivalence_prop;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 2121 |])
            tracked_oracle_prop;
        ] );
      ("vm", vm_tests);
      (* the suite name predates in-order sweeps; the ids stay stable *)
      ( "dse-parallel",
        [
          QCheck_alcotest.to_alcotest unroll_prop;
          QCheck_alcotest.to_alcotest blocksize_prop;
          QCheck_alcotest.to_alcotest threads_prop;
          Alcotest.test_case "flow spawns no domains" `Slow
            flow_spawns_no_domains;
          Alcotest.test_case "one interpreter run per cold flow" `Slow
            cold_flow_interp_runs;
        ] );
    ]
