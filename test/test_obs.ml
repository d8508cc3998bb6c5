(** Tests for the observability library (lib/obs): histogram hardening
    in the metrics registry, span-tracer determinism and nesting, the
    decision-provenance records the flow engine emits, and the leveled
    logger. *)

module Attr = Flow_obs.Attr
module Log = Flow_obs.Log
module Trace = Flow_obs.Trace
module Metrics = Flow_obs.Metrics
module Provenance = Flow_obs.Provenance
module Json = Flow_service.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Metrics: counters, gauges, snapshot order                           *)
(* ------------------------------------------------------------------ *)

let test_counters_and_gauges () =
  let m = Metrics.create () in
  Metrics.incr m "reqs";
  Metrics.incr ~by:4 m "reqs";
  Metrics.set_gauge m "depth" 3.5;
  Metrics.set_gauge m "depth" 2.0;
  check_int "counter accumulates" 5 (Metrics.counter_value m "reqs");
  check "gauge holds last value" true (Metrics.gauge_value m "depth" = 2.0);
  check_int "missing counter reads 0" 0 (Metrics.counter_value m "nope");
  Metrics.observe m "lat" 0.5;
  check "snapshot preserves registration order" true
    (List.map fst (Metrics.snapshot m) = [ "reqs"; "depth"; "lat" ]);
  Metrics.reset m;
  check "reset empties the registry" true (Metrics.snapshot m = [])

(* ------------------------------------------------------------------ *)
(* Metrics: histogram hardening                                        *)
(* ------------------------------------------------------------------ *)

let finite_summary (s : Metrics.summary) =
  List.for_all Float.is_finite
    [ s.s_sum; s.s_mean; s.s_min; s.s_max; s.s_p50; s.s_p90; s.s_p99 ]

let test_histogram_empty () =
  (* percentile queries are total: an empty histogram answers, it does
     not raise or divide by zero *)
  let h = Metrics.Hist.create () in
  check "empty hist percentile" true (Metrics.Hist.percentile h 50.0 = 0.0);
  check "empty hist p99" true (Metrics.Hist.percentile h 99.0 = 0.0);
  (* the empty summary is all zeros, never infinities/NaN *)
  check "empty summary finite" true (finite_summary Metrics.empty_summary);
  check_int "empty summary count" 0 Metrics.empty_summary.s_count;
  check "empty summary min is 0, not +inf" true
    (Metrics.empty_summary.s_min = 0.0);
  let m = Metrics.create () in
  check "unregistered histogram has no summary" true
    (Metrics.histogram_summary m "lat" = None)

let test_histogram_single_sample () =
  let m = Metrics.create () in
  Metrics.observe m "lat" 0.25;
  match Metrics.histogram_summary m "lat" with
  | None -> Alcotest.fail "single-sample histogram has no summary"
  | Some s ->
      check_int "count" 1 s.s_count;
      check "all fields finite" true (finite_summary s);
      check "p50 = the sample" true (s.s_p50 = 0.25);
      check "p90 = the sample" true (s.s_p90 = 0.25);
      check "p99 = the sample" true (s.s_p99 = 0.25);
      check "min = max = the sample" true (s.s_min = 0.25 && s.s_max = 0.25)

let test_histogram_nan_dropped () =
  let m = Metrics.create () in
  Metrics.observe m "lat" Float.nan;
  check "a lone NaN never registers" true
    (Metrics.histogram_summary m "lat" = None);
  Metrics.observe m "lat" 1.0;
  Metrics.observe m "lat" Float.nan;
  Metrics.observe m "lat" 3.0;
  match Metrics.histogram_summary m "lat" with
  | None -> Alcotest.fail "histogram lost"
  | Some s ->
      check_int "NaN observations dropped" 2 s.s_count;
      check "summary stays finite" true (finite_summary s);
      check "sum unpoisoned" true (s.s_sum = 4.0)

(* Log-bucketed percentiles carry a bounded relative error: the answer
   is a bucket's geometric midpoint, within a factor [gamma] of the
   exact nearest-rank percentile (one extra gamma of slack absorbs
   float rounding at bucket boundaries). *)
let within_gamma exact approx =
  let tol = Metrics.Hist.gamma *. Metrics.Hist.gamma in
  approx >= exact /. tol && approx <= exact *. tol

let test_histogram_percentiles () =
  let m = Metrics.create () in
  for i = 1 to 100 do
    Metrics.observe m "lat" (float_of_int i)
  done;
  match Metrics.histogram_summary m "lat" with
  | None -> Alcotest.fail "histogram lost"
  | Some s ->
      check "p50 within bucket error" true (within_gamma 50.0 s.s_p50);
      check "p90 within bucket error" true (within_gamma 90.0 s.s_p90);
      check "p99 within bucket error" true (within_gamma 99.0 s.s_p99);
      check "mean exact" true (s.s_mean = 50.5);
      check "min/max exact" true (s.s_min = 1.0 && s.s_max = 100.0);
      (* percentiles never step outside the observed range *)
      check "p50 in range" true (s.s_p50 >= 1.0 && s.s_p50 <= 100.0)

(* ------------------------------------------------------------------ *)
(* Metrics: histogram merge                                            *)
(* ------------------------------------------------------------------ *)

let test_histogram_merge () =
  let a = Metrics.Hist.create () and b = Metrics.Hist.create () in
  List.iter (Metrics.Hist.observe a) [ 1.0; 2.0; 3.0 ];
  List.iter (Metrics.Hist.observe b) [ 100.0; 200.0 ];
  Metrics.Hist.merge ~into:a b;
  let s = Metrics.Hist.summary a in
  check_int "merged count" 5 s.s_count;
  check "merged sum" true (s.s_sum = 306.0);
  check "merged min/max span both sources" true
    (s.s_min = 1.0 && s.s_max = 200.0);
  (* the source histogram is untouched *)
  check_int "source count unchanged" 2 (Metrics.Hist.summary b).s_count;
  (* merging an empty histogram is the identity *)
  Metrics.Hist.merge ~into:a (Metrics.Hist.create ());
  check_int "empty merge is identity" 5 (Metrics.Hist.summary a).s_count

(* exact nearest-rank percentile over raw samples, the reference the
   sketch approximates *)
let exact_percentile samples p =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  let rank =
    max 1 (min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))))
  in
  a.(rank - 1)

let arb_samples =
  QCheck.make
    ~print:(fun (xs, ys) ->
      Printf.sprintf "%d + %d samples" (List.length xs) (List.length ys))
    QCheck.Gen.(
      let samples =
        list_size (int_range 1 200)
          (map (fun n -> float_of_int n /. 16.0) (int_range 1 160_000))
      in
      pair samples samples)

(* Merging per-thread sketches must answer percentiles within the
   bucket's relative-error bound of the exact pooled nearest-rank
   value — the property the load runner's merged latency sketch relies
   on. *)
let merged_percentile_prop =
  Helpers.qtest ~count:200 "merged histogram percentiles within gamma bound"
    arb_samples (fun (xs, ys) ->
      let hx = Metrics.Hist.create () and hy = Metrics.Hist.create () in
      List.iter (Metrics.Hist.observe hx) xs;
      List.iter (Metrics.Hist.observe hy) ys;
      Metrics.Hist.merge ~into:hx hy;
      List.for_all
        (fun p ->
          within_gamma (exact_percentile (xs @ ys) p)
            (Metrics.Hist.percentile hx p))
        [ 50.0; 90.0; 99.0 ])

(* ------------------------------------------------------------------ *)
(* Tracer: span mechanics                                              *)
(* ------------------------------------------------------------------ *)

(* [f]'s value and the spans a recording around it captured. *)
let recorded f =
  let outcome, spans = Trace.record f in
  (Trace.value outcome, spans)

let count ?name ~cat spans =
  List.length
    (List.filter
       (fun s ->
         s.Trace.sp_cat = cat
         && match name with None -> true | Some n -> s.Trace.sp_name = n)
       spans)

let test_span_basics () =
  let r, spans =
    recorded (fun () ->
        let r =
          Trace.with_span ~cat:"t" ~args:[ ("k", Attr.Int 1) ] "outer"
            (fun () ->
              Trace.with_span ~cat:"t" "inner" (fun () -> ());
              Trace.add_args [ ("extra", Attr.Bool true) ];
              17)
        in
        Trace.instant ~cat:"t" "mark";
        r)
  in
  check_int "with_span returns f's value" 17 r;
  check_int "three events recorded" 3 (List.length spans);
  check_int "count by cat" 3 (count ~cat:"t" spans);
  check_int "count by name" 1 (count ~name:"inner" ~cat:"t" spans);
  let find n = List.find (fun s -> s.Trace.sp_name = n) spans in
  let outer = find "outer" and inner = find "inner" in
  check "inner nests inside outer" true
    (outer.Trace.sp_begin < inner.Trace.sp_begin
    && inner.Trace.sp_end < outer.Trace.sp_end);
  check "add_args lands on the open span" true
    (List.mem_assoc "extra" outer.Trace.sp_args
    && List.mem_assoc "k" outer.Trace.sp_args)

(* The recording keeps the spans of a body that raised, and returns the
   exception for [Trace.value] to re-raise. *)
let test_span_closes_on_raise () =
  let outcome, spans =
    Trace.record (fun () -> Trace.with_span "boom" (fun () -> failwith "deliberate"))
  in
  (match Trace.value outcome with
  | exception Failure m -> check_str "value re-raises" "deliberate" m
  | () -> Alcotest.fail "expected the body's exception");
  match spans with
  | [ sp ] ->
      check "span closed despite the raise" true
        (sp.Trace.sp_end > sp.Trace.sp_begin)
  | spans -> Alcotest.failf "expected one span, got %d" (List.length spans)

let test_disabled_records_nothing () =
  (* outside every recording, probes are no-ops *)
  check_int "unrecorded with_span is just f ()" 42
    (Trace.with_span "ghost" (fun () -> 42));
  Trace.instant "ghost-mark";
  Trace.add_args [ ("ghost", Attr.Bool true) ];
  (* ... and nothing they did surfaces in a later recording *)
  let (), spans = recorded (fun () -> ()) in
  check "empty recording yields no spans" true (spans = [])

(* ------------------------------------------------------------------ *)
(* Tracer: request recordings                                          *)
(* ------------------------------------------------------------------ *)

let test_request_recording_without_global () =
  (* a recording captures spans with no tracer running around it — the
     always-on daemon path — and keeps them to itself *)
  let (), spans =
    recorded (fun () ->
        Trace.with_span ~cat:"rq" "outer" (fun () ->
            Trace.with_span ~cat:"rq" "inner" (fun () -> ());
            Trace.add_args [ ("k", Attr.Int 7) ]);
        Trace.instant ~cat:"rq" "mark")
  in
  check_int "recording captured all three events" 3 (List.length spans);
  let (), later = recorded (fun () -> ()) in
  check "a later recording sees none of them" true (later = []);
  let find n = List.find (fun s -> s.Trace.sp_name = n) spans in
  let outer = find "outer" and inner = find "inner" in
  check "nesting preserved in recording" true
    (outer.Trace.sp_begin < inner.Trace.sp_begin
    && inner.Trace.sp_end < outer.Trace.sp_end);
  check "add_args lands on the recorded open span" true
    (List.mem_assoc "k" outer.Trace.sp_args);
  (* the recording export is valid Chrome JSON *)
  match Json.member "traceEvents" (Json.parse (Trace.export_spans ~normalize:true spans)) with
  | Some (Json.List evs) -> check_int "exported events" 3 (List.length evs)
  | _ -> Alcotest.fail "recording export is not a Chrome trace document"

(* A recording opened inside another on the same thread leaves the
   outer one open: both capture the inner spans, each with its own
   sequence numbers. *)
let test_nested_recordings () =
  let ((), inner_spans), outer_spans =
    recorded (fun () ->
        Trace.with_span ~cat:"n" "before" (fun () -> ());
        let inner =
          recorded (fun () ->
              Trace.with_span ~cat:"n" "both" (fun () ->
                  Trace.add_args [ ("k", Attr.Int 1) ]))
        in
        Trace.instant ~cat:"n" "after";
        inner)
  in
  let names spans = List.map (fun s -> s.Trace.sp_name) spans in
  check "inner recording saw only its span" true (names inner_spans = [ "both" ]);
  check "outer recording stayed open around the inner one" true
    (names outer_spans = [ "before"; "both"; "after" ]);
  check "both copies carry the args" true
    (List.for_all
       (fun s -> s.Trace.sp_name <> "both" || List.mem_assoc "k" s.Trace.sp_args)
       (inner_spans @ outer_spans));
  check "inner sequence numbers start afresh" true
    (match inner_spans with [ sp ] -> sp.Trace.sp_begin = 1 | _ -> false)

let test_request_recording_edge_cases () =
  (* a span open when a recording starts is not in it: add_args inside
     the inner recording lands on the span only where it is open *)
  let ((), inner), outer =
    recorded (fun () ->
        Trace.with_span "enclosing" (fun () ->
            recorded (fun () -> Trace.add_args [ ("k", Attr.Int 1) ])))
  in
  check "inner recording is empty" true (inner = []);
  match outer with
  | [ sp ] ->
      check "arg on the enclosing span" true
        (List.mem_assoc "k" sp.Trace.sp_args)
  | l -> Alcotest.failf "outer: expected one span, got %d" (List.length l)

let test_export_shape () =
  let (), spans =
    recorded (fun () ->
        Trace.with_span ~cat:"t" ~args:[ ("q", Attr.String "a\"b") ] "e1"
          (fun () -> Trace.instant ~cat:"t" "m1"))
  in
  let doc = Json.parse (Trace.export_spans spans) in
  (match Json.member "traceEvents" doc with
  | Some (Json.List evs) -> check_int "two events" 2 (List.length evs)
  | _ -> Alcotest.fail "no traceEvents array");
  (* normalized export: timestamps are the recording's sequence numbers *)
  let doc = Json.parse (Trace.export_spans ~normalize:true spans) in
  match Json.member "traceEvents" doc with
  | Some (Json.List (first :: _)) ->
      check "normalized ts is the open seq" true
        (Json.member "ts" first = Some (Json.Float 1.0));
      check "normalized dur spans the child instant" true
        (Json.member "dur" first = Some (Json.Float 2.0))
  | _ -> Alcotest.fail "no traceEvents array"

(* ------------------------------------------------------------------ *)
(* Tracer: spans are properly nested (qcheck)                          *)
(* ------------------------------------------------------------------ *)

type tree = Node of tree list

let rec tree_size (Node kids) =
  1 + List.fold_left (fun acc k -> acc + tree_size k) 0 kids

let gen_tree =
  QCheck.Gen.(
    sized
      (fix (fun self n ->
           if n = 0 then return (Node [])
           else
             let* kids = list_size (int_bound 3) (self (n / 2)) in
             return (Node kids))))

let arb_tree =
  QCheck.make
    ~print:(fun t -> Printf.sprintf "tree of %d nodes" (tree_size t))
    gen_tree

let rec exec_tree (Node kids) =
  Trace.with_span ~cat:"prop" "node" (fun () -> List.iter exec_tree kids)

(* Any execution shape must yield well-formed intervals that pairwise
   either nest or are disjoint — never partially overlap. *)
let nesting_prop =
  Helpers.qtest ~count:100 "span intervals nest or are disjoint" arb_tree
    (fun t ->
      let (), spans = recorded (fun () -> exec_tree t) in
      let well_formed s = s.Trace.sp_begin < s.Trace.sp_end in
      let nest_or_disjoint a b =
        let ab, ae = (a.Trace.sp_begin, a.Trace.sp_end) in
        let bb, be = (b.Trace.sp_begin, b.Trace.sp_end) in
        ae < bb || be < ab (* disjoint *)
        || (ab < bb && be < ae) (* a contains b *)
        || (bb < ab && ae < be)
        (* b contains a *)
      in
      List.length spans = tree_size t
      && List.for_all well_formed spans
      && List.for_all
           (fun a ->
             List.for_all (fun b -> a == b || nest_or_disjoint a b) spans)
           spans)

(* ------------------------------------------------------------------ *)
(* Golden trace: a traced flow run is byte-deterministic               *)
(* ------------------------------------------------------------------ *)

let bezier = List.nth Benchmarks.Registry.all 2 (* smallest benchmark *)

(* One recorded informed flow run from cold stage caches (a memo hit
   records no spans for the stage it skips), returning the normalized
   export, the spans and the outcome.  The context is built by the
   caller. *)
let traced_informed_run ctx =
  Psa.Stage_memo.clear ();
  Flow_memo.Cache.clear Analysis.Features.memo;
  Dse.Sweep_memo.clear ();
  Minic_interp.Profile_cache.clear ();
  let outcome, spans = recorded (fun () -> Psa.Std_flow.run_informed ctx) in
  (Trace.export_spans ~normalize:true spans, spans, outcome)

let test_trace_golden_deterministic () =
  let ctx = Benchmarks.Bench_app.context bezier in
  let exp1, _, _ = traced_informed_run ctx in
  let exp2, spans, outcome = traced_informed_run ctx in
  check_str "normalized exports byte-identical across runs" exp1 exp2;
  (* valid Chrome trace-event JSON with a non-empty event array *)
  (match Json.member "traceEvents" (Json.parse exp2) with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "export is not a Chrome trace document");
  (* structural floor: the instrumentation actually fired everywhere *)
  check "at least one branch decision span" true
    (count ~cat:"branch" spans >= 1);
  check "at least three analysis spans" true
    (count ~cat:"analysis" spans >= 3);
  check "every DSE candidate traced" true (count ~cat:"dse" spans >= 1);
  check "task spans present" true (count ~cat:"task" spans >= 1);
  (* the same run recorded its provenance into the contexts *)
  let decisions = Psa.Context.collect_decisions outcome.contexts in
  check "decisions recorded" true (decisions <> []);
  match
    List.find_opt
      (fun (d : Provenance.decision) -> d.branch = "A")
      decisions
  with
  | None -> Alcotest.fail "no branch A decision"
  | Some d ->
      check_str "informed branch A uses fig3" "fig3" d.strategy;
      check "numeric evidence attached" true
        (List.exists
           (fun (_, v) -> match v with Attr.Float _ -> true | _ -> false)
           d.evidence);
      check "fig3 evidence names the intensity fact" true
        (List.mem_assoc "flops_per_byte" d.evidence)

(* ------------------------------------------------------------------ *)
(* Provenance rendering                                                *)
(* ------------------------------------------------------------------ *)

let test_selection_to_string () =
  let d selected reason =
    { Provenance.branch = "A"; strategy = "s"; selected; reason; evidence = [] }
  in
  check_str "stop with reason" "stop (budget exhausted)"
    (Provenance.selection_to_string (d [] (Some "budget exhausted")));
  check_str "bare stop" "stop" (Provenance.selection_to_string (d [] None));
  check_str "multi-path" "gpu, fpga"
    (Provenance.selection_to_string (d [ "gpu"; "fpga" ] None))

let test_render () =
  let d =
    {
      Provenance.branch = "A";
      strategy = "fig3";
      selected = [ "fpga" ];
      reason = None;
      evidence =
        [ ("compute_bound", Attr.Bool true); ("flops_per_byte", Attr.Float 12.5) ];
    }
  in
  check_str "rendered paragraph"
    ("branch A [fig3]: selected fpga\n"
   ^ "  compute_bound            = true\n"
   ^ "  flops_per_byte           = 12.5\n")
    (Provenance.render d);
  check_str "render_all concatenates" (Provenance.render d ^ Provenance.render d)
    (Provenance.render_all [ d; d ])

(* ------------------------------------------------------------------ *)
(* Logger                                                              *)
(* ------------------------------------------------------------------ *)

let test_log_of_string () =
  check "debug" true (Log.of_string " DEBUG " = Some Log.Debug);
  check "warning alias" true (Log.of_string "warning" = Some Log.Warn);
  check "off alias" true (Log.of_string "off" = Some Log.Quiet);
  check "info" true (Log.of_string "info" = Some Log.Info);
  check "unknown" true (Log.of_string "loud" = None)

let test_log_levels_and_sink () =
  let saved = Log.level () in
  let got = ref [] in
  Log.set_sink (fun ~level msg -> got := (level, msg) :: !got);
  Fun.protect
    ~finally:(fun () ->
      Log.set_sink Log.default_sink;
      Log.set_level saved)
  @@ fun () ->
  Log.set_level Log.Info;
  check "info enabled" true (Log.enabled Log.Info);
  check "debug disabled" true (not (Log.enabled Log.Debug));
  Log.debugf "dropped %d" 1;
  Log.infof "kept %d" 2;
  Log.errorf "kept too";
  check "level filter applied" true
    (List.rev !got = [ (Log.Info, "kept 2"); (Log.Error, "kept too") ]);
  got := [];
  Log.set_level Log.Quiet;
  check "quiet silences errors" true (not (Log.enabled Log.Error));
  Log.errorf "silenced";
  check "nothing emitted under quiet" true (!got = [])

(* ------------------------------------------------------------------ *)
(* Hardened environment knobs                                          *)
(* ------------------------------------------------------------------ *)

module Env = Flow_obs.Env

(* A scratch knob name nothing else reads; [Unix.putenv] has no unset,
   so tests leave it set to a valid value. *)
let knob = "PSAFLOW_TEST_KNOB"

let with_warnings f =
  let saved_level = Log.level () in
  let warnings = ref [] in
  Log.set_sink (fun ~level msg -> if level = Log.Warn then warnings := msg :: !warnings);
  Log.set_level Log.Warn;
  Env.reset_warnings ();
  Fun.protect
    ~finally:(fun () ->
      Log.set_sink Log.default_sink;
      Log.set_level saved_level;
      Env.reset_warnings ())
    (fun () -> f warnings)

let test_env_parsing () =
  with_warnings @@ fun warnings ->
  Unix.putenv knob "  12 ";
  check "whitespace-tolerant parse" true
    (Env.int_opt ~name:knob ~min:1 () = Some 12);
  check "default ignored when set" true
    (Env.int ~name:knob ~default:99 ~min:1 () = 12);
  Unix.putenv knob "not-a-number";
  check "non-integer ignored" true (Env.int_opt ~name:knob ~min:1 () = None);
  check "non-integer falls back to default" true
    (Env.int ~name:knob ~default:7 ~min:1 () = 7);
  check "unset knob reads None" true
    (Env.int_opt ~name:"PSAFLOW_TEST_KNOB_UNSET" ~min:1 () = None);
  check "warned about the bad value" true (!warnings <> []);
  (* boolean kill switches: 1/true/yes only *)
  List.iter
    (fun on ->
      Unix.putenv "PSAFLOW_TEST_FLAG_ON" on;
      check (on ^ " turns a flag on") true
        (Env.flag ~name:"PSAFLOW_TEST_FLAG_ON" ()))
    [ "1"; "true"; "yes" ];
  Unix.putenv "PSAFLOW_TEST_FLAG_TYPO" "on";
  check "a typo'd value leaves the flag off" false
    (Env.flag ~name:"PSAFLOW_TEST_FLAG_TYPO" ());
  check "unset is off" false (Env.flag ~name:"PSAFLOW_TEST_FLAG_UNSET" ())

let test_env_clamping () =
  with_warnings @@ fun warnings ->
  List.iter
    (fun bad ->
      Unix.putenv knob bad;
      check
        (Printf.sprintf "%S clamps to the minimum" bad)
        true
        (Env.int_opt ~name:knob ~min:1 () = Some 1))
    [ "0"; "-3"; "-2147483648" ];
  Unix.putenv knob "2";
  check "minimum itself passes" true (Env.int_opt ~name:knob ~min:2 () = Some 2);
  check "clamping warned" true (!warnings <> [])

let test_env_warn_once () =
  with_warnings @@ fun warnings ->
  Unix.putenv knob "0";
  for _ = 1 to 5 do
    ignore (Env.int ~name:knob ~default:4 ~min:1 ())
  done;
  check_int "one warning for five reads" 1 (List.length !warnings);
  Env.reset_warnings ();
  ignore (Env.int ~name:knob ~default:4 ~min:1 ());
  check_int "warning re-armed by reset" 2 (List.length !warnings);
  Unix.putenv knob "3"

(* The production knobs go through the hardened parser: a zero/negative
   value must clamp, not crash or propagate. *)
let test_env_production_knobs () =
  with_warnings @@ fun _ ->
  Unix.putenv "PSAFLOW_JOBS" "0";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "PSAFLOW_JOBS" "1")
    (fun () ->
      check_int "PSAFLOW_JOBS=0 clamps to 1 job" 1 (Flow_par.Pool.jobs ()))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick
            test_counters_and_gauges;
          Alcotest.test_case "empty histogram" `Quick test_histogram_empty;
          Alcotest.test_case "single-sample histogram" `Quick
            test_histogram_single_sample;
          Alcotest.test_case "NaN observations dropped" `Quick
            test_histogram_nan_dropped;
          Alcotest.test_case "nearest-rank percentiles" `Quick
            test_histogram_percentiles;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          merged_percentile_prop;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span basics" `Quick test_span_basics;
          Alcotest.test_case "span closes on raise" `Quick
            test_span_closes_on_raise;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "export shape" `Quick test_export_shape;
          nesting_prop;
          Alcotest.test_case "request recording without global tracer" `Quick
            test_request_recording_without_global;
          Alcotest.test_case "recordings nest on one thread" `Quick
            test_nested_recordings;
          Alcotest.test_case "request recording edge cases" `Quick
            test_request_recording_edge_cases;
        ] );
      ( "golden",
        [
          Alcotest.test_case "traced flow run is byte-deterministic" `Slow
            test_trace_golden_deterministic;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "selection rendering" `Quick
            test_selection_to_string;
          Alcotest.test_case "paragraph rendering" `Quick test_render;
        ] );
      ( "log",
        [
          Alcotest.test_case "of_string" `Quick test_log_of_string;
          Alcotest.test_case "levels and sink" `Quick test_log_levels_and_sink;
        ] );
      ( "env",
        [
          Alcotest.test_case "parsing" `Quick test_env_parsing;
          Alcotest.test_case "clamping" `Quick test_env_clamping;
          Alcotest.test_case "warn once" `Quick test_env_warn_once;
          Alcotest.test_case "production knobs" `Quick
            test_env_production_knobs;
        ] );
    ]
