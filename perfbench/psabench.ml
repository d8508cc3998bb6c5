(** The PSA-flow benchmark.

    [psabench --workload W --seed N --seconds S --trace 0|1]

    Starts the flow daemon in this process, primes it, drives it over a
    Unix socket with closed-loop clients for [S] seconds, checks the
    outputs and prints one JSON object as the last line of stdout.
    With [--trace 0] it reports the end-to-end metrics; with
    [--trace 1] it runs the same window again, replays it one request at
    a time under the benchmark's own span recorder and reports the
    per-layer metrics.  A human-readable account goes to stderr.  See
    perfbench/README.md. *)

module Protocol = Flow_service.Protocol
module Server = Flow_service.Server
module Client = Flow_service.Client
module Store = Flow_service.Store

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  connections : int;
  store_capacity : int;
  store_shards : int;
  prime : Protocol.submission list;  (** executed during set-up *)
  ops : int -> Gen.op;
  prefix : int;  (** submissions the per-layer account covers *)
}

let workloads = [ "cold_designs"; "variant_sweep"; "service_mix" ]

let workload ~seed = function
  | "cold_designs" ->
      {
        name = "cold_designs";
        connections = 1;
        store_capacity = 256;
        store_shards = 8;
        prime = [];
        ops = Gen.cold_designs ~seed;
        prefix = 100;
      }
  | "variant_sweep" ->
      {
        name = "variant_sweep";
        connections = 2;
        (* a one-entry store: every variant misses it and reaches the
           stage memo, however long the run *)
        store_capacity = 1;
        store_shards = 1;
        prime = Array.to_list (Array.map Gen.inline (Gen.variant_pool ~seed));
        ops = Gen.variant_sweep ~seed;
        prefix = 1000;
      }
  | "service_mix" ->
      {
        name = "service_mix";
        connections = 2;
        store_capacity = 256;
        store_shards = 8;
        prime = Array.to_list (Array.map Gen.inline (Gen.hot_pool ~seed));
        ops = Gen.service_mix ~seed;
        prefix = 1000;
      }
  | w -> invalid_arg ("unknown workload " ^ w)

let server_config w =
  {
    Server.workers = 2;
    queue_capacity = 64;
    store_capacity = w.store_capacity;
    store_shards = w.store_shards;
    max_connections = 64;
  }

(** Where sockets and span dumps go, inside the checkout. *)
let out_dir = ".bench_build"

let min_requests = 100

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(** Percentile [p] (0-100) with linear interpolation; 0 when empty. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = percentile 50.0
let mean xs = match xs with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(** Drop every engine-side cache and the surrogate's trained models, so
    each set-up starts from the state of a fresh process. *)
let reset_engine () =
  Psa.Stage_memo.clear ();
  Flow_memo.Cache.clear Analysis.Features.memo;
  Minic_interp.Profile_cache.clear ();
  Dse.Sweep_memo.clear ();
  Flow_surrogate.Surrogate.reset ()

(** Daemon start plus priming; returns the live daemon and its set-up
    seconds. *)
let setup w =
  reset_engine ();
  let t0 = Unix.gettimeofday () in
  let d = Daemon.start ~dir:out_dir (server_config w) in
  if w.prime <> [] then
    Client.with_conn ~timeout_ms:Daemon.client_timeout_ms d.Daemon.addr (fun c ->
        List.iter (fun s -> ignore (Daemon.submit_wait c s)) w.prime);
  (d, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Checks shared by both modes                                         *)
(* ------------------------------------------------------------------ *)

(** Problems with the window's answers: failed submissions, plus the
    golden fingerprint and the two reference comparisons on the first
    and last executed results.  Runs after the window. *)
let check_window (win : Daemon.window) =
  let per_request =
    Array.to_list win.rqs
    |> List.filter_map (fun (rq : Daemon.rq) ->
           match rq.failure with
           | Some f -> Some f
           | None when rq.item.Gen.sub.Protocol.mode = Protocol.Uninformed && rq.designs <> 5 ->
               Some "uninformed result without five designs"
           | None -> None)
  in
  let reference =
    List.concat_map
      (fun (rq : Daemon.rq) ->
        let sub = rq.item.Gen.sub in
        Checks.memo_off sub (Option.get rq.result) @ Checks.engine_vs_walker (Gen.source sub))
      win.samples
  in
  (per_request, Checks.golden () @ reference, List.length win.samples)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; value : float; unit_ : string }

let metric m_name unit_ value = { m_name; value; unit_ }

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun m -> Printf.eprintf "  %-34s %16.6f %s\n" m.m_name m.value m.unit_) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (number m.value) m.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed body

let report_problems what ps =
  List.iteri (fun i p -> if i < 10 then Printf.eprintf "psabench: %s: %s\n%!" what p) ps;
  if List.length ps > 10 then Printf.eprintf "psabench: %s: ... %d more\n%!" what (List.length ps - 10)

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)
(* ------------------------------------------------------------------ *)

(** Set-up runs at least [min_setups] times and until [setup_budget_s]
    seconds went into it (at most [max_setups]); set-up time is their
    median and the last one hosts the measured window. *)
let min_setups = 3
let max_setups = 25
let setup_budget_s = 1.0

let end_to_end w ~seconds =
  let rec setups acc spent =
    let d, t = setup w in
    let acc = t :: acc and spent = spent +. t in
    let n = List.length acc in
    if n >= max_setups || (n >= min_setups && spent >= setup_budget_s) then (d, acc)
    else begin
      Daemon.stop d;
      setups acc spent
    end
  in
  let d, setup_times = setups [] 0.0 in
  let win = Daemon.run d ~connections:w.connections ~seconds ~min_requests ~ops:w.ops in
  Daemon.stop d;
  let per_request, checks, sampled = check_window win in
  let ok = List.filter Daemon.ok (Array.to_list win.rqs) in
  let lat = List.map Daemon.latency_ms ok in
  let n_ok = float_of_int (List.length ok) in
  let attempted = Array.length win.rqs in
  let failed = List.length per_request + List.length checks in
  report_problems "failed submission" per_request;
  report_problems "check" checks;
  Printf.eprintf
    "psabench %s: %d submissions (%d answered correctly) in %.3f s over %d connection(s); %d \
     latency samples; %d set-ups; %d reference sample(s) checked\n"
    w.name attempted (List.length ok) win.wall_s w.connections (List.length lat)
    (List.length setup_times) sampled;
  List.iter
    (fun kind ->
      let l = List.filter_map (fun (rq : Daemon.rq) -> if rq.item.Gen.kind = kind then Some (Daemon.latency_ms rq) else None) ok in
      Printf.eprintf "  %-12s %6d answered, latency ms p50 %9.3f p90 %9.3f\n" kind (List.length l) (percentile 50.0 l)
        (percentile 90.0 l))
    (List.sort_uniq compare (List.map (fun (rq : Daemon.rq) -> rq.item.Gen.kind) ok));
  let p50 = percentile 50.0 lat in
  let interval_ms = 1000.0 *. Daemon.poll_interval ~waited:(p50 /. 1000.0) in
  Printf.eprintf "  client poll interval at p50 %.2f ms = %.1f%% of latency p50; %.2f polls per submission\n"
    interval_ms (100.0 *. ratio interval_ms p50)
    (ratio (float_of_int (Array.fold_left (fun a (rq : Daemon.rq) -> a + rq.polls) 0 win.rqs)) (float_of_int attempted));
  print_result ~correct:(failed = 0) ~attempted ~failed
    [
      metric "setup_s" "s" (median setup_times);
      metric "throughput_rps" "1/s" (n_ok /. win.wall_s);
      metric "latency_p50_ms" "ms" (percentile 50.0 lat);
      metric "latency_p90_ms" "ms" (percentile 90.0 lat);
      metric "cpu_ms_per_req" "ms" (1000.0 *. win.cpu_s /. Float.max 1.0 n_ok);
      metric "peak_rss_mb" "MB" (float_of_int win.peak_rss_kb /. 1024.0);
    ]

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(** [service.*] metrics from the daemon leg's client-side spans. *)
let service_metrics (win : Daemon.window) =
  let rqs = Array.to_list win.rqs in
  let ok = List.filter Daemon.ok rqs in
  let fetched = List.filter (fun (rq : Daemon.rq) -> rq.t_fetch > 0.0) ok in
  let count p = float_of_int (List.length (List.filter p rqs)) in
  let polls = List.fold_left (fun a (rq : Daemon.rq) -> a + rq.polls) 0 rqs in
  let result_kb (r : Protocol.job_result) =
    float_of_int (String.length r.report + String.length (Flow_service.Json.to_string r.data)) /. 1024.0
  in
  (* time a request spent neither executing nor in its final fetch:
     the submit round trip, queue wait and poll lag *)
  let wait_ms (rq : Daemon.rq) =
    Daemon.latency_ms rq -. Option.value rq.exec_ms ~default:0.0 -. rq.fetch_ms
  in
  [
    metric "service.submit_ms" "ms" (median (List.map (fun (rq : Daemon.rq) -> rq.submit_ms) ok));
    metric "service.exec_ms" "ms" (median (List.filter_map (fun (rq : Daemon.rq) -> rq.exec_ms) ok));
    metric "service.wait_ms" "ms" (mean (List.map wait_ms fetched));
    metric "service.fetch_ms" "ms" (median (List.map (fun (rq : Daemon.rq) -> rq.fetch_ms) fetched));
    metric "service.polls_per_req" "count/req" (ratio (float_of_int polls) (float_of_int (List.length rqs)));
    metric "service.result_kb" "KB" (mean (List.filter_map (fun (rq : Daemon.rq) -> Option.map result_kb rq.result) fetched));
    metric "service.store_hit_ratio" "ratio"
      (ratio (count (fun rq -> rq.disposition = Some `Cached)) (count (fun rq -> rq.disposition <> None)));
    metric "service.coalesced" "count" (count (fun rq -> rq.disposition = Some `Coalesced));
    metric "service.refused" "count"
      (count (fun rq -> match rq.error with Some (Protocol.Queue_full | Protocol.Server_busy) -> true | _ -> false));
  ]

let total_ms spans = List.fold_left (fun acc sp -> acc +. Spans.ms sp) 0.0 spans
let in_layer l spans = List.filter (fun (sp : Spans.span) -> sp.layer = l) spans
let flows spans = List.filter (fun (sp : Spans.span) -> sp.layer = "core" && sp.name = "flow") spans
let renders spans = List.filter (fun (sp : Spans.span) -> sp.layer = "core" && sp.name = "render") spans

(** Flow time no task span covers (the flow's task spans are its
    children). *)
let orchestration_ms spans =
  List.fold_left
    (fun acc (fl : Spans.span) ->
      let tasks = List.filter_map (fun (t : Spans.span) -> if t.parent = fl.id then Some (t.t0, t.t1) else None) spans in
      acc +. (Spans.ms fl -. Spans.covered_ms ~lo:fl.t0 ~hi:fl.t1 tasks))
    0.0 (flows spans)

(** Per-layer metrics of the first [k] replayed submissions: spans for
    time, the registry counter deltas for work. *)
let replay_metrics ~k spans (rp : Replay.outcome) =
  let kf = float_of_int k in
  let per_req l = total_ms (in_layer l spans) /. kf in
  let tasks = List.filter (fun (sp : Spans.span) -> List.mem sp.layer Replay.task_layers) spans in
  let g = Counters.get rp.at_k in
  let hits = Counters.memo_hits rp.at_k and misses = Counters.memo_misses rp.at_k in
  (* guided sweeps predict every candidate and simulate a few; the
     program's dse_candidates counts only the simulated ones *)
  let candidates = Float.max (g "dse_candidates") (g "surrogate_predictions") in
  let designs = Array.fold_left ( + ) 0 (Array.sub rp.designs 0 k) in
  [
    metric "core.flow_ms" "ms" (median (List.map Spans.ms (flows spans)));
    metric "core.tasks_per_req" "count/req" (float_of_int (List.length tasks) /. kf);
    metric "core.orchestration_ms" "ms" (orchestration_ms spans /. kf);
    metric "core.render_ms" "ms" (total_ms (renders spans) /. kf);
    metric "analysis.hotspot_ms" "ms" (per_req "analysis.hotspot");
    metric "analysis.features_ms" "ms" (per_req "analysis.features");
    metric "analysis.other_ms" "ms" (per_req "analysis.other");
    metric "interp.runs_per_req" "count/req" (g "interp_runs" /. kf);
    metric "interp.mcycles_per_req" "Mcycles/req" (g Counters.cycles /. 1e6 /. kf);
    metric "interp.mcycles_per_s" "Mcycles/s"
      (ratio (g Counters.cycles /. 1e6) ((per_req "analysis.hotspot" +. per_req "analysis.features") *. kf /. 1000.0));
    metric "interp.profile_cache_hit_ratio" "ratio"
      (ratio (g "profile_cache_hits") (g "profile_cache_hits" +. g "profile_cache_misses"));
    metric "memo.hit_ratio" "ratio" (ratio hits (hits +. misses));
  ]
  @ List.concat_map
      (fun s ->
        [
          metric ("memo." ^ s ^ ".hits") "count" (g ("memo_" ^ s ^ "_hits"));
          metric ("memo." ^ s ^ ".misses") "count" (g ("memo_" ^ s ^ "_misses"));
        ])
      Counters.stages
  @ [
      metric "minic.parse_ms" "ms" (per_req "minic");
      metric "transforms.ms" "ms" (per_req "transforms");
      metric "codegen.ms" "ms" (per_req "codegen");
      metric "codegen.designs_per_req" "count/req" (float_of_int designs /. kf);
      metric "dse.ms" "ms" (per_req "dse");
      metric "dse.candidates_per_req" "count/req" (candidates /. kf);
      metric "dse.simulate_calls_per_req" "count/req" (g "dse_simulate_calls" /. kf);
      metric "dse.simulate_ratio" "ratio" (ratio (g "dse_simulate_calls") candidates);
      metric "surrogate.predictions_per_req" "count/req" (g "surrogate_predictions" /. kf);
      metric "surrogate.fallbacks_per_req" "count/req" (g "surrogate_fallbacks" /. kf);
      metric "devices.ms" "ms" (per_req "devices");
    ]

(** Where one executed flow's time went, and whether the replay's flow
    time agrees with the daemon's execution time (printed, not failed
    on: the daemon runs jobs concurrently, the replay one at a time). *)
let reconcile w ~k spans (win : Daemon.window) =
  let fl = flows spans in
  let n = float_of_int (max 1 (List.length fl)) in
  Printf.eprintf "psabench %s reconciliation (first %d submissions, %d executed; mean ms per executed flow):\n"
    w.name k (List.length fl);
  List.iter (fun l -> Printf.eprintf "  %-20s %10.3f\n" l (total_ms (in_layer l spans) /. n)) Replay.task_layers;
  Printf.eprintf "  %-20s %10.3f  (flow time no task span covers)\n" "core.orchestration" (orchestration_ms spans /. n);
  Printf.eprintf "  %-20s %10.3f  (task busy time adds up to more when paths run in parallel)\n" "core.flow"
    (total_ms fl /. n);
  let replay = median (List.map Spans.ms fl) +. median (List.map Spans.ms (renders spans)) in
  let daemon = median (List.filter_map (fun (rq : Daemon.rq) -> rq.exec_ms) (Array.to_list win.rqs)) in
  let tolerance = 0.5 in
  Printf.eprintf
    "  median core.flow + core.render %.3f ms vs median service.exec %.3f ms: ratio %.3f (%s, tolerance +/-%.0f%%)\n"
    replay daemon (ratio replay daemon)
    (if daemon > 0.0 && Float.abs (ratio replay daemon -. 1.0) <= tolerance then "agrees" else "DISAGREES")
    (100.0 *. tolerance)

(** Counters the replay must reproduce from the daemon leg. *)
let compare_counters ~sequential (a : Counters.t) (b : Counters.t) =
  let names = Counters.order_free @ if sequential then Counters.order_sensitive else [] in
  List.filter_map
    (fun n ->
      let x = Counters.get a n and y = Counters.get b n in
      if x = y then None else Some (Printf.sprintf "%s: daemon %.0f, traced replay %.0f" n x y))
    names

let traced w ~seed ~seconds =
  (* leg A: the daemon, exactly as in the end-to-end run *)
  let d, _ = setup w in
  let c0 = Counters.snapshot () in
  let win =
    Daemon.run d ~keep:(fun op -> op < w.prefix) ~connections:w.connections ~seconds ~min_requests ~ops:w.ops
  in
  let daemon_counters = Counters.diff c0 (Counters.snapshot ()) in
  let svc = Daemon.svc_metrics d in
  Daemon.stop d;
  (* leg B: same cache state, same submissions, one at a time, timed *)
  let d, _ = setup w in
  Daemon.stop d;
  let store = Store.create ~shards:w.store_shards ~capacity:w.store_capacity () in
  List.iter
    (fun s -> match Flow_service.Flow_exec.resolve s with Ok r -> Store.add store r.key () | Error _ -> ())
    w.prime;
  let rec_ = Spans.create () in
  let k = min w.prefix (Array.length win.rqs) in
  let rp = Replay.run rec_ ~store ~k win.rqs in
  (* the replay must measure the program the daemon ran *)
  let counter_diffs = compare_counters ~sequential:(w.connections = 1) daemon_counters rp.total in
  let per_request, checks, _ = check_window win in
  report_problems "failed submission" per_request;
  report_problems "check" checks;
  report_problems "replay mismatch" rp.mismatches;
  report_problems "counter mismatch (traced replay vs daemon)" counter_diffs;
  let spans = List.filter (fun (sp : Spans.span) -> sp.req < k) (Spans.spans rec_) in
  reconcile w ~k spans win;
  let spans_path = Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" w.name seed) in
  (try Spans.write ~keep:(fun sp -> sp.req < k) rec_ spans_path with Sys_error _ -> ());
  let span_cost = Spans.calibrate () in
  Printf.eprintf "psabench %s tracing overhead: %d spans at %.2f us each = %.2f%% of the %.3f s replay; spans in %s\n"
    w.name (Spans.count rec_) (1e6 *. span_cost)
    (100.0 *. ratio (span_cost *. float_of_int (Spans.count rec_)) rp.wall_s)
    rp.wall_s spans_path;
  (match svc with
  | Some j ->
      let get name =
        match Option.bind (Flow_service.Json.member name j) Flow_service.Json.to_int_opt with
        | Some v -> string_of_int v
        | None -> "0"
      in
      Printf.eprintf
        "psabench %s svc-metrics: requests_total %s, jobs_completed %s, jobs_failed %s, store_hits %s, store_misses %s\n"
        w.name (get "requests_total") (get "jobs_completed") (get "jobs_failed") (get "store_hits")
        (get "store_misses")
  | None -> ());
  let failed = List.length (per_request @ checks @ rp.mismatches @ counter_diffs) in
  let attempted = Array.length win.rqs in
  let memo_leg_a suffix =
    Counters.get daemon_counters ("profile_cache_" ^ suffix)
    +. List.fold_left (fun acc s -> acc +. Counters.get daemon_counters ("memo_" ^ s ^ "_" ^ suffix)) 0.0 Counters.stages
  in
  print_result ~correct:(failed = 0) ~attempted ~failed
    ((metric "error_rate" "ratio" (ratio (float_of_int failed) (float_of_int attempted)) :: service_metrics win)
    @ replay_metrics ~k spans rp
    @ [
        metric "memo.single_flight" "count" (memo_leg_a "single_flight");
        metric "memo.evictions" "count" (memo_leg_a "evictions");
      ])

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload_name = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let write_golden = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload_name, "cold_designs | variant_sweep | service_mix");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured window");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--write-golden", Arg.Set write_golden, " rewrite the Fig. 5 / Table I fingerprint");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "psabench --workload W --seed N --seconds S --trace 0|1";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if !write_golden then begin
    Out_channel.with_open_bin Checks.golden_path (fun oc -> output_string oc (Checks.fingerprint ()));
    exit 0
  end;
  if not (List.mem !workload_name workloads) then begin
    prerr_endline ("psabench: unknown workload " ^ !workload_name ^ " (one of " ^ String.concat ", " workloads ^ ")");
    exit 2
  end;
  let w = workload ~seed:!seed !workload_name in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  if !trace = 1 then traced w ~seed:!seed ~seconds:!seconds else end_to_end w ~seconds:!seconds
