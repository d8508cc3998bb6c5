(** psaflow — command-line driver for the PSA-flow toolchain.

    One-shot subcommands:
    - [run BENCH]: run the PSA-flow (informed by default; [--uninformed]
      generates all five designs) and print the flow log and timed
      results;
    - [list]: list benchmarks and the task repository;
    - [export BENCH DESIGN]: print a generated design's source;
    - [analyze BENCH]: print the hotspot, kernel features and the Fig. 3
      strategy decision;
    - [report [--json]]: the measured Fig. 5 / Table I / Fig. 6 data.

    Service subcommands (the flow-as-a-service daemon):
    - [serve]: run the daemon on a Unix socket (or TCP with
      [--socket HOST:PORT]);
    - [submit [BENCH | --file SRC.c]]: submit a flow job, optionally
      [--wait]ing for and printing its report;
    - [status [JOB_ID]]: one job's state, or the full job list;
    - [fetch JOB_ID]: print a finished job's report;
    - [svc-metrics]: the daemon's metrics as JSON;
    - [svc-trace [--slow] [--json]]: the daemon's retained request
      traces (deterministic sample, or slow exemplars);
    - [svc-shutdown]: drain and stop the daemon. *)

open Cmdliner
module Protocol = Flow_service.Protocol
module Client = Flow_service.Client
module Json = Flow_service.Json
module Log = Flow_obs.Log
module Trace = Flow_obs.Trace

(* ------------------------------------------------------------------ *)
(* Error discipline: user mistakes exit non-zero with one line         *)
(* ------------------------------------------------------------------ *)

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("psaflow: " ^ m);
      exit 1)
    fmt

(* ------------------------------------------------------------------ *)
(* Leveled diagnostics: --verbose/--quiet on every command, and the    *)
(* PSAFLOW_LOG env var as the default (see Flow_obs.Log)               *)
(* ------------------------------------------------------------------ *)

let log_term =
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:
            "Verbose diagnostics (debug level; $(b,run) also prints the flow \
             event log).")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "q"; "quiet" ] ~doc:"Only error diagnostics (overrides -v).")
  in
  Term.(
    const (fun verbose quiet ->
        if quiet then Log.set_level Log.Error
        else if verbose then Log.set_level Log.Debug)
    $ verbose $ quiet)

let find_bench id =
  try Benchmarks.Registry.find id
  with Invalid_argument _ ->
    die "unknown benchmark %S (available: %s)" id
      (String.concat ", " Benchmarks.Registry.ids)

(** Run [f], turning the toolchain's diagnosable exceptions into a
    one-line stderr message and exit code 1 (no backtrace). *)
let protect f =
  try f () with
  | Minic.Lexer.Lex_error (m, loc) ->
      die "MiniC lex error: %s at %s" m
        (Format.asprintf "%a" Minic.Loc.pp_short loc)
  | Minic.Parser.Parse_error (m, loc) ->
      die "MiniC parse error: %s at %s" m
        (Format.asprintf "%a" Minic.Loc.pp_short loc)
  | Minic.Typecheck.Type_error (m, loc) ->
      die "MiniC type error: %s at %s" m
        (Format.asprintf "%a" Minic.Loc.pp_short loc)
  | Psa.Std_flow.Flow_error m -> die "flow error: %s" m
  | Client.Client_error m -> die "%s" m

let bench_arg =
  let doc =
    "Benchmark application: " ^ String.concat ", " Benchmarks.Registry.ids
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)

let x_arg =
  let doc = "FLOPs/byte threshold X of the PSA strategy (Fig. 3)." in
  Arg.(value & opt float 2.0 & info [ "x-threshold"; "x" ] ~doc)

(* the daemon's report is rendered by the same function, so CLI runs and
   fetched service results are byte-identical *)
let print_results results =
  print_string (Flow_service.Flow_exec.render_report results)

(* ------------------------------------------------------------------ *)
(* One-shot commands                                                   *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let uninformed =
    Arg.(
      value & flag
      & info [ "uninformed" ]
          ~doc:"Select all paths at branch point A (generate all designs).")
  in
  let budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~doc:"Cost budget in dollars per run (Fig. 3 feedback).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON of the flow execution to \
             $(docv) (open in about:tracing or Perfetto).")
  in
  let run () bench uninformed budget x trace_file =
    protect @@ fun () ->
    let app = find_bench bench in
    let ctx = Benchmarks.Bench_app.context ~x_threshold:x ?budget app in
    Format.printf "running %s PSA-flow on %s (profile n=%d, eval n=%d)@."
      (if uninformed then "uninformed" else "informed")
      app.name app.profile_n app.eval_n;
    let flow () =
      if uninformed then Psa.Std_flow.run_uninformed ~x_threshold:x ctx
      else Psa.Std_flow.run_informed ~x_threshold:x ?budget ctx
    in
    let outcome =
      match trace_file with
      | None -> flow ()
      | Some path ->
          let outcome, spans = Trace.record flow in
          let outcome = Trace.value outcome in
          let json = Trace.export_spans spans in
          (match Json.parse_result json with
          | Ok _ -> ()
          | Error e -> die "internal error: exported trace is invalid JSON: %s" e);
          let oc = open_out_bin path in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc json);
          Log.infof "trace: %d spans written to %s" (List.length spans) path;
          outcome
    in
    if Log.enabled Log.Info then
      List.iter (fun l -> Format.printf "  %s@." l) outcome.log;
    print_results outcome.results
  in
  Cmd.v (Cmd.info "run" ~doc:"Run the PSA-flow on a benchmark.")
    Term.(const run $ log_term $ bench_arg $ uninformed $ budget $ x_arg $ trace)

let list_cmd =
  let run () =
    Format.printf "benchmarks (the paper's five):@.";
    List.iter
      (fun (b : Benchmarks.Bench_app.t) ->
        Format.printf "  %-12s %s — %s@." b.id b.name b.description)
      Benchmarks.Registry.all;
    Format.printf "@.extra applications:@.";
    List.iter
      (fun (b : Benchmarks.Bench_app.t) ->
        Format.printf "  %-12s %s — %s@." b.id b.name b.description)
      Benchmarks.Registry.extras;
    Format.printf "@.task repository (Fig. 4):@.%a" Psa.Report.pp_repository ()
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List benchmarks and the design-flow task repository.")
    Term.(const run $ const ())

let analyze_cmd =
  let run () bench x =
    protect @@ fun () ->
    let app = find_bench bench in
    let ctx = Benchmarks.Bench_app.context ~x_threshold:x app in
    let ctxs = Psa.Flow.run Psa.Std_flow.target_independent ctx in
    List.iter
      (fun c ->
        List.iter (fun l -> Format.printf "  %s@." l) (Psa.Context.events c);
        let e = Psa.Strategy.fig3_explain c in
        Format.printf "@.strategy: %a@." Psa.Strategy.pp_explanation e)
      ctxs
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run the target-independent analyses and print the PSA decision.")
    Term.(const run $ log_term $ bench_arg $ x_arg)

let explain_cmd =
  let budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~doc:"Cost budget in dollars per run (Fig. 3 feedback).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the decision records as JSON.")
  in
  let run () bench budget x json =
    protect @@ fun () ->
    let app = find_bench bench in
    let ctx = Benchmarks.Bench_app.context ~x_threshold:x ?budget app in
    let outcome = Psa.Std_flow.run_informed ~x_threshold:x ?budget ctx in
    if json then
      print_endline
        (Json.to_string_pretty (Flow_service.Flow_exec.decisions_json outcome))
    else begin
      let decisions = Psa.Context.collect_decisions outcome.contexts in
      Format.printf "decision provenance of the informed PSA-flow on %s:@.@."
        app.name;
      print_string (Flow_obs.Provenance.render_all decisions);
      match Psa.Report.best outcome.results with
      | Some b ->
          Format.printf "@.outcome: %s (%.1fx)@." b.design.name b.speedup
      | None -> Format.printf "@.outcome: no feasible design@."
    end
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Run the informed PSA-flow and print why each branch point chose \
          its path (strategy, selection, analysis evidence).")
    Term.(const run $ log_term $ bench_arg $ budget $ x_arg $ json)

let export_cmd =
  let design_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"DESIGN"
          ~doc:
            "Design name, e.g. omp_epyc7543, hip_rtx2080ti, oneapi_stratix10.")
  in
  let run bench design_name =
    protect @@ fun () ->
    let e = Benchmarks.Evaluation.collect_one (find_bench bench) in
    match Benchmarks.Evaluation.result e design_name with
    | Some r -> print_string (Codegen.Design.export r.design)
    | None ->
        die "no design %S; available: %s" design_name
          (String.concat ", "
             (List.map
                (fun (r : Devices.Simulate.result) -> r.design.name)
                e.results))
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Print the generated source of one design.")
    Term.(const run $ bench_arg $ design_arg)

let debug_cmd_t =
  let run bench =
    protect @@ fun () ->
    ignore (find_bench bench);
    Debug_cmd.run bench
  in
  Cmd.v
    (Cmd.info "debug"
       ~doc:"Print model breakdowns and features for calibration.")
    Term.(const run $ bench_arg)

let flow_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz dot instead of ASCII.")
  in
  let run dot =
    let flow = Psa.Std_flow.flow () in
    if dot then print_string (Psa.Report.flow_to_dot flow)
    else print_string (Psa.Report.flow_to_ascii flow)
  in
  Cmd.v
    (Cmd.info "flow"
       ~doc:"Render the standard PSA-flow (the paper's Fig. 4) as a diagram.")
    Term.(const run $ dot)

let report_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit machine-readable JSON instead of the text tables.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "With $(b,--json): exit 1 when BENCH_psaflow.json is missing or \
             stale (perf fields degraded to null).  Without it, degraded \
             fields only warn on stderr.")
  in
  let trend =
    Arg.(
      value & flag
      & info [ "trend" ]
          ~doc:
            "Print the performance-history trend tables from \
             $(b,BENCH_history.jsonl) (latest value per metric vs the rolling \
             median of prior runs) instead of re-measuring the evaluation \
             data.  No flows are executed.")
  in
  let run json strict trend =
    protect @@ fun () ->
    if trend then Report_cmd.run_trend ~strict ~json ()
    else Report_cmd.run ~strict ~json ()
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Measure and print the Fig. 5 / Table I / Fig. 6 evaluation data \
          (all five benchmarks), or the perf-history trend with $(b,--trend).")
    Term.(const run $ json $ strict $ trend)

(* ------------------------------------------------------------------ *)
(* Service commands                                                    *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  let doc =
    "Daemon address: a Unix socket path, or HOST:PORT for TCP.  Defaults \
     to $(b,PSAFLOW_SOCKET) or the system temp dir."
  in
  Arg.(
    value
    & opt string (Protocol.default_socket_path ())
    & info [ "socket" ] ~docv:"ADDR" ~doc)

let addr_of socket = Protocol.addr_of_string socket

let serve_cmd =
  let workers =
    Arg.(
      value
      & opt int (Flow_service.Scheduler.default_workers ())
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker threads draining the job queue (default \
             $(b,PSAFLOW_SERVICE_WORKERS) or 2).")
  in
  let queue_cap =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:"Queued-job bound; submissions beyond it get queue_full.")
  in
  let store_cap =
    Arg.(
      value & opt int 256
      & info [ "store-cap" ] ~docv:"N"
          ~doc:"Result-store capacity (LRU-evicted beyond it).")
  in
  let max_conns =
    Arg.(
      value
      & opt int (Flow_service.Server.default_max_connections ())
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Concurrent connection cap (default \
             $(b,PSAFLOW_MAX_CONNECTIONS) or 64); connections beyond it are \
             rejected with server_busy.")
  in
  let run () socket workers queue_cap store_cap max_conns =
    protect @@ fun () ->
    let addr = addr_of socket in
    Format.printf "psaflow daemon listening on %s (%d workers)@."
      (Protocol.addr_to_string addr)
      workers;
    Flow_service.Server.serve
      ~config:
        {
          (Flow_service.Server.default_config ()) with
          workers;
          queue_capacity = queue_cap;
          store_capacity = store_cap;
          max_connections = max_conns;
        }
      addr;
    Format.printf "psaflow daemon drained and stopped@."
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Run the flow daemon (blocks until svc-shutdown).")
    Term.(
      const run $ log_term $ socket_arg $ workers $ queue_cap $ store_cap
      $ max_conns)

let pp_job_line (j : Protocol.job_view) =
  Format.printf "job #%d  %-12s %-10s %-12s %-7s%s%s@." j.job_id j.label
    (Protocol.mode_to_string j.mode)
    (Protocol.strategy_to_string j.strategy)
    (Protocol.state_to_string j.state)
    (if j.cached then " (cached)" else "")
    (match j.wall_s with
    | Some s -> Printf.sprintf "  %.3f s" s
    | None -> "")

let submit_cmd =
  let bench_opt =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"BENCH" ~doc:"Benchmark to submit (omit with --file).")
  in
  let file =
    Arg.(
      value
      & opt (some file) None
      & info [ "file" ] ~docv:"SRC.c" ~doc:"Submit an inline MiniC source file.")
  in
  let uninformed =
    Arg.(
      value & flag
      & info [ "uninformed" ] ~doc:"Generate all designs (all paths at A).")
  in
  let strategy =
    Arg.(
      value
      & opt (enum (List.map (fun s -> (s, s)) Protocol.strategy_names)) "fig3"
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:
            (Printf.sprintf "PSA strategy at branch point A: %s."
               (String.concat ", " Protocol.strategy_names)))
  in
  let budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~doc:"Cost budget in dollars per run.")
  in
  let wait =
    Arg.(
      value & flag
      & info [ "wait" ] ~doc:"Block until the job finishes; print its report.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Capture a Chrome trace of the job's execution; the trace JSON \
             is embedded in the result data (see $(b,fetch --json)).")
  in
  let run () socket bench_id file uninformed strategy budget x wait trace =
    protect @@ fun () ->
    let source =
      match (bench_id, file) with
      | Some id, None ->
          ignore (find_bench id);
          Protocol.Bench id
      | None, Some path ->
          let ic = open_in_bin path in
          let src =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          Protocol.Inline src
      | _ -> die "exactly one of BENCH or --file is required"
    in
    let submission =
      Protocol.submission
        ~mode:(if uninformed then Protocol.Uninformed else Protocol.Informed)
        ~strategy:
          (Option.get (Protocol.strategy_of_string strategy))
        ~x_threshold:x ?budget ~trace source
    in
    let addr = addr_of socket in
    if wait then
      match Client.submit_and_wait addr submission with
      | Ok (job_id, disposition, r) ->
          Format.eprintf "job #%d %s@." job_id
            (Protocol.disposition_to_string disposition);
          print_string r.report
      | Error e -> die "%s" e
    else
      match Client.rpc addr (Protocol.Submit_flow submission) with
      | Protocol.Submitted { job_id; disposition } ->
          Format.printf "submitted job #%d (%s)@." job_id
            (Protocol.disposition_to_string disposition)
      | Protocol.Error e -> die "%s" (Protocol.error_message e)
      | _ -> die "unexpected response"
  in
  Cmd.v
    (Cmd.info "submit" ~doc:"Submit a flow job to the daemon.")
    Term.(
      const run $ log_term $ socket_arg $ bench_opt $ file $ uninformed
      $ strategy $ budget $ x_arg $ wait $ trace)

let status_cmd =
  let job_arg =
    Arg.(
      value
      & pos 0 (some int) None
      & info [] ~docv:"JOB_ID" ~doc:"Job to query (omit to list all jobs).")
  in
  let run socket job_id =
    protect @@ fun () ->
    let addr = addr_of socket in
    match job_id with
    | Some id -> (
        match Client.rpc addr (Protocol.Job_status id) with
        | Protocol.Status j -> pp_job_line j
        | Protocol.Error e -> die "%s" (Protocol.error_message e)
        | _ -> die "unexpected response")
    | None -> (
        match Client.rpc addr Protocol.List_jobs with
        | Protocol.Jobs js ->
            if js = [] then Format.printf "no jobs@."
            else List.iter pp_job_line js
        | Protocol.Error e -> die "%s" (Protocol.error_message e)
        | _ -> die "unexpected response")
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Show one job's state, or list all jobs.")
    Term.(const run $ socket_arg $ job_arg)

let fetch_cmd =
  let job_arg =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"JOB_ID" ~doc:"Job id.")
  in
  let wait =
    Arg.(value & flag & info [ "wait" ] ~doc:"Poll until the job finishes.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the structured result data (designs, log, explain, and \
             the trace for --trace submissions) instead of the report.")
  in
  let run () socket id wait json =
    protect @@ fun () ->
    let addr = addr_of socket in
    let print (r : Protocol.job_result) =
      if json then print_endline (Json.to_string_pretty r.data)
      else print_string r.report
    in
    if wait then
      match Client.wait_result addr id with
      | Ok (_, r) -> print r
      | Error e -> die "%s" e
    else
      match Client.rpc addr (Protocol.Fetch_result id) with
      | Protocol.Result (_, r) -> print r
      | Protocol.Status j ->
          pp_job_line j;
          exit 3 (* not done yet: distinct from hard failures *)
      | Protocol.Error e -> die "%s" (Protocol.error_message e)
      | _ -> die "unexpected response"
  in
  Cmd.v
    (Cmd.info "fetch" ~doc:"Print a finished job's report.")
    Term.(const run $ log_term $ socket_arg $ job_arg $ wait $ json)

let svc_metrics_cmd =
  let run socket =
    protect @@ fun () ->
    match Client.rpc (addr_of socket) Protocol.Metrics with
    | Protocol.Metrics_data m -> print_string (Json.to_string_pretty m)
    | Protocol.Error e -> die "%s" (Protocol.error_message e)
    | _ -> die "unexpected response"
  in
  Cmd.v
    (Cmd.info "svc-metrics" ~doc:"Print the daemon's metrics as JSON.")
    Term.(const run $ socket_arg)

let svc_trace_cmd =
  let slow =
    Arg.(
      value & flag
      & info [ "slow" ]
          ~doc:
            "Show the slow-request exemplar ring (executions at or over \
             $(b,PSAFLOW_SLOW_MS)) instead of the sampled ring.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the full retained records — including each request's \
             Chrome-format span trace — as JSON.")
  in
  let run socket slow json_out =
    protect @@ fun () ->
    let t = Client.traces ~slow (addr_of socket) in
    if json_out then print_endline (Json.to_string_pretty t)
    else
      match t with
      | Json.List [] ->
          Format.printf "no retained %s traces@."
            (if slow then "slow" else "sampled")
      | Json.List records ->
          let field to_v default k r =
            Option.value ~default (Option.bind (Json.member k r) to_v)
          in
          let str = field Json.to_string_opt "?" in
          let int = field Json.to_int_opt 0 in
          let num = field Json.to_float_opt 0.0 in
          List.iter
            (fun r ->
              Format.printf "%-20s job #%-4d %-10s seq %-4d %8.1f ms %4d spans%s@."
                (str "request_id" r) (int "job_id" r) (str "label" r)
                (int "seq" r) (num "wall_ms" r) (int "spans" r)
                (match Json.member "slow" r with
                | Some (Json.Bool true) -> "  [slow]"
                | _ -> ""))
            records
      | _ -> die "unexpected svc_trace payload"
  in
  Cmd.v
    (Cmd.info "svc-trace"
       ~doc:
         "Print the daemon's retained request traces (sampled ring, or slow \
          exemplars with $(b,--slow)).")
    Term.(const run $ socket_arg $ slow $ json)

let svc_shutdown_cmd =
  let run socket =
    protect @@ fun () ->
    match Client.rpc (addr_of socket) Protocol.Shutdown with
    | Protocol.Shutting_down -> Format.printf "daemon shutting down@."
    | Protocol.Error e -> die "%s" (Protocol.error_message e)
    | _ -> die "unexpected response"
  in
  Cmd.v
    (Cmd.info "svc-shutdown" ~doc:"Drain the job queue and stop the daemon.")
    Term.(const run $ socket_arg)

(* ------------------------------------------------------------------ *)

let () =
  (* spans carry real wall-clock timestamps in CLI traces *)
  Trace.set_clock Unix.gettimeofday;
  let info = Cmd.info "psaflow" ~doc:"Auto-generating diverse heterogeneous designs." in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            list_cmd;
            analyze_cmd;
            explain_cmd;
            export_cmd;
            debug_cmd_t;
            flow_cmd;
            report_cmd;
            serve_cmd;
            submit_cmd;
            status_cmd;
            fetch_cmd;
            svc_metrics_cmd;
            svc_trace_cmd;
            svc_shutdown_cmd;
          ]))
