(** [psaflow report]: the measured evaluation data of the paper's
    Fig. 5 (hotspot speedups), Table I (added LOC) and Fig. 6 (relative
    platform cost), as a text report (default) or machine-readable JSON
    ([--json], encoded with {!Flow_service.Json}).

    The paper-vs-measured side-by-side comparison lives in
    [bench/main.exe]; this command reports what {e this} toolchain
    measures, in a form other tools can consume.  Both render the data
    of {!Benchmarks.Evaluation}. *)

module Json = Flow_service.Json

module Evaluation = Benchmarks.Evaluation

(* ------------------------------------------------------------------ *)
(* Text output                                                         *)
(* ------------------------------------------------------------------ *)

let opt_x = function Some v -> Printf.sprintf "%.1f" v | None -> "n/a"

let print_text data =
  print_endline "== Fig. 5: hotspot speedups vs single-thread CPU (measured) ==";
  Printf.printf "%-13s %10s %10s %12s %12s %12s %12s\n" "benchmark" "Auto"
    "OMP" "HIP 1080Ti" "HIP 2080Ti" "oneAPI A10" "oneAPI S10";
  List.iter
    (fun (e : Evaluation.t) ->
      let auto =
        Option.map (fun (r : Devices.Simulate.result) -> r.speedup)
          (Evaluation.auto_selected e)
      in
      Printf.printf "%-13s %10s" e.app.id (opt_x auto);
      List.iter
        (fun n -> Printf.printf " %*s" (if n = "omp_epyc7543" then 10 else 12)
            (opt_x (Evaluation.speedup e n)))
        Evaluation.design_names;
      print_newline ())
    data;
  print_endline "";
  print_endline "== Table I: added LOC per design, % of reference (measured) ==";
  Printf.printf "%-13s %6s %8s %10s %10s %12s %12s\n" "benchmark" "ref" "OMP"
    "HIP 1080" "HIP 2080" "oneAPI A10" "oneAPI S10";
  List.iter
    (fun (e : Evaluation.t) ->
      Printf.printf "%-13s %6d" e.app.id
        (Minic.Loc_count.count_program e.reference);
      List.iteri
        (fun i n ->
          let w = [| 8; 10; 10; 12; 12 |].(i) in
          Printf.printf " %*s" w
            (match Evaluation.loc_delta e n with
            | Some v -> Printf.sprintf "+%.0f%%" v
            | None -> "n/a"))
        Evaluation.design_names;
      print_newline ())
    data;
  print_endline "";
  print_endline
    "== Fig. 6: relative cost, Stratix10 CPU+FPGA vs 2080 Ti CPU+GPU ==";
  Printf.printf "%-13s" "FPGA$/GPU$:";
  List.iter (fun r -> Printf.printf "%9.2f" r) Evaluation.fig6_ratios;
  Printf.printf "%12s\n" "crossover";
  List.iter
    (fun (id, t_f, t_g) ->
      match (t_f, t_g) with
      | Some t_f, Some t_g ->
          Printf.printf "%-13s" id;
          List.iter
            (fun pr ->
              Printf.printf "%9.2f"
                (Psa.Cost.relative_cost ~price_ratio:pr ~seconds_a:t_f
                   ~seconds_b:t_g))
            Evaluation.fig6_ratios;
          Printf.printf "%12.2f\n"
            (Psa.Cost.breakeven_ratio ~seconds_a:t_f ~seconds_b:t_g)
      | _ -> Printf.printf "%-13s (FPGA design not available)\n" id)
    (Evaluation.fig6_times data)

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

let opt_float = function Some v -> Json.Float v | None -> Json.Null

(* ------------------------------------------------------------------ *)
(* Performance section                                                 *)
(* ------------------------------------------------------------------ *)

(** The committed performance numbers ([BENCH_psaflow.json], written by
    [bench/main.exe perf]), distilled to what a report consumer needs:
    the core count the numbers were measured on, the cached-vs-uncached
    wall-clock flow pair, the interpreter throughput incl. the slot-IR
    optimizer's contribution ([interp.optimized]) and the exhaustive
    DSE call count.

    Degrades rather than raises: an absent/unreadable file, or any
    missing or stale field, yields [Json.Null] for that field and a
    warning in the returned list.  Callers decide whether warnings are
    fatal ([report --strict]). *)
let perf_section () : Json.t * string list =
  let warnings = ref [] in
  let warn fmt =
    Printf.ksprintf (fun m -> warnings := m :: !warnings) fmt
  in
  let bench =
    match
      try
        let ic = open_in "BENCH_psaflow.json" in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> Some (really_input_string ic (in_channel_length ic)))
      with Sys_error e ->
        warn "BENCH_psaflow.json unreadable (%s); perf fields are null" e;
        None
    with
    | None -> Json.Null
    | Some text -> (
        match Json.parse_result text with
        | Ok j -> j
        | Error e ->
            warn "BENCH_psaflow.json is not valid JSON (%s); perf fields are \
                  null" e;
            Json.Null)
  in
  (* a path like "flow.sequential_uncached_s": every missing step warns
     once and degrades to Null (suppressed when the whole file already
     failed to load — one warning is enough) *)
  let pick obj path =
    let rec go j = function
      | [] -> Some j
      | name :: rest -> Option.bind (Json.member name j) (fun j -> go j rest)
    in
    match go obj path with
    | Some j -> j
    | None ->
        if obj <> Json.Null then
          warn "BENCH_psaflow.json: missing field %S (stale file? re-run \
                `bench/main.exe perf`)"
            (String.concat "." path);
        Json.Null
  in
  (* advisory only (not --strict fatal): CI legitimately writes the file
     with --quick *)
  (match Json.member "quick" bench with
  | Some (Json.Bool true) ->
      prerr_endline
        "psaflow report: note: BENCH_psaflow.json was written by a --quick \
         run; numbers are smoke-test quality"
  | _ -> ());
  (* bind the fields before reading the warnings ref: tuple components
     evaluate right-to-left, so building the pair directly would
     snapshot the warning list before any [pick] had run *)
  let fields =
    Json.Obj
      [
        ("source", Json.String "BENCH_psaflow.json");
        ("cores", pick bench [ "cores" ]);
        ("jobs", pick bench [ "jobs" ]);
        ("sequential_uncached_s", pick bench [ "flow"; "sequential_uncached_s" ]);
        ("cached_vs_uncached_flow", pick bench [ "flow"; "cached_vs_uncached_flow" ]);
        ("outputs_identical", pick bench [ "flow"; "outputs_identical" ]);
        ("interp_optimized", pick bench [ "interp"; "optimized" ]);
        ( "interp_bytecode_mcycles_per_s",
          pick bench [ "interp"; "bytecode"; "mcycles_per_s" ] );
        (* exhaustive DSE: analytic-model calls of the perf bench's
           "dse" leg over all five benchmarks *)
        ("dse_simulate_calls", pick bench [ "dse"; "simulate_calls" ]);
      ]
  in
  (fields, List.rev !warnings)

let json_of_data data : Json.t * string list =
  let fig5 =
    List.map
      (fun (e : Evaluation.t) ->
        Json.Obj
          [
            ("benchmark", Json.String e.app.id);
            ( "decision",
              Json.String (Psa.Strategy.decision_to_string e.decision.decision)
            );
            ( "auto",
              opt_float
                (Option.map
                   (fun (r : Devices.Simulate.result) -> r.speedup)
                   (Evaluation.auto_selected e)) );
            ( "speedups",
              Json.Obj
                (List.map
                   (fun n -> (n, opt_float (Evaluation.speedup e n)))
                   Evaluation.design_names) );
          ])
      data
  in
  let table1 =
    List.map
      (fun (e : Evaluation.t) ->
        Json.Obj
          [
            ("benchmark", Json.String e.app.id);
            ( "reference_loc",
              Json.Int (Minic.Loc_count.count_program e.reference) );
            ( "added_loc_percent",
              Json.Obj
                (List.map
                   (fun n -> (n, opt_float (Evaluation.loc_delta e n)))
                   Evaluation.design_names) );
          ])
      data
  in
  let fig6 =
    List.filter_map
      (fun (id, t_f, t_g) ->
        match (t_f, t_g) with
        | Some t_f, Some t_g ->
            Some
              (Json.Obj
                 [
                   ("benchmark", Json.String id);
                   ("fpga_seconds", Json.Float t_f);
                   ("gpu_seconds", Json.Float t_g);
                   ( "relative_cost",
                     Json.List
                       (List.map
                          (fun pr ->
                            Json.Obj
                              [
                                ("price_ratio", Json.Float pr);
                                ( "cost_ratio",
                                  Json.Float
                                    (Psa.Cost.relative_cost ~price_ratio:pr
                                       ~seconds_a:t_f ~seconds_b:t_g) );
                              ])
                          Evaluation.fig6_ratios) );
                   ( "crossover",
                     Json.Float
                       (Psa.Cost.breakeven_ratio ~seconds_a:t_f ~seconds_b:t_g)
                   );
                 ])
        | _ -> None)
      (Evaluation.fig6_times data)
  in
  let perf, warnings = perf_section () in
  ( Json.Obj
      [
        ("fig5", Json.List fig5);
        ("table1", Json.List table1);
        ("fig6", Json.List fig6);
        ("perf", perf);
      ],
    warnings )

(* ------------------------------------------------------------------ *)
(* Perf trend (BENCH_history.jsonl)                                    *)
(* ------------------------------------------------------------------ *)

module Perf_history = Flow_service.Perf_history

let history_path = "BENCH_history.jsonl"

(* One trend row: the metric's full value series at one scale, its
   latest point, and the delta against the rolling median of the K
   entries before it.  A metric the newest datapoint at its scale does
   not carry is retired: the series stays visible but is no longer
   measured. *)
type trend_row = {
  metric : string;
  points : int;
  baseline : float option;  (** median of up to K entries before latest *)
  latest : float;
  latest_commit : string;
  delta_pct : float option;
  retired : bool;
}

let trend_rows (history : Perf_history.datapoint list) ~quick ~k :
    trend_row list =
  let at_scale =
    List.filter (fun (d : Perf_history.datapoint) -> d.quick = quick) history
  in
  let metrics =
    List.sort_uniq compare
      (List.concat_map
         (fun (d : Perf_history.datapoint) -> List.map fst d.metrics)
         at_scale)
  in
  let newest =
    match List.rev at_scale with d :: _ -> d.metrics | [] -> []
  in
  List.filter_map
    (fun metric ->
      let series =
        List.filter_map
          (fun (d : Perf_history.datapoint) ->
            Option.map
              (fun v -> (d.commit, v))
              (List.assoc_opt metric d.metrics))
          at_scale
      in
      match List.rev series with
      | [] -> None
      | (latest_commit, latest) :: earlier ->
          let window =
            List.filteri (fun i _ -> i < k) earlier |> List.map snd
          in
          let baseline = Perf_history.median window in
          let delta_pct =
            Option.bind baseline (fun m ->
                if m = 0.0 then None else Some (100.0 *. ((latest -. m) /. m)))
          in
          Some
            {
              metric;
              points = List.length series;
              baseline;
              latest;
              latest_commit;
              delta_pct;
              retired = not (List.mem_assoc metric newest);
            })
    metrics

let print_trend_table ~label ~k rows =
  Printf.printf "== perf trend: %s runs (median of up to %d prior entries) ==\n"
    label k;
  if rows = [] then print_endline "  (no history at this scale)"
  else begin
    Printf.printf "%-34s %4s %12s %12s %9s  %s\n" "metric" "n" "median"
      "latest" "delta" "commit";
    List.iter
      (fun r ->
        Printf.printf "%-34s %4d %12s %12.3f %9s  %s%s\n" r.metric r.points
          (match r.baseline with
          | Some m -> Printf.sprintf "%.3f" m
          | None -> "n/a")
          r.latest
          (match r.delta_pct with
          | Some d -> Printf.sprintf "%+.1f%%" d
          | None -> "n/a")
          r.latest_commit
          (if r.retired then "  retired" else ""))
      rows
  end

let trend_json ~k history : Json.t =
  let scale quick =
    Json.List
      (List.map
         (fun r ->
           Json.Obj
             [
               ("metric", Json.String r.metric);
               ("points", Json.Int r.points);
               ("median", opt_float r.baseline);
               ("latest", Json.Float r.latest);
               ("latest_commit", Json.String r.latest_commit);
               ("delta_pct", opt_float r.delta_pct);
               ("retired", Json.Bool r.retired);
             ])
         (trend_rows history ~quick ~k))
  in
  Json.Obj
    [
      ("source", Json.String history_path);
      ("k", Json.Int k);
      ("quick", scale true);
      ("full", scale false);
    ]

(** [psaflow report --trend]: the perf-history trend tables.  Reads
    only [BENCH_history.jsonl] — no flows are executed. *)
let run_trend ?(strict = false) ~json () =
  let history = Perf_history.load ~path:history_path in
  let k = Perf_history.default_k () in
  if history = [] then begin
    prerr_endline
      ("psaflow report: no perf history at " ^ history_path
     ^ " (run scripts/perf_gate.sh, or `bench/main.exe history-append`)");
    if strict then exit 1
  end;
  if json then print_string (Json.to_string_pretty (trend_json ~k history))
  else begin
    print_trend_table ~label:"full" ~k (trend_rows history ~quick:false ~k);
    print_endline "";
    print_trend_table ~label:"quick" ~k (trend_rows history ~quick:true ~k)
  end

let run ?(strict = false) ~json () =
  let data = Evaluation.collect () in
  if json then begin
    let j, warnings = json_of_data data in
    List.iter (fun w -> prerr_endline ("psaflow report: warning: " ^ w)) warnings;
    print_string (Json.to_string_pretty j);
    if strict && warnings <> [] then begin
      prerr_endline
        "psaflow report: --strict: treating perf-section warnings as fatal";
      exit 1
    end
  end
  else print_text data
