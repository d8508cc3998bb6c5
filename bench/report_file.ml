(** Writer and reader for [BENCH_psaflow.json].

    [bench perf] is the file's only writer: it writes every section in
    one go.  The history commands read it back to extract the gated
    scalars. *)

module Json = Flow_service.Json

let read_sections path =
  if not (Sys.file_exists path) then []
  else
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    match Json.parse_result s with Ok (Json.Obj fields) -> fields | _ -> []

(** Write [sections] as the JSON object at [path], replacing the file. *)
let write ~path (sections : (string * Json.t) list) =
  let oc = open_out path in
  output_string oc (Json.to_string_pretty (Json.Obj sections));
  close_out oc

(* ------------------------------------------------------------------ *)
(* Perf history (BENCH_history.jsonl)                                  *)
(* ------------------------------------------------------------------ *)

module Perf_history = Flow_service.Perf_history

let history_path = "BENCH_history.jsonl"

(* Every line [cmd] prints, or [None] when it fails or cannot start. *)
let command_lines cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> None
  | ic ->
      let rec read acc =
        match input_line ic with
        | l -> read (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      let lines = read [] in
      if Unix.close_process_in ic = Unix.WEXITED 0 then Some lines else None

(** The commit this measurement belongs to: [PSAFLOW_COMMIT] when set
    (CI can pin it), else [git rev-parse --short HEAD] — suffixed
    [-dirty] when a tracked file other than the two files a perf run
    rewrites ([BENCH_psaflow.json], [BENCH_history.jsonl]) differs
    from it, so a datapoint of uncommitted code is never keyed (and
    {!history_gate}-excluded) as the commit's own — else "unknown":
    benches must not fail because git is absent. *)
let commit_id () =
  match Sys.getenv_opt "PSAFLOW_COMMIT" with
  | Some c when c <> "" -> c
  | _ -> (
      match command_lines "git rev-parse --short HEAD" with
      | Some (id :: _) when String.trim id <> "" ->
          let changed =
            command_lines
              "git status --porcelain --untracked-files=no -- ':/' \
               ':(top,exclude)BENCH_psaflow.json' \
               ':(top,exclude)BENCH_history.jsonl'"
          in
          String.trim id
          ^ if Option.value changed ~default:[] <> [] then "-dirty" else ""
      | _ -> "unknown")

(** The scalars of [BENCH_psaflow.json] a history datapoint records,
    flattened to dotted names; {!gate_specs} gates some of them.
    Fields missing from the file are simply absent from the
    datapoint. *)
let gated_paths =
  [ "interp"; "bytecode"; "mcycles_per_s" ]
  :: List.concat_map
      (fun (app : Benchmarks.Bench_app.t) ->
        [ "interp"; "benchmarks"; app.id; "compile_s" ]
        :: List.map
             (fun m -> [ "interp"; "benchmarks"; app.id; "run"; m ])
             [
               "virtual_mcycles";
               "vm_run_s";
               "minor_words_per_cycle";
               "bulk_share";
             ])
      Benchmarks.Registry.all

let extract_metrics (sections : (string * Json.t) list) : (string * float) list
    =
  List.filter_map
    (fun path ->
      let rec go j = function
        | [] -> Json.to_float_opt j
        | name :: rest -> Option.bind (Json.member name j) (fun j -> go j rest)
      in
      match path with
      | root :: rest ->
          Option.bind (List.assoc_opt root sections) (fun j -> go j rest)
          |> Option.map (fun v -> (String.concat "." path, v))
      | [] -> None)
    gated_paths

(** Append the current [BENCH_psaflow.json] numbers to the history as
    one commit-keyed datapoint.  Returns the datapoint written. *)
let history_append ~quick () : Perf_history.datapoint =
  let d =
    {
      Perf_history.commit = commit_id ();
      time = Unix.gettimeofday ();
      quick;
      metrics = extract_metrics (read_sections "BENCH_psaflow.json");
    }
  in
  Perf_history.append ~path:history_path d;
  d

(* Gate policy.  Thresholds are deliberately loose — CI containers are
   noisy and 1-core-vs-8-core hosts measure very different absolute
   numbers; the gate exists to catch order-of-magnitude regressions,
   not 5% drift (the trend table is for reading drift). *)
let gate_specs =
  [
    ("interp.bytecode.mcycles_per_s", Perf_history.Higher_better, 0.7);
  ]

(** Gate the current [BENCH_psaflow.json] against the rolling median of
    the history.  Prints one verdict line per gated metric; returns
    [false] if any metric failed (or is missing from the fresh bench
    file — a measurement that vanished is a harness bug, not noise). *)
let history_gate ~quick () : bool =
  let current = extract_metrics (read_sections "BENCH_psaflow.json") in
  let history = Perf_history.load ~path:history_path in
  let exclude_commit = commit_id () in
  let verdicts =
    List.map
      (fun (metric, direction, factor) ->
      match List.assoc_opt metric current with
      | None ->
          Printf.printf "GATE FAIL: %s missing from BENCH_psaflow.json\n" metric;
          false
      | Some value -> (
          match
            Perf_history.gate ~exclude_commit ~history ~quick ~metric ~direction
              ~factor value
          with
          | Perf_history.Pass { value; median; used } ->
              Printf.printf
                "gate: %-32s %10.3f vs median %10.3f of last %d (%s %gx) ok\n"
                metric value median used
                (match direction with
                | Perf_history.Higher_better -> ">="
                | Perf_history.Lower_better -> "<=")
                factor;
              true
          | Perf_history.Fail { value; median; used } ->
              Printf.printf
                "GATE FAIL: %s %.3f vs rolling median %.3f of last %d (%s \
                 %gx required)\n"
                metric value median used
                (match direction with
                | Perf_history.Higher_better -> ">="
                | Perf_history.Lower_better -> "<=")
                factor;
              false
          | Perf_history.Skip notice ->
              Printf.printf "gate: %s: skipped — %s\n" metric notice;
              true))
      gate_specs
  in
  List.for_all Fun.id verdicts
