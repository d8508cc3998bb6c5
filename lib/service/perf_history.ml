(** Append-only performance history: commit-keyed benchmark datapoints
    in a JSONL file ([BENCH_history.jsonl]), one JSON object per line,
    plus rolling-median regression gating over the last K entries.

    Unlike the single committed [BENCH_psaflow.json] baseline, the
    history keeps every measured run, so the gate compares a fresh
    number against the {e rolling median} of recent runs — one noisy
    datapoint (a loaded CI host, a cold cache) can neither fail the
    gate by itself nor poison the baseline for later runs.

    Quick and full bench runs measure different workload sizes, so each
    datapoint records which kind it was and gating only ever compares
    like with like.  Entries whose commit equals [exclude_commit] are
    ignored while gating, so re-running the gate at one commit never
    compares a measurement against itself.

    The file format is line-oriented on purpose: appends are atomic
    enough under CI (single writer), merges are trivial (concatenate),
    and a corrupt line degrades to a skipped entry, never a lost
    history. *)

(** One benchmark run: where ([commit]), when ([time], epoch seconds),
    at what scale ([quick]), and the flat metric name -> value map. *)
type datapoint = {
  commit : string;
  time : float;
  quick : bool;
  metrics : (string * float) list;
}

let datapoint_to_json (d : datapoint) : Json.t =
  Json.Obj
    [
      ("commit", Json.String d.commit);
      ("time", Json.Float d.time);
      ("quick", Json.Bool d.quick);
      ( "metrics",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) d.metrics) );
    ]

let datapoint_of_json (j : Json.t) : datapoint option =
  let str k = Option.bind (Json.member k j) Json.to_string_opt in
  let num k = Option.bind (Json.member k j) Json.to_float_opt in
  match (str "commit", Json.member "metrics" j) with
  | Some commit, Some (Json.Obj fields) ->
      Some
        {
          commit;
          time = Option.value ~default:0.0 (num "time");
          quick =
            (match Json.member "quick" j with
            | Some (Json.Bool b) -> b
            | _ -> false);
          metrics =
            List.filter_map
              (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float_opt v))
              fields;
        }
  | _ -> None

(** Append one datapoint as a single JSONL line (creates the file). *)
let append ~path (d : datapoint) =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string (datapoint_to_json d));
      output_char oc '\n')

(** Load the history, oldest first.  A missing file is an empty
    history; malformed or alien lines are skipped, not fatal. *)
let load ~path : datapoint list =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | line when String.trim line = "" -> go acc
          | line -> (
              match Json.parse_result line with
              | Ok j -> (
                  match datapoint_of_json j with
                  | Some d -> go (d :: acc)
                  | None -> go acc)
              | Error _ -> go acc)
        in
        go [])
  end

(** Median of a non-empty list ([None] on empty).  Even length takes
    the mean of the middle pair. *)
let median (vs : float list) : float option =
  match List.sort compare vs with
  | [] -> None
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      Some
        (if n mod 2 = 1 then a.(n / 2)
         else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0)

(** How to compare a value against the rolling median: throughput-like
    metrics regress by falling, latency-like metrics by rising. *)
type direction = Higher_better | Lower_better

type verdict =
  | Pass of { value : float; median : float; used : int }
  | Fail of { value : float; median : float; used : int }
  | Skip of string  (** not enough comparable history; the notice says why *)

(** Rolling window length: {!gate} compares against the median of the
    last 5 comparable entries unless given [~k] (minimum 3). *)
let default_k = 5

(** Gate [value] for [metric] against the rolling median of the last
    [k] history entries that ran at the same [quick] scale, carry the
    metric, and are not from [exclude_commit].  With [Higher_better]
    the gate passes iff [value >= factor *. median] (e.g. [factor =
    0.7] allows a 30% dip); with [Lower_better] iff
    [value <= factor *. median] (e.g. [factor = 4.0] allows 4x).
    Fewer than 3 comparable values is a {!Skip}, never a failure: a
    young history cannot block a merge. *)
let gate ?(k = default_k) ?(exclude_commit = "") ~history ~quick ~metric
    ~direction ~factor value : verdict =
  let k = max 3 k in
  let comparable =
    List.filter_map
      (fun (d : datapoint) ->
        if d.quick = quick && d.commit <> exclude_commit then
          List.assoc_opt metric d.metrics
        else None)
      history
  in
  (* last K: history loads oldest-first *)
  let window =
    let n = List.length comparable in
    if n <= k then comparable
    else List.filteri (fun i _ -> i >= n - k) comparable
  in
  let used = List.length window in
  if used < 3 then
    Skip
      (Printf.sprintf
         "only %d comparable history entr%s for %s (need >= 3); measured %g"
         used
         (if used = 1 then "y" else "ies")
         metric value)
  else
    match median window with
    | None -> Skip (Printf.sprintf "no history for %s" metric)
    | Some m ->
        let ok =
          match direction with
          | Higher_better -> value >= factor *. m
          | Lower_better -> value <= factor *. m
        in
        if ok then Pass { value; median = m; used }
        else Fail { value; median = m; used }
