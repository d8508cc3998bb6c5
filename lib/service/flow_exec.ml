(** Bridge between the service protocol and the flow engine: resolves a
    {!Protocol.submission} into a content-address, a display label and a
    thunk running [Psa.Std_flow] — with MiniC/benchmark problems mapped
    to typed protocol errors at submit time, before anything enqueues.

    Also owns the canonical textual report renderer so the daemon's
    [fetch_result] payload is byte-identical to what the [psaflow run]
    CLI prints for the same flow. *)

type resolved = {
  key : string;  (** {!Store} content address of the execution *)
  label : string;  (** benchmark id, or ["inline"] *)
  run : request_id:string option -> unit -> Protocol.job_result;
      (** executes the flow under a root span carrying [request_id], so
          a request trace names its originating request end-to-end; the
          id never enters [key], so identical work still coalesces *)
}

(* ------------------------------------------------------------------ *)
(* Report rendering (shared with bin/psaflow.ml)                       *)
(* ------------------------------------------------------------------ *)

(** Exactly the bytes [psaflow run] prints after its header line. *)
let render_report (results : Devices.Simulate.result list) : string =
  let table = Format.asprintf "@.%a" Psa.Report.pp_results results in
  let best =
    match Psa.Report.best results with
    | Some b -> Format.asprintf "@.best: %s (%.1fx)@." b.design.name b.speedup
    | None -> Format.asprintf "@.no feasible design@."
  in
  table ^ best

let decision_json (d : Flow_obs.Provenance.decision) : Json.t =
  Json.Obj
    ([
       ("branch", Json.String d.branch);
       ("strategy", Json.String d.strategy);
       ("selected", Json.List (List.map (fun p -> Json.String p) d.selected));
     ]
    @ (match d.reason with
      | Some r -> [ ("reason", Json.String r) ]
      | None -> [])
    @ [
        ( "evidence",
          Json.Obj
            (List.map (fun (k, v) -> (k, Flow_obs.Attr.to_json v)) d.evidence)
        );
      ])

(** The decision provenance of an outcome, as served in the [explain]
    field of job results ([psaflow explain] renders the same records). *)
let decisions_json (outcome : Psa.Std_flow.outcome) : Json.t =
  Json.List
    (List.map decision_json (Psa.Context.collect_decisions outcome.contexts))

let result_json (r : Devices.Simulate.result) : Json.t =
  Json.Obj
    [
      ("name", Json.String r.design.name);
      ( "device",
        Json.String (Devices.Spec.name (Devices.Spec.find r.design.device_id)) );
      ("target", Json.String (Codegen.Design.target_framework r.design.target));
      ("seconds", Flow_obs.Attr.(to_json (Float r.seconds)));
      ("speedup", Flow_obs.Attr.(to_json (Float r.speedup)));
      ("feasible", Json.Bool r.feasible);
      ("synthesizable", Json.Bool r.design.synthesizable);
    ]

let outcome_json ~label (s : Protocol.submission)
    (outcome : Psa.Std_flow.outcome) : Json.t =
  Json.Obj
    [
      ("label", Json.String label);
      ("mode", Json.String (Protocol.mode_to_string s.mode));
      ("strategy", Json.String (Protocol.strategy_to_string s.strategy));
      ("designs", Json.List (List.map result_json outcome.results));
      ( "best",
        match Psa.Report.best outcome.results with
        | Some b -> Json.String b.design.name
        | None -> Json.Null );
      ("log", Json.List (List.map (fun l -> Json.String l) outcome.log));
      ("explain", decisions_json outcome);
    ]

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let objective_of_strategy = function
  | Protocol.Model_perf -> Some Psa.Strategy.Performance
  | Protocol.Model_cost -> Some Psa.Strategy.Monetary_cost
  | Protocol.Model_energy -> Some Psa.Strategy.Energy
  | Protocol.Fig3 -> None

let run_outcome (s : Protocol.submission) (ctx : Psa.Context.t) =
  match (s.mode, objective_of_strategy s.strategy) with
  | Protocol.Uninformed, _ ->
      (* uninformed mode takes every path; the strategy never fires *)
      Psa.Std_flow.run_uninformed ~x_threshold:s.x_threshold ctx
  | Protocol.Informed, None ->
      Psa.Std_flow.run_informed ~x_threshold:s.x_threshold ?budget:s.budget ctx
  | Protocol.Informed, Some objective ->
      Psa.Std_flow.run_flow
        (Psa.Std_flow.flow ~select_a:(Psa.Strategy.model_based ~objective) ())
        { ctx with x_threshold = s.x_threshold; budget = s.budget }

(** Resolve a submission.  Benchmark lookup and inline MiniC
    parsing/typechecking happen here so the errors surface immediately
    as typed responses; the returned [run] thunk only re-executes work
    already known to succeed up to flow level.

    An inline source is digested once: the digest keys the AST memo
    lookup here, the store key, and the job's own AST lookup when it
    starts.  Its typecheck runs once per memoized parse (the verdict
    rides the AST entry), so a repeat costs the digest, one memo lookup
    and the store key. *)
let resolve (s : Protocol.submission) : (resolved, Protocol.error_kind) result =
  let make ~label ~source_digest ~workload (mk_ctx : unit -> Psa.Context.t) =
    let workload = if s.trace then workload ^ ";trace" else workload in
    let key =
      Store.key ~source_digest
        ~mode:(Protocol.mode_to_string s.mode)
        ~strategy:(Protocol.strategy_to_string s.strategy)
        ~x_threshold:s.x_threshold ~budget:s.budget ~workload
    in
    let root_args request_id =
      match request_id with
      | Some r -> [ ("request_id", Flow_obs.Attr.String r) ]
      | None -> []
    in
    let plain_run ~request_id () =
      let outcome =
        Flow_obs.Trace.with_span ~cat:"service" ("job " ^ label)
          ~args:(root_args request_id) (fun () -> run_outcome s (mk_ctx ()))
      in
      {
        Protocol.report = render_report outcome.results;
        data = outcome_json ~label s outcome;
      }
    in
    (* The traced path records the job on its own thread, inside any
       recording already open there (the daemon's request trace), and
       embeds the export in the job result, whose bytes are
       identity-checked against direct re-execution — so the request
       id must NOT appear in its spans (the request-trace record
       carries the id instead). *)
    let traced_run ~request_id:_ () =
      let outcome, spans =
        Flow_obs.Trace.record (fun () ->
            Flow_obs.Trace.with_span ~cat:"service" ("job " ^ label)
              (fun () -> run_outcome s (mk_ctx ())))
      in
      let outcome = Flow_obs.Trace.value outcome in
      let trace = Flow_obs.Trace.export_spans ~normalize:true spans in
      let data =
        match outcome_json ~label s outcome with
        | Json.Obj fields -> Json.Obj (fields @ [ ("trace", trace) ])
        | j -> j
      in
      { Protocol.report = render_report outcome.results; data }
    in
    { key; label; run = (if s.trace then traced_run else plain_run) }
  in
  match s.source with
  | Protocol.Bench id -> (
      match Benchmarks.Registry.find id with
      | app ->
          Ok
            (make ~label:id
               ~source_digest:(Digest.string (app.source ~n:app.profile_n))
               ~workload:
                 (Printf.sprintf "bench;profile=%d;secondary=%d;eval=%d"
                    app.profile_n app.secondary_n app.eval_n)
               (fun () ->
                 Benchmarks.Bench_app.context ~x_threshold:s.x_threshold
                   ?budget:s.budget app))
      | exception Invalid_argument _ -> Error (Protocol.Unknown_benchmark id))
  | Protocol.Inline src -> (
      (* validation and context construction share one memoized parse,
         so a variant submission of the same source skips re-parsing *)
      let digest = Digest.string src in
      let located m loc = Format.asprintf "%s at %a" m Minic.Loc.pp_short loc in
      match Psa.Stage_memo.parsed ~digest src with
      | exception Minic.Lexer.Lex_error (m, loc) ->
          Error (Protocol.Minic_parse_error (located m loc))
      | exception Minic.Parser.Parse_error (m, loc) ->
          Error (Protocol.Minic_parse_error (located m loc))
      | parsed -> (
          match Psa.Stage_memo.typecheck parsed with
          | exception Minic.Typecheck.Type_error (m, loc) ->
              Error (Protocol.Minic_type_error (located m loc))
          | () ->
              Ok
                (make ~label:"inline" ~source_digest:digest ~workload:"inline"
                   (fun () ->
                     let p = Psa.Stage_memo.parsed ~digest src in
                     Psa.Context.make ~benchmark:"inline"
                       ~x_threshold:s.x_threshold ?budget:s.budget
                       ~digest:(Psa.Stage_memo.program_digest p)
                       p.program))))
