(** The traced replay: the daemon leg's submissions, run again one at a
    time in this process with every flow task timed by {!Spans}.

    Each submission goes through the same public calls a daemon job
    makes — [Flow_exec.resolve] at submit, the result-store lookup, the
    flow itself, then [Flow_exec.render_report]/[outcome_json] — except
    that the flow is [Std_flow.flow ()] with every [Flow.Task] wrapped
    by the benchmark's timer.  Dispatch over (mode, strategy) follows
    [Flow_exec.run_outcome]. *)

module Protocol = Flow_service.Protocol
module Flow_exec = Flow_service.Flow_exec
module Store = Flow_service.Store
module Json = Flow_service.Json
module Flow = Psa.Flow

(** The layer a flow task's time is charged to.  Fig. 4's analysis
    tasks split three ways: hotspot detection (its own profiling run),
    the first feature consumer (pointer analysis computes the shared
    feature record, profiling at both sizes), and the rest. *)
let layer_of_task (t : Psa.Task.t) =
  match (t.name, t.classification) with
  | "Identify Hotspot Loops", _ -> "analysis.hotspot"
  | "Pointer Analysis", _ -> "analysis.features"
  | "Evaluate Design", _ -> "devices"
  | _, Psa.Task.Analysis_task -> "analysis.other"
  | _, Psa.Task.Transform -> "transforms"
  | _, Psa.Task.Code_generation -> "codegen"
  | _, Psa.Task.Optimisation -> "dse"

let task_layers =
  [ "analysis.hotspot"; "analysis.features"; "analysis.other"; "transforms"; "codegen"; "dse"; "devices" ]

let rec wrap rec_ ~req ~parent (f : Flow.t) : Flow.t =
  match f with
  | Flow.Task t ->
      let layer = layer_of_task t in
      Flow.Task
        { t with run = (fun ctx -> Spans.record rec_ ~parent ~req ~layer t.name (fun () -> t.run ctx)) }
  | Flow.Seq fs -> Flow.Seq (List.map (wrap rec_ ~req ~parent) fs)
  | Flow.Branch bp ->
      Flow.Branch { bp with paths = List.map (fun (n, f) -> (n, wrap rec_ ~req ~parent f)) bp.paths }

(* [Std_flow.run_informed], over a wrapped flow: Fig. 3 at branch A,
   revised to the untried targets when every outcome is over budget. *)
let informed ~run ~x_threshold ?budget (ctx : Psa.Context.t) =
  let ctx = { ctx with Psa.Context.x_threshold; budget } in
  let outcome = run (Psa.Std_flow.flow ()) ctx in
  match budget with
  | None -> outcome
  | Some b ->
      let over r = Psa.Cost.of_result r > b in
      if outcome.Psa.Std_flow.results <> [] && List.for_all over outcome.results then
        let tried =
          List.map
            (fun (r : Devices.Simulate.result) ->
              match r.design.target with
              | Codegen.Design.Cpu_openmp -> "cpu"
              | Codegen.Design.Gpu_hip -> "gpu"
              | Codegen.Design.Fpga_oneapi -> "fpga")
            outcome.results
        in
        let remaining = List.filter (fun p -> not (List.mem p tried)) [ "cpu"; "gpu"; "fpga" ] in
        let revised =
          run
            (Psa.Std_flow.flow ~select_a:(fun _ -> Flow.Paths remaining) ~label_a:"budget-feedback" ())
            (Psa.Context.log "budget feedback: revising mapping decision" ctx)
        in
        let in_budget = List.filter (fun r -> not (over r)) revised.results in
        {
          revised with
          results = (if in_budget = [] then outcome.results @ revised.results else in_budget);
        }
      else outcome

(** [Flow_exec.run_outcome], with [wrap] applied to every flow run. *)
let run_outcome ~wrap (s : Protocol.submission) (ctx : Psa.Context.t) =
  let run flow ctx = Psa.Std_flow.run_flow (wrap flow) ctx in
  match (s.mode, Flow_exec.objective_of_strategy s.strategy) with
  | Protocol.Uninformed, _ ->
      run (Psa.Std_flow.flow ~select_a:Flow.select_all ()) { ctx with x_threshold = s.x_threshold }
  | Protocol.Informed, None -> informed ~run ~x_threshold:s.x_threshold ?budget:s.budget ctx
  | Protocol.Informed, Some objective ->
      run
        (Psa.Std_flow.flow ~select_a:(Psa.Strategy.model_based ~objective) ())
        { ctx with x_threshold = s.x_threshold; budget = s.budget }

(** The flow context a daemon job builds for an inline submission. *)
let context (s : Protocol.submission) =
  Psa.Context.make ~benchmark:"inline" ~x_threshold:s.x_threshold ?budget:s.budget
    (Psa.Stage_memo.parse (Gen.source s))

(** Result bytes as compared across runs: the report verbatim, the
    structured data with its process-history-dependent statement ids
    ("loop #N") canonicalized. *)
let fingerprint (r : Protocol.job_result) =
  ( Digest.string r.report,
    Digest.string (Flow_load.Runner.canonicalize_sids (Json.to_string r.data)) )

type outcome = {
  designs : int array;  (** designs in each result the replay rendered *)
  at_k : Counters.t;  (** counter deltas over the first [k] submissions *)
  total : Counters.t;  (** counter deltas over every submission *)
  mismatches : string list;  (** submissions whose answer differs from the daemon's *)
  wall_s : float;
}

(** Replay [rqs] in order against a result store configured like the
    daemon's. *)
let run rec_ ~(store : unit Store.t) ~k (rqs : Daemon.rq array) : outcome =
  let designs = Array.make (Array.length rqs) 0 in
  let mismatches = ref [] in
  let mismatch i what = mismatches := Printf.sprintf "submission %d: %s" i what :: !mismatches in
  let c0 = Counters.snapshot () in
  let at_k = ref None in
  let t0 = Unix.gettimeofday () in
  Array.iteri
    (fun i (rq : Daemon.rq) ->
      if i = k then at_k := Some (Counters.diff c0 (Counters.snapshot ()));
      let s = rq.item.Gen.sub in
      let root = Spans.fresh rec_ in
      Spans.record rec_ ~id:root ~parent:(-1) ~req:i ~layer:"request" "request" @@ fun () ->
      match Spans.record rec_ ~parent:root ~req:i ~layer:"minic" "resolve" (fun () -> Flow_exec.resolve s) with
      | Error e -> (
          match rq.error with
          | Some e' when Protocol.error_kind_tag e = Protocol.error_kind_tag e' -> ()
          | _ -> mismatch i ("replay refused it: " ^ Protocol.error_message e))
      | Ok { key; label; _ } -> (
          match Store.find store key with
          | Some () -> ()
          | None ->
              let flow = Spans.fresh rec_ in
              let outcome =
                Spans.record rec_ ~id:flow ~parent:root ~req:i ~layer:"core" "flow" (fun () ->
                    run_outcome ~wrap:(wrap rec_ ~req:i ~parent:flow) s (context s))
              in
              let result =
                Spans.record rec_ ~parent:root ~req:i ~layer:"core" "render" (fun () ->
                    {
                      Protocol.report = Flow_exec.render_report outcome.results;
                      data = Flow_exec.outcome_json ~label s outcome;
                    })
              in
              Store.add store key ();
              designs.(i) <- List.length outcome.results;
              (* the daemon leg keeps whole results for the per-layer
                 prefix only *)
              match rq.result with
              | Some r when fingerprint r <> fingerprint result ->
                  mismatch i "result bytes differ from the daemon's"
              | _ -> ()))
    rqs;
  let wall_s = Unix.gettimeofday () -. t0 in
  let total = Counters.diff c0 (Counters.snapshot ()) in
  {
    designs;
    at_k = (match !at_k with Some c -> c | None -> total);
    total;
    mismatches = List.rev !mismatches;
    wall_s;
  }
