(** Output checks, run after the measured window.  Each returns the
    list of problems it found (empty = pass). *)

module Protocol = Flow_service.Protocol
module Flow_exec = Flow_service.Flow_exec
module Eval = Minic_interp.Eval

let golden_path = Filename.concat "perfbench" "golden_fig5_table1.txt"

(** Fig. 5 and Table I inputs of the five paper benchmarks at their
    registry sizes: the Fig. 3 decision, every design's modelled time,
    speedup, feasibility and added lines of code. *)
let fingerprint () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (app : Benchmarks.Bench_app.t) ->
      let ctx = Benchmarks.Bench_app.context app in
      let outcome = Psa.Std_flow.run_uninformed ctx in
      let reference = ctx.Psa.Context.reference in
      let decision =
        match outcome.contexts with
        | c :: _ -> Psa.Strategy.decision_to_string (Psa.Strategy.fig3_explain c).decision
        | [] -> "none"
      in
      Printf.bprintf buf "%s ref_loc=%d fig3=%s\n" app.id
        (Minic.Loc_count.count_program reference)
        decision;
      List.iter
        (fun (r : Devices.Simulate.result) ->
          Printf.bprintf buf "  %s feasible=%b synthesizable=%b seconds=%.6g speedup=%.4g loc=%s\n"
            r.design.name r.feasible r.design.synthesizable r.seconds r.speedup
            (if r.design.synthesizable then
               Printf.sprintf "%+.2f%%" (Codegen.Design.loc_delta_percent ~reference r.design)
             else "n/a"))
        outcome.results)
    Benchmarks.Registry.all;
  Buffer.contents buf

let read_file path = In_channel.with_open_bin path In_channel.input_all

let golden () =
  match read_file golden_path with
  | exception Sys_error m -> [ "golden fingerprint unreadable: " ^ m ]
  | want ->
      let got = fingerprint () in
      if String.equal want got then []
      else [ "Fig. 5 / Table I fingerprint differs from " ^ golden_path ^ ":\n" ^ got ]

(** The daemon's answer to [sub] against direct execution with the
    stage memo switched off. *)
let memo_off (sub : Protocol.submission) (daemon : Protocol.job_result) =
  Flow_memo.set_globally_enabled false;
  Fun.protect ~finally:(fun () -> Flow_memo.set_globally_enabled true) @@ fun () ->
  match Flow_exec.resolve sub with
  | Error e -> [ "memo-off reference refused: " ^ Protocol.error_message e ]
  | Ok r ->
      if Replay.fingerprint (r.run ~request_id:None ()) = Replay.fingerprint daemon then []
      else [ "daemon result differs from memo-off direct execution" ]

(* Everything a profile observes, in comparable form. *)
let run_fingerprint (r : Eval.run) =
  let p = r.profile in
  let loops =
    Hashtbl.fold
      (fun sid (s : Minic_interp.Profile.loop_stat) acc ->
        (sid, s.invocations, s.iterations, s.min_trip, s.max_trip, s.cycles) :: acc)
      p.loops []
    |> List.sort compare
  in
  ( (p.cycles, p.loads, p.stores, p.flops, p.int_ops, p.sfu_ops),
    (p.bytes_read, p.bytes_written),
    loops,
    p.kernel,
    r.output,
    r.return_value )

(** The production engine's profiles of [src] — whole program, and its
    extracted kernel under focus — against the [Eval.run_ir] walker. *)
let engine_vs_walker src =
  let p = Minic.Parser.parse_program src in
  let same ?focus p =
    run_fingerprint (Eval.run ?focus p)
    = run_fingerprint (Eval.run_ir ?focus (Minic_interp.Resolve.compile p))
  in
  let kernel_ok =
    match Psa.Std_flow.prepare_kernel p with
    | ex, kernel, _ -> same ~focus:kernel ex
    | exception Psa.Std_flow.Flow_error _ -> true
  in
  if same p && kernel_ok then [] else [ "engine profile differs from the run_ir walker" ]
